"""Losses, minibatch sampling, the training loop and RMSE evaluation.

A run is fully determined by its TrainConfig: data generation, scaling,
windowing, initialization, batch order and dropout masks all derive from
the config's seed, so identical configs produce bit-identical histories
and predictions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import models as model_zoo
from .lorenz import (
    LorenzParams,
    LorenzState,
    NonFinite,
    SERIES_NAMES,
    WindowedDataset,
    euler_integrate,
    make_windows,
    rescale_series_set,
)
from .nn_core import zero_grads
from .optim import AdamState, adam_step, l2_grad


class EmptyBatch(ValueError):
    """Loss or metric asked for on zero examples."""


class WeightMismatch(ValueError):
    """Task-weight count does not match the number of tasks."""


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """A Lorenz parameterization plus initial state."""

    name: str
    params: LorenzParams
    init: LorenzState


SCENARIOS: dict[str, Scenario] = {
    "A": Scenario("A", LorenzParams(sigma=5.0, rho=20.0, beta=2.0),
                  LorenzState(0.0, 1.0, 1.0)),
    "B": Scenario("B", LorenzParams(sigma=10.0, rho=28.0, beta=8.0 / 3.0),
                  LorenzState(0.0, 1.0, 1.05)),
}


# ---------------------------------------------------------------------------
# configuration

DEFAULT_EPOCHS = {"wavenet": 100, "lstm": 30, "ffn": 100}
# the wavenet and ffn windows are fixed; only the lstm's is free
DEFAULT_WINDOW = {"wavenet": model_zoo.RECEPTIVE_FIELD, "lstm": 16,
                  "ffn": model_zoo.FfnParams.WINDOW}
EQUAL_TASK_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)


@dataclass(frozen=True)
class TrainConfig:
    model: str
    conditional: bool = False
    multitask: bool = False
    target: str = "x"
    task_weights: tuple[float, ...] = EQUAL_TASK_WEIGHTS
    scenario: str = "A"
    seed: int = 1234
    epochs: int | None = None        # None -> per-model default
    batch_size: int = 32
    learning_rate: float = 1e-3
    sampling: str = "shuffled"       # shuffled | adjacent
    window: int | None = None        # None -> per-model default
    l2_lambda: float = 1e-3          # applied to conv kernels only
    dropout: float = 0.10            # lstm hidden-state dropout
    n_train: int = 1000
    n_test: int = 500
    stack_channels: int | None = None  # None -> 3 when conditional wavenet, else 1

    def __post_init__(self):
        if self.model not in DEFAULT_EPOCHS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.target not in SERIES_NAMES:
            raise ValueError(f"unknown target series {self.target!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.sampling not in ("shuffled", "adjacent"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if not 0 <= self.l2_lambda < math.inf:
            raise ValueError("l2_lambda must be finite and >= 0")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.model != "lstm" and self.dropout != TrainConfig.dropout:
            raise ValueError("dropout applies to the lstm only")
        if self.model != "wavenet" and self.l2_lambda != TrainConfig.l2_lambda:
            raise ValueError("l2_lambda applies to the wavenet's conv kernels only")
        if not all(map(math.isfinite, self.task_weights)):
            raise ValueError("task weights must be finite")
        if not self.multitask and self.task_weights != EQUAL_TASK_WEIGHTS:
            raise ValueError("task_weights apply to the multitask model only")
        if self.resolved_window < 1:
            raise ValueError("window must be >= 1")
        if self.model != "lstm" and self.resolved_window != DEFAULT_WINDOW[self.model]:
            raise ValueError(f"{self.model} window must be {DEFAULT_WINDOW[self.model]}")
        if self.stack_channels is not None:
            if self.model != "wavenet":
                raise ValueError("stack_channels sets the wavenet stack's width")
            if self.stack_channels < 1:
                raise ValueError("stack_channels must be >= 1")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        n_points = SCENARIOS[self.scenario].params.n_steps + 1
        if self.n_train + self.n_test > n_points:
            raise ValueError(f"n_train + n_test must be <= the {n_points} "
                             f"points scenario {self.scenario} generates")
        if self.resolved_window > n_points:  # a longer one reads only padding
            raise ValueError(f"window must be <= the {n_points} points "
                             f"scenario {self.scenario} generates")
        if self.multitask:
            if self.model != "wavenet":
                raise ValueError("multitask heads are a wavenet variant")
            if not self.conditional:
                raise ValueError("the multitask model is conditional")
            if len(self.task_weights) != 3 or any(w <= 0 for w in self.task_weights):
                raise ValueError("need 3 positive task weights")
            if abs(sum(self.task_weights) - 1.0) > 1e-12:
                raise ValueError("task weights must sum to 1")
        if self.model == "ffn" and self.conditional:
            raise ValueError("the feed-forward baseline is unconditional only")

    @property
    def resolved_epochs(self) -> int:
        return DEFAULT_EPOCHS[self.model] if self.epochs is None else self.epochs

    @property
    def resolved_window(self) -> int:
        return DEFAULT_WINDOW[self.model] if self.window is None else self.window

    @property
    def resolved_stack_channels(self) -> int:
        if self.stack_channels is not None:
            return self.stack_channels
        # the conditional stack carries all three series through every layer
        return 3 if (self.model == "wavenet" and self.conditional) else 1


# ---------------------------------------------------------------------------
# the results grid

# cell label -> (TrainConfig kwargs, targets), one entry per results-table
# cell. A target of None is one multitask run covering all three series.
RESULTS_GRID: dict[str, tuple[dict, tuple]] = {
    **{f"{model}-{kind}-{scenario}": (
        dict(model=model, conditional=kind == "conditional", scenario=scenario),
        SERIES_NAMES)
       for scenario in ("A", "B")
       for model in ("wavenet", "lstm")
       for kind in ("unconditional", "conditional")},
    # the tuned multitask cell: z-weighted joint loss, 150 epochs
    "wavenet-multitask-A": (
        dict(model="wavenet", conditional=True, multitask=True,
             task_weights=(0.2, 0.2, 0.6), epochs=150, scenario="A"),
        (None,)),
    "lstm-unconditional-adjacent-A": (
        dict(model="lstm", sampling="adjacent", scenario="A"), SERIES_NAMES),
    "ffn-baseline-A": (dict(model="ffn", scenario="A"), SERIES_NAMES),
}


def cell_config(cell: str, seed: int, target: str | None) -> TrainConfig:
    """The config of one run of a results-grid cell."""
    kwargs = dict(RESULTS_GRID[cell][0], seed=seed)
    if target is not None:
        kwargs["target"] = target
    return TrainConfig(**kwargs)


def grid_jobs(seeds) -> list[tuple[str, TrainConfig]]:
    """(cell, config) for every run of the grid, cell by cell."""
    return [(cell, cell_config(cell, seed, target))
            for cell, (_, targets) in RESULTS_GRID.items()
            for seed in seeds for target in targets]


# ---------------------------------------------------------------------------
# losses and metric


def mae_loss(predictions: np.ndarray, targets: np.ndarray):
    """Mean absolute error and its subgradient w.r.t. the predictions.

    sign(0) is taken as 0, so perfect predictions get zero gradient.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"shapes differ: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise EmptyBatch("no examples")
    diff = predictions - targets
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def multitask_loss(predictions: np.ndarray, targets: np.ndarray,
                   weights: tuple[float, ...]):
    """Weighted sum of per-task MAE values over (batch, n_tasks) arrays."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 2:
        raise ValueError(f"shapes differ: {predictions.shape} vs {targets.shape}")
    if predictions.shape[0] == 0:
        raise EmptyBatch("no examples")
    if len(weights) != predictions.shape[1]:
        raise WeightMismatch(
            f"{len(weights)} weights for {predictions.shape[1]} tasks"
        )
    diff = predictions - targets
    n = predictions.shape[0]
    per_task = np.abs(diff).mean(axis=0)
    loss = float(np.dot(weights, per_task))
    grad = np.sign(diff) * (np.asarray(weights) / n)
    return loss, grad


def rmse(predictions: np.ndarray, truths: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValueError(f"shapes differ: {predictions.shape} vs {truths.shape}")
    if predictions.size == 0:
        raise EmptyBatch("no examples")
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


# ---------------------------------------------------------------------------
# minibatch sampling


def make_batches(dataset: WindowedDataset, batch_size: int, mode: str,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Index batches for one epoch.

    shuffled: a fresh permutation per call (drawn from rng), short final
    batch kept. adjacent: contiguous in-order blocks, so batch i starts
    right after batch i-1 ends; the training loop carries LSTM state
    between such batches.
    """
    if dataset.n_examples == 0:
        raise EmptyBatch("empty dataset")
    if mode == "shuffled":
        order = rng.permutation(dataset.n_examples)
    elif mode == "adjacent":
        order = np.arange(dataset.n_examples)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


# ---------------------------------------------------------------------------
# data preparation


def prepare_data(config: TrainConfig):
    """Generate, rescale, window and split one scenario.

    The full generated series is rescaled as a whole, windowed once, and
    only then split by example index. Zero padding therefore appears only
    at the very start of the series; the first test windows read real
    history from the train tail, and no window ever reaches indices at or
    past its own target.
    """
    scenario = SCENARIOS[config.scenario]
    n_points = config.n_train + config.n_test
    # TrainConfig has checked that the scenario generates n_points
    raw = euler_integrate(scenario.init, scenario.params).truncate(n_points)
    scaled = rescale_series_set(raw)
    full = make_windows(
        scaled, config.resolved_window,
        conditional=config.conditional, multitask=config.multitask,
        target=config.target,
    )
    train_ds = full.subset(0, config.n_train)
    test_ds = full.subset(config.n_train, n_points)
    return train_ds, test_ds, scaled


def build_model(config: TrainConfig):
    if config.model == "wavenet":
        wn_config = model_zoo.WaveNetConfig(
            in_channels=3 if config.conditional else 1,
            n_tasks=3 if config.multitask else 1,
            stack_channels=config.resolved_stack_channels,
        )
        return model_zoo.WaveNetModel(
            model_zoo.init_wavenet(wn_config, config.seed)
        )
    if config.model == "lstm":
        return model_zoo.LstmModel(
            model_zoo.init_lstm(
                3 if config.conditional else 1, config.seed,
                dropout_rate=config.dropout,
            )
        )
    return model_zoo.FfnModel(model_zoo.init_ffn(config.seed))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: object
    loss_history: list[float]
    train_seconds: float
    test_ds: WindowedDataset = field(repr=False)
    scale: dict = field(repr=False)


def train(config: TrainConfig) -> TrainResult:
    """Full training run per the config; deterministic given the seed."""
    start = time.perf_counter()
    train_ds, test_ds, scaled = prepare_data(config)
    model = build_model(config)

    theta, grad = model.params.theta, model.params.grad
    adam = AdamState([theta], alpha=config.learning_rate)
    # the optimized objective adds the penalty on the conv kernels; the
    # recorded history stays the data term
    kernels, kernel_grads = model.params.conv_kernels()
    penalized = bool(kernels) and config.l2_lambda > 0

    # independent, seed-derived streams for batch order and dropout masks
    batch_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 101]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 202]))

    # a single-task run is the one-task case of the weighted loss
    weights = config.task_weights if config.multitask else (1.0,)
    # adjacent-sampling LSTM runs carry (h, c) from each batch into the next
    stateful = config.model == "lstm" and config.sampling == "adjacent"
    history: list[float] = []
    for epoch in range(config.resolved_epochs):
        batches = make_batches(train_ds, config.batch_size, config.sampling,
                               batch_rng)
        carry = {}
        epoch_losses = []
        for b_idx, batch in enumerate(batches):
            if carry and len(carry["h0"]) != len(batch):
                carry = {}  # size change: restart from zeros
            preds, cache = model.forward(train_ds.inputs[batch], training=True,
                                         rng=dropout_rng, **carry)
            if stateful:
                carry = dict(zip(("h0", "c0"), model.carry_state(cache)))
            loss, d_preds = multitask_loss(preds, train_ds.targets[batch],
                                           weights)
            if not np.isfinite(loss):
                raise NonFinite(
                    f"training loss diverged at epoch {epoch}, batch {b_idx}"
                )
            zero_grads(model.params)
            model.backward(d_preds, cache)
            if penalized:
                l2_grad(kernels, kernel_grads, config.l2_lambda)
            adam_step([theta], [grad], adam)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))

    return TrainResult(model, history, time.perf_counter() - start,
                       test_ds, scaled.scale)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    rmse_scaled: dict[str, float]
    rmse_raw: dict[str, float]
    wall_seconds: float


def predict_dataset(model, dataset: WindowedDataset) -> np.ndarray:
    """One-step-ahead predictions for every example, one example per
    forward pass (minibatch size one, dropout disabled)."""
    preds = np.empty_like(dataset.targets)
    for i in range(dataset.n_examples):
        preds[i] = model.predict(dataset.inputs[i:i + 1])[0]
    return preds


def evaluate(model, test_ds: WindowedDataset, scale: dict) -> EvalReport:
    """Per-series test RMSE with minibatch size one, and its wall time.

    rmse_scaled is taken in the scaled [-0.5, 0.5] space; rmse_raw in the
    original space, after mapping both sides back through the series'
    ScaleTransform in `scale` (series name -> transform).
    """
    start = time.perf_counter()
    preds = predict_dataset(model, test_ds)
    rmse_scaled, rmse_raw = {}, {}
    for j, series in enumerate(test_ds.target_names):
        p, t, tf = preds[:, j], test_ds.targets[:, j], scale[series]
        rmse_scaled[series] = rmse(p, t)
        rmse_raw[series] = rmse(tf.invert(p), tf.invert(t))
    return EvalReport(rmse_scaled, rmse_raw, time.perf_counter() - start)


def train_and_evaluate(config: TrainConfig) -> tuple[TrainResult, EvalReport]:
    """Train, then evaluate; the report's wall time covers both."""
    result = train(config)
    report = evaluate(result.model, result.test_ds, result.scale)
    report.wall_seconds += result.train_seconds
    return result, report

