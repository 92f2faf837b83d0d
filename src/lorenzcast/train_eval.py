"""Losses, minibatch sampling, the training loop and RMSE evaluation.

A run is fully determined by its TrainConfig: data generation, scaling,
windowing, initialization, batch order and dropout masks all derive from
the config's seed, so identical configs produce bit-identical histories
and predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import models as model_zoo
from .lorenz import (
    InsufficientData,
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
DEFAULT_WINDOW = {"wavenet": 16, "lstm": 16, "ffn": 5}
INIT_VARIANT = {"wavenet": "he", "lstm": "xavier", "ffn": "xavier"}


@dataclass(frozen=True)
class TrainConfig:
    model: str
    conditional: bool = False
    multitask: bool = False
    target: str = "x"
    task_weights: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.multitask:
            if self.model != "wavenet":
                raise ValueError("multitask heads are a wavenet variant")
            if not self.conditional:
                raise ValueError("the multitask model is conditional")
            if len(self.task_weights) != 3 or any(w <= 0 for w in self.task_weights):
                raise ValueError("need 3 positive task weights")
            if abs(sum(self.task_weights) - 1.0) > 1e-12:
                raise ValueError("task weights must sum to 1")
        if self.model == "ffn" and (self.conditional or self.multitask):
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

    @property
    def layout(self) -> str:
        return "recurrent" if self.model == "lstm" else "conv"


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
                 rng) -> list[np.ndarray]:
    """Index batches for one epoch.

    shuffled: a fresh permutation per call (drawn from rng), short final
    batch kept. adjacent: contiguous in-order blocks, so batch i starts
    right after batch i-1 ends; the training loop carries LSTM state
    between such batches.
    """
    if dataset.n_examples == 0:
        raise EmptyBatch("empty dataset")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
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
    raw = euler_integrate(scenario.init, scenario.params)
    if len(raw) < n_points:
        raise InsufficientData(
            f"scenario generates {len(raw)} points, need {n_points}"
        )
    raw = raw.truncate(n_points)
    scaled = rescale_series_set(raw)
    full = make_windows(
        scaled, config.resolved_window,
        conditional=config.conditional, multitask=config.multitask,
        layout=config.layout, target=config.target,
    )
    train_ds = full.subset(0, config.n_train)
    test_ds = full.subset(config.n_train, n_points)
    return train_ds, test_ds, scaled


def build_model(config: TrainConfig):
    variant = INIT_VARIANT[config.model]
    if config.model == "wavenet":
        wn_config = model_zoo.WaveNetConfig(
            in_channels=3 if config.conditional else 1,
            n_tasks=3 if config.multitask else 1,
            stack_channels=config.resolved_stack_channels,
        )
        return model_zoo.WaveNetModel(
            model_zoo.init_wavenet(wn_config, config.seed, variant)
        )
    if config.model == "lstm":
        return model_zoo.LstmModel(
            model_zoo.init_lstm(
                3 if config.conditional else 1, config.seed,
                dropout_rate=config.dropout, variant=variant,
            )
        )
    return model_zoo.FfnModel(model_zoo.init_ffn(config.seed, variant))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: object
    loss_history: list[float]
    metadata: dict
    train_ds: WindowedDataset = field(repr=False, default=None)
    test_ds: WindowedDataset = field(repr=False, default=None)
    scale: dict = field(repr=False, default=None)


def train(config: TrainConfig) -> TrainResult:
    """Full training run per the config; deterministic given the seed."""
    start = time.perf_counter()
    train_ds, test_ds, scaled = prepare_data(config)
    model = build_model(config)

    theta, grad = model.params.theta, model.params.grad
    adam = AdamState([theta], alpha=config.learning_rate)
    l2_pairs = model.l2_arrays()

    # independent, seed-derived streams for batch order and dropout masks
    batch_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 101]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 202]))

    stateful = config.model == "lstm" and config.sampling == "adjacent"
    history: list[float] = []
    for epoch in range(config.resolved_epochs):
        batches = make_batches(train_ds, config.batch_size, config.sampling,
                               batch_rng)
        carry_h = carry_c = None
        epoch_losses = []
        for b_idx, batch in enumerate(batches):
            inputs = train_ds.batch_inputs(batch)
            targets = train_ds.targets[batch]
            if stateful:
                if carry_h is not None and carry_h.shape[0] != len(batch):
                    carry_h = carry_c = None  # size change: restart from zeros
                preds, cache = model.forward(
                    inputs, training=True, rng=dropout_rng,
                    h0=carry_h, c0=carry_c,
                )
                carry_h, carry_c = model.carry_state(cache)
            else:
                preds, cache = model.forward(inputs, training=True,
                                             rng=dropout_rng)
            if config.multitask:
                loss, d_preds = multitask_loss(preds, targets,
                                               config.task_weights)
            else:
                loss, d_preds = mae_loss(preds, targets)
            if not np.isfinite(loss):
                raise NonFinite(
                    f"training loss diverged at epoch {epoch}, batch {b_idx}"
                )
            zero_grads(model.params)
            model.backward(d_preds, cache)
            if l2_pairs and config.l2_lambda > 0:
                # the optimized objective adds the kernel penalty; the
                # recorded history stays the data term
                weights = [w for w, _ in l2_pairs]
                w_grads = [g for _, g in l2_pairs]
                l2_grad(weights, w_grads, config.l2_lambda)
            adam_step([theta], [grad], adam)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))

    metadata = {
        "model": config.model,
        "conditional": config.conditional,
        "multitask": config.multitask,
        "target": config.target,
        "scenario": config.scenario,
        "seed": config.seed,
        "epochs": config.resolved_epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "sampling": config.sampling,
        "window": config.resolved_window,
        "l2_lambda": config.l2_lambda,
        "dropout": config.dropout,
        "n_train": config.n_train,
        "n_test": config.n_test,
        "stack_channels": config.resolved_stack_channels,
        "task_weights": ",".join(f"{w!r}" for w in config.task_weights),
        "init_variant": INIT_VARIANT[config.model],
        "param_count": model_zoo.param_count(model.params),
        "train_seconds": round(time.perf_counter() - start, 3),
    }
    return TrainResult(model, history, metadata, train_ds, test_ds,
                       scaled.scale)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    model: str
    conditional: bool
    multitask: bool
    scenario: str
    seed: int
    rmse_scaled: dict[str, float]
    rmse_raw: dict[str, float]
    wall_seconds: float

    def rows(self):
        """Report rows matching the CSV schema (one per series)."""
        out = []
        for series in self.rmse_scaled:
            out.append({
                "model": self.model,
                "conditional": self.conditional,
                "multitask": self.multitask,
                "scenario": self.scenario,
                "seed": self.seed,
                "series": series,
                "rmse_scaled": self.rmse_scaled[series],
                "rmse_raw": self.rmse_raw[series],
                "wall_seconds": self.wall_seconds,
            })
        return out


def predict_dataset(model, dataset: WindowedDataset,
                    batch_size: int = 1) -> np.ndarray:
    """One-step-ahead predictions for every example (dropout disabled)."""
    preds = np.empty_like(dataset.targets)
    for i in range(0, dataset.n_examples, batch_size):
        idx = np.arange(i, min(i + batch_size, dataset.n_examples))
        preds[idx] = model.predict(dataset.batch_inputs(idx))
    return preds


def evaluate(model, test_ds: WindowedDataset, scale=None, info=None,
             wall_seconds: float = 0.0) -> EvalReport:
    """Per-series test RMSE with minibatch size one.

    RMSE is computed in the scaled [-0.5, 0.5] space; when the per-series
    ScaleTransforms are supplied, the unscaled-space RMSE is reported
    alongside.
    """
    start = time.perf_counter()
    preds = predict_dataset(model, test_ds, batch_size=1)
    rmse_scaled, rmse_raw = {}, {}
    for j, series in enumerate(test_ds.target_names):
        p, t = preds[:, j], test_ds.targets[:, j]
        rmse_scaled[series] = rmse(p, t)
        if scale is not None:
            tf = scale[series]
            rmse_raw[series] = rmse(tf.invert(p), tf.invert(t))
        else:
            rmse_raw[series] = rmse_scaled[series]
    info = info or {}
    return EvalReport(
        model=info.get("model", getattr(model, "kind", "unknown")),
        conditional=info.get("conditional", False),
        multitask=info.get("multitask", False),
        scenario=info.get("scenario", "?"),
        seed=info.get("seed", -1),
        rmse_scaled=rmse_scaled,
        rmse_raw=rmse_raw,
        wall_seconds=round(wall_seconds + time.perf_counter() - start, 3),
    )


def train_and_evaluate(config: TrainConfig) -> tuple[TrainResult, EvalReport]:
    result = train(config)
    report = evaluate(
        result.model, result.test_ds, scale=result.scale,
        info=result.metadata, wall_seconds=result.metadata["train_seconds"],
    )
    report.seed = config.seed
    return result, report


def aggregate_reports(reports: list[EvalReport]):
    """Per-series mean and std of scaled RMSE over seeds (std needs >= 2)."""
    by_series: dict[str, list[float]] = {}
    for report in reports:
        for series, value in report.rmse_scaled.items():
            by_series.setdefault(series, []).append(value)
    out = {}
    for series, values in by_series.items():
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) >= 2 else None
        out[series] = (mean, std)
    return out
