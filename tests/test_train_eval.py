import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzcast import cli
from lorenzcast.nn_core import named_parameters
from lorenzcast.optim import AdamState, adam_step
from lorenzcast.train_eval import (
    EmptyBatch,
    RESULTS_GRID,
    SCENARIOS,
    TrainConfig,
    WeightMismatch,
    build_model,
    cell_config,
    evaluate,
    grid_jobs,
    mae_loss,
    make_batches,
    multitask_loss,
    prepare_data,
    rmse,
    train,
)


# ---------------------------------------------------------------------------
# losses


def test_mae_perfect_predictions():
    loss, grad = mae_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(2))  # sign(0) = 0


def test_mae_hand_value_and_gradient():
    loss, grad = mae_loss(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
    assert loss == 1.5
    assert np.array_equal(grad, [0.5, -0.5])


def test_mae_empty_batch():
    with pytest.raises(EmptyBatch):
        mae_loss(np.zeros(0), np.zeros(0))


def test_mae_gradient_finite_differences():
    rng = np.random.default_rng(0)
    preds = rng.normal(size=6)
    targets = preds + rng.choice([-1.0, 1.0], size=6) * rng.uniform(0.2, 1.0, size=6)
    _, grad = mae_loss(preds, targets)
    eps = 1e-6
    for i in range(6):
        bumped = preds.copy()
        bumped[i] += eps
        lp, _ = mae_loss(bumped, targets)
        bumped[i] -= 2 * eps
        lm, _ = mae_loss(bumped, targets)
        numeric = (lp - lm) / (2 * eps)
        assert abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-12) < 1e-6


def test_multitask_weighted_mean():
    targets = np.zeros((4, 3))
    preds = np.column_stack([np.full(4, 0.3), np.full(4, 0.6), np.full(4, 0.9)])
    loss, _ = multitask_loss(preds, targets, (1 / 3, 1 / 3, 1 / 3))
    assert abs(loss - 0.6) < 1e-15


def test_multitask_single_weight_selects_task():
    rng = np.random.default_rng(1)
    preds = rng.normal(size=(5, 3))
    targets = rng.normal(size=(5, 3))
    loss, _ = multitask_loss(preds, targets, (1.0, 0.0, 0.0))
    expected, _ = mae_loss(preds[:, 0], targets[:, 0])
    assert abs(loss - expected) < 1e-15


def test_multitask_perfect_zero():
    preds = np.ones((3, 3))
    loss, grad = multitask_loss(preds, preds.copy(), (1 / 3, 1 / 3, 1 / 3))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((3, 3)))


def test_multitask_weight_mismatch():
    with pytest.raises(WeightMismatch):
        multitask_loss(np.zeros((2, 3)), np.zeros((2, 3)), (0.5, 0.5))


def test_multitask_weight_scaling():
    # scaling all weights by c scales loss and gradients by c, and the sign
    # pattern of one Adam step is unchanged
    rng = np.random.default_rng(2)
    preds = rng.normal(size=(6, 3))
    targets = rng.normal(size=(6, 3))
    w = (0.2, 0.3, 0.5)
    c = 7.0
    loss1, grad1 = multitask_loss(preds, targets, w)
    loss2, grad2 = multitask_loss(preds, targets, tuple(c * v for v in w))
    assert abs(loss2 - c * loss1) < 1e-12
    assert np.max(np.abs(grad2 - c * grad1)) < 1e-12

    steps = []
    for grad in (grad1, grad2):
        p = [np.zeros((6, 3))]
        adam_step(p, [grad.copy()], AdamState(p, alpha=1e-3))
        steps.append(p[0])
    assert np.array_equal(np.sign(steps[0]), np.sign(steps[1]))
    nonzero = np.abs(steps[0]) > 0
    ratio = steps[1][nonzero] / steps[0][nonzero]
    assert np.max(np.abs(ratio - 1.0)) < 1e-6  # first Adam step is scale-free


def test_rmse_examples():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([1.0, 3.0]), np.array([0.0, 4.0])) == 1.0
    assert rmse(np.array([2.0]), np.array([0.0])) == 2.0
    with pytest.raises(EmptyBatch):
        rmse(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# batching


def _dataset(n):
    from lorenzcast.lorenz import SeriesSet, make_windows
    t = np.linspace(0.0, 1.0, n)
    return make_windows(SeriesSet(t, t, t), window=4)


def test_make_batches_shuffled_paper_sizes():
    ds = _dataset(1000)
    batches = make_batches(ds, 32, "shuffled", np.random.default_rng(0))
    assert len(batches) == 32  # 31 full + one of 8
    assert [len(b) for b in batches[:-1]] == [32] * 31
    assert len(batches[-1]) == 8
    seen = np.concatenate(batches)
    assert np.array_equal(np.sort(seen), np.arange(1000))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 300), batch=st.integers(1, 64), seed=st.integers(0, 99))
def test_make_batches_shuffled_exact_coverage(n, batch, seed):
    ds = _dataset(300).subset(0, n)
    batches = make_batches(ds, batch, "shuffled", np.random.default_rng(seed))
    seen = np.concatenate(batches)
    assert np.array_equal(np.sort(seen), np.arange(n))


def test_make_batches_adjacent_contiguous():
    ds = _dataset(100)
    batches = make_batches(ds, 32, "adjacent", np.random.default_rng(0))
    for prev, cur in zip(batches, batches[1:]):
        assert cur[0] == prev[-1] + 1
    assert np.array_equal(np.concatenate(batches), np.arange(100))


def test_make_batches_seed_determinism():
    ds = _dataset(100)
    a = make_batches(ds, 16, "shuffled", np.random.default_rng(42))
    b = make_batches(ds, 16, "shuffled", np.random.default_rng(42))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_make_batches_fresh_permutation_per_epoch():
    ds = _dataset(100)
    rng = np.random.default_rng(0)
    first = make_batches(ds, 100, "shuffled", rng)
    second = make_batches(ds, 100, "shuffled", rng)
    assert not np.array_equal(first[0], second[0])


# ---------------------------------------------------------------------------
# data preparation


def test_prepare_data_no_look_ahead_and_real_test_history():
    config = TrainConfig(model="wavenet", conditional=True, target="x")
    train_ds, test_ds, scaled = prepare_data(config)
    assert train_ds.n_examples == 1000
    assert test_ds.n_examples == 500
    # first train window is all zero padding
    assert np.array_equal(train_ds.inputs[0], np.zeros((3, 16)))
    # test window i targets absolute index 1000 + i and reads the 16 real
    # values before it (train tail for the earliest windows)
    for i in (0, 3, 499):
        t = 1000 + i
        for c, name in enumerate(("x", "y", "z")):
            expected = scaled.series(name)[t - 16:t]
            assert np.array_equal(test_ds.inputs[i, c], expected)
        assert test_ds.targets[i, 0] == scaled.series("x")[t]


@pytest.mark.parametrize("case", list(cli.GRAD_CHECK_CASES))
def test_every_family_reads_the_dataset_layout(case):
    # a batch of the dataset's (batch, channels, window) inputs goes into
    # every model as it is, and the input gradient comes back in that shape
    config, _ = cli.GRAD_CHECK_CASES[case]
    train_ds, _, _ = prepare_data(config)
    model = build_model(config)
    inputs = train_ds.inputs[:4]
    preds, cache = model.forward(inputs)
    assert preds.shape == (4, 3 if config.multitask else 1)
    assert model.backward(np.ones_like(preds), cache).shape == inputs.shape


def test_prepare_data_scaled_range():
    config = TrainConfig(model="lstm", target="y")
    _, _, scaled = prepare_data(config)
    for name in ("x", "y", "z"):
        values = scaled.series(name)
        assert values.min() == -0.5 and values.max() == 0.5
        assert len(values) == 1500


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(model="transformer")
    with pytest.raises(ValueError):
        TrainConfig(model="ffn", conditional=True)
    for model in ("lstm", "ffn"):
        with pytest.raises(ValueError, match="multitask heads are a wavenet variant"):
            TrainConfig(model=model, multitask=True, conditional=True)
    with pytest.raises(ValueError):
        TrainConfig(model="wavenet", multitask=True)  # multitask is conditional
    with pytest.raises(ValueError):
        TrainConfig(model="wavenet", conditional=True, multitask=True,
                    task_weights=(0.5, 0.4, 0.2))  # does not sum to 1
    with pytest.raises(ValueError):
        TrainConfig(model="wavenet", batch_size=0)
    for model in ("lstm", "ffn"):  # no stack to widen
        with pytest.raises(ValueError, match="stack_channels"):
            TrainConfig(model=model, stack_channels=1)
    for model in ("wavenet", "lstm", "ffn"):  # one loss, nothing to weigh
        with pytest.raises(ValueError, match="task_weights"):
            TrainConfig(model=model, task_weights=(0.2, 0.2, 0.6))
    for model in ("wavenet", "lstm", "ffn"):
        for bad in (dict(window=0), dict(window=-2), dict(l2_lambda=-1e-3),
                    dict(seed=-1), dict(epochs=-3)):
            with pytest.raises(ValueError):
                TrainConfig(model=model, **bad)
    # settings the run would never read
    for model in ("wavenet", "ffn"):  # no hidden state to drop out
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(model=model, dropout=0.9)
    for model in ("lstm", "ffn"):  # no conv kernel to penalize
        with pytest.raises(ValueError, match="l2_lambda"):
            TrainConfig(model=model, l2_lambda=7.5)
    for window in (15, 17, 24):  # the stack reads its 16-step receptive field
        with pytest.raises(ValueError, match="window"):
            TrainConfig(model="wavenet", window=window)
    # zero epochs is an untrained model; the defaults of unread settings pass
    TrainConfig(model="ffn", epochs=0, dropout=0.1, l2_lambda=1e-3)
    TrainConfig(model="wavenet", window=16, l2_lambda=0.0)
    TrainConfig(model="lstm", dropout=0.0, window=24)


def test_conditional_wavenet_default_stack():
    assert TrainConfig(model="wavenet").resolved_stack_channels == 1
    assert TrainConfig(model="wavenet", conditional=True).resolved_stack_channels == 3
    assert TrainConfig(model="lstm", conditional=True).resolved_stack_channels == 1
    explicit = TrainConfig(model="wavenet", conditional=True, stack_channels=1)
    assert explicit.resolved_stack_channels == 1


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_epochs_returns_initialized_model():
    config = TrainConfig(model="ffn", epochs=0, seed=5)
    result = train(config)
    assert result.loss_history == []
    fresh = build_model(config)
    for (_, a, _), (_, b, _) in zip(named_parameters(result.model.params),
                                    named_parameters(fresh.params)):
        assert np.array_equal(a, b)


def test_train_deterministic_given_seed():
    config = TrainConfig(model="wavenet", target="x", epochs=3, seed=11)
    r1 = train(config)
    r2 = train(config)
    assert r1.loss_history == r2.loss_history
    for (_, a, _), (_, b, _) in zip(named_parameters(r1.model.params),
                                    named_parameters(r2.model.params)):
        assert np.array_equal(a, b)


def test_train_lstm_adjacent_runs_and_differs_from_shuffled():
    base = dict(model="lstm", target="x", epochs=2, seed=3)
    adj = train(TrainConfig(sampling="adjacent", **base))
    shuf = train(TrainConfig(sampling="shuffled", **base))
    assert adj.loss_history != shuf.loss_history


def test_train_unconditional_wavenet_loss_decreases():
    config = TrainConfig(model="wavenet", target="x", seed=1234)
    result = train(config)
    assert result.loss_history[-1] < result.loss_history[0]


# ---------------------------------------------------------------------------
# evaluation


class _OracleModel:
    """Returns the true targets; tracks position across batch-size-1 calls."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.cursor = 0

    def predict(self, batch):
        count = batch.shape[0]
        out = self.dataset.targets[self.cursor:self.cursor + count]
        self.cursor += count
        return out


class _ZeroModel:
    def __init__(self, n_tasks):
        self.n_tasks = n_tasks

    def predict(self, batch):
        return np.zeros((batch.shape[0], self.n_tasks))


def test_evaluate_perfect_oracle_zero_rmse():
    config = TrainConfig(model="wavenet", target="x")
    _, test_ds, scaled = prepare_data(config)
    report = evaluate(_OracleModel(test_ds), test_ds, scaled.scale)
    assert report.rmse_scaled["x"] == 0.0
    assert report.rmse_raw["x"] == 0.0


def test_evaluate_zero_model_matches_target_rms():
    config = TrainConfig(model="wavenet", target="x")
    _, test_ds, scaled = prepare_data(config)
    report = evaluate(_ZeroModel(1), test_ds, scaled.scale)
    expected = float(np.sqrt(np.mean(test_ds.targets[:, 0] ** 2)))
    assert abs(report.rmse_scaled["x"] - expected) < 1e-15


def test_results_grid_pins_the_tuned_multitask_cell():
    assert len(RESULTS_GRID) == 11
    assert len(grid_jobs([1234])) == 31
    assert len(grid_jobs([1234, 1235, 42])) == 93
    multitask = [cell for cell, (kwargs, _) in RESULTS_GRID.items()
                 if kwargs.get("multitask")]
    assert multitask == ["wavenet-multitask-A"]
    assert RESULTS_GRID["wavenet-multitask-A"][1] == (None,)
    for seed in (1234, 1235, 42):
        assert cell_config("wavenet-multitask-A", seed, None) == TrainConfig(
            model="wavenet", conditional=True, multitask=True,
            task_weights=(0.2, 0.2, 0.6), epochs=150, seed=seed)


def test_scenarios_registry():
    assert SCENARIOS["A"].params.sigma == 5.0
    assert SCENARIOS["B"].params.beta == pytest.approx(8.0 / 3.0)
    assert SCENARIOS["B"].init.z == 1.05
