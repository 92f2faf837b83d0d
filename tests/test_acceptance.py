"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible with pytest -s).
The results criteria train cells of train_eval.RESULTS_GRID, the grid that
`lorenzcast reproduce` runs. Trained cells are cached per config, so the
full gate runs each training once. Expect a few minutes of wall time for
the results criteria.
"""

import functools
import math
import time

import numpy as np

from lorenzcast import cli
from lorenzcast import models as mz
from lorenzcast.lorenz import (
    LorenzParams,
    LorenzState,
    SeriesSet,
    euler_integrate,
    lorenz_derivative,
    make_windows,
)
from lorenzcast.nn_core import conv1d_forward, named_parameters
from lorenzcast.train_eval import (
    TrainConfig,
    cell_config,
    make_batches,
    prepare_data,
    train_and_evaluate,
)

SEEDS = (1234, 1235, 42)
_WALLS: list[float] = []  # wall seconds of every trained cell in this session


def _line(criterion, ok, detail):
    print(f"[{criterion} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def _report(config: TrainConfig):
    _, report = train_and_evaluate(config)
    _WALLS.append(report.wall_seconds)
    return report


def _best_over_seeds(cell, series):
    values = {}
    for seed in SEEDS:
        report = _report(cell_config(cell, seed, series))
        values[seed] = report.rmse_scaled[series]
    return min(values.values()), values


# ---------------------------------------------------------------------------
# criterion 1: integrator exactness


def test_criterion_1_integrator_exactness():
    params = LorenzParams(sigma=5.0, rho=20.0, beta=2.0, dt=0.01, n_steps=1)
    series = euler_integrate(LorenzState(0.0, 1.0, 1.0), params)
    step_err = max(abs(series.x[1] - 0.05), abs(series.y[1] - 0.99),
                   abs(series.z[1] - 0.98))
    fp_norms = []
    for sign in (1.0, -1.0):
        w = sign * math.sqrt(params.beta * (params.rho - 1.0))
        d = lorenz_derivative(LorenzState(w, w, params.rho - 1.0), params)
        fp_norms.append(math.sqrt(d.x**2 + d.y**2 + d.z**2))
    ok = step_err < 1e-12 and max(fp_norms) < 1e-12
    _line("C1", ok,
          f"euler step err={step_err:.2e}, fixed-point norms={max(fp_norms):.2e}")


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity


def test_criterion_2_gradient_fidelity():
    started = time.perf_counter()
    worst = {}
    for case, (_, threshold) in cli.GRAD_CHECK_CASES.items():
        error, _ = cli._grad_check_case(case, seed=7)
        worst[case] = (error, threshold)
    elapsed = time.perf_counter() - started
    ok = all(err < thr for err, thr in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{case}={err:.1e}" for case, (err, _) in worst.items())
    _line("C2", ok, f"{detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: parameter counts


def test_criterion_3_parameter_counts():
    lstm = mz.param_count(mz.LstmModelParams(1))
    ffn = mz.param_count(mz.FfnParams())
    wavenet = mz.param_count(mz.WaveNetParams(mz.WaveNetConfig()))
    ok = lstm == 2726 and ffn == 22 and wavenet == 24
    _line("C3", ok,
          f"lstm={lstm} (expect 2726), ffn={ffn} (expect 22), wavenet={wavenet} "
          "(faithful single-channel count; the reference table lists 32 — "
          "known discrepancy, see README)")


# ---------------------------------------------------------------------------
# criterion 4: results-table reproduction at desk scale


def test_criterion_4a_unconditional_wavenet_x():
    best, values = _best_over_seeds("wavenet-unconditional-A", "x")
    _line("C4a", best <= 0.015,
          f"unconditional wavenet A x best={best:.5f} <= 0.015 ({values})")


def test_criterion_4b_conditional_wavenet_scenario_a():
    bounds = {"x": 0.005, "y": 0.03, "z": 0.02}
    bests = {}
    ok = True
    for series, bound in bounds.items():
        best, _ = _best_over_seeds("wavenet-conditional-A", series)
        bests[series] = best
        ok &= best <= bound
    _line("C4b", ok,
          "conditional wavenet A best " +
          ", ".join(f"{s}={bests[s]:.5f} (<= {bounds[s]})" for s in bounds))


def test_criterion_4c_conditional_lstm_scenario_a():
    bests = {}
    ok = True
    for series in ("x", "y", "z"):
        best, _ = _best_over_seeds("lstm-conditional-A", series)
        bests[series] = best
        ok &= best <= 0.01
    _line("C4c", ok,
          "conditional lstm A best " +
          ", ".join(f"{s}={v:.5f}" for s, v in bests.items()) + " (each <= 0.01)")


def test_criterion_4d_scenario_b_conditional_models():
    ok = True
    details = []
    for model in ("wavenet", "lstm"):
        for series in ("x", "y", "z"):
            best, _ = _best_over_seeds(f"{model}-conditional-B", series)
            ok &= best <= 0.04
            details.append(f"{model}-{series}={best:.5f}")
    _line("C4d", ok, "scenario B best " + ", ".join(details) + " (each <= 0.04)")


def test_criterion_4e_multitask_beats_conditional_z():
    wins = 0
    details = []
    for seed in SEEDS:
        multi = _report(cell_config("wavenet-multitask-A", seed, None))
        single = _report(cell_config("wavenet-conditional-A", seed, "z"))
        m, s = multi.rmse_scaled["z"], single.rmse_scaled["z"]
        wins += m < s
        details.append(f"seed {seed}: {m:.5f} vs {s:.5f}")
    _line("C4e", wins >= 2,
          f"multitask z strictly below conditional z in {wins}/3 seeds "
          f"({'; '.join(details)})")


def test_criterion_4f_ffn_baseline():
    ffn_bests = {}
    for series in ("x", "y", "z"):
        ffn_bests[series], _ = _best_over_seeds("ffn-baseline-A", series)
    ffn_avg = float(np.mean(list(ffn_bests.values())))

    def deep_avg(model):
        vals = [_best_over_seeds(f"{model}-conditional-A", s)[0]
                for s in ("x", "y", "z")]
        return float(np.mean(vals))

    wavenet_avg = deep_avg("wavenet")
    lstm_avg = deep_avg("lstm")
    ok = ffn_avg <= 0.15 and ffn_avg > wavenet_avg and ffn_avg > lstm_avg
    _line("C4f", ok,
          f"ffn avg={ffn_avg:.5f} (<= 0.15), wavenet avg={wavenet_avg:.5f}, "
          f"lstm avg={lstm_avg:.5f} (ffn strictly worse than both)")


def test_criterion_4g_cell_runtime():
    # every cell trained for the criteria above must finish inside 3 minutes;
    # the grid's longest-trained cell (150 epochs) is requested first, so C4g
    # also runs alone (after the criteria above it is cached and trains nothing)
    _report(cell_config("wavenet-multitask-A", SEEDS[0], None))
    ok = max(_WALLS) < 180.0
    _line("C4g", ok,
          f"max observed cell wall time {max(_WALLS):.1f}s < 180s "
          f"over {len(_WALLS)} runs")


# ---------------------------------------------------------------------------
# criterion 5: determinism


def test_criterion_5_determinism(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli.main(["train", "--model", "wavenet", "--target", "x",
                         "--seed", "1234", "--out", str(out)])
        assert code == 0
        with open(out / "predictions_x.csv", "rb") as fh:
            outs.append(fh.read())
    _line("C5", outs[0] == outs[1],
          "two identical train invocations produced byte-identical "
          "prediction CSVs")


# ---------------------------------------------------------------------------
# criterion 6: property suites


def test_criterion_6_property_suites():
    checks = {}

    # windowing causality: window t reads only values strictly before t
    rng = np.random.default_rng(0)
    series = SeriesSet(rng.normal(size=40), rng.normal(size=40),
                       rng.normal(size=40))
    ds = make_windows(series, window=7, target="x")
    padded = np.concatenate([np.zeros(7), series.x])
    checks["causality"] = all(
        np.array_equal(ds.inputs[t, 0], padded[t:t + 7]) for t in range(40)
    )

    # Toeplitz equivalence on 4-wide input, k=2
    w0, w1 = rng.normal(size=2)
    x4 = rng.normal(size=4)
    W = np.array([[w0, 0, 0], [w1, w0, 0], [0, w1, w0], [0, 0, w1]])
    conv = mz.ConvLayerParams(1, 1, 2)
    conv.kernel[...] = np.array([w0, w1]).reshape(1, 1, 2)
    out = conv1d_forward(x4.reshape(1, 1, 4), conv)[0, 0]
    checks["toeplitz"] = float(np.max(np.abs(out - x4 @ W))) < 1e-14

    # conditional model with extra channels zeroed == unconditional
    uncond = mz.WaveNetParams(mz.WaveNetConfig(in_channels=1))
    for _, arr, _ in named_parameters(uncond):
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    cond = mz.WaveNetParams(mz.WaveNetConfig(in_channels=3))
    for (_, a, _), (_, b, _) in zip(named_parameters(cond),
                                    named_parameters(uncond)):
        if a.shape == b.shape:
            a[...] = b
    cond.input_conv.kernel[...] = 0.0
    cond.input_conv.kernel[:, 0:1, :] = uncond.input_conv.kernel
    cond.input_conv.bias[...] = uncond.input_conv.bias
    xin = rng.normal(size=(3, 1, 16))
    cin = np.concatenate([xin, rng.normal(size=(3, 2, 16))], axis=1)
    checks["conditional-reduction"] = np.array_equal(
        mz.wavenet_forward(xin, uncond)[0], mz.wavenet_forward(cin, cond)[0]
    )

    # dropout eval-mode identity
    lstm = mz.LstmModelParams(1, dropout_rate=0.10)
    for _, arr, _ in named_parameters(lstm):
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    x = rng.normal(size=(2, 1, 16))
    from lorenzcast.nn_core import dense_forward, lstm_sequence_forward
    h_T, _, _ = lstm_sequence_forward(x.transpose(2, 0, 1), np.zeros((2, 25)),
                                      np.zeros((2, 25)), lstm.cell)
    checks["dropout-eval-identity"] = np.array_equal(
        mz.lstm_model_forward(x, lstm, training=False)[0],
        dense_forward(h_T, lstm.head),
    )

    # shuffled-epoch exact coverage + adjacent contiguity
    ds2 = make_windows(series, window=3, target="y")
    shuffled = make_batches(ds2, 7, "shuffled", np.random.default_rng(1))
    checks["shuffled-coverage"] = np.array_equal(
        np.sort(np.concatenate(shuffled)), np.arange(40))
    adjacent = make_batches(ds2, 7, "adjacent", np.random.default_rng(1))
    checks["adjacent-contiguity"] = all(
        cur[0] == prev[-1] + 1 for prev, cur in zip(adjacent, adjacent[1:]))

    ok = all(checks.values())
    _line("C6", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                              for k, v in checks.items()))


# ---------------------------------------------------------------------------
# criterion 7: conditioning helps (directional, same seed)


def test_criterion_7_conditioning_helps():
    seed = 1234
    details = []
    ok = True
    for model in ("wavenet", "lstm"):
        improved = []
        for series in ("x", "y", "z"):
            uncond = _report(cell_config(f"{model}-unconditional-A", seed,
                                         series))
            cond = _report(cell_config(f"{model}-conditional-A", seed, series))
            if cond.rmse_scaled[series] < uncond.rmse_scaled[series]:
                improved.append(series)
        ok &= bool(improved)
        details.append(f"{model}: improved {improved or 'none'}")
    _line("C7", ok, f"seed {seed}: " + "; ".join(details))
