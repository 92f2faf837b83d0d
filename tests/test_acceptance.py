"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible with pytest -s).
The results criteria C4a-C4g and C7 are `criteria` of tools/margins.py,
applied to the runs.csv rows of the runs they read. A module-scoped fixture
trains those runs, each config once, on the runner that `lorenzcast
reproduce` uses, so the first results criterion to run trains all of them.
Expect about a minute of wall time on two cores.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

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
from lorenzcast.train_eval import RESULTS_GRID, cell_config, make_batches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import margins  # noqa: E402


def _line(criterion, ok, detail):
    print(f"[{criterion} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def verdicts():
    """margins.criteria over the runs.csv rows of every run the results
    criteria read, each config trained once on reproduce's runner with
    reproduce's default worker count."""
    cells = {}  # config -> its cell; the multitask cell's run has no target
    for cell, series, seed in margins.gate_runs():
        target = series if series in RESULTS_GRID[cell][1] else None
        cells.setdefault(cell_config(cell, seed, target), cell)
    configs = list(cells)
    workers = cli.build_parser().parse_args(["reproduce"]).workers
    rows = []
    for i, outcome in cli._finished_runs(configs, workers):
        rows += [{"cell": cells[configs[i]], **row}
                 for row in cli._run_rows(configs[i], outcome)]
    return margins.criteria(rows)


def _judge(verdicts, criterion):
    verdict = verdicts[criterion]
    _line(criterion, verdict.ok, verdict.detail)


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


def test_criterion_4a_unconditional_wavenet_x(verdicts):
    _judge(verdicts, "C4a")


def test_criterion_4b_conditional_wavenet_scenario_a(verdicts):
    _judge(verdicts, "C4b")


def test_criterion_4c_conditional_lstm_scenario_a(verdicts):
    _judge(verdicts, "C4c")


def test_criterion_4d_scenario_b_conditional_models(verdicts):
    _judge(verdicts, "C4d")


def test_criterion_4e_multitask_beats_conditional_z(verdicts):
    _judge(verdicts, "C4e")


def test_criterion_4f_ffn_baseline(verdicts):
    _judge(verdicts, "C4f")


def test_criterion_4g_cell_runtime(verdicts):
    # every run the gate trains finishes inside 3 minutes, measured in the
    # worker that trained it; run alone, C4g trains all of them
    _judge(verdicts, "C4g")


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


def test_criterion_7_conditioning_helps(verdicts):
    _judge(verdicts, "C7")
