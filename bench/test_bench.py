"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

The last test trains one wavenet and one LSTM cell with tracing on
(about a minute on two cores).
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

cli = run.import_cli()


def test_self_times_clip_and_merge_child_intervals():
    # root [0, 10] with children a [1, 3] and b [2, 5], which overlap, and
    # c [9, 12], which runs past the root; a has a child [1.5, 2.5]
    starts = [0.0, 1.0, 1.5, 2.0, 9.0]
    ends = [10.0, 3.0, 2.5, 5.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx(
        [10 - (4 + 1), 2 - 1, 1, 3, 3])


def test_tracer_records_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(["outer", "inner"], clock=lambda: next(ticks))
    inner = tracer.wrap(1, lambda x: x + 1)
    outer = tracer.wrap(0, lambda x: inner(inner(x)))
    tracer.begin_op()
    assert outer(0) == 2
    op = tracer.end_op()
    assert op.codes.tolist() == [0, 1, 1]
    assert op.parents.tolist() == [-1, 0, 0]
    assert spans.self_times(op.starts, op.ends, op.parents) == pytest.approx(
        [10 - 5, 2, 3])
    assert op.under("outer").tolist() == [False, True, True]
    assert op.seconds(["inner"]) == pytest.approx(5.0)


def test_every_binding_is_patched_and_restored():
    names = spans.public_functions()
    assert set(run.LAYER_FUNCTIONS) <= set(names)
    originals = {n: spans.resolve(n) for n in names}
    tracer = spans.Tracer(names)
    tracer.install()
    try:
        assert tracer.unpatched() == []
        bound = {b for bindings in tracer.bindings.values() for b in bindings}
        required = {
            "models": ["conv1d_forward", "conv1d_backward", "sigmoid",
                       "dense_forward", "dense_backward",
                       "lstm_sequence_forward", "lstm_sequence_backward"],
            "cli": ["predict_dataset", "grad_check", "mae_loss",
                    "save_params_csv"],
            "train_eval": ["adam_step", "l2_grad", "zero_grads",
                           "euler_integrate", "make_windows"],
        }
        for module, attrs in required.items():
            for attr in attrs:
                assert f"lorenzcast.{module}.{attr}" in bound
    finally:
        tracer.uninstall()
    assert all(spans.resolve(n) is fn for n, fn in originals.items())


def test_results_carry_every_declared_metric():
    op = {"wall_s": 2.0, "train_examples": 10, "train_s": 1.0}
    metrics = run.end_to_end([op], [0.2])
    run.check_schema(metrics, run.declared_units(False))

    tracer = spans.Tracer(spans.public_functions())
    tracer.install()
    try:
        tracer.begin_op()
        cli.mae_loss([0.5, 0.25], [0.0, 0.0])
        layer = run.op_layers(tracer.end_op())
    finally:
        tracer.uninstall()
    assert layer["train_eval.mae_loss.calls"] == 1
    metrics = run.per_layer([layer], 0.1, run.declared_units(True))
    run.check_schema(metrics, run.declared_units(True))

    del metrics["nn_core.sigmoid.self_s"]
    with pytest.raises(run.BenchError, match="nn_core.sigmoid.self_s"):
        run.check_schema(metrics, run.declared_units(True))


def test_output_checks_flag_failures(tmp_path):
    table = ("case params err threshold result\n"
             "ffn 22 2.0e-09 1e-05 PASS\n"
             "lstm 2726 1.0e-04 1e-04 FAIL\n")
    reasons, fields = run.check_grad(table)
    assert fields["grad_errors"] == {"ffn": 2e-9, "lstm": 1e-4}
    assert reasons == ["lstm error 1.0e-04 at or above 1e-04"]

    with open(tmp_path / "report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["series", "rmse_scaled"], ["x", "0.2"]])
    for name in run.CELL_OUTPUTS:
        (tmp_path / name).write_text(name)
    first = {"sha256": {name: hashlib.sha256(b"other").hexdigest()
                        for name in run.CELL_OUTPUTS}}
    reasons, fields = run.check_cell(tmp_path, first)
    assert fields["rmse_scaled"] == 0.2
    assert len(reasons) == 1 + len(run.CELL_OUTPUTS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lstm_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(run.KNOWN_COUNTS))
def test_traced_counts_are_known_and_repeat(workload, tmp_path):
    spans_csv = tmp_path / "spans.csv"
    result = run.measure(cli, workload, run.WORKLOADS[workload][1], 0.0,
                         True, tmp_path, str(spans_csv))
    assert result["harness_failures"] == []
    with open(spans_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["op"] for row in rows} == {"0", "1"}
    assert [op["failures"] for op in result["ops"]] == [[]] * len(result["ops"])
    for name, counts in result["known_counts"].items():
        assert counts["measured"] == counts["expected"], name
