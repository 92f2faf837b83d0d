"""Argument parsing and summary arithmetic of tools/bench_pairs.py on canned
harness results."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def _result(op_s, rate, failed=0, harness_ok=True):
    return {"correct": failed == 0 and harness_ok, "attempted": 3, "failed": failed,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "train_examples_per_s": {"value": rate, "unit": "1/s"}}}


def _runs(workload, parent, change, failed=(0, 0), harness_ok=(True, True)):
    """Paired runs; `failed` and `harness_ok` apply to pair 1 of each side."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, values, k in (("parent", p, 0), ("change", c, 1)):
            first = pair == 1
            result = _result(*values, failed=failed[k] if first else 0,
                             harness_ok=harness_ok[k] or not first)
            runs.append({"pair": pair, "side": side, "workload": workload,
                         "result": result})
    return runs


BETTER = {"op_s": "lower", "train_examples_per_s": "higher"}


def test_schedule_alternates_sides_and_rotates_workloads():
    order = bench_pairs.schedule(["a", "b", "c"], 2)
    assert order == [
        (1, "parent", "a"), (1, "change", "a"), (1, "parent", "b"),
        (1, "change", "b"), (1, "parent", "c"), (1, "change", "c"),
        (2, "change", "b"), (2, "parent", "b"), (2, "change", "c"),
        (2, "parent", "c"), (2, "change", "a"), (2, "parent", "a"),
    ]


def test_iqr_interpolates_over_the_sample():
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0]) == 1.5
    assert bench_pairs.iqr([7.0]) == 0.0


def test_summary_medians_iqr_and_wins():
    parent = [(4.0, 100.0), (3.0, 110.0), (5.0, 90.0), (2.0, 120.0)]
    # op_s: the change wins pairs 1-3 and ties pair 4 (a tie is no win);
    # the rate is higher-is-better and the change wins only pair 4
    change = [(3.0, 90.0), (2.5, 100.0), (4.0, 80.0), (2.0, 121.0)]
    summary = bench_pairs.summarize(_runs("w", parent, change, failed=(1, 2)), BETTER)
    op = summary["w"]["op_s"]
    assert op == {"parent_median": 3.5, "change_median": 2.75,
                  "parent_best": 2.0, "change_best": 2.0, "parent_iqr": 1.5, "change_better_pairs": 3,
                  "change_beats_every_parent_run": False, "pairs": 4}
    rate = summary["w"]["train_examples_per_s"]
    assert rate["parent_median"] == 105.0 and rate["change_median"] == 95.0
    assert rate["change_better_pairs"] == 1
    assert summary["w"]["failed_ops"] == {"parent": 1, "change": 2}
    assert summary["w"]["incorrect_runs"] == {"parent": 1, "change": 1}


def test_best_run_is_the_minimum_or_the_maximum_by_direction():
    parent = [(4.0, 100.0), (3.0, 110.0), (5.0, 90.0)]
    change = [(3.5, 95.0), (2.5, 130.0), (6.0, 80.0)]
    summary = bench_pairs.summarize(_runs("w", parent, change), BETTER)["w"]
    # op_s is lower-is-better: the best run is the fastest
    assert (summary["op_s"]["parent_best"], summary["op_s"]["change_best"]) == (3.0, 2.5)
    # the rate is higher-is-better: the best run is the largest
    rate = summary["train_examples_per_s"]
    assert (rate["parent_best"], rate["change_best"]) == (110.0, 130.0)
    assert (rate["parent_median"], rate["change_median"]) == (100.0, 95.0)


def test_summary_counts_a_failed_harness_check_as_an_incorrect_run():
    runs = _runs("w", [(4.0, 1.0), (3.0, 1.0)], [(3.0, 1.0), (2.0, 1.0)],
                 harness_ok=(True, False))
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["w"]["failed_ops"] == {"parent": 0, "change": 0}
    assert summary["w"]["incorrect_runs"] == {"parent": 0, "change": 1}


def test_summary_skips_a_pair_missing_one_side():
    runs = _runs("w", [(4.0, 1.0), (3.0, 1.0)], [(3.0, 1.0), (2.0, 1.0)])
    summary = bench_pairs.summarize(runs[:-1], BETTER)
    assert summary["w"]["op_s"]["pairs"] == 1
    assert summary["w"]["op_s"]["parent_median"] == 4.0


def test_claim_needs_nine_of_ten_wins_and_a_gap_above_the_iqr():
    parent = [(3.0 + 0.01 * k, 1.0) for k in range(10)]
    faster = [(p - 0.5, r) for p, r in parent]
    summary = bench_pairs.summarize(_runs("w", parent, faster), BETTER)
    claim = bench_pairs.judge_claim(summary, "w", "op_s", "lower")
    assert claim["holds"] and claim["change_better_pairs"] == 10

    # 8 of 10 wins is not enough, whatever the gap
    slower_twice = faster[:8] + [(p + 0.1, r) for p, r in parent[8:]]
    summary = bench_pairs.summarize(_runs("w", parent, slower_twice), BETTER)
    assert not bench_pairs.judge_claim(summary, "w", "op_s", "lower")["holds"]

    # every pair won, but the medians differ by less than the parent's IQR
    barely = [(p - 0.001, r) for p, r in parent]
    summary = bench_pairs.summarize(_runs("w", parent, barely), BETTER)
    claim = bench_pairs.judge_claim(summary, "w", "op_s", "lower")
    assert claim["change_better_pairs"] == 10 and not claim["holds"]


def test_claim_fails_when_the_change_fails_more_than_the_parent():
    parent = [(3.0 + 0.01 * k, 1.0) for k in range(10)]
    faster = [(p - 0.5, r) for p, r in parent]

    # every pair won by a wide gap, but the change fails more operations
    # (in as many runs as the parent)
    summary = bench_pairs.summarize(_runs("w", parent, faster, failed=(1, 2)), BETTER)
    claim = bench_pairs.judge_claim(summary, "w", "op_s", "lower")
    assert claim["change_better_pairs"] == 10 and not claim["holds"]

    # ... or fails a harness check that the parent passes
    summary = bench_pairs.summarize(
        _runs("w", parent, faster, harness_ok=(True, False)), BETTER)
    assert not bench_pairs.judge_claim(summary, "w", "op_s", "lower")["holds"]

    # the same failures on both sides leave the claim standing
    summary = bench_pairs.summarize(
        _runs("w", parent, faster, failed=(1, 1), harness_ok=(False, False)), BETTER)
    assert bench_pairs.judge_claim(summary, "w", "op_s", "lower")["holds"]


@pytest.mark.parametrize("pairs", ["0", "-3", "two"])
def test_pairs_below_one_is_rejected_at_parsing(pairs, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--parent", "p", "--change", "c", "--label", "x",
                                "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert bench_pairs.parse_args(["--parent", "p", "--change", "c", "--label",
                                   "x", "--pairs", "1"]).pairs == 1


BOUNDS = {"op_s": 0.25, "train_examples_per_s": 0.25}


def test_regression_is_a_median_worse_by_more_than_the_bound():
    parent = [(4.0, 100.0)] * 4
    # op_s 30 % slower breaks its bound; the rate 20 % lower does not
    change = [(5.2, 80.0)] * 4
    verdict = bench_pairs.judge_regressions(
        bench_pairs.summarize(_runs("w", parent, change), BETTER), BETTER, BOUNDS)
    metrics = verdict["workloads"]["w"]["metrics"]
    assert metrics["op_s"]["worse_by"] == pytest.approx(0.3)
    assert metrics["op_s"]["regressed"] and verdict["regressed"]
    assert metrics["train_examples_per_s"]["worse_by"] == pytest.approx(0.2)
    assert not metrics["train_examples_per_s"]["regressed"]

    # a higher-is-better metric regresses when it falls; a gain is negative
    change = [(2.0, 70.0)] * 4
    verdict = bench_pairs.judge_regressions(
        bench_pairs.summarize(_runs("w", parent, change), BETTER), BETTER, BOUNDS)
    metrics = verdict["workloads"]["w"]["metrics"]
    assert metrics["op_s"]["worse_by"] == pytest.approx(-0.5)
    assert not metrics["op_s"]["regressed"]
    assert metrics["train_examples_per_s"]["regressed"] and verdict["regressed"]


def test_regression_is_a_larger_share_of_failed_operations():
    parent = [(4.0, 100.0)] * 4
    summary = bench_pairs.summarize(_runs("w", parent, parent, failed=(0, 1)),
                                    BETTER)
    verdict = bench_pairs.judge_regressions(summary, BETTER, BOUNDS)
    assert verdict["workloads"]["w"]["more_failures"] and verdict["regressed"]

    summary = bench_pairs.summarize(_runs("w", parent, parent, failed=(1, 1)),
                                    BETTER)
    verdict = bench_pairs.judge_regressions(summary, BETTER, BOUNDS)
    assert not verdict["workloads"]["w"]["more_failures"]
    assert not verdict["regressed"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's op_s IQR is 1.0 on a median of 3.0 (33 %), above the 25 %
    # bound; its rate spreads 2 % and is resolved
    parent = [(2.0, 100.0), (2.5, 101.0), (3.0, 102.0), (3.5, 103.0), (4.0, 104.0)]
    flat = [(3.1, 102.0)] * 5
    verdict = bench_pairs.judge_regressions(
        bench_pairs.summarize(_runs("w", parent, flat), BETTER), BETTER, BOUNDS)
    metrics = verdict["workloads"]["w"]["metrics"]
    assert metrics["op_s"]["parent_spread"] == pytest.approx(1 / 3)
    assert metrics["op_s"]["unresolved"] and not metrics["op_s"]["regressed"]
    assert not metrics["train_examples_per_s"]["unresolved"]
    assert not verdict["regressed"]

    # unless every run of the change beats every run of the parent
    faster = [(1.9, 105.0)] * 5
    metrics = bench_pairs.judge_regressions(
        bench_pairs.summarize(_runs("w", parent, faster), BETTER), BETTER,
        BOUNDS)["workloads"]["w"]["metrics"]
    assert not metrics["op_s"]["unresolved"]
    # one change run as slow as the parent's fastest is not enough
    tie = faster[:4] + [(2.0, 105.0)]
    metrics = bench_pairs.judge_regressions(
        bench_pairs.summarize(_runs("w", parent, tie), BETTER), BETTER,
        BOUNDS)["workloads"]["w"]["metrics"]
    assert metrics["op_s"]["unresolved"]


def _failed_run(pair, side, workload="w"):
    return {"pair": pair, "side": side, "workload": workload, "exit_code": 2,
            "stderr": "Traceback ...\nBenchError: out of time"}


def test_summary_skips_a_pair_with_a_failed_run_and_counts_it():
    runs = _runs("w", [(4.0, 1.0), (3.0, 1.0)], [(3.0, 1.0), (2.0, 1.0)])
    # pair 2's change run failed: pair 2 is left out
    runs = runs[:3] + [_failed_run(2, "change")]
    summary = bench_pairs.summarize(runs, BETTER)["w"]
    assert summary["op_s"]["pairs"] == 1
    assert summary["op_s"]["parent_median"] == 4.0
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    # a claim does not hold with more failed runs than the parent
    summary = bench_pairs.summarize(
        _runs("w", [(3.0, 1.0)] * 10, [(2.0, 1.0)] * 10) + [_failed_run(11, "change")],
        BETTER)
    assert summary["w"]["op_s"]["change_better_pairs"] == 10
    assert not bench_pairs.judge_claim(summary, "w", "op_s", "lower")["holds"]


def test_a_workload_with_no_whole_pair_has_no_metrics():
    runs = _runs("w", [(4.0, 1.0)], [(3.0, 1.0)])
    runs += [_failed_run(1, "parent", "v"), _failed_run(1, "change", "v")]
    summary = bench_pairs.summarize(runs, BETTER)
    assert "op_s" not in summary["v"]
    assert summary["v"]["failed_runs"] == {"parent": 1, "change": 1}
    verdict = bench_pairs.judge_regressions(summary, BETTER, BOUNDS)
    assert verdict["workloads"]["v"]["metrics"] == {}
    assert not bench_pairs.judge_claim(summary, "v", "op_s", "lower")["holds"]


def test_main_records_a_failed_run_and_goes_on(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.25},
                       {"name": "train_examples_per_s", "better": "higher",
                        "bound": 0.25}]}))
    record = {"machine": {"nproc": 2, "python": "3", "numpy": "2", "cpu": "c",
                          "blas": {"threads": 1}}}
    calls = []

    def canned(checkout, workload, seconds):
        calls.append(checkout.name)
        if len(calls) == 3:  # pair 2's first run fails
            return {"exit_code": 2, "stderr": "Traceback ...\nBenchError: boom"}
        return {"record": record, "result": _result(3.0, 1.0)}

    monkeypatch.setattr(bench_pairs, "run_harness", canned)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(change), "--label", "t", "--pairs", "3"]) == 1
    assert len(calls) == 6  # the session went on past the failure
    out = capsys.readouterr()
    assert "FAILED RUN pair 2 change w: exit 2: BenchError: boom" in out.out
    assert "1 of 6 harness runs failed" in out.err
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert written["summary"]["w"]["op_s"]["pairs"] == 2
    assert written["summary"]["w"]["failed_runs"] == {"parent": 0, "change": 1}
    assert {"pair": 2, "side": "change", "workload": "w", "exit_code": 2,
            "stderr": "Traceback ...\nBenchError: boom"} in written["runs"]


@pytest.mark.parametrize("claim", ["wavenet_cell-op_s", "wavenet:op_s",
                                   "wavenet_cell:ops", "wavenet_cell:op_s:x"])
def test_a_bad_claim_is_a_usage_error_before_any_run(claim, tmp_path, monkeypatch,
                                                     capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "wavenet_cell"}],
        "end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.25}]}))

    def never(checkout, workload, seconds):
        raise AssertionError("the harness ran before --claim was checked")

    monkeypatch.setattr(bench_pairs, "run_harness", never)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "p", "--change", str(tmp_path), "--label", "t"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv + ["--claim", claim])
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))
    assert bench_pairs.parse_args(argv + ["--claim", "wavenet_cell:op_s"]).claim == (
        "wavenet_cell", "op_s")
