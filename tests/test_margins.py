"""tools/margins.py: the acceptance gate's results criteria and the margins
diff, on canned runs.csv rows, without training.

data/reproduce_runs.csv is the runs.csv of `lorenzcast reproduce --seeds
1234,1235,42`: 93 runs, a superset of the 56 the gate reads, with the
scaled RMSEs the gate's lines print."""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import margins  # noqa: E402

RUNS_CSV = Path(__file__).parent / "data" / "reproduce_runs.csv"

# the gate's lines on these runs, but C4g's, whose time is the canned run's
GATE_LINES = {
    "C4a": "unconditional wavenet A x best=0.00258 <= 0.015 ({1234: "
           "0.0106964076503861, 1235: 0.00799616070598876, 42: 0.0025834087667989556})",
    "C4b": "conditional wavenet A best x=0.00376 (<= 0.005), y=0.00660 (<= 0.03), "
           "z=0.01058 (<= 0.02)",
    "C4c": "conditional lstm A best x=0.00384, y=0.00628, z=0.00290 (each <= 0.01)",
    "C4d": "scenario B best wavenet-x=0.01132, wavenet-y=0.02120, wavenet-z=0.02977, "
           "lstm-x=0.00192, lstm-y=0.00626, lstm-z=0.00479 (each <= 0.04)",
    "C4e": "multitask z strictly below conditional z in 2/3 seeds (seed 1234: "
           "0.01830 vs 0.01145; seed 1235: 0.00567 vs 0.01058; seed 42: 0.00623 "
           "vs 0.01222)",
    "C4f": "ffn avg=0.01813 (<= 0.15), wavenet avg=0.00698, lstm avg=0.00434 "
           "(ffn strictly worse than both)",
    "C4g": "max observed cell wall time 4.3s < 180s over 56 runs",
    "C7": "seed 1234: wavenet: improved ['x', 'y']; lstm: improved ['z']",
}


def _rows():
    return margins.read_rows(RUNS_CSV)


def _set(rows, cell, series, seed, **columns):
    """`rows` with the given columns replaced in the row of one run."""
    key = (cell, series, str(seed))
    assert any((r["cell"], r["series"], r["seed"]) == key for r in rows)
    return [{**r, **columns} if (r["cell"], r["series"], r["seed"]) == key else r
            for r in rows]


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def _failing(verdicts):
    return {name for name, verdict in verdicts.items() if not verdict.ok}


def test_the_gate_reads_56_runs_of_the_reproduce_grid():
    runs = margins.gate_runs()
    assert len(runs) == len(set(runs)) == 56
    rows = {(r["cell"], r["series"], int(r["seed"])) for r in _rows()}
    assert len(rows) == 99  # 93 runs; the multitask run has three rows
    assert set(runs) < rows


def test_the_gates_values_pass_every_criterion_with_its_lines():
    verdicts = margins.criteria(_rows())
    assert {name: v.detail for name, v in verdicts.items()} == GATE_LINES
    assert not _failing(verdicts)
    assert verdicts["C4e"].values["wins"] == 2
    assert verdicts["C4b"].values["x best"] == 0.003755845219328206
    assert verdicts["C4b"].bounds["x best"] == "<= 0.005"


def test_a_c4e_flip_fails_c4e_alone():
    # seed 42's multitask z ties its conditional z: not strictly below
    rows = _set(_rows(), "wavenet-multitask-A", "z", 42,
                rmse_scaled="0.012216985718299446")
    verdicts = margins.criteria(rows)
    assert _failing(verdicts) == {"C4e"}
    assert verdicts["C4e"].values["wins"] == 1
    assert "in 1/3 seeds" in verdicts["C4e"].detail


def test_a_failed_or_missing_run_fails_only_the_criteria_that_read_it():
    rows = _set(_rows(), "lstm-conditional-B", "y", 42, rmse_scaled="",
                rmse_raw="", wall_seconds="", status="failed: planted divergence")
    verdicts = margins.criteria(rows)
    assert _failing(verdicts) == {"C4d", "C4g"}  # C4g reads every gate run
    assert verdicts["C4d"].detail == \
        "run lstm-conditional-B y seed 42: failed: planted divergence"
    assert verdicts["C4d"].values == {}

    rows = [r for r in _rows()
            if (r["cell"], r["series"], r["seed"]) != ("lstm-unconditional-A", "z", "1234")]
    verdicts = margins.criteria(rows)
    assert _failing(verdicts) == {"C7", "C4g"}
    assert verdicts["C7"].detail == "run lstm-unconditional-A z seed 1234: missing"


def test_extra_seeds_and_cells_are_ignored():
    rows = _rows()
    gate = set(margins.gate_runs())
    only_gate = [r for r in rows if (r["cell"], r["series"], int(r["seed"])) in gate]
    # a seed and a cell the gate does not read, with values that would fail it
    extra = [{**r, "seed": "7", "rmse_scaled": "1.0", "wall_seconds": "999.0"}
             for r in rows] + [{**rows[0], "cell": "wavenet-other-A", "status": "failed: x"}]
    expected = margins.criteria(only_gate)
    assert margins.criteria(rows) == expected
    assert margins.criteria(only_gate + extra) == expected
    assert not _failing(expected)


def test_margins_prints_both_sides_and_the_largest_delta(tmp_path, capsys):
    change = _set(_rows(), "wavenet-multitask-A", "z", 42,
                  rmse_scaled="0.012216985718299446")
    code = margins.main([str(RUNS_CSV), _write(tmp_path / "change.csv", change)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].split() == ["value", "bound", "parent", "change"]
    assert [line.split() for line in out if line.startswith("C")] == [
        [name, "verdict", "PASS", "FAIL" if name == "C4e" else "PASS"]
        for name in GATE_LINES]
    words = [" ".join(line.split()) for line in out]
    assert "wins >= 2 2 1" in words
    assert "z multitask - conditional, seed 42 -0.00599128 0" in words
    assert [line for line in words if "FAIL:" in line] == [
        "change FAIL: " + GATE_LINES["C4e"].replace("in 2/3", "in 1/3")
        .replace("0.00623", "0.01222")]
    assert out[-1] == ("largest |delta rmse_scaled| = 0.00599 over 99 runs, "
                       "at wavenet-multitask-A z seed 42")


def test_margins_names_a_failed_run_without_a_traceback(tmp_path, capsys):
    change = _set(_rows(), "ffn-baseline-A", "x", 1235, rmse_scaled="",
                  rmse_raw="", wall_seconds="", status="failed: worker died")
    assert margins.main([str(RUNS_CSV), _write(tmp_path / "change.csv", change)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = [line.strip() for line in out.splitlines()]
    assert lines.count("change FAIL: run ffn-baseline-A x seed 1235: "
                       "failed: worker died") == 2  # C4f and C4g
    assert "over 98 runs, at " in lines[-1]


def test_margins_rejects_a_file_that_is_not_a_runs_csv(tmp_path, capsys):
    bad = tmp_path / "table.csv"
    bad.write_text("cell,series,rmse_mean\n")
    assert margins.main([str(RUNS_CSV), str(bad)]) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: no column seed, rmse_scaled, wall_seconds, status\n"
    assert margins.main([str(RUNS_CSV), str(tmp_path / "absent.csv")]) == 1
