"""The acceptance gate's results criteria as one function of result rows,
and their margins side by side for two runs.csv files.

    python3 tools/margins.py PARENT_RUNS_CSV CHANGE_RUNS_CSV

`criteria(rows)` maps rows shaped like the runs.csv that `lorenzcast
reproduce` writes (text columns cell, series, seed, rmse_scaled,
wall_seconds and status) to each results criterion's values, bounds and
verdict. tests/test_acceptance.py trains exactly the runs that READS
declares and prints its C4a-C4g and C7 lines from this function. Rows of
other cells and seeds are ignored, so the runs.csv of `reproduce --seeds
1234,1235,42` holds every run the gate reads. A criterion whose run is
missing, or has a status other than "ok", fails and names that run.

The command line applies `criteria` to both files and prints, per
criterion, each value with its bound and both verdicts, and the line of a
side that fails. It ends with the largest per-run |delta rmse_scaled| over
the runs that are ok in both files, and that run's cell, series and seed.
It exits 1 when a file cannot be read as runs.csv.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

SEEDS = (1234, 1235, 42)
C7_SEED = 1234
XYZ = ("x", "y", "z")
COLUMNS = ("cell", "series", "seed", "rmse_scaled", "wall_seconds", "status")

# criterion -> the (cell, series, seeds) whose rmse_scaled it reads
READS = {
    "C4a": [("wavenet-unconditional-A", ("x",), SEEDS)],
    "C4b": [("wavenet-conditional-A", XYZ, SEEDS)],
    "C4c": [("lstm-conditional-A", XYZ, SEEDS)],
    "C4d": [(f"{model}-conditional-B", XYZ, SEEDS) for model in ("wavenet", "lstm")],
    "C4e": [("wavenet-multitask-A", ("z",), SEEDS),
            ("wavenet-conditional-A", ("z",), SEEDS)],
    "C4f": [(f"{cell}-A", XYZ, SEEDS)
            for cell in ("ffn-baseline", "wavenet-conditional", "lstm-conditional")],
    "C7": [(f"{model}-{kind}-A", XYZ, (C7_SEED,))
           for model in ("wavenet", "lstm") for kind in ("unconditional", "conditional")],
}


def _runs(reads) -> list[tuple[str, str, int]]:
    return [(cell, s, seed) for cell, series, seeds in reads
            for seed in seeds for s in series]


def gate_runs() -> list[tuple[str, str, int]]:
    """(cell, series, seed) of every run a criterion reads, once each, in
    the order READS names them. C4g reads the wall time of all of them.
    The criteria read one series of the multitask cell, so no two of
    these are series of one run."""
    return list(dict.fromkeys(_runs(r for reads in READS.values() for r in reads)))


class RunNotOk(Exception):
    """A run that a criterion reads is missing or did not finish ok."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    values: dict  # what the criterion measured, by name
    bounds: dict  # value name -> the bound it is held to, as text
    detail: str   # the gate's line after "[C4x PASS] "


def _best(rmse, cell, series):
    return min(rmse[cell, series, seed] for seed in SEEDS)


def _c4a(rmse):
    values = {seed: rmse["wavenet-unconditional-A", "x", seed] for seed in SEEDS}
    best = min(values.values())
    return Verdict(best <= 0.015, {"x best": best}, {"x best": "<= 0.015"},
                   f"unconditional wavenet A x best={best:.5f} <= 0.015 ({values})")


def _c4b(rmse):
    bounds = {"x": 0.005, "y": 0.03, "z": 0.02}
    bests = {s: _best(rmse, "wavenet-conditional-A", s) for s in XYZ}
    return Verdict(all(bests[s] <= bounds[s] for s in XYZ),
                   {f"{s} best": v for s, v in bests.items()},
                   {f"{s} best": f"<= {b}" for s, b in bounds.items()},
                   "conditional wavenet A best " +
                   ", ".join(f"{s}={bests[s]:.5f} (<= {bounds[s]})" for s in XYZ))


def _c4c(rmse):
    bests = {f"{s} best": _best(rmse, "lstm-conditional-A", s) for s in XYZ}
    return Verdict(all(v <= 0.01 for v in bests.values()), bests,
                   dict.fromkeys(bests, "<= 0.01"),
                   "conditional lstm A best " +
                   ", ".join(f"{s}={v:.5f}" for s, v in zip(XYZ, bests.values())) +
                   " (each <= 0.01)")


def _c4d(rmse):
    bests = {f"{model}-{s}": _best(rmse, f"{model}-conditional-B", s)
             for model in ("wavenet", "lstm") for s in XYZ}
    return Verdict(all(v <= 0.04 for v in bests.values()),
                   {f"{k} best": v for k, v in bests.items()},
                   {f"{k} best": "<= 0.04" for k in bests},
                   "scenario B best " +
                   ", ".join(f"{k}={v:.5f}" for k, v in bests.items()) + " (each <= 0.04)")


def _c4e(rmse):
    pairs = {seed: (rmse["wavenet-multitask-A", "z", seed],
                    rmse["wavenet-conditional-A", "z", seed]) for seed in SEEDS}
    wins = sum(multi < single for multi, single in pairs.values())
    margins = {f"z multitask - conditional, seed {seed}": multi - single
               for seed, (multi, single) in pairs.items()}
    return Verdict(wins >= 2, {"wins": wins, **margins}, {"wins": ">= 2"},
                   f"multitask z strictly below conditional z in {wins}/{len(SEEDS)} "
                   "seeds (" + "; ".join(f"seed {seed}: {multi:.5f} vs {single:.5f}"
                                         for seed, (multi, single) in pairs.items()) + ")")


def _c4f(rmse):
    ffn, wavenet, lstm = (float(np.mean([_best(rmse, f"{cell}-A", s) for s in XYZ]))
                          for cell in ("ffn-baseline", "wavenet-conditional",
                                       "lstm-conditional"))
    return Verdict(ffn <= 0.15 and ffn > wavenet and ffn > lstm,
                   {"ffn avg": ffn, "wavenet avg": wavenet, "lstm avg": lstm},
                   {"ffn avg": "<= 0.15", "wavenet avg": "< ffn avg",
                    "lstm avg": "< ffn avg"},
                   f"ffn avg={ffn:.5f} (<= 0.15), wavenet avg={wavenet:.5f}, "
                   f"lstm avg={lstm:.5f} (ffn strictly worse than both)")


def _c4g(walls):
    # every run the gate trains must finish inside 3 minutes
    slowest = max(walls.values())
    return Verdict(slowest < 180.0, {"max wall s": slowest, "runs": len(walls)},
                   {"max wall s": "< 180"},
                   f"max observed cell wall time {slowest:.1f}s < 180s "
                   f"over {len(walls)} runs")


def _c7(rmse):
    # conditioning helps: at one seed, each model's conditional cell beats
    # its unconditional one on at least one series
    improved = {model: [s for s in XYZ
                        if rmse[f"{model}-conditional-A", s, C7_SEED]
                        < rmse[f"{model}-unconditional-A", s, C7_SEED]]
                for model in ("wavenet", "lstm")}
    return Verdict(all(improved.values()),
                   {f"{model} series improved": len(v) for model, v in improved.items()},
                   {f"{model} series improved": ">= 1" for model in improved},
                   f"seed {C7_SEED}: " + "; ".join(f"{model}: improved {v or 'none'}"
                                                  for model, v in improved.items()))


_JUDGES = {"C4a": _c4a, "C4b": _c4b, "C4c": _c4c, "C4d": _c4d, "C4e": _c4e,
           "C4f": _c4f, "C4g": _c4g, "C7": _c7}


def criteria(rows) -> dict[str, Verdict]:
    """Each results criterion's Verdict on `rows` (runs.csv rows as dicts
    of text), in the gate's order."""
    index = {(row["cell"], row["series"], int(row["seed"])): row for row in rows}

    def read(runs, column):
        values = {}
        for cell, series, seed in runs:
            row = index.get((cell, series, seed))
            status = row["status"] if row else "missing"
            if status != "ok":
                raise RunNotOk(f"run {cell} {series} seed {seed}: {status}")
            values[cell, series, seed] = float(row[column])
        return values

    reads = {name: (_runs(declared), "rmse_scaled") for name, declared in READS.items()}
    reads["C4g"] = (gate_runs(), "wall_seconds")
    verdicts = {}
    for name, judge in _JUDGES.items():
        try:
            verdicts[name] = judge(read(*reads[name]))
        except RunNotOk as exc:
            verdicts[name] = Verdict(False, {}, {}, str(exc))
    return verdicts


def largest_delta(parent_rows, change_rows):
    """(|delta rmse_scaled|, (cell, series, seed), runs compared) over the
    runs that are ok in both row sets; the delta and run are None when no
    run is."""
    parent, change = ({(row["cell"], row["series"], int(row["seed"])):
                       float(row["rmse_scaled"]) for row in rows if row["status"] == "ok"}
                      for rows in (parent_rows, change_rows))
    shared = parent.keys() & change.keys()
    delta, run = max(((abs(change[k] - parent[k]), k) for k in shared),
                     default=(None, None))
    return delta, run, len(shared)


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)}")
        return list(reader)


def _text(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="the acceptance gate's results criteria on two runs.csv files")
    parser.add_argument("parent", help="runs.csv of the parent")
    parser.add_argument("change", help="runs.csv of the change")
    args = parser.parse_args(argv)
    try:
        sides = [read_rows(args.parent), read_rows(args.change)]
        parent, change = (criteria(rows) for rows in sides)
        delta, run, compared = largest_delta(*sides)
    except (OSError, ValueError) as exc:  # a file that is not a runs.csv
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'':5s} {'value':40s} {'bound':10s} {'parent':>12s} {'change':>12s}")
    for name in parent:
        p, c = parent[name], change[name]
        print(f"{name:5s} {'verdict':40s} {'':10s} "
              f"{'PASS' if p.ok else 'FAIL':>12s} {'PASS' if c.ok else 'FAIL':>12s}")
        for key in dict.fromkeys([*p.values, *c.values]):
            bound = {**c.bounds, **p.bounds}.get(key, "")
            print(f"{'':5s} {key:40s} {bound:10s} "
                  f"{_text(p.values.get(key)):>12s} {_text(c.values.get(key)):>12s}")
        for side, verdict in (("parent", p), ("change", c)):
            if not verdict.ok:
                print(f"{'':5s} {side} FAIL: {verdict.detail}")
    if run is None:
        print("largest |delta rmse_scaled|: no run is ok in both files")
    else:
        cell, series, seed = run
        print(f"largest |delta rmse_scaled| = {delta:.3g} over {compared} runs, "
              f"at {cell} {series} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
