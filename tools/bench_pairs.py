"""Run the benchmark harness as interleaved parent/change pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . --label NAME \\
        --pairs 10 [--claim lstm_cell:op_s] [--what TEXT]

Each side is a checkout of the repository. For every pair and every workload
that the change's BENCHMARK.json declares, the script runs
`python3 bench/run.py --workload W --seconds S --trace 0` once in each
checkout, in a fresh interpreter, with S the declared `run_seconds`, and
keeps the result line (the last line of standard output). Odd pairs run the parent first and even
pairs the change first, and each pair starts its workloads one further
along the list, so neither side nor workload always runs first.

It writes BENCH_<label>.json in the current directory: for each workload and
end-to-end metric of BENCHMARK.json, the medians of both sides, the
parent's interquartile range and the number of pairs the change won, plus
the failed operations, the runs whose result is not correct (a failed
operation or a failed harness check) and every raw result. With --claim it
also states whether the claimed metric improved by the rule used to accept
a claim: the change is better in at least 9 of 10 pairs, its median beats
the parent's by more than the parent's interquartile range, and it has no
more failed operations and no more incorrect runs than the parent. With or
without --claim it judges regressions by the rule that rejects any change:
on some workload, an end-to-end metric's median is worse than the parent's
by more than that metric's `bound` (a fraction of the parent's median), or
the change fails a larger share of its operations. A metric whose parent
runs spread wider than its bound (an IQR above `bound` times the median) is
marked unresolved, and not shown unchanged, unless every run of the change
beats every run of the parent.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_WIN_SHARE = 0.9


def schedule(workloads: list[str], pairs: int) -> list[tuple[int, str, str]]:
    """(pair, side, workload) in run order, pairs numbered from 1."""
    order = []
    for pair in range(1, pairs + 1):
        shift = (pair - 1) % len(workloads)
        sides = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads[shift:] + workloads[:shift]:
            order.extend((pair, side, workload) for side in sides)
    return order


def run_harness(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One harness run in `checkout`: its (record, result) lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    """Interquartile range, quartiles interpolated over the sample itself."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both medians, the parent's IQR, the pairs
    the change won (a tie is not a win) and whether every run of the change
    beats every run of the parent; plus, per side, the failed operations and
    the runs whose result is not correct.

    `better` maps each metric to "lower" or "higher"."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        paired = [sides for sides in by_pair.values() if len(sides) == 2]
        entry = {}
        for metric, direction in better.items():
            values = {side: [sides[side]["metrics"][metric]["value"] for sides in paired]
                      for side in SIDES}
            sign = 1.0 if direction == "lower" else -1.0
            entry[metric] = {
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "parent_iqr": iqr(values["parent"]),
                "change_better_pairs": sum(sign * (p - c) > 0 for p, c in
                                           zip(values["parent"], values["change"])),
                "change_beats_every_parent_run":
                    min(sign * p for p in values["parent"])
                    > max(sign * c for c in values["change"]),
                "pairs": len(paired),
            }
        entry["failed_ops"] = {side: sum(sides[side]["failed"] for sides in paired)
                               for side in SIDES}
        entry["attempted_ops"] = {side: sum(sides[side]["attempted"] for sides in paired)
                                  for side in SIDES}
        entry["incorrect_runs"] = {side: sum(not sides[side]["correct"] for sides in paired)
                                   for side in SIDES}
        summary[workload] = entry
    return summary


def judge_claim(summary: dict, workload: str, metric: str, direction: str) -> dict:
    """The claim block: the metric's summary and whether the claim holds.

    A gain does not count when the change fails more operations, or has
    more incorrect runs, than the parent."""
    entry = summary[workload]
    stats = entry[metric]
    sign = 1.0 if direction == "lower" else -1.0
    gain = sign * (stats["parent_median"] - stats["change_median"])
    holds = (stats["change_better_pairs"] >= CLAIM_WIN_SHARE * stats["pairs"]
             and gain > stats["parent_iqr"]
             and all(entry[key]["change"] <= entry[key]["parent"]
                     for key in ("failed_ops", "incorrect_runs")))
    return {"workload": workload, "metric": metric, **stats, "holds": holds}


def judge_regressions(summary: dict, better: dict[str, str],
                      bounds: dict[str, float]) -> dict:
    """Per workload and metric, how much worse the change's median is than
    the parent's, as a fraction of the parent's (negative when better), and
    whether that exceeds the metric's bound; per workload, whether the change
    fails a larger share of its operations. `regressed` is true when any of
    these holds.

    A metric is `unresolved` when the parent's IQR exceeds its bound times
    the parent's median, unless every run of the change beats every run of
    the parent: its runs then spread too widely to show it unchanged."""
    workloads = {}
    for workload, entry in summary.items():
        metrics = {}
        for metric, direction in better.items():
            parent, change = entry[metric]["parent_median"], entry[metric]["change_median"]
            worse = (change - parent) * (1.0 if direction == "lower" else -1.0)
            worse_by = worse / abs(parent) if parent else (math.inf if worse > 0 else 0.0)
            spread = entry[metric]["parent_iqr"]
            spread = spread / abs(parent) if parent else (math.inf if spread else 0.0)
            metrics[metric] = {
                "worse_by": worse_by, "bound": bounds[metric],
                "regressed": worse_by > bounds[metric],
                "parent_spread": spread,
                "unresolved": (spread > bounds[metric] and not
                               entry[metric]["change_beats_every_parent_run"]),
            }
        share = {side: entry["failed_ops"][side] / max(entry["attempted_ops"][side], 1)
                 for side in SIDES}
        workloads[workload] = {"metrics": metrics,
                               "more_failures": share["change"] > share["parent"]}
    regressed = any(verdict["more_failures"]
                    or any(m["regressed"] for m in verdict["metrics"].values())
                    for verdict in workloads.values())
    return {"regressed": regressed, "workloads": workloads}


def machine_block(record: dict) -> dict:
    info = record["machine"]
    return {"nproc": info["nproc"], "python": info["python"], "numpy": info["numpy"],
            "blas_threads": info["blas"]["threads"], "cpu": info["cpu"]}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=positive_int, default=10)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--what", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs, machine = [], None
    for pair, side, workload in schedule(workloads, args.pairs):
        record, result = run_harness(checkouts[side], workload, seconds)
        machine = machine or machine_block(record)
        runs.append({"pair": pair, "side": side, "workload": workload, "result": result})
        print(f"pair {pair} {side:6s} {workload:12s} "
              f"op_s {result['metrics']['op_s']['value']:.3f}"
              f"{'' if result['correct'] else ' NOT CORRECT'}", flush=True)
    summary = summarize(runs, better)
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = judge_claim(summary, workload, metric, better[metric])
    regressions = judge_regressions(summary, better, bounds)
    for workload, verdict in regressions["workloads"].items():
        for metric, stats in verdict["metrics"].items():
            if stats["regressed"]:
                print(f"REGRESSION {workload} {metric}: worse by "
                      f"{stats['worse_by']:.1%}, bound {stats['bound']:.0%}")
            if stats["unresolved"]:
                print(f"UNRESOLVED {workload} {metric}: the parent's IQR is "
                      f"{stats['parent_spread']:.1%} of its median, above the "
                      f"bound {stats['bound']:.0%}")
        if verdict["more_failures"]:
            print(f"REGRESSION {workload}: a larger share of operations failed")
    out = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 bench/run.py --workload W --seconds {seconds:g} "
                   "--trace 0 (default seeds), run in each side's checkout",
        "protocol": f"{args.pairs} interleaved pairs per workload in one session; "
                    "odd pairs run the parent first, even pairs the change first; "
                    "each pair starts its workloads one further along "
                    f"{', '.join(workloads)}",
        "machine": machine,
        "claim": claim,
        "regressions": regressions,
        "summary": summary,
        "runs": runs,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
