"""lorenzcast benchmark: the real CLI operations, run in one process.

    python3 bench/run.py --workload lstm_cell --seed 1234 --seconds 25 --trace 0

Each workload is a closed loop with one client: the `lorenzcast` argv
below is passed to ``lorenzcast.cli.main`` in this process, and the next
operation starts when the previous one returns, until --seconds have
passed. Every operation's outputs are checked. The last line of standard
output is the result JSON; the line before it is the full record
(per-operation checks, ungated output fields and the machine block).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
operations with traced ones, which carry spans around every public
function of the package (see spans.py), and reports the per-layer
metrics and the tracing overhead. The metric names and units must match
BENCHMARK.json; README.md beside this file defines each one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import (MODEL_BACKWARDS, MODEL_FORWARDS, Tracer, public_functions,
                   self_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (argv, default seed); --seed is appended
WORKLOADS = {
    "lstm_cell": (["train", "--model", "lstm", "--conditional", "--target", "x",
                   "--scenario", "A"], 1234),
    "wavenet_cell": (["train", "--model", "wavenet", "--conditional",
                      "--target", "x", "--scenario", "A"], 1234),
    "grad_check": (["grad-check"], 7),
}

SETUP_SAMPLES = 6        # per side of the operation loop, so 12 per run
SETUP_CODE = "import lorenzcast.cli as cli; cli.build_parser()"
MIN_TRACED_OPS = 2
RMSE_CEILING = 0.15      # acceptance criterion C4f's feed-forward ceiling
GRAD_CHECK_BATCH = 3     # examples per grad-check loss evaluation (cli)
CELL_OUTPUTS = ("checkpoint.csv", "predictions_x.csv")

LAYER_FUNCTIONS = [
    "lorenz.euler_integrate", "lorenz.make_windows",
    "nn_core.conv1d_forward", "nn_core.conv1d_backward",
    "nn_core.lstm_cell_forward", "nn_core.lstm_cell_backward", "nn_core.sigmoid",
    "nn_core.dense_forward", "nn_core.dense_backward",
    "nn_core.zero_grads", "nn_core.grad_check", "nn_core.save_params_csv",
    "optim.adam_step", "optim.l2_grad",
    "models.wavenet_forward", "models.wavenet_backward",
    "models.lstm_model_forward", "models.lstm_model_backward",
    "train_eval.train", "train_eval.evaluate", "train_eval.predict_dataset",
    "train_eval.mae_loss", "train_eval.make_batches",
    "cli.write_csv_atomic", "cli.write_meta",
]

# per-operation call counts of the program at the commit that defined
# this benchmark; reported beside the measured counts, asserted by
# test_bench.py
KNOWN_COUNTS = {
    "wavenet_cell": {"nn_core.conv1d_forward.calls": 42000,
                     "train_eval.predict_dataset.calls": 2},
    "lstm_cell": {"nn_core.lstm_cell_forward.calls": 31360,
                  "train_eval.predict_dataset.calls": 2},
}


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot produce a valid result."""


def import_cli():
    if not (ROOT / "src" / "lorenzcast" / "cli.py").is_file():
        raise BenchError(f"no lorenzcast sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from lorenzcast import cli
    return cli


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports lorenzcast.cli and
    builds its parser, as every CLI invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# one operation and its output checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cell(out_dir: Path, first: dict | None) -> tuple[list[str], dict]:
    with open(out_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rmse = float(rows[0]["rmse_scaled"])
    digests = {name: sha256(out_dir / name) for name in CELL_OUTPUTS}
    reasons = []
    if not math.isfinite(rmse) or rmse > RMSE_CEILING:
        reasons.append(f"rmse_scaled {rmse!r} not finite or above {RMSE_CEILING}")
    if first is not None:
        reasons += [f"{name} differs from the first operation's"
                    for name in CELL_OUTPUTS
                    if digests[name] != first["sha256"][name]]
    return reasons, {"rmse_scaled": rmse, "sha256": digests}


def check_grad(stdout: str) -> tuple[list[str], dict]:
    """Parse the grad-check table: case, params, error, threshold, result."""
    errors, reasons = {}, []
    for line in stdout.splitlines()[1:]:
        case, _, error, threshold, _ = line.split()
        errors[case] = float(error)
        if not float(error) < float(threshold):
            reasons.append(f"{case} error {error} at or above {threshold}")
    if not errors:
        reasons.append("grad-check printed no cases")
    return reasons, {"grad_errors": errors}


def run_op(cli, argv: list[str], work: Path, tracer, first: dict | None) -> dict:
    out_dir = None
    if argv[0] == "train":
        out_dir = Path(tempfile.mkdtemp(dir=work))
        argv = argv + ["--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    tracer.begin_op()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # a traceback escaping main is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    spans = tracer.end_op()
    record = {"wall_s": wall, "cpu_s": cpu, "exit_code": code}
    reasons = [] if code == 0 else [
        " ".join(f"exit code {code} {stderr.getvalue().strip()}".split())]
    try:
        # grad-check prints its table before exiting 2 on a failed case
        if out_dir is None:
            extra, fields = check_grad(stdout.getvalue())
        else:
            extra, fields = check_cell(out_dir, first) if code == 0 else ([], {})
        reasons += extra
        record.update(fields)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        reasons.append(f"unreadable output: {exc}")
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    record["failures"] = reasons
    record.update(phases(spans, cell=out_dir is not None))
    return record


def phases(spans, cell: bool) -> dict:
    """Examples and seconds of an operation's gradient phase ('train')
    and, for a cell, of its prediction phase ('eval')."""
    if cell:
        return {
            "train_examples": spans.counts["train_eval.train.examples"],
            "train_s": spans.seconds(["train_eval.train"]),
            "eval_examples": spans.counts["train_eval.evaluate.examples"],
            "eval_s": spans.seconds(["train_eval.evaluate"]),
        }
    return {
        "train_examples": GRAD_CHECK_BATCH * spans.counts["nn_core.grad_check.loss_evals"],
        "train_s": spans.seconds(["nn_core.grad_check"]),
    }


def probes(workload: str) -> list[str]:
    """The only functions wrapped in an untraced run: the phase
    boundaries that the end-to-end throughput is measured at."""
    if workload == "grad_check":
        return ["nn_core.grad_check"]
    return ["train_eval.train", "train_eval.evaluate"]


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops: list[dict], setups: list[float]) -> dict:
    # an operation that failed before it reached training has no rate
    rates = [op["train_examples"] / op["train_s"] for op in ops if op["train_s"] > 0]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s": metric(statistics.median(op["wall_s"] for op in ops), "s"),
        "train_examples_per_s": metric(
            statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def op_layers(spans) -> dict[str, float]:
    """Per-layer counts and self times of one traced operation."""
    n = len(spans.names)
    calls = np.bincount(spans.codes, minlength=n)
    own = np.bincount(spans.codes, weights=self_times(
        spans.starts, spans.ends, spans.parents), minlength=n)
    out = {}
    for name in LAYER_FUNCTIONS:
        code = spans.names.index(name)
        out[f"{name}.calls"] = int(calls[code])
        out[f"{name}.self_s"] = float(own[code])

    def n_under(names, ancestor):
        return int((spans.mask(names) & spans.under(ancestor)).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    checks = out["nn_core.grad_check.calls"]
    backwards = n_under(MODEL_BACKWARDS, "nn_core.grad_check")
    predicts = out["train_eval.predict_dataset.calls"]
    out.update({
        "nn_core.grad_check.loss_evals": spans.counts["nn_core.grad_check.loss_evals"],
        "nn_core.grad_check.backward_useful_ratio": ratio(min(checks, backwards), backwards),
        "optim.adam_step.arrays_per_call": ratio(
            spans.counts["optim.adam_step.arrays"], out["optim.adam_step.calls"]),
        "train_eval.predict_dataset.forward_calls": n_under(
            MODEL_FORWARDS, "train_eval.predict_dataset"),
        "train_eval.predict_dataset.useful_ratio": ratio(
            len(spans.distinct_predictions), predicts),
        "train_eval.evaluate.examples_per_s": ratio(
            spans.counts["train_eval.evaluate.examples"],
            spans.seconds(["train_eval.evaluate"])),
    })
    return out


def per_layer(layers: list[dict], overhead: float, units: dict[str, str]) -> dict:
    """Counts of the first traced operation (they must repeat), median
    timings over traced operations, and the tracing overhead."""
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = metric(overhead, unit)
            continue
        values = [layer[name] for layer in layers]
        metrics[name] = metric(
            statistics.median(values) if is_timing(name) else values[0], unit)
    return metrics


def is_timing(name: str) -> bool:
    return name.endswith(("self_s", "_per_s"))


def repeat_failures(layers: list[dict]) -> list[str]:
    """Counts (everything but timings) must repeat exactly across traced
    operations of the same argv."""
    return [f"{name} differs between traced operations: "
            f"{[layer[name] for layer in layers]}"
            for name in layers[0]
            if not is_timing(name)
            and any(layer[name] != layers[0][name] for layer in layers[1:])]


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_schema(metrics: dict, units: dict[str, str]) -> None:
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        raise BenchError(f"metrics do not match BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, wrong unit {wrong}")


# ---------------------------------------------------------------------------
# machine block


def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _proc_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "os_threads": _proc_field("/proc/self/status", "Threads"),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# driver


def measure(cli, workload: str, seed: int, seconds: float, trace: bool,
            work: Path, spans_out: str | None) -> dict:
    argv = WORKLOADS[workload][0] + ["--seed", str(seed)]
    # set-up is sampled before and after the operations, so that its
    # median spans the run rather than one moment of the machine's speed
    setups = [] if trace else [setup_seconds() for _ in range(SETUP_SAMPLES)]
    ops: list[dict] = []
    harness: set[str] = set()
    start = time.perf_counter()

    def run_one(tracer, traced: bool) -> dict:
        tracer.install()
        try:
            harness.update(f"not patched: {b}" for b in tracer.unpatched())
            ops.append(run_op(cli, argv, work, tracer, ops[0] if ops else None))
        finally:
            tracer.uninstall()
        ops[-1]["traced"] = traced
        return ops[-1]

    def timed_out():
        return time.perf_counter() - start >= seconds

    probe = Tracer(probes(workload))
    if not trace:
        while not ops or not timed_out():
            run_one(probe, False)
        setups += [setup_seconds() for _ in range(SETUP_SAMPLES)]
        return {"ops": ops, "metrics": end_to_end(ops, setups),
                "harness_failures": sorted(harness)}

    # untraced and traced operations alternate, so that each traced one
    # has an untraced neighbour to measure the tracing overhead against
    tracer = Tracer(public_functions())
    pairs = []
    while len(pairs) < MIN_TRACED_OPS or not timed_out():
        pairs.append((run_one(probe, False), run_one(tracer, True)))
    overhead = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    layers = [op_layers(spans) for spans in tracer.ops]
    if spans_out:
        write_spans(tracer, spans_out)
    return {"ops": ops,
            "metrics": per_layer(layers, overhead, declared_units(True)),
            "harness_failures": sorted(harness) + repeat_failures(layers),
            "bindings": tracer.bindings,
            "known_counts": {k: {"expected": v, "measured": layers[0][k]}
                             for k, v in KNOWN_COUNTS.get(workload, {}).items()}}


def write_spans(tracer, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["op", "span", "parent", "name", "start", "end"])
        for op_id, spans in enumerate(tracer.ops):
            for i in range(len(spans)):
                writer.writerow([op_id, i, int(spans.parents[i]),
                                 spans.names[spans.codes[i]],
                                 repr(float(spans.starts[i])),
                                 repr(float(spans.ends[i]))])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to the CLI as --seed (default: the CLI's)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write every span to this CSV")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed
    try:
        cli = import_cli()
        units = declared_units(bool(args.trace))
        work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
        try:
            run = measure(cli, args.workload, seed, args.seconds,
                          bool(args.trace), work, args.spans)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check_schema(run["metrics"], units)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    ops = run["ops"]
    failed = sum(1 for op in ops if op["failures"])
    harness = run["harness_failures"]
    for i, op in enumerate(ops):
        for reason in op["failures"]:
            print(f"operation {i} failed: {reason}", file=sys.stderr)
    for reason in harness:
        print(f"harness check failed: {reason}", file=sys.stderr)
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "argv": WORKLOADS[args.workload][0],
              "fail_ratio": failed / len(ops), "machine": machine(), **run}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and not harness,
                      "attempted": len(ops), "failed": failed,
                      "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
