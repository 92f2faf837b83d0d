"""Command-line entry point.

Subcommands: generate, train, eval, grad-check, reproduce. generate,
train and reproduce write a flat key=value metadata record, run_meta.txt;
train's is itself a valid --config file, so a training run can be
replayed from its output directory alone. All file output is atomic
(temp file + rename).

Exit codes: 0 success, 1 usage error, 2 numerical failure (for reproduce:
any failed run), 3 IO failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import os
import sys
import time
import uuid
from dataclasses import fields as dataclass_fields

import numpy as np

from . import models as model_zoo
from .lorenz import NonFinite, SERIES_NAMES, euler_integrate
from .nn_core import grad_check, load_params_csv, param_count, save_params_csv
from .train_eval import (
    SCENARIOS,
    EvalReport,
    TrainConfig,
    build_model,
    evaluate,
    grid_jobs,
    mae_loss,
    predict_dataset,
    prepare_data,
    train_and_evaluate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

OUT_DIR_ENV = "LORENZCAST_OUT"

REPORT_COLUMNS = ["model", "conditional", "multitask", "scenario", "seed",
                  "series", "rmse_scaled", "rmse_raw", "wall_seconds"]
RUNS_COLUMNS = ["cell", "model", "conditional", "multitask", "sampling",
                "scenario", "seed", "series", "rmse_scaled", "rmse_raw",
                "wall_seconds", "status"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a UsageError (exit 1, one line), not as
    usage text and SystemExit(2). Subcommand parsers share this class."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# atomic file helpers


def _write_atomic(path: str, save) -> None:
    """Create `path` by calling save(tmp) on a temp path beside it and
    renaming that over `path`. The temp name is random, so runs writing
    into one directory never share it, and a failed save leaves no file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
    try:
        save(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list[str], rows) -> None:
    def save(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _write_atomic(path, save)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    return str(value)


# ---------------------------------------------------------------------------
# flat key=value config / metadata records


def write_meta(path: str, record: dict, comments: dict | None = None) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in record.items()]
    for key, value in (comments or {}).items():
        lines.append(f"# {key} = {_fmt(value)}")

    def save(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    _write_atomic(path, save)


def read_meta(path: str) -> dict[str, str]:
    record = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = (part.strip() for part in line.partition("="))
                if key in record:
                    raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
                record[key] = value
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return record


_CONFIG_FIELDS = {f.name: f for f in dataclass_fields(TrainConfig)}


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


# TrainConfig annotation -> parser of a value's text. An optional field that
# is unset has no record line, so `int | None` parses as `int`.
_PARSERS = {"str": str, "bool": _parse_bool, "int": int, "float": float,
            "tuple[float, ...]": lambda raw: tuple(map(float, raw.split(",")))}


def config_from_record(record: dict[str, str]) -> TrainConfig:
    """The TrainConfig a --config record, with any train flags merged over
    it, describes. Every value is text; a bad one is a UsageError."""
    kwargs = {}
    for key, raw in record.items():
        if key == "command":
            continue
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        parse = _PARSERS[_CONFIG_FIELDS[key].type.removesuffix(" | None")]
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def config_record(config: TrainConfig) -> dict:
    """The record config_from_record turns back into `config`. Unset
    optionals are left out, so they fall back to their defaults on replay."""
    return {name: getattr(config, name) for name in _CONFIG_FIELDS
            if getattr(config, name) is not None}


def resolve_out_dir(arg: str | None, default_name: str) -> str:
    base = arg or os.environ.get(OUT_DIR_ENV)
    return base if base is not None else os.path.join("runs", default_name)


def _scenario_record(scenario) -> dict:
    params, init = scenario.params, scenario.init
    return {"sigma": params.sigma, "rho": params.rho, "beta": params.beta,
            "dt": params.dt, "init_x": init.x, "init_y": init.y,
            "init_z": init.z}


def _run_series(config: TrainConfig) -> tuple[str, ...]:
    """The series one run forecasts: all three for the multitask model."""
    return SERIES_NAMES if config.multitask else (config.target,)


def _run_rows(config: TrainConfig, outcome) -> list[dict[str, str]]:
    """The result rows of one run, one per series it forecasts, as text
    keyed by RUNS_COLUMNS but "cell". `outcome` is the run's EvalReport, or
    the failure that leaves its RMSEs and wall time empty."""
    label = {name: _fmt(getattr(config, name)) for name in RUNS_COLUMNS
             if name in _CONFIG_FIELDS}  # model, conditional, ..., seed
    ok = isinstance(outcome, EvalReport)
    return [{**label, "series": series,
             "rmse_scaled": _fmt(outcome.rmse_scaled[series]) if ok else "",
             "rmse_raw": _fmt(outcome.rmse_raw[series]) if ok else "",
             "wall_seconds": f"{outcome.wall_seconds:.3f}" if ok else "",
             "status": "ok" if ok else outcome}
            for series in _run_series(config)]


def _write_report(path: str, config: TrainConfig, report: EvalReport) -> None:
    write_csv_atomic(path, REPORT_COLUMNS, [[row[c] for c in REPORT_COLUMNS]
                                            for row in _run_rows(config, report)])


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    scenario = SCENARIOS[args.scenario]
    out_dir = resolve_out_dir(args.out, f"generate-{scenario.name}")
    series = euler_integrate(scenario.init, scenario.params)
    if not 1 <= args.points <= len(series):
        raise UsageError(f"--points must be in [1, {len(series)}] for scenario "
                         f"{scenario.name}")
    series = series.truncate(args.points)
    # each column at full double precision (17 significant digits)
    columns = {name: [f"{v:.17g}" for v in series.series(name)]
               for name in SERIES_NAMES}
    write_csv_atomic(os.path.join(out_dir, "trajectory.csv"),
                     ["t", *SERIES_NAMES], zip(itertools.count(), *columns.values()))
    for a, b in itertools.combinations(SERIES_NAMES, 2):
        write_csv_atomic(os.path.join(out_dir, f"{a}{b}.csv"), [a, b],
                         zip(columns[a], columns[b]))
    write_meta(os.path.join(out_dir, "run_meta.txt"), {
        "command": "generate",
        "scenario": scenario.name,
        "points": len(series),
        **_scenario_record(scenario),
    })
    print(f"wrote {len(series)}-row trajectory and pairwise files to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval


def _write_run_outputs(out_dir: str, config: TrainConfig, result,
                       report) -> None:
    _write_atomic(os.path.join(out_dir, "checkpoint.csv"),
                  lambda tmp: save_params_csv(result.model.params, tmp))

    record = {"command": "train", **config_record(config)}
    comments = {
        "param_count": param_count(result.model.params),
        "init_variant": model_zoo.INIT_VARIANT[config.model],
        "train_seconds": f"{result.train_seconds:.3f}",
        **_scenario_record(SCENARIOS[config.scenario]),
    }
    write_meta(os.path.join(out_dir, "run_meta.txt"), record, comments)
    _write_report(os.path.join(out_dir, "report.csv"), config, report)
    _write_predictions(out_dir, config, result)
    write_csv_atomic(
        os.path.join(out_dir, "loss_history.csv"), ["epoch", "train_loss"],
        [[i, f"{v:.17g}"] for i, v in enumerate(result.loss_history)],
    )


def _write_predictions(out_dir: str, config: TrainConfig, result) -> None:
    """predictions_<series>.csv: t,truth,prediction (scaled space) for all
    test steps. t is the absolute series index."""
    preds = predict_dataset(result.model, result.test_ds)
    for j, series in enumerate(result.test_ds.target_names):
        rows = [
            [config.n_train + i,
             f"{result.test_ds.targets[i, j]:.17g}",
             f"{preds[i, j]:.17g}"]
            for i in range(result.test_ds.n_examples)
        ]
        write_csv_atomic(
            os.path.join(out_dir, f"predictions_{series}.csv"),
            ["t", "truth", "prediction"], rows,
        )


def cmd_train(args) -> int:
    record = read_meta(args.config) if args.config else {}
    record.update((name, getattr(args, name)) for name in _CONFIG_FIELDS
                  if getattr(args, name) is not None)
    config = config_from_record(record)
    if config.resolved_epochs < 1:  # the library allows 0 (an untrained model)
        raise UsageError("epochs must be >= 1")
    out_dir = resolve_out_dir(
        args.out,
        f"train-{config.model}-{config.scenario}-{config.target}-{config.seed}",
    )
    result, report = train_and_evaluate(config)
    _write_run_outputs(out_dir, config, result, report)
    for series, value in report.rmse_scaled.items():
        print(f"{config.model} scenario={config.scenario} series={series} "
              f"rmse_scaled={value:.6g} rmse_raw={report.rmse_raw[series]:.6g}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = args.run
    meta_path = os.path.join(run_dir, "run_meta.txt")
    ckpt_path = os.path.join(run_dir, "checkpoint.csv")
    config = config_from_record(read_meta(meta_path))
    train_ds, test_ds, scaled = prepare_data(config)
    model = build_model(config)
    try:
        load_params_csv(model.params, ckpt_path)
    except ValueError as exc:
        raise UsageError(f"bad checkpoint {ckpt_path}: {exc}") from None
    report = evaluate(model, test_ds, scaled.scale)
    _write_report(os.path.join(args.out or run_dir, "eval_report.csv"), config, report)
    for series, value in report.rmse_scaled.items():
        print(f"{config.model} series={series} rmse_scaled={value:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grad-check


# case -> (model checked, error threshold); the stacks run single-channel
GRAD_CHECK_CASES = {
    "ffn": (TrainConfig(model="ffn"), 1e-5),
    "wavenet-unconditional": (TrainConfig(model="wavenet", stack_channels=1), 1e-5),
    "wavenet-conditional": (TrainConfig(model="wavenet", conditional=True,
                                        stack_channels=1), 1e-5),
    "wavenet-multitask": (TrainConfig(model="wavenet", conditional=True,
                                      multitask=True, stack_channels=1), 1e-5),
    "lstm": (TrainConfig(model="lstm"), 1e-4),
}
GRAD_CHECK_BATCH = 3


def _grad_check_case(name: str, seed: int):
    """Fresh random model + data, returns (max relative error, n_params)."""
    config, _ = GRAD_CHECK_CASES[name]
    model = build_model(config)
    channels = 3 if config.conditional else 1
    window = config.resolved_window
    rng = np.random.default_rng(seed)
    if config.model == "lstm":
        # drawn time-major, as this case always was, so each seed keeps its
        # inputs: tests/test_grad_gate.py pins lstm seeds by what they draw
        inputs = rng.uniform(-0.5, 0.5, size=(window, GRAD_CHECK_BATCH, channels))
        inputs = inputs.transpose(1, 2, 0)
    else:
        inputs = rng.uniform(-0.5, 0.5, size=(GRAD_CHECK_BATCH, channels, window))
    targets = rng.uniform(-0.5, 0.5,
                          size=(GRAD_CHECK_BATCH, 3 if config.multitask else 1))
    # weights and biases alike drawn at O(1) scale
    model.params.theta[...] = rng.uniform(-0.5, 0.5, size=model.params.theta.size)

    def loss_fn():
        return mae_loss(model.forward(inputs, training=False)[0], targets)[0]

    def backward_fn():
        preds, cache = model.forward(inputs, training=False)
        loss, d_preds = mae_loss(preds, targets)
        model.backward(d_preds, cache)
        return loss

    error = grad_check(loss_fn, model.params, backward_fn, eps=1e-5)
    return error, param_count(model.params)


def cmd_grad_check(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    all_ok = True
    print(f"{'case':24s} {'params':>7s} {'max rel err':>12s} {'threshold':>10s}  result")
    for case, (_, threshold) in GRAD_CHECK_CASES.items():
        error, n_params = _grad_check_case(case, args.seed)
        ok = error < threshold
        all_ok &= ok
        print(f"{case:24s} {n_params:7d} {error:12.3e} {threshold:10.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# reproduce


TABLE_COLUMNS = ["cell", "series", "rmse_mean", "rmse_std", "n_seeds", "status"]


def _reproduce_job(config: TrainConfig):
    """One grid run: its EvalReport, or a "failed: ..." status. Worker-safe."""
    try:
        return train_and_evaluate(config)[1]
    except Exception as exc:  # failed runs are marked, not fatal
        return f"failed: {exc}"


def _finished_runs(configs, workers: int):
    """(job index, outcome) of each run as it finishes: in job order
    in-process when `workers` is 1, else in finish order from a process
    pool. A run a dead worker left without an outcome is "failed: worker died"."""
    if workers == 1:
        yield from enumerate(map(_reproduce_job, configs))
        return
    pool = concurrent.futures.ProcessPoolExecutor(workers)
    try:
        futures = {pool.submit(_reproduce_job, config): i
                   for i, config in enumerate(configs)}
        for future in concurrent.futures.as_completed(futures):
            died = isinstance(future.exception(), concurrent.futures.BrokenExecutor)
            yield futures[future], "failed: worker died" if died else future.result()
    finally:  # an interrupted grid starts no further run
        pool.shutdown(cancel_futures=True)


def _table_rows(rows) -> list[list]:
    """table.csv's rows from runs.csv's, one per cell and series: the mean
    (needs one) and ddof=1 std (needs two) of its ok runs' scaled RMSE,
    their number, and "ok" when every run is ok, "partial" when some are
    and "failed" when none are."""
    table = []
    for cell, series in itertools.product(dict.fromkeys(row["cell"] for row in rows),
                                          SERIES_NAMES):
        runs = [row for row in rows if (row["cell"], row["series"]) == (cell, series)]
        values = [float(run["rmse_scaled"]) for run in runs if run["status"] == "ok"]
        mean = float(np.mean(values)) if values else None
        std = float(np.std(values, ddof=1)) if len(values) >= 2 else None
        status = "ok" if len(values) == len(runs) else "partial" if values else "failed"
        table.append([cell, series, _fmt(mean), _fmt(std), len(values), status])
    return table


def cmd_reproduce(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise UsageError(f"--seeds must be comma-separated integers, "
                         f"got {args.seeds!r}") from None
    if min(seeds) < 0:
        raise UsageError(f"--seeds must be >= 0, got {args.seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise UsageError(f"--seeds must not repeat a seed, got {args.seeds!r}")
    out_dir = resolve_out_dir(args.out, "reproduce")
    os.makedirs(out_dir, exist_ok=True)
    jobs = grid_jobs(seeds)
    workers = min(args.workers, len(jobs))  # no idle worker processes

    started = time.perf_counter()
    rows_by_job = [[] for _ in jobs]  # runs.csv's rows of each finished run
    finished = _finished_runs([config for _, config in jobs], workers)
    for done, (i, outcome) in enumerate(finished, 1):
        cell, config = jobs[i]
        rows_by_job[i] = [{"cell": cell, **row} for row in _run_rows(config, outcome)]
        print(f"[{done}/{len(jobs)}] {cell} seed={config.seed} "
              f"series={','.join(_run_series(config))} done")
        # every run finished so far, in job order: an interrupt keeps them
        runs_rows = list(itertools.chain(*rows_by_job))
        write_csv_atomic(os.path.join(out_dir, "runs.csv"), RUNS_COLUMNS,
                         [[row[c] for c in RUNS_COLUMNS] for row in runs_rows])
    write_csv_atomic(os.path.join(out_dir, "table.csv"), TABLE_COLUMNS,
                     _table_rows(runs_rows))
    write_meta(os.path.join(out_dir, "run_meta.txt"),
               {"command": "reproduce", "seeds": args.seeds, "workers": workers})
    elapsed = time.perf_counter() - started
    print(f"wrote {len(runs_rows)} run rows to {out_dir} "
          f"({elapsed / 60:.1f} min)")
    n_failed = sum(rows[0]["status"] != "ok" for rows in rows_by_job)
    if n_failed:
        print(f"{n_failed} of {len(jobs)} runs failed; see runs.csv", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorenzcast",
        description="Lorenz-trajectory one-step-ahead forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a trajectory CSV and pairwise plot data")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="A")
    p.add_argument("--points", type=int, default=1500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one forecaster and evaluate it")
    p.add_argument("--config", default=None, help="flat key=value config file")
    for f in _CONFIG_FIELDS.values():  # as text, parsed with the --config lines
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, dest=f.name, action="store_const", const="true")
        else:
            p.add_argument(flag, dest=f.name)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="re-evaluate a saved checkpoint")
    p.add_argument("--run", required=True, help="directory with run_meta.txt + checkpoint.csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of every model family")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("reproduce", help="run the full results grid over several seeds")
    p.add_argument("--seeds", default="1234,1235,42")
    p.add_argument("--workers", type=int, default=min(4, os.cpu_count() or 1))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; a bad argument raises UsageError
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # the run asked for more than the machine has
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFinite as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
