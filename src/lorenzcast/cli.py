"""Command-line entry point.

Subcommands: generate, train, eval, grad-check, reproduce. Every run
writes a flat key=value metadata record that is itself a valid --config
file, so any run can be replayed from its output directory alone. All
file output is atomic (temp file + rename).

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 IO failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
import time
import uuid
from dataclasses import fields as dataclass_fields

import numpy as np

from . import models as model_zoo
from .lorenz import NonFinite, SERIES_NAMES, euler_integrate, save_series_csv
from .nn_core import grad_check, load_params_csv, param_count, save_params_csv
from .train_eval import (
    SCENARIOS,
    TrainConfig,
    build_model,
    evaluate,
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

GRAD_CHECK_THRESHOLDS = {"ffn": 1e-5, "wavenet": 1e-5, "lstm": 1e-4}


class UsageError(ValueError):
    pass


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
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
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            record[key.strip()] = value.strip()
    return record


_CONFIG_FIELDS = {f.name: f for f in dataclass_fields(TrainConfig)}


def _coerce(name: str, raw: str):
    if name in ("conditional", "multitask"):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"{name} must be boolean, got {raw!r}")
    if name in ("seed", "epochs", "batch_size", "window", "n_train", "n_test",
                "stack_channels"):
        return int(raw)
    if name in ("learning_rate", "l2_lambda", "dropout"):
        return float(raw)
    if name == "task_weights":
        return tuple(float(v) for v in raw.split(","))
    return raw


def config_from_record(record: dict[str, str],
                       overrides: dict | None = None) -> TrainConfig:
    kwargs = {}
    for key, raw in record.items():
        if key == "command":
            continue
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def resolve_out_dir(arg: str | None, default_name: str) -> str:
    base = arg or os.environ.get(OUT_DIR_ENV)
    return base if base is not None else os.path.join("runs", default_name)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    scenario = SCENARIOS[args.scenario]
    out_dir = resolve_out_dir(args.out, f"generate-{scenario.name}")
    n_points = args.points
    series = euler_integrate(scenario.init, scenario.params).truncate(n_points)
    _write_atomic(os.path.join(out_dir, "trajectory.csv"),
                  lambda tmp: save_series_csv(series, tmp))
    for a, b in (("x", "y"), ("x", "z"), ("y", "z")):
        rows = zip(
            (f"{v:.17g}" for v in series.series(a)),
            (f"{v:.17g}" for v in series.series(b)),
        )
        write_csv_atomic(os.path.join(out_dir, f"{a}{b}.csv"), [a, b], rows)
    write_meta(os.path.join(out_dir, "run_meta.txt"), {
        "command": "generate",
        "scenario": scenario.name,
        "points": n_points,
        "sigma": scenario.params.sigma,
        "rho": scenario.params.rho,
        "beta": scenario.params.beta,
        "dt": scenario.params.dt,
        "init_x": scenario.init.x,
        "init_y": scenario.init.y,
        "init_z": scenario.init.z,
    })
    print(f"wrote {n_points}-row trajectory and pairwise files to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval


def _train_overrides(args) -> dict:
    keys = ("model", "conditional", "multitask", "target", "scenario", "seed",
            "epochs", "batch_size", "sampling", "window", "learning_rate",
            "l2_lambda", "dropout", "stack_channels")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _write_run_outputs(out_dir: str, config: TrainConfig, result,
                       report) -> None:
    _write_atomic(os.path.join(out_dir, "checkpoint.csv"),
                  lambda tmp: save_params_csv(result.model.params, tmp))

    record = {"command": "train"}
    for f in dataclass_fields(TrainConfig):
        value = getattr(config, f.name)
        if value is None:  # unset optionals fall back to their defaults on replay
            continue
        if f.name == "task_weights":
            value = ",".join(f"{w:.17g}" for w in value)
        record[f.name] = value
    scenario = SCENARIOS[config.scenario]
    comments = {
        "param_count": result.metadata["param_count"],
        "init_variant": result.metadata["init_variant"],
        "train_seconds": result.metadata["train_seconds"],
        "sigma": scenario.params.sigma,
        "rho": scenario.params.rho,
        "beta": scenario.params.beta,
        "dt": scenario.params.dt,
        "init_x": scenario.init.x,
        "init_y": scenario.init.y,
        "init_z": scenario.init.z,
    }
    write_meta(os.path.join(out_dir, "run_meta.txt"), record, comments)

    rows = [[_fmt(row[c]) for c in REPORT_COLUMNS] for row in report.rows()]
    write_csv_atomic(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS, rows)
    _write_predictions(out_dir, config, result)
    write_csv_atomic(
        os.path.join(out_dir, "loss_history.csv"), ["epoch", "train_loss"],
        [[i, f"{v:.17g}"] for i, v in enumerate(result.loss_history)],
    )


def _write_predictions(out_dir: str, config: TrainConfig, result) -> None:
    """predictions_<series>.csv: t,truth,prediction (scaled space) for all
    test steps. t is the absolute series index."""
    preds = predict_dataset(result.model, result.test_ds, batch_size=1)
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
    config = config_from_record(record, _train_overrides(args))
    out_dir = resolve_out_dir(
        args.out,
        f"train-{config.model}-{config.scenario}-{config.target}-{config.seed}",
    )
    result, report = train_and_evaluate(config)
    _write_run_outputs(out_dir, config, result, report)
    for row in report.rows():
        print(f"{row['model']} scenario={row['scenario']} series={row['series']} "
              f"rmse_scaled={row['rmse_scaled']:.6g} rmse_raw={row['rmse_raw']:.6g}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = args.run
    meta_path = os.path.join(run_dir, "run_meta.txt")
    ckpt_path = os.path.join(run_dir, "checkpoint.csv")
    config = config_from_record(read_meta(meta_path))
    train_ds, test_ds, scaled = prepare_data(config)
    model = build_model(config)
    load_params_csv(model.params, ckpt_path)
    info = {"model": config.model, "conditional": config.conditional,
            "multitask": config.multitask, "scenario": config.scenario,
            "seed": config.seed}
    report = evaluate(model, test_ds, scale=scaled.scale, info=info)
    out_dir = args.out or run_dir
    rows = [[_fmt(row[c]) for c in REPORT_COLUMNS] for row in report.rows()]
    write_csv_atomic(os.path.join(out_dir, "eval_report.csv"),
                     REPORT_COLUMNS, rows)
    for series, value in report.rmse_scaled.items():
        print(f"{config.model} series={series} rmse_scaled={value:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grad-check


def _grad_check_case(name: str, seed: int):
    """Fresh random model + data, returns (max relative error, n_params)."""
    rng = np.random.default_rng(seed)
    if name == "ffn":
        model = model_zoo.FfnModel(model_zoo.FfnParams())
        inputs = rng.uniform(-0.5, 0.5, size=(3, 1, 5))
        targets = rng.uniform(-0.5, 0.5, size=(3, 1))
    elif name.startswith("wavenet"):
        variant = name.split("-", 1)[1]
        cfg = model_zoo.WaveNetConfig(
            in_channels=1 if variant == "unconditional" else 3,
            n_tasks=3 if variant == "multitask" else 1,
        )
        model = model_zoo.WaveNetModel(model_zoo.WaveNetParams(cfg))
        inputs = rng.uniform(-0.5, 0.5, size=(3, cfg.in_channels, 16))
        targets = rng.uniform(-0.5, 0.5, size=(3, cfg.n_tasks))
    elif name == "lstm":
        model = model_zoo.LstmModel(model_zoo.LstmModelParams(1))
        inputs = rng.uniform(-0.5, 0.5, size=(16, 3, 1))
        targets = rng.uniform(-0.5, 0.5, size=(3, 1))
    else:
        raise UsageError(f"unknown grad-check case {name!r}")
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


GRAD_CHECK_CASES = ["ffn", "wavenet-unconditional", "wavenet-conditional",
                    "wavenet-multitask", "lstm"]


def cmd_grad_check(args) -> int:
    all_ok = True
    print(f"{'case':24s} {'params':>7s} {'max rel err':>12s} {'threshold':>10s}  result")
    for case in GRAD_CHECK_CASES:
        family = case.split("-")[0]
        threshold = GRAD_CHECK_THRESHOLDS[family]
        error, n_params = _grad_check_case(case, args.seed)
        ok = error < threshold
        all_ok &= ok
        print(f"{case:24s} {n_params:7d} {error:12.3e} {threshold:10.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# reproduce


def _grid_cells():
    """(cell label, base config kwargs, per-run targets). A target of None
    means one multitask run covering all three series."""
    cells = []
    for scenario in ("A", "B"):
        cells.append((f"wavenet-unconditional-{scenario}",
                      dict(model="wavenet", scenario=scenario), list(SERIES_NAMES)))
        cells.append((f"wavenet-conditional-{scenario}",
                      dict(model="wavenet", conditional=True, scenario=scenario),
                      list(SERIES_NAMES)))
        cells.append((f"lstm-unconditional-{scenario}",
                      dict(model="lstm", scenario=scenario), list(SERIES_NAMES)))
        cells.append((f"lstm-conditional-{scenario}",
                      dict(model="lstm", conditional=True, scenario=scenario),
                      list(SERIES_NAMES)))
    cells.append(("wavenet-multitask-A",
                  dict(model="wavenet", conditional=True, multitask=True,
                       scenario="A"), [None]))
    cells.append(("lstm-unconditional-adjacent-A",
                  dict(model="lstm", sampling="adjacent", scenario="A"),
                  list(SERIES_NAMES)))
    cells.append(("ffn-baseline-A", dict(model="ffn", scenario="A"),
                  list(SERIES_NAMES)))
    return cells


def _reproduce_job(job):
    """One (cell, config) training; returns runs.csv rows. Worker-safe."""
    cell, kwargs, seed = job
    config = TrainConfig(seed=seed, **kwargs)
    try:
        _, report = train_and_evaluate(config)
    except Exception as exc:  # failed cells are marked, not fatal
        return [[cell, kwargs.get("model"), kwargs.get("conditional", False),
                 kwargs.get("multitask", False), kwargs.get("sampling", "shuffled"),
                 kwargs.get("scenario"), seed, kwargs.get("target", "?"),
                 "", "", "", f"failed: {exc}"]]
    rows = []
    for row in report.rows():
        rows.append([
            cell, row["model"], _fmt(row["conditional"]), _fmt(row["multitask"]),
            kwargs.get("sampling", "shuffled"), row["scenario"], row["seed"],
            row["series"], f"{row['rmse_scaled']:.17g}", f"{row['rmse_raw']:.17g}",
            _fmt(row["wall_seconds"]), "ok",
        ])
    return rows


def cmd_reproduce(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    out_dir = resolve_out_dir(args.out, "reproduce")
    os.makedirs(out_dir, exist_ok=True)

    jobs = []
    for cell, base, targets in _grid_cells():
        for seed in seeds:
            for target in targets:
                kwargs = dict(base)
                if target is not None:
                    kwargs["target"] = target
                jobs.append((cell, kwargs, seed))

    started = time.perf_counter()
    results: dict[int, list] = {}
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            for i, rows in zip(range(len(jobs)), pool.map(_reproduce_job, jobs)):
                results[i] = rows
                print(f"[{i + 1}/{len(jobs)}] {jobs[i][0]} seed={jobs[i][2]} done")
    else:
        for i, job in enumerate(jobs):
            results[i] = _reproduce_job(job)
            print(f"[{i + 1}/{len(jobs)}] {job[0]} seed={job[2]} done")

    runs_header = ["cell", "model", "conditional", "multitask", "sampling",
                   "scenario", "seed", "series", "rmse_scaled", "rmse_raw",
                   "wall_seconds", "status"]
    runs_rows = [row for i in sorted(results) for row in results[i]]
    write_csv_atomic(os.path.join(out_dir, "runs.csv"), runs_header, runs_rows)

    # aggregate into the results-table layout: one row per cell and series
    table_rows = []
    for cell, _, _ in _grid_cells():
        by_series: dict[str, list[float]] = {}
        failed = False
        for row in runs_rows:
            if row[0] != cell:
                continue
            if row[11] != "ok":
                failed = True
                continue
            by_series.setdefault(row[7], []).append(float(row[8]))
        for series in SERIES_NAMES:
            values = by_series.get(series, [])
            if not values:
                table_rows.append([cell, series, "", "", 0, "failed"])
                continue
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) >= 2 else ""
            table_rows.append([
                cell, series, f"{mean:.17g}",
                "" if std == "" else f"{std:.17g}", len(values),
                "partial" if failed else "ok",
            ])
    write_csv_atomic(
        os.path.join(out_dir, "table.csv"),
        ["cell", "series", "rmse_mean", "rmse_std", "n_seeds", "status"],
        table_rows,
    )
    write_meta(os.path.join(out_dir, "run_meta.txt"), {
        "command": "reproduce",
        "seeds": args.seeds,
        "workers": args.workers,
    })
    elapsed = time.perf_counter() - started
    print(f"wrote {len(runs_rows)} run rows to {out_dir} "
          f"({elapsed / 60:.1f} min)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--model", choices=("wavenet", "lstm", "ffn"), default=None)
    p.add_argument("--conditional", action="store_const", const=True, default=None)
    p.add_argument("--multitask", action="store_const", const=True, default=None)
    p.add_argument("--target", choices=SERIES_NAMES, default=None)
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--sampling", choices=("shuffled", "adjacent"), default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--stack-channels", dest="stack_channels", type=int, default=None)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: unknown name {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFinite, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
