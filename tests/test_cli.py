import csv
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lorenzcast
from lorenzcast import cli, train_eval
from lorenzcast import models as mz
from lorenzcast.lorenz import NonFinite
from lorenzcast.train_eval import TrainConfig


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# generate


def test_generate_scenario_a(tmp_path):
    out = tmp_path / "gen"
    assert cli.main(["generate", "--scenario", "A", "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")
    assert rows[0] == ["t", "x", "y", "z"]
    assert len(rows) == 1501  # header + 1500 time steps
    for name in ("xy.csv", "xz.csv", "yz.csv"):
        pair = _read_csv(out / name)
        assert len(pair) == 1501 and len(pair[1]) == 2
    assert (out / "run_meta.txt").exists()


# sha256 of the files `generate --scenario A` writes. Euler stepping runs on
# Python floats and touches no BLAS, so these hold on any IEEE-754 host.
GENERATE_A_SHA256 = {
    "trajectory.csv": "fd741bfbd4f0f406eeec89f5de131d540114dd27fa822ae42a0a1ae0c81ae275",
    "xy.csv": "0e48272b2bb73a25d26c6d4d7fbe3d04efe462b345ba9827883ba192ebfe0501",
    "xz.csv": "677fd0467b3aca87693d6180eedfa97e0f6b098d14059b331a31f2b3a146327e",
    "yz.csv": "0456d393ede269bfeb044ae8e11c48275baa7bcf3f87da52df75d24585be3fbd",
}


def test_generate_outputs_match_pinned_bytes(tmp_path):
    out = tmp_path / "gen"
    assert cli.main(["generate", "--scenario", "A", "--out", str(out)]) == 0
    assert {name: hashlib.sha256(_read_bytes(out / name)).hexdigest()
            for name in GENERATE_A_SHA256} == GENERATE_A_SHA256


def test_generate_scenario_b_bounded(tmp_path):
    out = tmp_path / "genb"
    assert cli.main(["generate", "--scenario", "B", "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")[1:]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 100.0


def test_generate_invalid_scenario_usage_error(tmp_path, capsys):
    assert cli.main(["generate", "--scenario", "Q",
                     "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys)


def test_generate_points_writes_that_many_rows(tmp_path, capsys):
    out = tmp_path / "gen"
    assert cli.main(["generate", "--points", "10", "--out", str(out)]) == 0
    assert len(_read_csv(out / "trajectory.csv")) == 1 + 10
    assert len(_read_csv(out / "xy.csv")) == 1 + 10
    assert "wrote 10-row" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0", "-3", "1502", "5000"])
def test_generate_points_out_of_range_usage_error(tmp_path, capsys, points):
    # scenario A integrates 1500 steps from its initial state: 1501 points
    assert cli.main(["generate", "--points", points, "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "trajectory.csv").exists()


def test_generate_uses_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate"]) == 0
    assert (tmp_path / "envout" / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# train / eval


def _train(tmp_path, name, *args):
    out = tmp_path / name
    code = cli.main(["train", "--out", str(out), *args])
    assert code == 0
    return out


def test_train_writes_artifacts(tmp_path):
    out = _train(tmp_path, "run", "--model", "ffn", "--epochs", "2",
                 "--seed", "7")
    for name in ("checkpoint.csv", "run_meta.txt", "report.csv",
                 "predictions_x.csv", "loss_history.csv"):
        assert (out / name).exists(), name
    report = _read_csv(out / "report.csv")
    assert report[0] == cli.REPORT_COLUMNS
    assert len(report) == 2
    preds = _read_csv(out / "predictions_x.csv")
    assert preds[0] == ["t", "truth", "prediction"]
    assert len(preds) == 501  # 500 test steps
    assert preds[1][0] == "1000"  # first test target index


def test_train_multitask_writes_three_prediction_files(tmp_path):
    out = _train(tmp_path, "multi", "--model", "wavenet", "--conditional",
                 "--multitask", "--epochs", "1")
    for series in ("x", "y", "z"):
        assert (out / f"predictions_{series}.csv").exists()


def test_train_deterministic_byte_identical(tmp_path):
    a = _train(tmp_path, "a", "--model", "ffn", "--epochs", "2", "--seed", "3")
    b = _train(tmp_path, "b", "--model", "ffn", "--epochs", "2", "--seed", "3")
    assert _read_bytes(a / "predictions_x.csv") == _read_bytes(b / "predictions_x.csv")
    assert _read_bytes(a / "checkpoint.csv") == _read_bytes(b / "checkpoint.csv")


def test_train_replay_from_metadata(tmp_path):
    a = _train(tmp_path, "orig", "--model", "wavenet", "--epochs", "1",
               "--seed", "9", "--target", "y")
    b = tmp_path / "replay"
    assert cli.main(["train", "--config", str(a / "run_meta.txt"),
                     "--out", str(b)]) == 0
    assert _read_bytes(a / "predictions_y.csv") == _read_bytes(b / "predictions_y.csv")


def test_train_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"model = ffn\n\xff\xfe = 1\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(config) in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()

    # eval reads run_meta.txt the same way
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "run_meta.txt").write_bytes(config.read_bytes())
    assert cli.main(["eval", "--run", str(tmp_path / "run")]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)


def test_train_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("model = ffn\nbogus_knob = 3\n")
    assert cli.main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1


def test_train_report_matches_eval_of_checkpoint(tmp_path):
    out = _train(tmp_path, "one", "--model", "ffn", "--epochs", "1",
                 "--seed", "4")
    assert cli.main(["eval", "--run", str(out)]) == 0
    train_rows = _read_csv(out / "report.csv")
    eval_rows = _read_csv(out / "eval_report.csv")
    # identical apart from the wall_seconds column
    assert train_rows[1][:-1] == eval_rows[1][:-1]


# sha256 of checkpoint.csv and predictions_x.csv after 3 epochs at seed 1234.
# They were taken from the per-array parameter code that the flat store
# replaced, and the store must reproduce them exactly: a store that
# reorders the layers or drifts by one ulp fails here. The unconditional
# (one feature) and adjacent-sampling (carried h0, c0) LSTM rows were taken
# from the BPTT that formed every product inside the step loop.
GOLDEN_3_EPOCHS = [
    (["--model", "wavenet", "--conditional"],
     "3808574aee5477ef1a68c397022aa8cacbfd9c176714cf7da92ad1419d099c49",
     "a246ca6df262967a144060d55d47856c9f6e572768a3e00ce8ee8eeff687c697"),
    (["--model", "lstm", "--conditional"],
     "a95379511d7a32825bacf63fe6f607be7c455f2475ffa4ee866708731e04237e",
     "517b11286b4b0e051eec17b078f045059ee69f43e7f7ae455bd74dd7ac256a09"),
    (["--model", "ffn"],
     "b7d0fff0c3ff87a8dd6b056f54cda94f096fb45f55bd5a0a63552283e0beaf4d",
     "2f34374662df8671237c873d5b8a6fa86a60214dc73edc37777012e65fe92944"),
    (["--model", "lstm"],
     "061b3c935186d50d2290dfee4e56709b46313b33f332c6ee94772726a96e924b",
     "700ae268d938b1b90541d3114cf95e6285b58acdc2e49973271a1864dbab9d9d"),
    (["--model", "lstm", "--sampling", "adjacent"],
     "0d5027ccefb4b04a17293abba55a2d0210b50ab6c9c60201e51dc1bd404fa8be",
     "669bf3e317947ae96c3a0c7919a580b38189ea2c2371365b3b8266346b4f1965"),
]


@pytest.mark.parametrize("model_args,checkpoint,predictions", GOLDEN_3_EPOCHS)
def test_train_outputs_match_pinned_bytes(tmp_path, model_args, checkpoint,
                                          predictions):
    out = _train(tmp_path, "run", *model_args, "--target", "x",
                 "--scenario", "A", "--seed", "1234", "--epochs", "3")
    sha = {name: hashlib.sha256(_read_bytes(out / name)).hexdigest()
           for name in ("checkpoint.csv", "predictions_x.csv")}
    assert sha == {"checkpoint.csv": checkpoint, "predictions_x.csv": predictions}

    # load -> save through a fresh model's store gives the same bytes
    config = cli.config_from_record(cli.read_meta(out / "run_meta.txt"))
    model = cli.build_model(config)
    cli.load_params_csv(model.params, out / "checkpoint.csv")
    cli.save_params_csv(model.params, tmp_path / "again.csv")
    assert _read_bytes(tmp_path / "again.csv") == _read_bytes(out / "checkpoint.csv")


@pytest.mark.parametrize("model_args", [["--model", "lstm", "--conditional"],
                                        ["--model", "ffn"]],
                         ids=["lstm-conditional", "ffn"])
def test_pinned_bytes_hold_at_one_blas_thread(tmp_path, model_args):
    # the in-process run above uses OpenBLAS's default thread count; this
    # one sets a single thread in the child's environment only
    (checkpoint, predictions), = [row[1:] for row in GOLDEN_3_EPOCHS
                                  if row[0] == model_args]
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(lorenzcast.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-m", "lorenzcast.cli", "train",
                    "--out", str(out), *model_args, "--target", "x",
                    "--scenario", "A", "--seed", "1234", "--epochs", "3"],
                   env=env, check=True, capture_output=True, timeout=300)
    sha = {name: hashlib.sha256(_read_bytes(out / name)).hexdigest()
           for name in ("checkpoint.csv", "predictions_x.csv")}
    assert sha == {"checkpoint.csv": checkpoint, "predictions_x.csv": predictions}


def test_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    def failing_save(params, path):
        with open(path, "w") as fh:
            fh.write("layer_name,index,value\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_params_csv", failing_save)
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), "--model", "ffn",
                     "--epochs", "1"]) == cli.EXIT_IO
    assert os.listdir(out) == []


def test_outputs_follow_the_umask(tmp_path):
    out = _train(tmp_path, "run", "--model", "ffn", "--epochs", "1")
    umask = os.umask(0)
    os.umask(umask)
    for name in os.listdir(out):
        assert os.stat(out / name).st_mode & 0o777 == 0o666 & ~umask, name


@pytest.mark.parametrize("args", [
    ["--model", "wavenet", "--window", "4"],    # the stack reads exactly 16 steps
    ["--model", "wavenet", "--window", "15"],
    ["--model", "wavenet", "--window", "24", "--epochs", "1"],
    ["--model", "wavenet", "--dropout", "0.9", "--epochs", "1"],  # lstm only
    ["--model", "ffn", "--dropout", "0.2", "--epochs", "1"],
    ["--model", "lstm", "--l2-lambda", "7.5", "--epochs", "1"],  # wavenet only
    ["--model", "ffn", "--l2-lambda", "0", "--epochs", "1"],
    ["--model", "ffn", "--window", "0"],        # the ffn reads exactly 5 steps
    ["--model", "ffn", "--window", "6"],
    ["--model", "lstm", "--learning-rate", "-1"],
    ["--model", "ffn", "--learning-rate", "0"],
    ["--model", "lstm", "--dropout", "1.0"],
    ["--model", "ffn", "--dropout", "-0.1"],
    ["--model", "ffn", "--epochs", "0"],        # the library allows 0, the CLI not
    ["--model", "ffn", "--epochs", "-2"],
    ["--model", "wavenet", "--stack-channels", "0"],
    ["--model", "wavenet", "--stack-channels", "-2"],
    ["--model", "lstm", "--window", "0"],
    ["--model", "lstm", "--window", "-2"],
    ["--model", "wavenet", "--l2-lambda", "-1", "--epochs", "1"],
    ["--model", "ffn", "--seed", "-1", "--epochs", "1"],
    ["--model", "lstm", "--learning-rate", "inf", "--epochs", "1"],
    ["--model", "ffn", "--learning-rate", "nan", "--epochs", "1"],
    ["--model", "wavenet", "--l2-lambda", "inf", "--epochs", "1"],
    ["--model", "lstm", "--l2-lambda", "inf", "--epochs", "1"],
    ["--model", "ffn", "--l2-lambda", "nan", "--epochs", "1"],
    ["--model", "lstm", "--stack-channels", "7", "--epochs", "1"],
    ["--model", "ffn", "--stack-channels", "1", "--epochs", "1"],
    ["--model", "lstm", "--window", "1000000000000"],  # above the 1501 points
    ["--model", "lstm", "--window", "1502"],
    ["--model", "foo"],
    ["--model", "ffn", "--seed", "abc"],
    ["--model", "ffn", "--epochs", "2.5"],
    ["--model", "ffn", "--scenario", "Q"],
    ["--model", "wavenet", "--conditional", "--multitask",
     "--task-weights", "0.5,0.5"],
    ["--model", "lstm", "--task-weights", "5,6", "--epochs", "1"],
], ids=["wavenet-window-4", "wavenet-window-15", "wavenet-window-24",
        "wavenet-dropout", "ffn-dropout", "lstm-l2-lambda", "ffn-l2-lambda",
        "ffn-window-0", "ffn-window-6", "lstm-lr-neg", "ffn-lr-0", "lstm-dropout-1",
        "ffn-dropout-neg", "epochs-0", "epochs-neg", "wavenet-stack-channels-0",
        "wavenet-stack-channels-neg", "lstm-window-0", "lstm-window-neg",
        "wavenet-l2-lambda-neg", "ffn-seed-neg", "lstm-lr-inf", "ffn-lr-nan",
        "wavenet-l2-lambda-inf", "lstm-l2-lambda-inf", "ffn-l2-lambda-nan",
        "lstm-stack-channels", "ffn-stack-channels", "lstm-window-huge",
        "lstm-window-1502", "model-unknown", "seed-not-a-number",
        "epochs-not-an-int", "scenario-unknown", "task-weights-two",
        "lstm-task-weights"])
def test_train_rejects_bad_values_with_usage_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["train", "--out", str(out), *args]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("line", ["seed = 12.5", "seed = -1", "epochs = three",
                                  "learning_rate = fast", "learning_rate = inf",
                                  "l2_lambda = inf", "task_weights = nan,0.5,0.5",
                                  "stack_channels = 3"])
def test_train_config_file_bad_number_usage_error(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"model = ffn\n{line}\n")
    assert cli.main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("line", [
    "n_train = 1400",  # 1400 + 500 exceeds the 1501 points a scenario generates
    "n_train = 0",
    "n_test = 0",
])
def test_train_config_file_bad_sizes_usage_error(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"model = ffn\n{line}\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) \
        == cli.EXIT_USAGE
    _assert_one_line_error(capsys)
    assert not out.exists()


def _corrupt_header(rows):
    return [["name", "index", "value"]] + rows[1:]


def _corrupt_index(rows):
    return rows[:1] + [[rows[1][0], "first", rows[1][2]]] + rows[2:]


def _corrupt_layout(rows):
    return rows[:-1]


def _corrupt_value(value):
    return lambda rows: rows[:2] + [rows[2][:2] + [value]] + rows[3:]


@pytest.mark.parametrize("corrupt", [_corrupt_header, _corrupt_index,
                                     _corrupt_layout, lambda rows: [],
                                     _corrupt_value("nan"), _corrupt_value("-inf")],
                         ids=["header", "index", "layout", "empty", "nan", "inf"])
def test_eval_bad_checkpoint_usage_error(tmp_path, capsys, corrupt):
    out = _train(tmp_path, "run", "--model", "ffn", "--epochs", "1")
    ckpt = out / "checkpoint.csv"
    ckpt.write_text("".join(",".join(row) + "\n" for row in corrupt(_read_csv(ckpt))))
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(out)]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)


def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_memory(config):  # what numpy raises for a stack far too wide
        raise MemoryError("Unable to allocate 14.6 TiB for an array with "
                          "shape (2000001000000,) and data type float64")

    monkeypatch.setattr(train_eval, "build_model", no_memory)
    out = tmp_path / "out"
    assert cli.main(["train", "--model", "wavenet", "--stack-channels", "1000000",
                     "--epochs", "1", "--out", str(out)]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)
    assert not out.exists()


def test_eval_missing_run_dir_io_error(tmp_path):
    assert cli.main(["eval", "--run", str(tmp_path / "nope")]) == 3


# ---------------------------------------------------------------------------
# numerical failure: exit 2 and one stderr line, with no numpy warning


def _main_without_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def _assert_one_line_numerical_failure(capsys):
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("model", ["lstm", "wavenet"])
def test_diverging_train_fails_in_one_line(tmp_path, capsys, model):
    out = tmp_path / "run"
    argv = ["train", "--model", model, "--learning-rate", "1e300", "--epochs", "1",
            "--out", str(out)]
    assert _main_without_warnings(argv) == cli.EXIT_NUMERIC
    _assert_one_line_numerical_failure(capsys)
    assert not out.exists()


def test_eval_of_a_diverged_checkpoint_fails_in_one_line(tmp_path, capsys):
    out = _train(tmp_path, "run", "--model", "ffn", "--epochs", "1")
    ckpt = out / "checkpoint.csv"
    header, *rows = _read_csv(ckpt)
    rows = [header] + [[name, idx, repr(float(value) * 1e200)] for name, idx, value in rows]
    ckpt.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    assert _main_without_warnings(["eval", "--run", str(out)]) == cli.EXIT_NUMERIC
    _assert_one_line_numerical_failure(capsys)
    assert not (out / "eval_report.csv").exists()


def test_reproduce_marks_a_diverging_run_failed():
    config = TrainConfig(model="lstm", learning_rate=1e300, epochs=1)
    assert cli._reproduce_job(config) == "failed: test RMSE of series x is not finite"


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_single_case_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRAD_CHECK_CASES",
                        {case: cli.GRAD_CHECK_CASES[case]
                         for case in ("ffn", "wavenet-conditional")})
    assert cli.main(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_grad_check_negative_seed_usage_error(capsys):
    assert cli.main(["grad-check", "--seed", "-1"]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)


def test_grad_check_deterministic(monkeypatch):
    err1, n1 = cli._grad_check_case("ffn", seed=7)
    err2, n2 = cli._grad_check_case("ffn", seed=7)
    assert err1 == err2 and n1 == n2 == 22


def test_grad_check_corrupted_backward_fails(monkeypatch):
    real = mz.ffn_backward

    def corrupted(d_preds, cache, params):
        real(d_preds, cache, params)
        params.out.grads["weights"] += 1e-3  # deliberately wrong

    monkeypatch.setattr(cli, "GRAD_CHECK_CASES", {"ffn": cli.GRAD_CHECK_CASES["ffn"]})
    monkeypatch.setattr(mz, "ffn_backward", corrupted)
    assert cli.main(["grad-check"]) == cli.EXIT_NUMERIC


# ---------------------------------------------------------------------------
# reproduce


_FFN_GRID = {"ffn-A": (dict(model="ffn", epochs=1, scenario="A"), ("x", "y", "z")),
             "ffn-B": (dict(model="ffn", epochs=1, scenario="B"), ("x", "y", "z"))}


def _reproduce(tmp_path, monkeypatch, fail, workers=1, die=frozenset()):
    """Run reproduce over two 1-epoch ffn cells at seeds 1 and 2; train
    raises NonFinite for the (scenario, seed, target) runs in `fail`, and
    the worker process running one of `die` sleeps 1 s and then exits.
    Worker processes see the planted failures only when forked."""
    monkeypatch.setattr(train_eval, "RESULTS_GRID", _FFN_GRID)
    real_train = train_eval.train
    main_pid = os.getpid()

    def flaky_train(config):
        run = (config.scenario, config.seed, config.target)
        if run in die and os.getpid() != main_pid:
            time.sleep(1)  # the runs after it in job order finish first
            os._exit(9)
        if run in fail:
            raise NonFinite("planted divergence")
        return real_train(config)

    monkeypatch.setattr(train_eval, "train", flaky_train)
    out = tmp_path / f"repro-{workers}"
    code = cli.main(["reproduce", "--seeds", "1,2", "--workers", str(workers),
                     "--out", str(out)])
    assert code == (cli.EXIT_NUMERIC if fail or die else cli.EXIT_OK)
    return _read_csv(out / "runs.csv"), _read_csv(out / "table.csv")


def test_reproduce_marks_a_failed_run_on_its_series_only(tmp_path, monkeypatch,
                                                         capsys):
    runs, table = _reproduce(tmp_path, monkeypatch, fail={("A", 2, "z")})
    out, err = capsys.readouterr()
    progress = [line.split("] ", 1)[1] for line in out.splitlines()
                if line.startswith("[")]
    assert progress == [f"{cell} seed={seed} series={series} done"
                        for cell in ("ffn-A", "ffn-B") for seed in (1, 2)
                        for series in ("x", "y", "z")]
    assert err == "1 of 12 runs failed; see runs.csv\n"
    assert runs[0] == ["cell", "model", "conditional", "multitask", "sampling",
                       "scenario", "seed", "series", "rmse_scaled", "rmse_raw",
                       "wall_seconds", "status"]
    assert table[0] == ["cell", "series", "rmse_mean", "rmse_std", "n_seeds",
                        "status"]
    assert len(runs) == 1 + 12
    (failed,) = [row for row in runs[1:] if row[-1] != "ok"]
    assert failed == ["ffn-A", "ffn", "false", "false", "shuffled", "A", "2",
                      "z", "", "", "", "failed: planted divergence"]
    status = {(row[0], row[1]): row[5] for row in table[1:]}
    assert status.pop(("ffn-A", "z")) == "partial"
    assert set(status.values()) == {"ok"}

    # every table value is numpy's over the in-process reports of the runs
    # that succeeded: a mean and ddof=1 std over two seeds, no std over one
    for cell, series, mean, std, n_seeds, status in table[1:]:
        values = [train_eval.train_and_evaluate(
                      train_eval.cell_config(cell, seed, series))[1].rmse_scaled[series]
                  for seed in (1, 2) if (cell, seed, series) != ("ffn-A", 2, "z")]
        assert float(mean) == np.mean(values)
        if len(values) == 2:
            assert float(std) == np.std(values, ddof=1)
            assert (n_seeds, status) == ("2", "ok")
        else:
            assert (std, n_seeds, status) == ("", "1", "partial")


def test_report_row_equals_the_runs_row_of_its_run(tmp_path, monkeypatch):
    # train's report.csv and reproduce's runs.csv hold the same result row
    # for the same run, apart from its wall time
    assert cli.main(["train", "--model", "ffn", "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "train")]) == cli.EXIT_OK
    monkeypatch.setattr(train_eval, "RESULTS_GRID", _FFN_GRID)
    assert cli.main(["reproduce", "--seeds", "1", "--workers", "1",
                     "--out", str(tmp_path / "repro")]) == cli.EXIT_OK
    header, row = _read_csv(tmp_path / "train" / "report.csv")
    assert header == ["model", "conditional", "multitask", "scenario", "seed",
                      "series", "rmse_scaled", "rmse_raw", "wall_seconds"]
    report = dict(zip(header, row))
    runs_header, *runs = _read_csv(tmp_path / "repro" / "runs.csv")
    (run,) = [dict(zip(runs_header, r)) for r in runs
              if (r[0], r[runs_header.index("series")]) == ("ffn-A", "x")]
    shared = header[:-1]  # all but wall_seconds
    assert [report[c] for c in shared] == [run[c] for c in shared]
    assert report["model"] == "ffn" and report["series"] == "x"
    assert float(report["rmse_scaled"]) >= 0.0
    # every file writes seconds at 3 decimals
    assert cli.main(["eval", "--run", str(tmp_path / "train")]) == cli.EXIT_OK
    eval_header, eval_row = _read_csv(tmp_path / "train" / "eval_report.csv")
    (train_seconds,) = [line.split(" = ")[1] for line in
                        (tmp_path / "train" / "run_meta.txt").read_text().splitlines()
                        if line.startswith("# train_seconds = ")]
    for seconds in (report["wall_seconds"], run["wall_seconds"],
                    dict(zip(eval_header, eval_row))["wall_seconds"], train_seconds):
        assert re.fullmatch(r"\d+\.\d{3}", seconds), seconds


def test_reproduce_all_runs_of_a_series_failed(tmp_path, monkeypatch):
    _, table = _reproduce(tmp_path, monkeypatch,
                          fail={("B", 1, "y"), ("B", 2, "y")})
    assert ["ffn-B", "y", "", "", "0", "failed"] in table
    assert [row[5] for row in table[1:]].count("ok") == 5


def test_reproduce_without_failures_exits_zero(tmp_path, monkeypatch):
    _, table = _reproduce(tmp_path, monkeypatch, fail=set())
    assert {row[5] for row in table[1:]} == {"ok"}


def test_reproduce_pool_matches_in_process(tmp_path, monkeypatch):
    # --workers defaults to min(4, cpu_count), so the pool is the usual path
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("planted failures reach worker processes only when forked")
    fail = {("A", 2, "z"), ("B", 1, "y")}
    runs, table = _reproduce(tmp_path, monkeypatch, fail, workers=2)
    base_runs, base_table = _reproduce(tmp_path, monkeypatch, fail, workers=1)
    wall = runs[0].index("wall_seconds")
    assert table == base_table
    assert [row[:wall] + row[wall + 1:] for row in runs] == \
        [row[:wall] + row[wall + 1:] for row in base_runs]


def test_reproduce_marks_the_runs_of_a_dead_worker(tmp_path, monkeypatch, capsys):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the planted exit reaches worker processes only when forked")
    runs, table = _reproduce(tmp_path, monkeypatch, fail=set(), workers=2,
                             die={("B", 1, "x")})
    err = capsys.readouterr().err
    status = [row[-1] for row in runs[1:]]
    died = status.count("failed: worker died")
    assert err == f"{died} of 12 runs failed; see runs.csv\n"
    # the dead run is the 7th of 12; a run the broken pool left without an
    # outcome is marked too
    assert runs[7] == ["ffn-B", "ffn", "false", "false", "shuffled", "B", "1",
                       "x", "", "", "", "failed: worker died"]
    assert set(status) <= {"ok", "failed: worker died"}
    assert len(table) == 1 + 6
    assert (tmp_path / "repro-2" / "run_meta.txt").exists()


def test_reproduce_keeps_the_runs_that_finish_after_a_dead_one(tmp_path, monkeypatch,
                                                              capsys):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the planted exit reaches worker processes only when forked")
    # the first run's worker sleeps 1 s before it exits, while the other
    # worker runs the 11 later runs
    runs, table = _reproduce(tmp_path, monkeypatch, fail={("B", 2, "y")},
                             workers=2, die={("A", 1, "x")})
    out, err = capsys.readouterr()
    status = [row[-1] for row in runs[1:]]
    assert status == ["failed: worker died"] + ["ok"] * 9 + [
        "failed: planted divergence", "ok"]
    assert err == "2 of 12 runs failed; see runs.csv\n"
    assert out.count(" done\n") == 12
    assert out.splitlines()[-2].startswith("[12/12] ffn-A seed=1 series=x ")
    assert [row for row in table[1:] if row[5] != "ok"] == [
        ["ffn-A", "x", runs[4][8], "", "1", "partial"],
        ["ffn-B", "y", runs[8][8], "", "1", "partial"]]


def test_reproduce_interrupted_keeps_the_finished_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(train_eval, "RESULTS_GRID", _FFN_GRID)
    real_train, calls = train_eval.train, []

    def interrupted_train(config):
        calls.append(config)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return real_train(config)

    monkeypatch.setattr(train_eval, "train", interrupted_train)
    out = tmp_path / "repro"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["reproduce", "--seeds", "1,2", "--workers", "1",
                  "--out", str(out)])
    runs = _read_csv(out / "runs.csv")
    assert runs[0] == cli.RUNS_COLUMNS
    assert [row[5:8] + row[-1:] for row in runs[1:]] == [
        ["A", "1", series, "ok"] for series in ("x", "y", "z")]
    assert not (out / "table.csv").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("workers, expected", [(2, [2]), (64, [3]), (1, [])])
def test_reproduce_starts_no_more_workers_than_jobs(tmp_path, monkeypatch,
                                                    workers, expected):
    grid = {"ffn-A": (dict(model="ffn", epochs=1, scenario="A"), ("x", "y", "z"))}
    monkeypatch.setattr(train_eval, "RESULTS_GRID", grid)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--seeds", "1", "--workers", str(workers),
                     "--out", str(out)]) == cli.EXIT_OK
    assert _RecordingPool.sizes == expected
    assert f"workers = {min(workers, 3)}\n" in (out / "run_meta.txt").read_text()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_reproduce_bad_workers_usage_error(tmp_path, capsys, monkeypatch,
                                           workers):
    monkeypatch.setattr(cli, "grid_jobs", None)  # no work may start
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--workers", workers,
                     "--out", str(out)]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["1,x", "", "1,,2", "1.5", "-1", "1,-2", "1,1"])
def test_reproduce_bad_seeds_usage_error(tmp_path, capsys, seeds):
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--seeds", seeds, "--workers", "1",
                     "--out", str(out)]) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)
    assert not out.exists()


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
    assert cli.main(["train", "--help"]) == 0


def test_missing_command_usage_error(capsys):
    assert cli.main([]) == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["generate", "--points", "ten"],
    ["generate", "--bogus"],
    ["train", "--model", "ffn", "--conditional", "yes"],
    ["train", "--model"],
    ["eval"],
    ["grad-check", "--seed", "abc"],
    ["reproduce", "--workers", "two"],
], ids=["unknown-command", "generate-points", "generate-unknown-flag",
        "train-bool-flag-value", "train-flag-without-value", "eval-without-run",
        "grad-check-seed", "reproduce-workers"])
def test_bad_argument_usage_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_USAGE
    _assert_one_line_error(capsys)


@st.composite
def _train_configs(draw):
    model = draw(st.sampled_from(["wavenet", "lstm", "ffn"]))
    conditional = model != "ffn" and draw(st.booleans())
    multitask = model == "wavenet" and conditional and draw(st.booleans())
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
    weights = tuple(w / sum(raw) for w in raw)  # read by the multitask model only
    windows = {"wavenet": st.just(16), "lstm": st.integers(1, 40), "ffn": st.just(5)}
    n_train = draw(st.integers(1, 1500))
    return TrainConfig(
        model=model, conditional=conditional, multitask=multitask,
        target=draw(st.sampled_from(["x", "y", "z"])),
        task_weights=weights if multitask else train_eval.EQUAL_TASK_WEIGHTS,
        scenario=draw(st.sampled_from(["A", "B"])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        epochs=draw(st.none() | st.integers(0, 500)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(st.floats(1e-8, 1.0)),
        sampling=draw(st.sampled_from(["shuffled", "adjacent"])),
        window=draw(st.none() | windows[model]),
        # a setting the model never reads keeps its default
        l2_lambda=draw(st.floats(0.0, 1.0)) if model == "wavenet"
        else TrainConfig.l2_lambda,
        dropout=draw(st.floats(0.0, 1.0, exclude_max=True)) if model == "lstm"
        else TrainConfig.dropout,
        n_train=n_train,
        n_test=draw(st.integers(1, 1501 - n_train)),
        stack_channels=draw(st.none() | st.integers(1, 8))
        if model == "wavenet" else None,
    )


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_train_configs())
def test_config_record_round_trips_through_meta(tmp_path, config):
    path = tmp_path / "meta.txt"
    cli.write_meta(path, {"command": "train", **cli.config_record(config)})
    assert cli.config_from_record(cli.read_meta(path)) == config


def _flags(record):
    """`train` flags that set each value of a config record."""
    flags = []
    for name, value in record.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            flags += [flag] if value else []
        else:
            flags += [flag, cli._fmt(value)]
    return flags


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_train_configs())
def test_train_flags_and_config_file_agree(tmp_path, config):
    """The flags that set config_record(config) yield the TrainConfig that
    the same record does as a --config file: `config` itself."""
    path = tmp_path / "meta.txt"
    cli.write_meta(path, {"command": "train", **cli.config_record(config)})
    parsed, real = [], cli.config_from_record

    def parse_only(record):  # stop before any training
        parsed.append(real(record))
        raise cli.UsageError("parsed")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "config_from_record", parse_only)
        for argv in (["--config", str(path)], _flags(cli.config_record(config))):
            assert cli.main(["train", *argv]) == cli.EXIT_USAGE
    assert parsed == [config, config]


def test_meta_round_trip(tmp_path):
    path = tmp_path / "meta.txt"
    cli.write_meta(path, {"command": "train", "model": "lstm", "seed": 3},
                   comments={"param_count": 2726})
    record = cli.read_meta(path)
    assert record == {"command": "train", "model": "lstm", "seed": "3"}
    config = cli.config_from_record(record)
    assert config.model == "lstm" and config.seed == 3
