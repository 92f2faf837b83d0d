import csv
import hashlib
import os

import numpy as np
import pytest

from lorenzcast import cli
from lorenzcast import models as mz


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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


def test_generate_scenario_b_bounded(tmp_path):
    out = tmp_path / "genb"
    assert cli.main(["generate", "--scenario", "B", "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")[1:]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 100.0


def test_generate_invalid_scenario_usage_error(tmp_path):
    assert cli.main(["generate", "--scenario", "Q",
                     "--out", str(tmp_path)]) == 1


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


def test_train_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("model = ffn\nbogus_knob = 3\n")
    assert cli.main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1


def test_train_epochs_zero_report_matches_eval_of_init(tmp_path):
    out = _train(tmp_path, "zero", "--model", "ffn", "--epochs", "0",
                 "--seed", "4")
    assert cli.main(["eval", "--run", str(out)]) == 0
    train_rows = _read_csv(out / "report.csv")
    eval_rows = _read_csv(out / "eval_report.csv")
    # identical apart from the wall_seconds column
    assert train_rows[1][:-1] == eval_rows[1][:-1]


# sha256 of checkpoint.csv and predictions_x.csv after 3 epochs at seed 1234.
# They were taken from the per-array parameter code that the flat store
# replaced, and the store must reproduce them exactly: a store that
# reorders the layers or drifts by one ulp fails here.
GOLDEN_3_EPOCHS = [
    (["--model", "wavenet", "--conditional"],
     "74b6a9ceea389dd49eed975014a2075fa63c9cb5afcb11f978968f8703a8dad7",
     "ad6463663dfc766410d6a5f97423c5d089b87a8c074b3bd0bef913fd7415535e"),
    (["--model", "lstm", "--conditional"],
     "a95379511d7a32825bacf63fe6f607be7c455f2475ffa4ee866708731e04237e",
     "517b11286b4b0e051eec17b078f045059ee69f43e7f7ae455bd74dd7ac256a09"),
    (["--model", "ffn"],
     "b7d0fff0c3ff87a8dd6b056f54cda94f096fb45f55bd5a0a63552283e0beaf4d",
     "2f34374662df8671237c873d5b8a6fa86a60214dc73edc37777012e65fe92944"),
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


def test_eval_missing_run_dir_io_error(tmp_path):
    assert cli.main(["eval", "--run", str(tmp_path / "nope")]) == 3


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_single_case_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRAD_CHECK_CASES", ["ffn", "wavenet-conditional"])
    assert cli.main(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_grad_check_deterministic(monkeypatch):
    err1, n1 = cli._grad_check_case("ffn", seed=7)
    err2, n2 = cli._grad_check_case("ffn", seed=7)
    assert err1 == err2 and n1 == n2 == 22


def test_grad_check_corrupted_backward_fails(monkeypatch):
    real = mz.ffn_backward

    def corrupted(d_preds, cache, params):
        out = real(d_preds, cache, params)
        params.out.grads["weights"] += 1e-3  # deliberately wrong
        return out

    monkeypatch.setattr(cli, "GRAD_CHECK_CASES", ["ffn"])
    monkeypatch.setattr(mz, "ffn_backward", corrupted)
    assert cli.main(["grad-check"]) == cli.EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_missing_command_usage_error():
    assert cli.main([]) == 1


def test_meta_round_trip(tmp_path):
    path = tmp_path / "meta.txt"
    cli.write_meta(path, {"command": "train", "model": "lstm", "seed": 3},
                   comments={"param_count": 2726})
    record = cli.read_meta(path)
    assert record == {"command": "train", "model": "lstm", "seed": "3"}
    config = cli.config_from_record(record)
    assert config.model == "lstm" and config.seed == 3
