import lorenzcast

# the package's public names; changing this list changes the public API
EXPORTS = [
    "LorenzParams", "LorenzState", "ScaleTransform", "SeriesSet",
    "WindowedDataset", "euler_integrate", "lorenz_derivative", "make_windows",
    "rescale", "split_train_test",
    "FfnModel", "LstmModel", "WaveNetConfig", "WaveNetModel",
    "init_ffn", "init_lstm", "init_wavenet", "param_count",
    "SCENARIOS", "EvalReport", "Scenario", "TrainConfig",
    "evaluate", "mae_loss", "make_batches", "multitask_loss", "rmse",
    "train", "train_and_evaluate",
]


def test_public_exports_are_pinned_and_resolve():
    assert len(EXPORTS) == 29
    assert lorenzcast.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(lorenzcast, name), name
