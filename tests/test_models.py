import numpy as np
import pytest

from lorenzcast import models as mz
from lorenzcast.nn_core import ShapeMismatch, named_parameters, zero_grads, grad_check
from lorenzcast.train_eval import mae_loss


def _randomize(params, rng, scale=0.5):
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)


def _copy_block(dst, src):
    for (_, a, _), (_, b, _) in zip(named_parameters(dst), named_parameters(src)):
        a[...] = b


# ---------------------------------------------------------------------------
# wavenet structure


def test_receptive_field_default():
    cfg = mz.WaveNetConfig()
    assert cfg.receptive_field == 16  # k * 2^(L-1) = 2 * 8
    assert cfg.dilations == (1, 2, 4, 8)


def test_wavenet_zero_params_head_bias():
    cfg = mz.WaveNetConfig()
    params = mz.WaveNetParams(cfg)
    params.heads[0].bias[...] = 0.37
    x = np.random.default_rng(0).normal(size=(5, 1, 16))
    preds, _ = mz.wavenet_forward(x, params)
    assert np.allclose(preds, 0.37, atol=0)


def test_wavenet_zero_dilated_layers_residual_passthrough():
    # with dilated kernels/biases at zero each block adds F(x) = relu(0) = 0,
    # so the readout sees the input-conv stream plus the skip biases
    rng = np.random.default_rng(1)
    cfg = mz.WaveNetConfig()
    params = mz.WaveNetParams(cfg)
    params.input_conv.kernel[...] = rng.normal(size=(1, 1, 1))
    params.input_conv.bias[...] = rng.normal(size=1)
    for skip in params.skips:
        skip.kernel[...] = rng.normal(size=(1, 1, 1))
        skip.bias[...] = rng.normal(size=1)
    params.heads[0].kernel[...] = rng.normal(size=(1, 1, 1))
    params.heads[0].bias[...] = rng.normal(size=1)

    x = rng.normal(size=(4, 1, 16))
    preds, _ = mz.wavenet_forward(x, params)

    stream_last = x[:, :, -1:] * params.input_conv.kernel[0, 0, 0] \
        + params.input_conv.bias[0]
    skip_sum = sum(float(s.bias[0]) for s in params.skips)
    expected = (stream_last[:, 0, 0] + skip_sum) * params.heads[0].kernel[0, 0, 0] \
        + params.heads[0].bias[0]
    assert np.max(np.abs(preds[:, 0] - expected)) < 1e-12


def test_wavenet_rejects_bad_input():
    params = mz.WaveNetParams(mz.WaveNetConfig())
    with pytest.raises(ShapeMismatch):
        mz.wavenet_forward(np.zeros((2, 1, 8)), params)  # below receptive field
    with pytest.raises(ShapeMismatch):
        mz.wavenet_forward(np.zeros((2, 3, 16)), params)  # wrong channels


# ---------------------------------------------------------------------------
# wavenet backward


def test_wavenet_grad_check_all_variants():
    rng = np.random.default_rng(2)
    for in_c, n_tasks, stack in [(1, 1, 1), (3, 1, 1), (3, 1, 3), (3, 3, 3)]:
        cfg = mz.WaveNetConfig(in_channels=in_c, n_tasks=n_tasks,
                               stack_channels=stack)
        params = mz.WaveNetParams(cfg)
        _randomize(params, rng)
        x = rng.uniform(-0.5, 0.5, size=(3, in_c, 16))
        targets = rng.uniform(-0.5, 0.5, size=(3, n_tasks))

        def loss():
            return mae_loss(mz.wavenet_forward(x, params)[0], targets)[0]

        def backward():
            preds, cache = mz.wavenet_forward(x, params)
            value, d_preds = mae_loss(preds, targets)
            mz.wavenet_backward(d_preds, cache, params)
            return value

        assert grad_check(loss, params, backward, eps=1e-5) < 1e-5, (in_c, n_tasks, stack)


def test_wavenet_zero_upstream_zero_grads():
    rng = np.random.default_rng(3)
    params = mz.WaveNetParams(mz.WaveNetConfig())
    _randomize(params, rng)
    x = rng.normal(size=(2, 1, 16))
    _, cache = mz.wavenet_forward(x, params)
    zero_grads(params)
    d_in = mz.wavenet_backward(np.zeros((2, 1)), cache, params)
    assert np.array_equal(d_in, np.zeros_like(x))
    for name, _, g in named_parameters(params):
        assert np.array_equal(g, np.zeros_like(g)), name


def test_wavenet_linear_regime_input_gradient_scale_invariant():
    # all-positive kernels/biases and positive inputs keep every relu in its
    # linear region; the input gradient is then independent of input scale
    rng = np.random.default_rng(4)
    params = mz.WaveNetParams(mz.WaveNetConfig())
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(0.1, 0.6, size=arr.shape)
    x = rng.uniform(0.1, 1.0, size=(2, 1, 16))
    up = rng.normal(size=(2, 1))

    _, cache1 = mz.wavenet_forward(x, params)
    zero_grads(params)
    g1 = mz.wavenet_backward(up, cache1, params)
    _, cache2 = mz.wavenet_forward(2.0 * x, params)
    zero_grads(params)
    g2 = mz.wavenet_backward(up, cache2, params)
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_wavenet_causality_beyond_receptive_field():
    # at width > 16 with last-position readout, positions older than the
    # receptive field cannot move the prediction
    rng = np.random.default_rng(5)
    params = mz.WaveNetParams(mz.WaveNetConfig())
    _randomize(params, rng)
    width = 20
    x = rng.normal(size=(1, 1, width))
    base, _ = mz.wavenet_forward(x, params)
    for pos in range(width - 16):
        bumped = x.copy()
        bumped[0, 0, pos] += 13.0
        out, _ = mz.wavenet_forward(bumped, params)
        assert out[0, 0] == base[0, 0], pos
    bumped = x.copy()
    bumped[0, 0, width - 1] += 13.0
    out, _ = mz.wavenet_forward(bumped, params)
    assert out[0, 0] != base[0, 0]


# ---------------------------------------------------------------------------
# multitask / conditional identities


def test_multitask_heads_match_single_task_models():
    rng = np.random.default_rng(6)
    multi_cfg = mz.WaveNetConfig(in_channels=3, n_tasks=3, stack_channels=3)
    multi = mz.WaveNetParams(multi_cfg)
    _randomize(multi, rng)
    x = rng.normal(size=(4, 3, 16))
    multi_preds, _ = mz.wavenet_forward(x, multi)

    single_cfg = mz.WaveNetConfig(in_channels=3, n_tasks=1, stack_channels=3)
    for j in range(3):
        single = mz.WaveNetParams(single_cfg)
        _copy_block(single.input_conv, multi.input_conv)
        for dst, src in zip(single.dilated, multi.dilated):
            _copy_block(dst, src)
        for dst, src in zip(single.skips, multi.skips):
            _copy_block(dst, src)
        _copy_block(single.heads[0], multi.heads[j])
        preds, _ = mz.wavenet_forward(x, single)
        assert np.array_equal(preds[:, 0], multi_preds[:, j])


def test_conditional_with_zeroed_extra_channels_matches_unconditional():
    rng = np.random.default_rng(7)
    uncond = mz.WaveNetParams(mz.WaveNetConfig(in_channels=1))
    _randomize(uncond, rng)
    cond = mz.WaveNetParams(mz.WaveNetConfig(in_channels=3))
    # 3-channel input conv: channel 0 carries the unconditional weights,
    # the two extra channels are zeroed
    cond.input_conv.kernel[...] = 0.0
    cond.input_conv.kernel[:, 0:1, :] = uncond.input_conv.kernel
    cond.input_conv.bias[...] = uncond.input_conv.bias
    for dst, src in zip(cond.dilated, uncond.dilated):
        _copy_block(dst, src)
    for dst, src in zip(cond.skips, uncond.skips):
        _copy_block(dst, src)
    _copy_block(cond.heads[0], uncond.heads[0])

    x = rng.normal(size=(4, 1, 16))
    extra = rng.normal(size=(4, 2, 16))
    cond_input = np.concatenate([x, extra], axis=1)
    u_preds, _ = mz.wavenet_forward(x, uncond)
    c_preds, _ = mz.wavenet_forward(cond_input, cond)
    assert np.array_equal(u_preds, c_preds)


# ---------------------------------------------------------------------------
# lstm model


def test_lstm_model_zero_params_predicts_head_bias():
    params = mz.LstmModelParams(1)
    params.head.bias[...] = -0.21
    x = np.random.default_rng(8).normal(size=(16, 3, 1))
    preds, _ = mz.lstm_model_forward(x, params)
    assert np.allclose(preds, -0.21, atol=0)


def test_lstm_dropout_eval_mode_is_identity():
    rng = np.random.default_rng(9)
    params = mz.LstmModelParams(1, dropout_rate=0.10)
    _randomize(params, rng)
    x = rng.normal(size=(16, 4, 1))
    a, _ = mz.lstm_model_forward(x, params, training=False)
    b, _ = mz.lstm_model_forward(x, params, training=False)
    assert np.array_equal(a, b)
    # and matches the dense head applied to the raw last hidden state
    from lorenzcast.nn_core import dense_forward, lstm_sequence_forward
    h_T, _, _ = lstm_sequence_forward(x, np.zeros((4, 25)), np.zeros((4, 25)),
                                      params.cell)
    assert np.array_equal(a, dense_forward(h_T, params.head))


def test_lstm_dropout_training_mode_masks():
    rng = np.random.default_rng(10)
    params = mz.LstmModelParams(1, dropout_rate=0.5)
    _randomize(params, rng)
    x = rng.normal(size=(16, 2, 1))
    eval_preds, _ = mz.lstm_model_forward(x, params, training=False)
    train_preds, _ = mz.lstm_model_forward(
        x, params, training=True, rng=np.random.default_rng(0))
    assert not np.array_equal(eval_preds, train_preds)


def test_lstm_model_grad_check():
    rng = np.random.default_rng(7)
    params = mz.LstmModelParams(1)
    _randomize(params, rng)
    x = rng.uniform(-0.5, 0.5, size=(16, 3, 1))
    targets = rng.uniform(-0.5, 0.5, size=(3, 1))

    def loss():
        return mae_loss(mz.lstm_model_forward(x, params, training=False)[0], targets)[0]

    def backward():
        preds, cache = mz.lstm_model_forward(x, params, training=False)
        value, d_preds = mae_loss(preds, targets)
        mz.lstm_model_backward(d_preds, cache, params)
        return value

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-4


def test_lstm_carry_state_shapes():
    rng = np.random.default_rng(12)
    params = mz.LstmModelParams(1)
    _randomize(params, rng)
    x = rng.normal(size=(16, 5, 1))
    _, cache = mz.lstm_model_forward(x, params)
    h, c = mz.LstmModel.carry_state(cache)
    assert h.shape == (5, 25) and c.shape == (5, 25)


# ---------------------------------------------------------------------------
# ffn baseline


def test_ffn_zero_params_outputs_zero():
    params = mz.FfnParams()
    x = np.random.default_rng(13).normal(size=(4, 1, 5))
    preds, _ = mz.ffn_forward(x, params)
    assert np.array_equal(preds, np.zeros((4, 1)))


def test_ffn_grad_check():
    rng = np.random.default_rng(14)
    params = mz.FfnParams()
    _randomize(params, rng)
    x = rng.uniform(-0.5, 0.5, size=(4, 1, 5))
    targets = rng.uniform(-0.5, 0.5, size=(4, 1))

    def loss():
        return mae_loss(mz.ffn_forward(x, params)[0], targets)[0]

    def backward():
        preds, cache = mz.ffn_forward(x, params)
        value, d_preds = mae_loss(preds, targets)
        mz.ffn_backward(d_preds, cache, params)
        return value

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-6


def test_ffn_rejects_wrong_window():
    with pytest.raises(ShapeMismatch):
        mz.ffn_forward(np.zeros((2, 1, 6)), mz.FfnParams())


# ---------------------------------------------------------------------------
# parameter store


def test_model_blocks_share_the_model_vector():
    params = mz.LstmModelParams(1)
    names = [name for name, _, _ in named_parameters(params)]
    assert names[:3] == ["cell.W_ix", "cell.W_ih", "cell.b_i"]
    assert names[-2:] == ["head.weights", "head.bias"]
    params.theta[...] = np.arange(params.theta.size)
    assert params.cell.W_ix[0, 0] == 0.0
    assert params.head.bias[0] == params.theta.size - 1
    params.cell.grads["b_f"][...] = 1.0
    assert params.grad.sum() == 25.0
    zero_grads(params)
    assert not params.cell.grads["b_f"].any()


# ---------------------------------------------------------------------------
# parameter counts


def test_param_count_lstm_unconditional():
    params = mz.LstmModelParams(1)
    assert mz.param_count(params) == 2726  # 4*(25 + 625 + 25) + 26


def test_param_count_lstm_conditional():
    params = mz.LstmModelParams(3)
    assert mz.param_count(params) == 2926  # 4*(75 + 625 + 25) + 26


def test_param_count_ffn():
    assert mz.param_count(mz.FfnParams()) == 22  # 5*3+3 + 3*1+1


def test_param_count_wavenet_default():
    # faithful single-channel reading: 2 input-conv + 4*3 dilated
    # + 4*2 skip + 2 head = 24
    params = mz.WaveNetParams(mz.WaveNetConfig())
    assert mz.param_count(params) == 24


def test_init_reproducible():
    a = mz.init_wavenet(mz.WaveNetConfig(), seed=123)
    b = mz.init_wavenet(mz.WaveNetConfig(), seed=123)
    for (_, x, _), (_, y, _) in zip(named_parameters(a), named_parameters(b)):
        assert np.array_equal(x, y)
    c = mz.init_wavenet(mz.WaveNetConfig(), seed=124)
    different = any(
        not np.array_equal(x, y)
        for (_, x, _), (_, y, _) in zip(named_parameters(a), named_parameters(c))
    )
    assert different
