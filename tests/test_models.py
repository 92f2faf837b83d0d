import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lorenzcast import models as mz
from lorenzcast.nn_core import (
    ShapeMismatch,
    conv1d_backward,
    conv1d_forward,
    grad_check,
    load_params_csv,
    named_parameters,
    relu,
    relu_grad,
    save_params_csv,
    zero_grads,
)
from lorenzcast.train_eval import TrainConfig, build_model, mae_loss


def _randomize(params, rng, scale=0.5):
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)


def _copy_block(dst, src):
    for (_, a, _), (_, b, _) in zip(named_parameters(dst), named_parameters(src)):
        a[...] = b


# ---------------------------------------------------------------------------
# wavenet structure


def test_receptive_field_default():
    assert mz.RECEPTIVE_FIELD == 16  # k * 2^(L-1) = 2 * 8
    params = mz.WaveNetParams(mz.WaveNetConfig())
    assert [(c.kernel_size, c.stride) for c in params.dilated] == [(2, 2)] * 4
    # each stream holds only the readout's cone: 16 -> 8 -> 4 -> 2 -> 1
    _, cache = mz.wavenet_forward(np.zeros((1, 1, 20)), params)
    _, streams, relus, _ = cache
    assert [s.shape[2] for s in streams] == [16, 8, 4, 2, 1]
    assert [f.shape[2] for f in relus] == [8, 4, 2, 1]


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
# the full-width stack the cone grids replaced, kept as a reference: layer l
# is a dilation-2^l conv over every position, residuals crop to the tail


def _dilated_forward(g, conv, d):
    w = g.shape[2] - d
    out = np.empty((g.shape[0], conv.out_channels, w))
    out[:] = conv.bias[None, :, None]
    for j in range(2):
        out += np.einsum("bcw,oc->bow", g[:, :, j * d:j * d + w], conv.kernel[:, :, j])
    return out


def _dilated_backward(up, g, conv, d):
    w = up.shape[2]
    conv.grads["bias"] += up.sum(axis=(0, 2))
    d_g = np.zeros_like(g)
    for j in range(2):
        conv.grads["kernel"][:, :, j] += np.einsum("bow,bcw->oc", up,
                                                   g[:, :, j * d:j * d + w])
        d_g[:, :, j * d:j * d + w] += np.einsum("bow,oc->bcw", up, conv.kernel[:, :, j])
    return d_g


def _full_width_forward(inputs, params):
    streams = [conv1d_forward(inputs, params.input_conv)]
    relus, skip_ins = [], []
    skip_sum = np.zeros((inputs.shape[0], params.config.stack_channels, 1))
    for l, (conv, skip) in enumerate(zip(params.dilated, params.skips)):
        f = relu(_dilated_forward(streams[-1], conv, 2 ** l))
        skip_sum += conv1d_forward(f[:, :, -1:], skip)
        relus.append(f)
        skip_ins.append(f[:, :, -1:])
        streams.append(streams[-1][:, :, -f.shape[2]:] + f)
    final_in = skip_sum + streams[-1][:, :, -1:]
    preds = np.stack([conv1d_forward(final_in, head)[:, 0, 0]
                      for head in params.heads], axis=1)
    return preds, (inputs, streams, relus, skip_ins, final_in)


def _full_width_backward(d_preds, cache, params):
    inputs, streams, relus, skip_ins, final_in = cache
    d_final_in = np.zeros_like(final_in)
    for j, head in enumerate(params.heads):
        d_final_in += conv1d_backward(d_preds[:, j].reshape(-1, 1, 1), final_in, head)
    d_stream = np.zeros_like(streams[-1])
    d_stream[:, :, -1:] = d_final_in
    for l in reversed(range(mz.N_LAYERS)):
        d_f = d_stream.copy()
        d_f[:, :, -1:] += conv1d_backward(d_final_in, skip_ins[l], params.skips[l])
        d_prev = _dilated_backward(d_f * relu_grad(relus[l]), streams[l],
                                   params.dilated[l], 2 ** l)
        d_prev[:, :, -relus[l].shape[2]:] += d_stream
        d_stream = d_prev
    return conv1d_backward(d_stream, inputs, params.input_conv)


@settings(deadline=None, max_examples=30)
@given(batch=st.integers(1, 6), in_channels=st.integers(1, 3),
       stack_channels=st.integers(1, 4), n_tasks=st.integers(1, 3),
       window=st.integers(16, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_cone_stack_matches_full_width_reference(batch, in_channels, stack_channels,
                                                 n_tasks, window, seed):
    rng = np.random.default_rng(seed)
    params = mz.WaveNetParams(mz.WaveNetConfig(in_channels, n_tasks, stack_channels))
    params.theta[...] = rng.uniform(-0.5, 0.5, size=params.theta.size)
    x = rng.normal(size=(batch, in_channels, window))
    d_preds = rng.normal(size=(batch, n_tasks))

    preds, cache = mz.wavenet_forward(x, params)
    ref_preds, ref_cache = _full_width_forward(x, params)
    assert np.array_equal(preds, ref_preds)
    zero_grads(params)
    d_x = mz.wavenet_backward(d_preds, cache, params)
    grad = params.grad.copy()
    zero_grads(params)
    assert np.array_equal(d_x, _full_width_backward(d_preds, ref_cache, params))
    # the compact grids sum kernel and bias gradients in another order
    assert np.all(np.abs(grad - params.grad) <= 1e-15 + 1e-13 * np.abs(params.grad))


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
    x = np.random.default_rng(8).normal(size=(3, 1, 16))
    preds, _ = mz.lstm_model_forward(x, params)
    assert np.allclose(preds, -0.21, atol=0)


def test_lstm_dropout_eval_mode_is_identity():
    rng = np.random.default_rng(9)
    params = mz.LstmModelParams(1, dropout_rate=0.10)
    _randomize(params, rng)
    x = rng.normal(size=(4, 1, 16))
    a, _ = mz.lstm_model_forward(x, params, training=False)
    b, _ = mz.lstm_model_forward(x, params, training=False)
    assert np.array_equal(a, b)
    # and matches the dense head applied to the raw last hidden state of
    # the time-major (window, batch, features) sequence
    from lorenzcast.nn_core import dense_forward, lstm_sequence_forward
    h_T, _, _ = lstm_sequence_forward(x.transpose(2, 0, 1), np.zeros((4, 25)),
                                      np.zeros((4, 25)), params.cell)
    assert np.array_equal(a, dense_forward(h_T, params.head))


def test_lstm_dropout_training_mode_masks():
    rng = np.random.default_rng(10)
    params = mz.LstmModelParams(1, dropout_rate=0.5)
    _randomize(params, rng)
    x = rng.normal(size=(2, 1, 16))
    eval_preds, _ = mz.lstm_model_forward(x, params, training=False)
    train_preds, _ = mz.lstm_model_forward(
        x, params, training=True, rng=np.random.default_rng(0))
    assert not np.array_equal(eval_preds, train_preds)


def test_lstm_model_grad_check():
    rng = np.random.default_rng(7)
    params = mz.LstmModelParams(1)
    _randomize(params, rng)
    # drawn time-major as this test always was, then (batch, features, window)
    x = rng.uniform(-0.5, 0.5, size=(16, 3, 1)).transpose(1, 2, 0)
    targets = rng.uniform(-0.5, 0.5, size=(3, 1))

    def loss():
        return mae_loss(mz.lstm_model_forward(x, params, training=False)[0], targets)[0]

    def backward():
        preds, cache = mz.lstm_model_forward(x, params, training=False)
        value, d_preds = mae_loss(preds, targets)
        assert mz.lstm_model_backward(d_preds, cache, params).shape == x.shape
        return value

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-4


def test_lstm_carry_state_shapes():
    rng = np.random.default_rng(12)
    params = mz.LstmModelParams(1)
    _randomize(params, rng)
    x = rng.normal(size=(5, 1, 16))
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
    with pytest.raises(ShapeMismatch):  # the flat (batch, 5) form is gone
        mz.ffn_forward(np.zeros((2, 5)), mz.FfnParams())


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


def _offset(array, base):
    return array.ctypes.data - base.ctypes.data


# (shape, fan_in, fan_out) of every weight, in the order the families
# were initialized before the blocks declared their fans
_CONDITIONAL_STACK = ([((3, 3, 1), 3, 3)] + [((3, 3, 2), 6, 6)] * 4
                      + [((3, 3, 1), 3, 3)] * 4)
_LSTM_CELL = [((25, 3), 3, 25), ((25, 25), 25, 25)] * 4


@pytest.mark.parametrize("kwargs,expected", [
    (dict(model="wavenet"),
     [((1, 1, 1), 1, 1)] + [((1, 1, 2), 2, 2)] * 4 + [((1, 1, 1), 1, 1)] * 5),
    (dict(model="wavenet", conditional=True),
     _CONDITIONAL_STACK + [((1, 3, 1), 3, 1)]),
    (dict(model="wavenet", conditional=True, multitask=True),
     _CONDITIONAL_STACK + [((1, 3, 1), 3, 1)] * 3),
    (dict(model="lstm", conditional=True), _LSTM_CELL + [((25, 1), 25, 1)]),
    (dict(model="ffn"), [((5, 3), 5, 3), ((3, 1), 3, 1)]),
], ids=["wavenet", "wavenet-conditional", "wavenet-multitask",
        "lstm-conditional", "ffn"])
def test_store_weights_are_the_non_bias_arrays(kwargs, expected):
    params = build_model(TrainConfig(**kwargs)).params
    weights = params.weights_with_fans()
    assert [(w.shape, fan_in, fan_out) for w, fan_in, fan_out in weights] == expected
    arrays = {name: arr for name, arr, _ in named_parameters(params)}
    # bias names: "bias" and the LSTM's b_i, b_f, b_o, b_c
    biases = [arr for name, arr in arrays.items()
              if name.split(".")[-1].startswith("b")]
    non_bias = [arr for name, arr in arrays.items()
                if not name.split(".")[-1].startswith("b")]
    assert ([_offset(w, params.theta) for w, _, _ in weights]
            == [_offset(arr, params.theta) for arr in non_bias])
    assert all(w.any() for w, _, _ in weights)
    assert not any(b.any() for b in biases)

    # the L2 set: every conv kernel with its gradient view, nothing else
    kernels, kernel_grads = params.conv_kernels()
    conv = [w for w, _, _ in weights] if kwargs["model"] == "wavenet" else []
    assert [_offset(k, params.theta) for k in kernels] == [
        _offset(w, params.theta) for w in conv]
    assert [_offset(g, params.grad) for g in kernel_grads] == [
        _offset(w, params.theta) for w in conv]


@st.composite
def _model_configs(draw):
    model = draw(st.sampled_from(["wavenet", "lstm", "ffn"]))
    conditional = model != "ffn" and draw(st.booleans())
    multitask = model == "wavenet" and conditional and draw(st.booleans())
    return TrainConfig(model=model, conditional=conditional, multitask=multitask,
                       stack_channels=draw(st.integers(1, 4))
                       if model == "wavenet" else None,
                       seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_model_configs(), other_seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-30, 1e30))
def test_checkpoint_round_trip_is_bit_exact(tmp_path, config, other_seed, scale):
    assume(other_seed != config.seed)
    saved = build_model(config).params
    saved.theta *= scale
    path = tmp_path / "checkpoint.csv"
    save_params_csv(saved, path)
    restored = build_model(dataclasses.replace(config, seed=other_seed)).params
    load_params_csv(restored, path)
    assert restored.theta.tobytes() == saved.theta.tobytes()


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
