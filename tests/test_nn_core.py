import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzcast import nn_core
from lorenzcast.nn_core import (
    ConvLayerParams,
    DenseParams,
    LstmCellParams,
    ShapeMismatch,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    grad_check,
    load_params_csv,
    lstm_cell_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    named_parameters,
    param_count,
    relu,
    relu_grad,
    save_params_csv,
    sigmoid,
    sigmoid_grad,
    tanh_grad,
    zero_grads,
)


def _conv(out_c, in_c, k, dilation=1, kernel=None, bias=None):
    params = ConvLayerParams(out_c, in_c, k, dilation)
    if kernel is not None:
        params.kernel[...] = np.asarray(kernel, dtype=float).reshape(params.kernel.shape)
    if bias is not None:
        params.bias[...] = bias
    return params


# ---------------------------------------------------------------------------
# conv forward


def test_conv_cross_correlation_d1():
    params = _conv(1, 1, 2, kernel=[1.0, 1.0])
    out = conv1d_forward(np.array([[1.0, 2.0, 3.0, 4.0]]), params)
    assert np.array_equal(out, [[3.0, 5.0, 7.0]])


def test_conv_cross_correlation_d2():
    params = _conv(1, 1, 2, dilation=2, kernel=[1.0, 1.0])
    out = conv1d_forward(np.array([[1.0, 2.0, 3.0, 4.0]]), params)
    assert np.array_equal(out, [[4.0, 6.0]])


def test_conv_identity_kernel():
    params = _conv(1, 1, 1, dilation=3, kernel=[1.0])
    x = np.array([[0.5, -1.0, 2.0, 7.0]])
    assert np.array_equal(conv1d_forward(x, params), x)


def test_conv_toeplitz_equivalence():
    # k=2 cross-correlation on a 4-vector equals x^T W for the sparse
    # 4x3 Toeplitz matrix with columns [w0 at row j, w1 at row j+1]
    rng = np.random.default_rng(3)
    w0, w1 = rng.normal(size=2)
    x = rng.normal(size=4)
    W = np.array([
        [w0, 0.0, 0.0],
        [w1, w0, 0.0],
        [0.0, w1, w0],
        [0.0, 0.0, w1],
    ])
    params = _conv(1, 1, 2, kernel=[w0, w1])
    out = conv1d_forward(x.reshape(1, 4), params)[0]
    assert np.max(np.abs(out - x @ W)) < 1e-14


def test_conv_kernel_size_one_ignores_dilation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 10))
    kernel = rng.normal(size=(2, 3, 1))
    bias = rng.normal(size=2)
    outs = []
    for dilation in (1, 2, 5):
        params = _conv(2, 3, 1, dilation, kernel=kernel, bias=bias)
        outs.append(conv1d_forward(x, params))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    # and equals the per-position affine map
    dense = np.einsum("bcw,oc->bow", x, kernel[:, :, 0]) + bias[None, :, None]
    assert np.max(np.abs(outs[0] - dense)) < 1e-14


@settings(deadline=None, max_examples=40)
@given(width=st.integers(1, 30), k=st.integers(1, 4), d=st.integers(1, 4))
def test_conv_output_width_formula(width, k, d):
    if width < 1 + d * (k - 1):
        return
    params = _conv(1, 1, k, d)
    out = conv1d_forward(np.zeros((1, width)), params)
    assert out.shape == (1, width - d * (k - 1))


def test_conv_shape_mismatch():
    params = _conv(1, 2, 2)
    with pytest.raises(ShapeMismatch):
        conv1d_forward(np.zeros((1, 1, 8)), params)  # wrong channel count
    with pytest.raises(ShapeMismatch):
        conv1d_forward(np.zeros((1, 2, 1)), params)  # width below minimum


# ---------------------------------------------------------------------------
# conv backward


def test_conv_backward_zero_upstream():
    params = _conv(1, 1, 2, kernel=[0.3, -0.7], bias=[0.1])
    x = np.arange(8.0).reshape(1, 1, 8)
    d_in = conv1d_backward(np.zeros((1, 1, 7)), x, params)
    assert np.array_equal(d_in, np.zeros_like(x))
    assert np.array_equal(params.grads["kernel"], np.zeros((1, 1, 2)))
    assert np.array_equal(params.grads["bias"], [0.0])


def test_conv_backward_identity_adjoint():
    params = _conv(1, 1, 1, kernel=[1.0])
    x = np.arange(6.0).reshape(1, 1, 6)
    g = np.random.default_rng(0).normal(size=(1, 1, 6))
    assert np.array_equal(conv1d_backward(g, x, params), g)


def _fd_check_conv(params, x, eps=1e-5):
    """Max relative FD error over kernel, bias and input gradients for the
    scalar loss sum(proj * forward(x))."""
    rng = np.random.default_rng(11)
    proj = rng.normal(size=conv1d_forward(x, params).shape)

    def loss():
        return float(np.sum(proj * conv1d_forward(x, params)))

    zero_grads(params)
    d_in = conv1d_backward(proj, x, params)
    analytic = {"kernel": params.grads["kernel"].copy(),
                "bias": params.grads["bias"].copy(), "input": d_in}
    worst = 0.0
    for arr, an in ((params.kernel, analytic["kernel"]),
                    (params.bias, analytic["bias"]),
                    (x, analytic["input"])):
        flat, aflat = arr.reshape(-1), an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss()
            flat[i] = orig - eps
            lm = loss()
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-12))
    return worst


def test_conv_backward_finite_differences():
    rng = np.random.default_rng(5)
    params = _conv(1, 1, 2, dilation=2,
                   kernel=rng.normal(size=(1, 1, 2)), bias=rng.normal(size=1))
    x = rng.normal(size=(1, 1, 8))
    assert _fd_check_conv(params, x) < 1e-6


def test_conv_backward_multichannel_finite_differences():
    rng = np.random.default_rng(6)
    params = _conv(2, 3, 2, dilation=2,
                   kernel=rng.normal(size=(2, 3, 2)), bias=rng.normal(size=2))
    x = rng.normal(size=(2, 3, 9))
    assert _fd_check_conv(params, x) < 1e-6


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_conv_adjoint_consistency(seed):
    # <backward(g), v> == <g, forward(v) - forward(0)> for the linear part
    rng = np.random.default_rng(seed)
    params = _conv(2, 2, 2, dilation=2,
                   kernel=rng.normal(size=(2, 2, 2)), bias=rng.normal(size=2))
    x = rng.normal(size=(1, 2, 7))
    out_shape = conv1d_forward(x, params).shape
    g = rng.normal(size=out_shape)
    v = rng.normal(size=x.shape)
    zero_grads(params)
    lhs = float(np.sum(conv1d_backward(g, x, params) * v))
    lin = conv1d_forward(v, params) - params.bias[None, :, None]
    rhs = float(np.sum(g * lin))
    assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# parameter store


def test_block_arrays_are_views_into_one_vector():
    params = LstmCellParams(2, 3)
    params.theta[...] = np.arange(params.theta.size)
    offset = 0
    for name, arr, g in named_parameters(params):
        assert arr.flags.c_contiguous and np.shares_memory(arr, params.theta)
        assert np.shares_memory(g, params.grad)
        assert np.array_equal(arr.reshape(-1),
                              np.arange(offset, offset + arr.size))
        assert np.shares_memory(getattr(params, name), arr)
        assert np.shares_memory(params.grads[name], g)
        offset += arr.size
    assert offset == params.theta.size == param_count(params)
    params.grad[...] = 1.0
    zero_grads(params)
    assert not params.grad.any()


# ---------------------------------------------------------------------------
# activations


def test_relu_values():
    assert relu(np.array(-2.0)) == 0.0
    assert relu(np.array(3.0)) == 3.0
    assert relu_grad(np.array(0.0)) == 0.0  # derivative at 0 defined as 0


def test_sigmoid_tanh_values():
    assert sigmoid(0.0) == 0.5
    assert np.tanh(0.0) == 0.0


def test_sigmoid_stable_at_extremes():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0


@pytest.mark.parametrize("x0", [-1.0, 0.5, 2.0])
def test_activation_derivatives_finite_differences(x0):
    eps = 1e-6
    cases = [
        (relu, lambda y: relu_grad(y)),
        (sigmoid, lambda y: sigmoid_grad(y)),
        (np.tanh, lambda y: tanh_grad(y)),
    ]
    for fn, dfn in cases:
        y = fn(np.array(x0))
        analytic = float(dfn(y))
        numeric = (fn(np.array(x0 + eps)) - fn(np.array(x0 - eps))) / (2 * eps)
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12) < 1e-8


# ---------------------------------------------------------------------------
# dense


def test_dense_zero_weights_bias_passthrough():
    params = DenseParams(3, 1)
    params.bias[...] = 0.7
    out = dense_forward(np.random.default_rng(0).normal(size=(4, 3)), params)
    assert np.allclose(out, 0.7, atol=0)


def test_dense_hand_value():
    params = DenseParams(2, 1)
    params.weights[...] = [[3.0], [4.0]]
    params.bias[...] = [1.0]
    out = dense_forward(np.array([[1.0, 2.0]]), params)
    assert np.array_equal(out, [[12.0]])


def test_dense_backward_finite_differences():
    rng = np.random.default_rng(8)
    params = DenseParams(4, 1)
    params.weights[...] = rng.normal(size=(4, 1))
    params.bias[...] = rng.normal(size=1)
    x = rng.normal(size=(3, 4))
    proj = rng.normal(size=(3, 1))

    def loss():
        return float(np.sum(proj * dense_forward(x, params)))

    def backward():
        dense_backward(proj, x, params)
        return loss()

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-6


def test_dense_shape_mismatch():
    params = DenseParams(3, 2)
    with pytest.raises(ShapeMismatch):
        dense_forward(np.zeros((1, 4)), params)
    with pytest.raises(ShapeMismatch):
        dense_backward(np.zeros((1, 3)), np.zeros((1, 3)), params)


# ---------------------------------------------------------------------------
# lstm cell and sequence


def test_lstm_cell_all_zero_params():
    params = LstmCellParams(2, 3)
    x = np.array([[0.4, -0.2]])
    h0 = np.zeros((1, 3))
    c0 = np.zeros((1, 3))
    h, c, cache = lstm_cell_forward(x, h0, c0, params)
    _, _, _, i, f, o, c_tilde, _ = cache
    assert np.allclose(i, 0.5, atol=0) and np.allclose(f, 0.5, atol=0)
    assert np.allclose(o, 0.5, atol=0)
    assert np.array_equal(c_tilde, np.zeros((1, 3)))
    assert np.array_equal(c, np.zeros((1, 3)))
    assert np.array_equal(h, np.zeros((1, 3)))


def test_lstm_cell_saturated_forget_gate_keeps_cell():
    params = LstmCellParams(1, 3)
    params.b_f[...] = 100.0  # forget gate saturates to 1
    v = np.array([[0.3, -1.2, 0.8]])
    h, c, _ = lstm_cell_forward(np.array([[0.5]]), np.zeros((1, 3)), v, params)
    assert np.max(np.abs(c - v)) < 1e-12


def test_lstm_cell_gradients_finite_differences():
    rng = np.random.default_rng(9)
    params = LstmCellParams(1, 3)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-0.7, 0.7, size=arr.shape)
    x = rng.uniform(-1, 1, size=(2, 1))
    h0 = rng.uniform(-1, 1, size=(2, 3))
    c0 = rng.uniform(-1, 1, size=(2, 3))

    def loss():
        return float(np.sum(lstm_cell_forward(x, h0, c0, params)[0]))

    def backward():
        h, _, cache = lstm_cell_forward(x, h0, c0, params)
        nn_core.lstm_cell_backward(np.ones_like(h), np.zeros_like(h), cache, params)
        return float(np.sum(h))

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-5


def test_lstm_sequence_length_one_equals_cell():
    rng = np.random.default_rng(10)
    params = LstmCellParams(2, 4)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    x = rng.normal(size=(1, 3, 2))
    h0 = np.zeros((3, 4))
    c0 = np.zeros((3, 4))
    h_seq, c_seq, _ = lstm_sequence_forward(x, h0, c0, params)
    h_cell, c_cell, _ = lstm_cell_forward(x[0], h0, c0, params)
    assert np.array_equal(h_seq, h_cell)
    assert np.array_equal(c_seq, c_cell)


def test_lstm_sequence_zero_params_zero_hidden():
    params = LstmCellParams(1, 5)
    x = np.random.default_rng(1).normal(size=(7, 2, 1))
    h, c, _ = lstm_sequence_forward(x, np.zeros((2, 5)), np.zeros((2, 5)), params)
    assert np.array_equal(h, np.zeros((2, 5)))


def test_lstm_sequence_bptt_finite_differences():
    # full-size check: 16 steps, 25 hidden, loss = sum(h_T)
    rng = np.random.default_rng(12)
    params = LstmCellParams(1, 25)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    x = rng.uniform(-0.5, 0.5, size=(16, 1, 1))
    h0 = np.zeros((1, 25))
    c0 = np.zeros((1, 25))

    def loss():
        return float(np.sum(lstm_sequence_forward(x, h0, c0, params)[0]))

    def backward():
        h_T, _, caches = lstm_sequence_forward(x, h0, c0, params)
        lstm_sequence_backward(np.ones_like(h_T), caches, params)
        return float(np.sum(h_T))

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-4


def test_lstm_shape_mismatch():
    params = LstmCellParams(2, 3)
    with pytest.raises(ShapeMismatch):
        lstm_cell_forward(np.zeros((1, 5)), np.zeros((1, 3)), np.zeros((1, 3)), params)
    with pytest.raises(ShapeMismatch):
        lstm_cell_forward(np.zeros((1, 2)), np.zeros((1, 4)), np.zeros((1, 4)), params)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_exact_for_linear_model():
    # affine loss: central differences have zero truncation error, so with
    # eps at the top of the allowed range only rounding remains
    rng = np.random.default_rng(13)
    params = DenseParams(4, 2)
    params.weights[...] = rng.uniform(-0.5, 0.5, size=(4, 2))
    params.bias[...] = rng.uniform(-0.5, 0.5, size=2)
    x = rng.uniform(-0.5, 0.5, size=(3, 4))
    proj = rng.uniform(0.5, 1.0, size=(3, 2))

    def loss():
        return float(np.sum(proj * dense_forward(x, params)))

    def backward():
        dense_backward(proj, x, params)
        return loss()

    assert grad_check(loss, params, backward, eps=1e-4) < 1e-9


# ---------------------------------------------------------------------------
# serialization


def test_params_csv_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    params = LstmCellParams(2, 3)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.normal(size=arr.shape)
    path = tmp_path / "checkpoint.csv"
    save_params_csv(params, path)

    restored = LstmCellParams(2, 3)
    load_params_csv(restored, path)
    for (name, arr, _), (_, arr2, _) in zip(named_parameters(params),
                                            named_parameters(restored)):
        assert np.array_equal(arr, arr2), name


def test_params_csv_rejects_wrong_shape(tmp_path):
    params = DenseParams(2, 2)
    path = tmp_path / "checkpoint.csv"
    save_params_csv(params, path)
    with pytest.raises(ValueError):
        load_params_csv(DenseParams(3, 2), path)


def test_param_count():
    assert param_count(DenseParams(5, 3)) == 18
    assert param_count(LstmCellParams(1, 25)) == 2700
