import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorenzcast import nn_core
from lorenzcast.models import LstmModelParams
from lorenzcast.nn_core import (
    ConvLayerParams,
    DenseParams,
    LstmCellParams,
    ShapeMismatch,
    conv1d_backward,
    conv1d_forward,
    conv1d_param_grads,
    dense_backward,
    dense_forward,
    dense_param_grads,
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


def _conv(out_c, in_c, k, stride=1, kernel=None, bias=None):
    params = ConvLayerParams(out_c, in_c, k, stride)
    if kernel is not None:
        params.kernel[...] = np.asarray(kernel, dtype=float).reshape(params.kernel.shape)
    if bias is not None:
        params.bias[...] = bias
    return params


# ---------------------------------------------------------------------------
# conv forward


def test_conv_cross_correlation_d1():
    params = _conv(1, 1, 2, kernel=[1.0, 1.0])
    out = conv1d_forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]), params)
    assert np.array_equal(out, [[[3.0, 5.0, 7.0]]])


def test_conv_cross_correlation_s2():
    params = _conv(1, 1, 2, stride=2, kernel=[1.0, 10.0])
    out = conv1d_forward(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]), params)
    assert np.array_equal(out, [[[21.0, 43.0]]])  # windows (1, 2) and (3, 4)


def test_conv_identity_kernel():
    params = _conv(1, 1, 1, kernel=[1.0])
    x = np.array([[[0.5, -1.0, 2.0, 7.0]]])
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
    out = conv1d_forward(x.reshape(1, 1, 4), params)[0, 0]
    assert np.max(np.abs(out - x @ W)) < 1e-14


def test_conv_kernel_size_one_stride_subsamples():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 10))
    kernel = rng.normal(size=(2, 3, 1))
    bias = rng.normal(size=2)
    outs = []
    for stride in (1, 2, 5):
        params = _conv(2, 3, 1, stride, kernel=kernel, bias=bias)
        outs.append(conv1d_forward(x, params))
    assert np.array_equal(outs[1], outs[0][:, :, ::2])
    assert np.array_equal(outs[2], outs[0][:, :, ::5])
    # and stride 1 equals the per-position affine map
    dense = np.einsum("bcw,oc->bow", x, kernel[:, :, 0]) + bias[None, :, None]
    assert np.max(np.abs(outs[0] - dense)) < 1e-14


@settings(deadline=None, max_examples=40)
@given(width=st.integers(1, 30), k=st.integers(1, 4), s=st.integers(1, 4))
def test_conv_output_width_formula(width, k, s):
    if width < k:
        return
    params = _conv(1, 1, k, s)
    out = conv1d_forward(np.zeros((1, 1, width)), params)
    assert out.shape == (1, 1, (width - k) // s + 1)


def test_conv_shape_mismatch():
    params = _conv(1, 2, 2)
    with pytest.raises(ShapeMismatch):
        conv1d_forward(np.zeros((1, 1, 8)), params)  # wrong channel count
    with pytest.raises(ShapeMismatch):
        conv1d_forward(np.zeros((1, 2, 1)), params)  # width below minimum
    with pytest.raises(ShapeMismatch):
        conv1d_forward(np.zeros((2, 8)), params)  # unbatched (channels, width)


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
    params = _conv(1, 1, 2, stride=2,
                   kernel=rng.normal(size=(1, 1, 2)), bias=rng.normal(size=1))
    x = rng.normal(size=(1, 1, 8))
    assert _fd_check_conv(params, x) < 1e-6


def test_conv_backward_multichannel_finite_differences():
    rng = np.random.default_rng(6)
    params = _conv(2, 3, 3, stride=2,
                   kernel=rng.normal(size=(2, 3, 3)), bias=rng.normal(size=2))
    x = rng.normal(size=(2, 3, 9))
    assert _fd_check_conv(params, x) < 1e-6


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), batch=st.integers(1, 4),
       out_c=st.integers(1, 3), in_c=st.integers(1, 3), k=st.integers(1, 4),
       stride=st.integers(1, 4), extra=st.integers(0, 12))
@example(seed=117, batch=1, out_c=1, in_c=1, k=1, stride=1, extra=0)
def test_conv_adjoint_consistency(seed, batch, out_c, in_c, k, stride, extra):
    # the conv with its bias zeroed is linear in x and in the kernel, so with
    # u the upstream <conv(x), u> == <x, conv^T(u)> == <kernel, dkernel>, and
    # dbias == sum(u) over batch and width. Taking the bias off the output
    # instead would round away up to an ulp of |bias| (seed 117 above).
    rng = np.random.default_rng(seed)
    params = _conv(out_c, in_c, k, stride,
                   kernel=rng.normal(size=(out_c, in_c, k)),
                   bias=rng.normal(size=out_c))
    x = rng.normal(size=(batch, in_c, k + extra))
    bias = params.bias.copy()
    params.bias[...] = 0.0
    lin = conv1d_forward(x, params)
    params.bias[...] = bias
    u = rng.normal(size=lin.shape)
    zero_grads(params)
    d_x = conv1d_backward(u, x, params)
    forward_side = float(np.sum(lin * u))
    # bounds the sum of |x * kernel * u| over every product the three share
    scale = np.sum(np.abs(x)) * np.sum(np.abs(params.kernel)) * np.max(np.abs(u))
    assert abs(forward_side - float(np.sum(x * d_x))) <= 1e-13 * scale
    kernel_side = float(np.sum(params.kernel * params.grads["kernel"]))
    assert abs(forward_side - kernel_side) <= 1e-13 * scale
    assert np.array_equal(params.grads["bias"], u.sum(axis=(0, 2)))


def _per_tap_conv_backward(upstream, inputs, params):
    """conv1d_backward as one kernel-gradient and one input-adjoint
    contraction per tap, the input adjoints added into zeros."""
    s, out_w = params.stride, upstream.shape[2]
    params.grads["bias"] += upstream.sum(axis=(0, 2))
    d_input = np.zeros_like(inputs)
    for j in range(params.kernel_size):
        tap = (slice(None), slice(None), slice(j, j + s * out_w, s))
        params.grads["kernel"][:, :, j] += np.einsum("bow,bcw->oc", upstream, inputs[tap])
        d_input[tap] += np.einsum("bow,oc->bcw", upstream, params.kernel[:, :, j])
    return d_input


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5),
       out_c=st.integers(1, 4), in_c=st.integers(1, 4), k=st.integers(1, 4),
       stride=st.integers(1, 4), tile=st.booleans(), out_w=st.integers(1, 9),
       extra=st.integers(1, 3), offset=st.integers(0, 2),
       zero=st.sampled_from([0.0, -0.0]), zero_share=st.sampled_from([0.0, 0.4, 1.0]))
@example(seed=0, batch=32, out_c=3, in_c=3, k=2, stride=2, tile=True, out_w=8,
         extra=1, offset=0, zero=0.0, zero_share=0.0)  # a dilated layer of the stack
def test_conv_backward_matches_per_tap_reference_bitwise(
        seed, batch, out_c, in_c, k, stride, tile, out_w, extra, offset, zero,
        zero_share):
    # a tiling conv (stride == k, no trailing positions) returns its merged
    # taps as laid out, any other one adds them into zeros; both, and the
    # parameter gradients, must keep the per-tap loop's bits, signed zeros
    # included. The input is a strided view when offset > 0, as the stack's are.
    if tile:
        stride, extra = k, 0
    rng = np.random.default_rng(seed)
    width = k + stride * (out_w - 1) + extra
    x = rng.normal(size=(batch, in_c, offset + width))[:, :, offset:]
    u = rng.normal(size=(batch, out_c, (width - k) // stride + 1))
    u[rng.random(u.shape) < zero_share] = zero
    kernel, bias = rng.normal(size=(out_c, in_c, k)), rng.normal(size=out_c)
    prior = rng.normal(size=kernel.size + bias.size)  # gradients accumulate
    ref, new, params_only = (_conv(out_c, in_c, k, stride, kernel, bias)
                             for _ in range(3))
    for p in (ref, new, params_only):
        p.grad[...] = prior
    d_ref = _per_tap_conv_backward(u, x, ref)
    d_new = conv1d_backward(u, x, new)
    assert d_new.shape == x.shape
    assert np.array_equal(_bits(d_new), _bits(d_ref))
    assert np.array_equal(_bits(new.grad), _bits(ref.grad))
    assert conv1d_param_grads(u, x, params_only) is None
    assert np.array_equal(_bits(params_only.grad), _bits(ref.grad))


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
    assert sigmoid(np.array(0.0)) == 0.5
    assert np.tanh(0.0) == 0.0


def test_sigmoid_stable_at_extremes():
    assert np.array_equal(sigmoid(np.array([1000.0, -1000.0])), [1.0, 0.0])


def _masked_sigmoid(x):
    """The sign-masked sigmoid that the branch-free one replaced."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=64))
def test_sigmoid_matches_masked_formula_bitwise(values):
    specials = [0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf]
    x = np.array(values + specials)
    assert np.array_equal(sigmoid(x).view(np.int64), _masked_sigmoid(x).view(np.int64))
    assert np.isnan(sigmoid(np.array([np.nan]))).all()
    y = sigmoid(np.array(values[0]))  # a 0-d array
    assert np.shape(y) == ()
    assert np.array_equal(np.reshape(y, 1).view(np.int64),
                          _masked_sigmoid(values[0]).view(np.int64))


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


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), batch=st.integers(1, 6),
       n_in=st.integers(1, 8), n_out=st.integers(1, 8))
def test_dense_adjoint_consistency(seed, batch, n_in, n_out):
    # dense(x) - bias is linear in x and in the weights, so with u the
    # upstream <dense(x) - bias, u> == <x, dense^T(u)> == <W, dW> and
    # dbias == sum(u) over the batch
    rng = np.random.default_rng(seed)
    params = DenseParams(n_in, n_out)
    params.weights[...] = rng.normal(size=(n_in, n_out))
    params.bias[...] = rng.normal(size=n_out)
    x = rng.normal(size=(batch, n_in))
    lin = dense_forward(x, params) - params.bias
    u = rng.normal(size=lin.shape)
    zero_grads(params)
    d_x = dense_backward(u, x, params)
    forward_side = float(np.sum(lin * u))
    # bounds the sum of |x * W * u| over every product the three share, plus
    # the |bias * u| that adding and removing the bias can round away
    scale = (np.sum(np.abs(x)) * np.sum(np.abs(params.weights))
             + batch * np.sum(np.abs(params.bias))) * np.max(np.abs(u))
    assert abs(forward_side - float(np.sum(x * d_x))) <= 1e-13 * scale
    weight_side = float(np.sum(params.weights * params.grads["weights"]))
    assert abs(forward_side - weight_side) <= 1e-13 * scale
    assert np.array_equal(params.grads["bias"], u.sum(axis=0))


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
    x = np.array([[[0.4, -0.2]]])  # one step
    h0 = np.zeros((1, 3))
    c0 = np.zeros((1, 3))
    h, c, (_, _, steps) = lstm_sequence_forward(x, h0, c0, params)
    _, (i, f, o), c_tilde, _ = steps[0]
    assert np.allclose(i, 0.5, atol=0) and np.allclose(f, 0.5, atol=0)
    assert np.allclose(o, 0.5, atol=0)
    assert np.array_equal(c_tilde, np.zeros((1, 3)))
    assert np.array_equal(c, np.zeros((1, 3)))
    assert np.array_equal(h, np.zeros((1, 3)))


def test_lstm_cell_saturated_forget_gate_keeps_cell():
    params = LstmCellParams(1, 3)
    params.b_f[...] = 100.0  # forget gate saturates to 1
    v = np.array([[0.3, -1.2, 0.8]])
    h, c, _ = lstm_sequence_forward(np.array([[[0.5]]]), np.zeros((1, 3)), v, params)
    assert np.max(np.abs(c - v)) < 1e-12


def test_lstm_cell_gradients_finite_differences():
    rng = np.random.default_rng(9)
    params = LstmCellParams(1, 3)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-0.7, 0.7, size=arr.shape)
    x = rng.uniform(-1, 1, size=(1, 2, 1))  # one step
    h0 = rng.uniform(-1, 1, size=(2, 3))
    c0 = rng.uniform(-1, 1, size=(2, 3))

    def loss():
        return float(np.sum(lstm_sequence_forward(x, h0, c0, params)[0]))

    def backward():
        h, _, cache = lstm_sequence_forward(x, h0, c0, params)
        lstm_sequence_backward(np.ones_like(h), cache, params)
        return float(np.sum(h))

    assert grad_check(loss, params, backward, eps=1e-5) < 1e-5


def _reference_cell_forward(x_t, h_prev, c_prev, params):
    """One step of a per-gate cell: one matmul pair and one activation
    call per gate, with the sign-masked sigmoid."""
    i = _masked_sigmoid(x_t @ params.W_ix.T + h_prev @ params.W_ih.T + params.b_i)
    f = _masked_sigmoid(x_t @ params.W_fx.T + h_prev @ params.W_fh.T + params.b_f)
    o = _masked_sigmoid(x_t @ params.W_ox.T + h_prev @ params.W_oh.T + params.b_o)
    c_tilde = np.tanh(x_t @ params.W_cx.T + h_prev @ params.W_ch.T + params.b_c)
    c = f * c_prev + i * c_tilde
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (x_t, h_prev, c_prev, i, f, o, c_tilde, tanh_c)


def _reference_cell_backward(dh, dc, cache, params):
    """Adjoint of _reference_cell_forward, adding this step's gradients
    into params.grads gate by gate."""
    x_t, h_prev, c_prev, i, f, o, c_tilde, tanh_c = cache
    do = dh * tanh_c
    dc_total = dc + dh * o * tanh_grad(tanh_c)
    df = dc_total * c_prev
    di = dc_total * c_tilde
    dc_tilde = dc_total * i
    dc_prev = dc_total * f

    pre = {
        "i": di * sigmoid_grad(i),
        "f": df * sigmoid_grad(f),
        "o": do * sigmoid_grad(o),
        "c": dc_tilde * tanh_grad(c_tilde),
    }
    dh_prev = np.zeros_like(h_prev)
    for g, d_pre in pre.items():
        params.grads[f"W_{g}x"] += d_pre.T @ x_t
        params.grads[f"W_{g}h"] += d_pre.T @ h_prev
        params.grads[f"b_{g}"] += d_pre.sum(axis=0)
        dh_prev += d_pre @ getattr(params, f"W_{g}h")
    return dh_prev, dc_prev


@settings(max_examples=80, deadline=None)
@given(seq_len=st.sampled_from([1, 2, 16]), batch=st.sampled_from([1, 3, 32]),
       n_features=st.sampled_from([1, 3]), n_hidden=st.sampled_from([1, 2, 25]),
       batch_major=st.booleans(), grad_start_nonzero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sequence_matches_per_step_reference_bitwise(seq_len, batch, n_features,
                                                     n_hidden, batch_major,
                                                     grad_start_nonzero, seed):
    # the hoisted input projections and parameter gradients against a
    # per-step loop of the per-gate cell, which accumulates every step's
    # gradients as it goes
    rng = np.random.default_rng(seed)
    params = LstmCellParams(n_features, n_hidden)
    reference = LstmCellParams(n_features, n_hidden)
    params.theta[...] = reference.theta[...] = rng.uniform(-2, 2, params.theta.size)
    # every caller zeroes the gradient; with one step it may start anywhere
    if seq_len == 1 and grad_start_nonzero:
        params.grad[...] = reference.grad[...] = rng.normal(size=params.grad.size)
    if batch_major:  # the strided view lstm_model_forward passes
        x = rng.normal(size=(batch, n_features, seq_len)).transpose(2, 0, 1)
    else:
        x = rng.normal(size=(seq_len, batch, n_features))
    h0, c0, dh_T = rng.normal(size=(3, batch, n_hidden))

    h_T, c_T, cache = lstm_sequence_forward(x, h0, c0, params)
    h, c, steps = h0, c0, []
    for t in range(seq_len):
        h, c, step = _reference_cell_forward(x[t], h, c, reference)
        steps.append(step)
    assert np.array_equal(h_T, h) and np.array_equal(c_T, c)

    lstm_sequence_backward(dh_T, cache, params)
    dh, dc = dh_T, np.zeros_like(dh_T)
    for step in reversed(steps):
        dh, dc = _reference_cell_backward(dh, dc, step, reference)
    for name in params.grads:
        assert np.array_equal(params.grads[name], reference.grads[name]), name


def test_stacked_gate_views_share_the_store():
    params = LstmCellParams(3, 2)
    params.theta[...] = np.arange(params.theta.size)
    params.grad[...] = -np.arange(params.grad.size)
    for k, g in enumerate(nn_core.LSTM_GATES):
        assert np.array_equal(params.Wx4[k], getattr(params, f"W_{g}x"))
        assert np.array_equal(params.Wh4[k], getattr(params, f"W_{g}h"))
        assert np.array_equal(params.b4[k], getattr(params, f"b_{g}"))
        assert np.array_equal(params.gWx4[k], params.grads[f"W_{g}x"])
        assert np.array_equal(params.gWh4[k], params.grads[f"W_{g}h"])
        assert np.array_equal(params.gb4[k], params.grads[f"b_{g}"])
    for view in (params.Wx4, params.Wh4, params.b4):
        assert np.shares_memory(view, params.theta)
    for view in (params.gWx4, params.gWh4, params.gb4):
        assert np.shares_memory(view, params.grad)
    model = LstmModelParams(3, 2)  # the model's store re-binds the cell
    assert np.shares_memory(model.cell.Wh4, model.theta)
    assert np.shares_memory(model.cell.gWh4, model.grad)


def test_lstm_sequence_length_one_equals_cell():
    rng = np.random.default_rng(10)
    params = LstmCellParams(2, 4)
    for _, arr, _ in named_parameters(params):
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    x = rng.normal(size=(1, 3, 2))
    h0 = np.zeros((3, 4))
    c0 = np.zeros((3, 4))
    h_seq, c_seq, _ = lstm_sequence_forward(x, h0, c0, params)
    xz = x[0] @ params.Wx4.transpose(0, 2, 1)  # (4, batch, hidden)
    h_cell, c_cell, _ = lstm_cell_forward(xz, h0, c0, params)
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
    h = np.zeros((1, 3))
    with pytest.raises(ShapeMismatch):  # 5 features, the cell takes 2
        lstm_sequence_forward(np.zeros((1, 1, 5)), h, h, params)
    with pytest.raises(ShapeMismatch):  # 4 hidden units, the cell has 3
        lstm_sequence_forward(np.zeros((1, 1, 2)), np.zeros((1, 4)), np.zeros((1, 4)),
                              params)
    with pytest.raises(ShapeMismatch):  # an input projection of 3 gates
        lstm_cell_forward(np.zeros((3, 1, 3)), h, h, params)
    with pytest.raises(ShapeMismatch):  # h_prev and c_prev disagree
        lstm_cell_forward(np.zeros((4, 1, 3)), h, np.zeros((2, 3)), params)


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
