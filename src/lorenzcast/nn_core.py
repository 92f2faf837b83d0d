"""Dense-array layer primitives with exact forward math and hand-derived
backward passes.

Everything runs in double precision on plain numpy arrays. A model's
parameters live in one flat vector and its gradients in a second one of
the same size; each layer array is a named view into them. Backward
passes *add* into the gradient views, so callers zero the gradient vector
between optimizer steps. The 1-D convolution is the cross-correlation
out(i) = sum_c sum_j input[c, s*i + j] * w[c, j] + b (no kernel flipping),
with stride s stepping the kernel along the input.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class ShapeMismatch(ValueError):
    """Array dimensions do not match the layer's parameters."""


# ---------------------------------------------------------------------------
# parameter store


class ParamBlock:
    """Named parameter arrays stored back to back in one flat float64
    vector `theta`, with their gradients at the same offsets in `grad`.

    `layout` lists (name, shape) in storage order. Each array and its
    gradient buffer `grads[name]` are C-contiguous views into the two
    vectors, so layer code reads and accumulates into the store directly.
    `fans` maps each weight array's name to its (fan_in, fan_out); the
    arrays it does not name are biases.
    """

    def __init__(self, layout, fans):
        self.layout = list(layout)
        self.fans = dict(fans)
        size = sum(math.prod(shape) for _, shape in self.layout)
        self.bind(np.zeros(size), np.zeros(size))

    def bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Re-point every array at its slice of `theta` and `grad`."""
        self.theta, self.grad, self.grads = theta, grad, {}
        for name, arr, g in named_parameters(self):
            setattr(self, name, arr)
            self.grads[name] = g


class ParamStore:
    """One model's parameter vector, shared by its (prefix, ParamBlock)
    blocks: their arrays are laid out in block order, named
    `prefix.name`, and every block is bound to its slice of the store."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.layout = [(f"{prefix}.{name}", shape)
                       for prefix, block in self.blocks
                       for name, shape in block.layout]
        theta = np.concatenate([block.theta for _, block in self.blocks])
        self.bind(theta, np.zeros_like(theta))

    def bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Re-point every block at its slice of `theta` and `grad`."""
        self.theta, self.grad = theta, grad
        cuts = np.cumsum([block.theta.size for _, block in self.blocks[:-1]])
        for (_, block), t, g in zip(self.blocks, np.split(theta, cuts),
                                    np.split(grad, cuts)):
            block.bind(t, g)

    def weights_with_fans(self) -> list[tuple[np.ndarray, int, int]]:
        """(array, fan_in, fan_out) of every weight array, in storage order."""
        return [(getattr(block, name), *block.fans[name])
                for _, block in self.blocks
                for name, _ in block.layout if name in block.fans]

    def conv_kernels(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The conv blocks' kernels and their gradient views."""
        convs = [block for _, block in self.blocks
                 if isinstance(block, ConvLayerParams)]
        return ([block.kernel for block in convs],
                [block.grads["kernel"] for block in convs])


class ConvLayerParams(ParamBlock):
    """1-D convolution parameters: kernel (out_ch, in_ch, k), bias (out_ch,)."""

    def __init__(self, out_channels: int, in_channels: int, kernel_size: int,
                 stride: int = 1):
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        self.out_channels, self.in_channels = out_channels, in_channels
        self.kernel_size, self.stride = kernel_size, stride
        super().__init__([("kernel", (out_channels, in_channels, kernel_size)),
                          ("bias", (out_channels,))],
                         {"kernel": (in_channels * kernel_size,
                                     out_channels * kernel_size)})


class DenseParams(ParamBlock):
    """Affine map parameters: weights (n_in, n_out), bias (n_out,)."""

    def __init__(self, n_in: int, n_out: int):
        super().__init__([("weights", (n_in, n_out)), ("bias", (n_out,))],
                         {"weights": (n_in, n_out)})


LSTM_GATES = ("i", "f", "o", "c")


class LstmCellParams(ParamBlock):
    """Per-gate LSTM weights.

    For each gate g in (i, f, o, c): input weights W_gx (hidden, features),
    recurrent weights W_gh (hidden, hidden) and bias b_g (hidden,).
    """

    def __init__(self, n_features: int, n_hidden: int):
        self.n_features = n_features
        self.n_hidden = n_hidden
        super().__init__([
            entry for g in LSTM_GATES for entry in (
                (f"W_{g}x", (n_hidden, n_features)),
                (f"W_{g}h", (n_hidden, n_hidden)),
                (f"b_{g}", (n_hidden,)),
            )
        ], {**{f"W_{g}x": (n_features, n_hidden) for g in LSTM_GATES},
            **{f"W_{g}h": (n_hidden, n_hidden) for g in LSTM_GATES}})

    def bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Also bind the gates stacked in LSTM_GATES order: Wx4 (4, H, F),
        Wh4 (4, H, H), b4 (4, H) and their gradients gWx4, gWh4, gb4. Every
        gate's [W_gx, W_gh, b_g] block has the same size, so each stacked
        array is a strided view of theta or grad."""
        super().bind(theta, grad)
        h, f = self.n_hidden, self.n_features
        wx, wh, self.b4 = np.split(theta.reshape(4, -1), [h * f, h * (f + h)], axis=1)
        self.Wx4, self.Wh4 = wx.reshape(4, h, f), wh.reshape(4, h, h)
        wx, wh, self.gb4 = np.split(grad.reshape(4, -1), [h * f, h * (f + h)], axis=1)
        self.gWx4, self.gWh4 = wx.reshape(4, h, f), wh.reshape(4, h, h)


def named_parameters(params):
    """(name, array, grad) triples of a ParamBlock or ParamStore, in storage
    order; both arrays are views into params.theta and params.grad."""
    offset = 0
    for name, shape in params.layout:
        end = offset + math.prod(shape)
        yield (name, params.theta[offset:end].reshape(shape),
               params.grad[offset:end].reshape(shape))
        offset = end


def zero_grads(params):
    params.grad.fill(0.0)


def param_count(params) -> int:
    return params.theta.size


# ---------------------------------------------------------------------------
# activations (derivatives take the cached forward output)


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(y):
    # the mask y > 0: derivative at 0 defined as 0
    return y > 0


def sigmoid(x):
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_grad(y):
    return y * (1.0 - y)


def tanh_grad(y):
    return 1.0 - y * y


# ---------------------------------------------------------------------------
# 1-D strided convolution (cross-correlation)


def _conv_check(inputs: np.ndarray, params: ConvLayerParams) -> int:
    """Output width of the conv on (batch, channels, width) inputs."""
    if inputs.ndim != 3:
        raise ShapeMismatch(f"expected 3-d input, got ndim {inputs.ndim}")
    if inputs.shape[1] != params.in_channels:
        raise ShapeMismatch(
            f"input has {inputs.shape[1]} channels, kernel expects {params.in_channels}"
        )
    k = params.kernel_size
    if inputs.shape[2] < k:
        raise ShapeMismatch(f"width {inputs.shape[2]} < kernel size {k}")
    return (inputs.shape[2] - k) // params.stride + 1


def conv1d_forward(inputs: np.ndarray, params: ConvLayerParams) -> np.ndarray:
    """Strided cross-correlation over (batch, channels, width).

    out[b, o, i] = sum_c sum_j inputs[b, c, s*i + j] * kernel[o, c, j] + bias[o]
    with out_width = (width - kernel_size) // s + 1.
    """
    out_w = _conv_check(inputs, params)
    s = params.stride
    out = params.bias[:, None]
    for j in range(params.kernel_size):  # tap j reads inputs j, j+s, ...
        out = out + np.einsum("bcw,oc->bow", inputs[:, :, j:j + s * out_w:s],
                              params.kernel[:, :, j])
    return out


def conv1d_param_grads(
    upstream: np.ndarray, inputs: np.ndarray, params: ConvLayerParams
) -> None:
    """The parameter half of conv1d_backward: accumulates the kernel and
    bias gradients into params.grads and forms no input gradient."""
    out_w = _conv_check(inputs, params)
    out_shape = (inputs.shape[0], params.out_channels, out_w)
    if upstream.shape != out_shape:
        raise ShapeMismatch(
            f"upstream shape {upstream.shape} does not match forward output {out_shape}"
        )
    params.grads["bias"] += upstream.sum(axis=(0, 2))
    s = params.stride
    # one contraction per tap: merging the taps sums in another order
    for j in range(params.kernel_size):
        params.grads["kernel"][:, :, j] += np.einsum(
            "bow,bcw->oc", upstream, inputs[:, :, j:j + s * out_w:s])


def conv1d_backward(
    upstream: np.ndarray, inputs: np.ndarray, params: ConvLayerParams
) -> np.ndarray:
    """Exact adjoint of conv1d_forward.

    Accumulates kernel/bias gradients into params.grads and returns the
    gradient with respect to the inputs (same shape as `inputs`). One
    contraction forms every tap's input adjoint; when the taps tile the
    input (stride == kernel_size and no trailing positions), they are the
    input gradient as laid out, else they add into zeros tap by tap.
    """
    conv1d_param_grads(upstream, inputs, params)
    k, s, out_w = params.kernel_size, params.stride, upstream.shape[2]
    d_taps = np.einsum("bow,ocj->bcwj", upstream, params.kernel)
    if s == k and s * out_w == inputs.shape[2]:
        return d_taps.reshape(inputs.shape)
    d_input = np.zeros_like(inputs)
    for j in range(k):
        d_input[:, :, j:j + s * out_w:s] += d_taps[..., j]
    return d_input


# ---------------------------------------------------------------------------
# dense layer


def dense_forward(inputs: np.ndarray, params: DenseParams) -> np.ndarray:
    """Affine map (batch, n_in) -> (batch, n_out); no activation."""
    if inputs.ndim != 2 or inputs.shape[1] != params.weights.shape[0]:
        raise ShapeMismatch(
            f"input shape {inputs.shape} incompatible with weights "
            f"{params.weights.shape}"
        )
    return inputs @ params.weights + params.bias


def dense_param_grads(
    upstream: np.ndarray, inputs: np.ndarray, params: DenseParams
) -> None:
    """The parameter half of dense_backward: accumulates the weight and
    bias gradients into params.grads and forms no input gradient."""
    if upstream.shape != (inputs.shape[0], params.weights.shape[1]):
        raise ShapeMismatch(
            f"upstream shape {upstream.shape} does not match output "
            f"{(inputs.shape[0], params.weights.shape[1])}"
        )
    params.grads["weights"] += inputs.T @ upstream
    params.grads["bias"] += upstream.sum(axis=0)


def dense_backward(
    upstream: np.ndarray, inputs: np.ndarray, params: DenseParams
) -> np.ndarray:
    dense_param_grads(upstream, inputs, params)
    return upstream @ params.weights.T


# ---------------------------------------------------------------------------
# LSTM cell and sequence (BPTT)


def lstm_cell_forward(xz_t, h_prev, c_prev, params: LstmCellParams):
    """One step of the LSTM recurrence.

        i = sig(W_ix x + W_ih h_prev + b_i)      input gate
        f = sig(W_fx x + W_fh h_prev + b_f)      forget gate
        o = sig(W_ox x + W_oh h_prev + b_o)      output gate
        c~ = tanh(W_cx x + W_ch h_prev + b_c)    candidate cell
        c = f * c_prev + i * c~
        h = o * tanh(c)

    xz_t is the step's input projection W_gx x for every gate, stacked in
    LSTM_GATES order as (4, batch, hidden); lstm_sequence_forward forms it
    for all steps at once. Each pre-activation is summed as
    (W_gx x + W_gh h_prev) + b_g. h_prev/c_prev are (batch, hidden).
    Returns (h, c, cache) where cache feeds lstm_cell_backward.
    """
    if (h_prev.ndim != 2 or h_prev.shape[1] != params.n_hidden
            or c_prev.shape != h_prev.shape):
        raise ShapeMismatch("h_prev/c_prev shapes do not match (batch, hidden)")
    if xz_t.shape != (4, *h_prev.shape):
        raise ShapeMismatch(f"xz_t shape {xz_t.shape} is not (4, batch, hidden)")
    z = h_prev @ params.Wh4.transpose(0, 2, 1)  # (4, batch, hidden)
    z += xz_t
    z += params.b4[:, None]
    ifo = sigmoid(z[:3])  # i, f, o stacked
    c_tilde = np.tanh(z[3])
    c = ifo[1] * c_prev
    c += ifo[0] * c_tilde
    tanh_c = np.tanh(c)
    return ifo[2] * tanh_c, c, (c_prev, ifo, c_tilde, tanh_c)


def lstm_cell_backward(dh, dc, cache, params: LstmCellParams, d_z):
    """Adjoint of one step of the recurrence.

    dh/dc are gradients w.r.t. h_t and c_t. Writes the step's gate
    pre-activation gradients, (4, batch, hidden) in LSTM_GATES order, into
    d_z and returns (dh_prev, dc_prev). The parameter gradients are left
    to lstm_sequence_backward, which forms them from d_z.
    """
    c_prev, ifo, c_tilde, tanh_c = cache
    i, f, o = ifo
    dc_total = dh * o
    dc_total *= tanh_grad(tanh_c)
    dc_total += dc
    np.multiply(dc_total, c_tilde, out=d_z[0])
    np.multiply(dc_total, c_prev, out=d_z[1])
    np.multiply(dh, tanh_c, out=d_z[2])
    d_z[:3] *= sigmoid_grad(ifo)
    np.multiply(dc_total, i, out=d_z[3])
    d_z[3] *= tanh_grad(c_tilde)
    dh_prev = (d_z @ params.Wh4).sum(axis=0)  # gates summed in i, f, o, c order
    dc_total *= f
    return dh_prev, dc_total


def lstm_sequence_forward(sequence, h0, c0, params: LstmCellParams):
    """Unroll the cell over (seq_len, batch, features) from (h0, c0).

    The input projections do not depend on the recurrence, so one batched
    matmul forms them for every step and gate, (seq_len, 4, batch, hidden).
    It makes the same per-(step, gate) products a per-step cell would, on
    operands of the same layout: a contiguous copy of a strided `sequence`
    can take another matmul path and round differently. The cell then runs
    the recurrence once per step. Returns (h_T, c_T, cache) where cache
    feeds lstm_sequence_backward.
    """
    if sequence.ndim != 3 or sequence.shape[2] != params.n_features:
        raise ShapeMismatch(
            f"expected (seq, batch, {params.n_features}), got {sequence.shape}"
        )
    xz = sequence[:, None] @ params.Wx4.transpose(0, 2, 1)
    h, c = h0, c0
    h_prevs, steps = [], []
    for t in range(sequence.shape[0]):
        h_prevs.append(h)
        h, c, step = lstm_cell_forward(xz[t], h, c, params)
        steps.append(step)
    return h, c, (sequence, h_prevs, steps)


def lstm_sequence_backward(dh_T, cache, params: LstmCellParams) -> None:
    """Backpropagation through time from the gradient on the last hidden
    state; accumulates the parameter gradients.

    The loop runs the recurrence's adjoint, t = T-1 ... 0, and collects each
    step's gate pre-activation gradients in one (seq_len, 4, batch, hidden)
    buffer. The weight and bias gradients do not feed the recurrence, so
    batched products form them after the loop. Each parameter gradient
    sums its per-step terms over t = T-1 ... 0, then adds that sum to
    params.grad: bit for bit a per-step accumulation from a zeroed gradient.
    """
    sequence, h_prevs, steps = cache
    d_z = np.empty((len(steps), 4, *dh_T.shape))
    dh, dc = dh_T, np.zeros_like(dh_T)
    for t in reversed(range(len(steps))):
        dh, dc = lstm_cell_backward(dh, dc, steps[t], params, d_z[t])
    d_z_t = d_z.transpose(0, 1, 3, 2)
    params.gWx4 += (d_z_t @ sequence[:, None])[::-1].sum(axis=0)
    params.gWh4 += (d_z_t @ np.stack(h_prevs)[:, None])[::-1].sum(axis=0)
    params.gb4 += d_z.sum(axis=2)[::-1].sum(axis=0)


# ---------------------------------------------------------------------------
# finite-difference gradient verification


# A gap of up to this many round-off estimates counts as exact (see grad_check).
ROUNDOFF_C = 4.0


def grad_check(loss_fn, params, backward_fn, eps: float = 1e-5) -> float:
    """Central-difference check of every entry of params.theta.

    backward_fn() runs one forward+backward pass at the current parameters,
    accumulating into params.grad, and returns the loss L; it is called
    once. loss_fn() returns the loss only; it is called twice per entry,
    with that entry moved by +eps and -eps.

    Each loss carries a rounding error of about u|L| (u = machine epsilon),
    so the central difference carries about n = 2 u |L| / eps. An entry
    whose gap |analytic - numeric| is at most ROUNDOFF_C * n counts as
    exact. Returns the max over the other entries of the relative error
    |analytic - numeric| / max(|analytic|, |numeric|), or 0.
    """
    zero_grads(params)
    loss = backward_fn()
    analytic = params.grad.copy()
    zero_grads(params)
    roundoff = ROUNDOFF_C * 2.0 * np.finfo(np.float64).eps * abs(loss) / eps
    theta = params.theta
    max_rel = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + eps
        loss_plus = loss_fn()
        theta[idx] = orig - eps
        loss_minus = loss_fn()
        theta[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        gap = abs(analytic[idx] - numeric)
        if gap > roundoff:
            max_rel = max(max_rel, gap / max(abs(analytic[idx]), abs(numeric)))
    return max_rel


# ---------------------------------------------------------------------------
# checkpoint serialization


CHECKPOINT_HEADER = ["layer_name", "index", "value"]


def _entries(params) -> list[tuple[str, int]]:
    """(layer_name, index) of every entry of params.theta, in order."""
    return [(name, idx) for name, shape in params.layout
            for idx in range(math.prod(shape))]


def save_params_csv(params, path) -> None:
    """One `layer_name,index,value` row per entry of params.theta, at 17
    significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHECKPOINT_HEADER)
        writer.writerows([name, idx, f"{value:.17g}"]
                         for (name, idx), value in zip(_entries(params), params.theta))


def load_params_csv(params, path) -> None:
    """Fill params.theta in place from a checkpoint of the same layout,
    whose values must all be finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [CHECKPOINT_HEADER]:
        raise ValueError(f"unexpected header {rows[:1]!r}")
    if [(name, int(idx)) for name, idx, _ in rows[1:]] != _entries(params):
        raise ValueError(
            f"checkpoint rows do not match the model's {params.theta.size} parameters"
        )
    values = [float(value) for _, _, value in rows[1:]]
    for line, (row, value) in enumerate(zip(rows[1:], values), start=2):
        if not math.isfinite(value):
            raise ValueError(f"line {line} ({row[0]},{row[1]}) holds the "
                             f"non-finite value {row[2]!r}")
    params.theta[...] = values
