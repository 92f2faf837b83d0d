"""Dense-array layer primitives with exact forward math and hand-derived
backward passes.

Everything runs in double precision on plain numpy arrays. A model's
parameters live in one flat vector and its gradients in a second one of
the same size; each layer array is a named view into them. Backward
passes *add* into the gradient views, so callers zero the gradient vector
between optimizer steps. The 1-D convolution is the cross-correlation
s(i) = sum_c sum_j input[c, i + d*j] * w[c, j] + b (no kernel flipping),
with dilation d skipping input positions.
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
    """

    def __init__(self, layout):
        self.layout = list(layout)
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
        self.theta = np.concatenate([block.theta for _, block in self.blocks])
        self.grad = np.zeros_like(self.theta)
        offset = 0
        for _, block in self.blocks:
            end = offset + block.theta.size
            block.bind(self.theta[offset:end], self.grad[offset:end])
            offset = end


class ConvLayerParams(ParamBlock):
    """1-D convolution parameters: kernel (out_ch, in_ch, k), bias (out_ch,)."""

    def __init__(self, out_channels: int, in_channels: int, kernel_size: int,
                 dilation: int = 1):
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        self.dilation = dilation
        super().__init__([("kernel", (out_channels, in_channels, kernel_size)),
                          ("bias", (out_channels,))])

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[2]


class DenseParams(ParamBlock):
    """Affine map parameters: weights (n_in, n_out), bias (n_out,)."""

    def __init__(self, n_in: int, n_out: int):
        super().__init__([("weights", (n_in, n_out)), ("bias", (n_out,))])


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
        ])


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
    # derivative at 0 defined as 0
    return (y > 0).astype(np.float64)


def sigmoid(x):
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])  # branch on sign so exp never overflows
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if scalar else out


def sigmoid_grad(y):
    return y * (1.0 - y)


def tanh_grad(y):
    return 1.0 - y * y


# ---------------------------------------------------------------------------
# 1-D dilated convolution (cross-correlation)


def _conv_check(inputs: np.ndarray, params: ConvLayerParams) -> tuple[np.ndarray, bool]:
    single = inputs.ndim == 2  # (channels, width) convenience form
    batch = inputs[None] if single else inputs
    if batch.ndim != 3:
        raise ShapeMismatch(f"expected 2- or 3-d input, got ndim {inputs.ndim}")
    if batch.shape[1] != params.in_channels:
        raise ShapeMismatch(
            f"input has {batch.shape[1]} channels, kernel expects {params.in_channels}"
        )
    min_width = 1 + params.dilation * (params.kernel_size - 1)
    if batch.shape[2] < min_width:
        raise ShapeMismatch(
            f"width {batch.shape[2]} < minimum {min_width} for k={params.kernel_size},"
            f" d={params.dilation}"
        )
    return batch, single


def conv1d_forward(inputs: np.ndarray, params: ConvLayerParams) -> np.ndarray:
    """Dilated cross-correlation over (batch, channels, width) or (channels, width).

    out[b, o, i] = sum_c sum_j inputs[b, c, i + d*j] * kernel[o, c, j] + bias[o]
    with out_width = width - d * (kernel_size - 1).
    """
    batch, single = _conv_check(inputs, params)
    k, d = params.kernel_size, params.dilation
    out_w = batch.shape[2] - d * (k - 1)
    out = np.empty((batch.shape[0], params.out_channels, out_w), dtype=np.float64)
    out[:] = params.bias[None, :, None]
    for j in range(k):
        out += np.einsum(
            "bcw,oc->bow", batch[:, :, j * d:j * d + out_w], params.kernel[:, :, j]
        )
    return out[0] if single else out


def conv1d_backward(
    upstream: np.ndarray, inputs: np.ndarray, params: ConvLayerParams
) -> np.ndarray:
    """Exact adjoint of conv1d_forward.

    Accumulates kernel/bias gradients into params.grads and returns the
    gradient with respect to the inputs (same shape as `inputs`).
    """
    batch, single = _conv_check(inputs, params)
    up = upstream[None] if single else upstream
    k, d = params.kernel_size, params.dilation
    out_w = batch.shape[2] - d * (k - 1)
    if up.shape != (batch.shape[0], params.out_channels, out_w):
        raise ShapeMismatch(
            f"upstream shape {up.shape} does not match forward output "
            f"{(batch.shape[0], params.out_channels, out_w)}"
        )
    params.grads["bias"] += up.sum(axis=(0, 2))
    d_input = np.zeros_like(batch)
    for j in range(k):
        window = batch[:, :, j * d:j * d + out_w]
        params.grads["kernel"][:, :, j] += np.einsum("bow,bcw->oc", up, window)
        d_input[:, :, j * d:j * d + out_w] += np.einsum(
            "bow,oc->bcw", up, params.kernel[:, :, j]
        )
    return d_input[0] if single else d_input


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


def dense_backward(
    upstream: np.ndarray, inputs: np.ndarray, params: DenseParams
) -> np.ndarray:
    if upstream.shape != (inputs.shape[0], params.weights.shape[1]):
        raise ShapeMismatch(
            f"upstream shape {upstream.shape} does not match output "
            f"{(inputs.shape[0], params.weights.shape[1])}"
        )
    params.grads["weights"] += inputs.T @ upstream
    params.grads["bias"] += upstream.sum(axis=0)
    return upstream @ params.weights.T


# ---------------------------------------------------------------------------
# LSTM cell and sequence (BPTT)


def lstm_cell_forward(x_t, h_prev, c_prev, params: LstmCellParams):
    """One LSTM step.

        i = sig(W_ix x + W_ih h_prev + b_i)      input gate
        f = sig(W_fx x + W_fh h_prev + b_f)      forget gate
        o = sig(W_ox x + W_oh h_prev + b_o)      output gate
        c~ = tanh(W_cx x + W_ch h_prev + b_c)    candidate cell
        c = f * c_prev + i * c~
        h = o * tanh(c)

    x_t is (batch, features); h_prev/c_prev are (batch, hidden). Returns
    (h, c, cache) where cache feeds lstm_cell_backward.
    """
    if x_t.ndim != 2 or x_t.shape[1] != params.n_features:
        raise ShapeMismatch(
            f"x_t shape {x_t.shape} incompatible with {params.n_features} features"
        )
    if h_prev.shape != (x_t.shape[0], params.n_hidden) or c_prev.shape != h_prev.shape:
        raise ShapeMismatch("h_prev/c_prev shapes do not match (batch, hidden)")
    i = sigmoid(x_t @ params.W_ix.T + h_prev @ params.W_ih.T + params.b_i)
    f = sigmoid(x_t @ params.W_fx.T + h_prev @ params.W_fh.T + params.b_f)
    o = sigmoid(x_t @ params.W_ox.T + h_prev @ params.W_oh.T + params.b_o)
    c_tilde = np.tanh(x_t @ params.W_cx.T + h_prev @ params.W_ch.T + params.b_c)
    c = f * c_prev + i * c_tilde
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = (x_t, h_prev, c_prev, i, f, o, c_tilde, tanh_c)
    return h, c, cache


def lstm_cell_backward(dh, dc, cache, params: LstmCellParams):
    """Adjoint of one LSTM step.

    dh/dc are gradients w.r.t. h_t and c_t. Accumulates parameter gradients
    and returns (dx, dh_prev, dc_prev).
    """
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
    dx = np.zeros_like(x_t)
    dh_prev = np.zeros_like(h_prev)
    for g, d_pre in pre.items():
        params.grads[f"W_{g}x"] += d_pre.T @ x_t
        params.grads[f"W_{g}h"] += d_pre.T @ h_prev
        params.grads[f"b_{g}"] += d_pre.sum(axis=0)
        dx += d_pre @ getattr(params, f"W_{g}x")
        dh_prev += d_pre @ getattr(params, f"W_{g}h")
    return dx, dh_prev, dc_prev


def lstm_sequence_forward(sequence, h0, c0, params: LstmCellParams):
    """Unroll the cell over (seq_len, batch, features); returns (h_T, c_T, caches)."""
    if sequence.ndim != 3:
        raise ShapeMismatch(f"expected (seq, batch, features), got {sequence.shape}")
    h, c = h0, c0
    caches = []
    for t in range(sequence.shape[0]):
        h, c, cache = lstm_cell_forward(sequence[t], h, c, params)
        caches.append(cache)
    return h, c, caches


def lstm_sequence_backward(dh_T, caches, params: LstmCellParams, dc_T=None):
    """Backpropagation through time from a gradient on the last hidden state.

    Accumulates parameter gradients across all steps; returns
    (d_sequence, dh0, dc0).
    """
    dh = dh_T
    dc = np.zeros_like(dh_T) if dc_T is None else dc_T
    d_steps = []
    for cache in reversed(caches):
        dx, dh, dc = lstm_cell_backward(dh, dc, cache, params)
        d_steps.append(dx)
    d_sequence = np.stack(d_steps[::-1], axis=0)
    return d_sequence, dh, dc


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
    """Fill params.theta in place from a checkpoint of the same layout."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [CHECKPOINT_HEADER]:
        raise ValueError(f"unexpected header {rows[:1]!r}")
    if [(name, int(idx)) for name, idx, _ in rows[1:]] != _entries(params):
        raise ValueError(
            f"checkpoint rows do not match the model's {params.theta.size} parameters"
        )
    params.theta[...] = [float(value) for _, _, value in rows[1:]]
