"""The three forecaster families, as forward+backward compositions.

* a stack of dilated causal convolutions with skip and residual
  connections (WaveNet-style), in unconditional / conditional / multitask
  variants,
* a single-layer LSTM with 25 hidden units and a dense head,
* the small 1992-era feed-forward baseline (5 inputs, 3 sigmoid hidden
  neurons, linear output).

Width bookkeeping in the conv stack: dilated convolutions run without
internal padding, so each layer shrinks the time axis by d*(k-1); residual
adds crop their input stream to the time-aligned tail, and skip taps crop
to the final position before their 1x1 conv. At the default config the
width walks 16 -> 15 -> 13 -> 9 -> 1, and the one remaining position is
the one-step-ahead readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core, optim
from .nn_core import (
    ConvLayerParams,
    DenseParams,
    LstmCellParams,
    ParamStore,
    ShapeMismatch,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    param_count,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad,
)

__all__ = [
    "WaveNetConfig", "WaveNetParams", "WaveNetModel", "init_wavenet",
    "LstmModelParams", "LstmModel", "init_lstm",
    "FfnParams", "FfnModel", "init_ffn",
    "param_count",
]


# ---------------------------------------------------------------------------
# WaveNet-style dilated stack


@dataclass(frozen=True)
class WaveNetConfig:
    """Structure of the dilated stack.

    stack_channels is the filter count M carried through the stack; the
    default 1 keeps the dilated layers single-channel after the input 1x1
    conv (setting it to 3 runs three channels throughout instead).
    """

    n_layers: int = 4
    kernel_size: int = 2
    in_channels: int = 1
    n_tasks: int = 1
    stack_channels: int = 1

    @property
    def dilations(self) -> tuple[int, ...]:
        return tuple(2 ** l for l in range(self.n_layers))

    @property
    def receptive_field(self) -> int:
        return self.kernel_size * 2 ** (self.n_layers - 1)


class WaveNetParams(ParamStore):
    """Input 1x1 conv, L dilated convs, L skip 1x1 convs, one head per task."""

    def __init__(self, config: WaveNetConfig):
        self.config = config
        m = config.stack_channels
        self.input_conv = ConvLayerParams(m, config.in_channels, 1)
        self.dilated = [
            ConvLayerParams(m, m, config.kernel_size, dilation=d)
            for d in config.dilations
        ]
        self.skips = [ConvLayerParams(m, m, 1) for _ in range(config.n_layers)]
        self.heads = [ConvLayerParams(1, m, 1) for _ in range(config.n_tasks)]
        super().__init__(
            [("input_conv", self.input_conv)]
            + [(f"dilated_{l + 1}", p) for l, p in enumerate(self.dilated)]
            + [(f"skip_{l + 1}", p) for l, p in enumerate(self.skips)]
            + [(f"head_{j}", p) for j, p in enumerate(self.heads)]
        )

    def conv_kernels(self):
        """(kernel, grad) pairs for the L2 penalty (kernels only, no biases)."""
        return [(block.kernel, block.grads["kernel"]) for _, block in self.blocks]


def init_wavenet(config: WaveNetConfig, seed: int,
                 variant: str = "he") -> WaveNetParams:
    params = WaveNetParams(config)
    specs = []
    kernels = []
    for _, block in params.blocks:
        out_c, in_c, k = block.kernel.shape
        specs.append((block.kernel.shape, in_c * k, out_c * k))
        kernels.append(block.kernel)
    drawn = optim.init_params(specs, optim.InitScheme(variant, seed))
    for kernel, values in zip(kernels, drawn):
        kernel[...] = values
    return params


def wavenet_forward(inputs: np.ndarray, params: WaveNetParams):
    """Run the stack on (batch, in_channels, width); width >= receptive field.

    Pipeline: input 1x1 conv -> [dilated conv -> relu -> residual add, with
    a skip 1x1 tap per layer] -> sum(skip taps) + final stream position ->
    one 1x1 head per task, read at the latest time position.

    Returns (predictions (batch, n_tasks), cache).
    """
    cfg = params.config
    if inputs.ndim != 3 or inputs.shape[1] != cfg.in_channels:
        raise ShapeMismatch(
            f"expected (batch, {cfg.in_channels}, width), got {inputs.shape}"
        )
    if inputs.shape[2] < cfg.receptive_field:
        raise ShapeMismatch(
            f"width {inputs.shape[2]} < receptive field {cfg.receptive_field}"
        )
    stream = conv1d_forward(inputs, params.input_conv)
    streams = [stream]
    relus, skip_ins = [], []
    skip_sum = np.zeros((inputs.shape[0], cfg.stack_channels, 1), dtype=np.float64)
    for conv, skip in zip(params.dilated, params.skips):
        f = relu(conv1d_forward(streams[-1], conv))
        tap = f[:, :, -1:]
        skip_sum += conv1d_forward(tap, skip)
        relus.append(f)
        skip_ins.append(tap)
        streams.append(streams[-1][:, :, -f.shape[2]:] + f)
    final_in = skip_sum + streams[-1][:, :, -1:]
    preds = np.empty((inputs.shape[0], cfg.n_tasks), dtype=np.float64)
    for j, head in enumerate(params.heads):
        preds[:, j] = conv1d_forward(final_in, head)[:, 0, 0]
    cache = (inputs, streams, relus, skip_ins, final_in)
    return preds, cache


def wavenet_backward(d_preds: np.ndarray, cache, params: WaveNetParams) -> np.ndarray:
    """Exact adjoint of wavenet_forward; gradients sum at every fan-out.

    Accumulates parameter gradients and returns the input gradient.
    """
    inputs, streams, relus, skip_ins, final_in = cache
    if d_preds.shape != (inputs.shape[0], params.config.n_tasks):
        raise ShapeMismatch(
            f"d_preds shape {d_preds.shape} does not match predictions"
        )
    b = inputs.shape[0]
    d_final_in = np.zeros_like(final_in)
    for j, head in enumerate(params.heads):
        up = d_preds[:, j].reshape(b, 1, 1)
        d_final_in += conv1d_backward(up, final_in, head)

    # final_in = skip_sum + last position of the post-stack stream
    d_stream = np.zeros_like(streams[-1])
    d_stream[:, :, -1:] = d_final_in
    for l in reversed(range(params.config.n_layers)):
        f = relus[l]
        width = f.shape[2]
        d_f = d_stream.copy()
        d_f[:, :, -1:] += conv1d_backward(d_final_in, skip_ins[l], params.skips[l])
        d_z = d_f * relu_grad(f)
        d_prev = conv1d_backward(d_z, streams[l], params.dilated[l])
        d_prev[:, :, -width:] += d_stream  # adjoint of the residual tail crop
        d_stream = d_prev
    return conv1d_backward(d_stream, inputs, params.input_conv)


class WaveNetModel:
    kind = "wavenet"

    def __init__(self, params: WaveNetParams):
        self.params = params
        self.config = params.config

    def forward(self, batch, training=False, rng=None):
        return wavenet_forward(batch, self.params)

    def backward(self, d_preds, cache):
        return wavenet_backward(d_preds, cache, self.params)

    def predict(self, batch):
        return wavenet_forward(batch, self.params)[0]

    def l2_arrays(self):
        return self.params.conv_kernels()


# ---------------------------------------------------------------------------
# LSTM forecaster


class LstmModelParams(ParamStore):
    """One LSTM cell (features -> hidden) plus a dense head (hidden -> 1)."""

    def __init__(self, n_features: int, n_hidden: int = 25,
                 dropout_rate: float = 0.10):
        self.n_features = n_features
        self.n_hidden = n_hidden
        self.dropout_rate = dropout_rate
        self.cell = LstmCellParams(n_features, n_hidden)
        self.head = DenseParams(n_hidden, 1)
        super().__init__([("cell", self.cell), ("head", self.head)])


def init_lstm(n_features: int, seed: int, n_hidden: int = 25,
              dropout_rate: float = 0.10, variant: str = "xavier") -> LstmModelParams:
    params = LstmModelParams(n_features, n_hidden, dropout_rate)
    specs, targets = [], []
    for g in nn_core.LSTM_GATES:
        specs.append(((n_hidden, n_features), n_features, n_hidden))
        targets.append(getattr(params.cell, f"W_{g}x"))
        specs.append(((n_hidden, n_hidden), n_hidden, n_hidden))
        targets.append(getattr(params.cell, f"W_{g}h"))
    specs.append(((n_hidden, 1), n_hidden, 1))
    targets.append(params.head.weights)
    drawn = optim.init_params(specs, optim.InitScheme(variant, seed))
    for target, values in zip(targets, drawn):
        target[...] = values
    return params


def lstm_model_forward(sequence: np.ndarray, params: LstmModelParams,
                       training: bool = False, rng=None, h0=None, c0=None):
    """Unroll over (seq, batch, features) from h0 = c0 = 0 (or a carried
    state), apply inverted dropout to the last hidden state during training
    only, then the dense head. Returns (predictions (batch, 1), cache)."""
    if sequence.ndim != 3 or sequence.shape[2] != params.n_features:
        raise ShapeMismatch(
            f"expected (seq, batch, {params.n_features}), got {sequence.shape}"
        )
    b = sequence.shape[1]
    if h0 is None:
        h0 = np.zeros((b, params.n_hidden), dtype=np.float64)
    if c0 is None:
        c0 = np.zeros((b, params.n_hidden), dtype=np.float64)
    h_T, c_T, caches = lstm_sequence_forward(sequence, h0, c0, params.cell)
    if training and params.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        keep = 1.0 - params.dropout_rate
        mask = (rng.random(h_T.shape) < keep).astype(np.float64) / keep
    else:
        mask = None
    h_out = h_T if mask is None else h_T * mask
    preds = dense_forward(h_out, params.head)
    cache = (caches, h_T, c_T, h_out, mask)
    return preds, cache


def lstm_model_backward(d_preds: np.ndarray, cache, params: LstmModelParams):
    caches, h_T, c_T, h_out, mask = cache
    d_h_out = dense_backward(d_preds, h_out, params.head)
    d_h_T = d_h_out if mask is None else d_h_out * mask
    d_sequence, _, _ = lstm_sequence_backward(d_h_T, caches, params.cell)
    return d_sequence


class LstmModel:
    kind = "lstm"

    def __init__(self, params: LstmModelParams):
        self.params = params

    def forward(self, batch, training=False, rng=None, h0=None, c0=None):
        return lstm_model_forward(batch, self.params, training, rng, h0, c0)

    def backward(self, d_preds, cache):
        return lstm_model_backward(d_preds, cache, self.params)

    def predict(self, batch):
        return lstm_model_forward(batch, self.params, training=False)[0]

    def l2_arrays(self):
        return []  # regularized by dropout instead

    @staticmethod
    def carry_state(cache):
        """Final (h_T, c_T) of a batch, for adjacent-sampling carry-over."""
        _, h_T, c_T, _, _ = cache
        return h_T.copy(), c_T.copy()


# ---------------------------------------------------------------------------
# 1992 feed-forward baseline


class FfnParams(ParamStore):
    """dense(5 -> 3) + sigmoid, then linear dense(3 -> 1)."""

    WINDOW = 5

    def __init__(self):
        self.hidden = DenseParams(self.WINDOW, 3)
        self.out = DenseParams(3, 1)
        super().__init__([("hidden", self.hidden), ("out", self.out)])


def init_ffn(seed: int, variant: str = "xavier") -> FfnParams:
    params = FfnParams()
    specs = [((FfnParams.WINDOW, 3), FfnParams.WINDOW, 3), ((3, 1), 3, 1)]
    drawn = optim.init_params(specs, optim.InitScheme(variant, seed))
    params.hidden.weights[...] = drawn[0]
    params.out.weights[...] = drawn[1]
    return params


def ffn_forward(inputs: np.ndarray, params: FfnParams):
    """(batch, 1, 5) or (batch, 5) -> (batch, 1) predictions, plus cache."""
    flat = inputs.reshape(inputs.shape[0], -1)
    if flat.shape[1] != FfnParams.WINDOW:
        raise ShapeMismatch(f"expected window {FfnParams.WINDOW}, got {flat.shape}")
    hidden = sigmoid(dense_forward(flat, params.hidden))
    preds = dense_forward(hidden, params.out)
    return preds, (flat, hidden)


def ffn_backward(d_preds: np.ndarray, cache, params: FfnParams):
    flat, hidden = cache
    d_hidden = dense_backward(d_preds, hidden, params.out)
    d_pre = d_hidden * sigmoid_grad(hidden)
    return dense_backward(d_pre, flat, params.hidden)


class FfnModel:
    kind = "ffn"

    def __init__(self, params: FfnParams):
        self.params = params

    def forward(self, batch, training=False, rng=None):
        return ffn_forward(batch, self.params)

    def backward(self, d_preds, cache):
        return ffn_backward(d_preds, cache, self.params)

    def predict(self, batch):
        return ffn_forward(batch, self.params)[0]

    def l2_arrays(self):
        return []
