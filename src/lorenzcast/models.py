"""The three forecaster families, as forward+backward compositions.

* a stack of dilated causal convolutions with skip and residual
  connections (WaveNet-style), in unconditional / conditional / multitask
  variants,
* a single-layer LSTM with 25 hidden units and a dense head,
* the small 1992-era feed-forward baseline (5 inputs, 3 sigmoid hidden
  neurons, linear output).

Cone grids in the conv stack: the one-step readout at the last position
depends only on the last 16 inputs, and layer l (dilation 2^l, k = 2) only
on every 2^l-th position of its input stream. So the stack keeps each
stream on that compact grid: widths 16 -> 8 -> 4 -> 2 -> 1. On a compact
grid the dilated layer is a stride-2 pair conv, out[i] = bias + k0 *
g[2i] + k1 * g[2i+1], and the residual adds the odd positions g[1::2].
Skip taps read the last position of each layer's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
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
    "INIT_VARIANT",
    "WaveNetConfig", "WaveNetParams", "WaveNetModel", "init_wavenet",
    "LstmModelParams", "LstmModel", "init_lstm",
    "FfnParams", "FfnModel", "init_ffn",
    "param_count",
]


# family -> init variant: He draws for the relu stack, Xavier for the
# LSTM and the sigmoid feed-forward net
INIT_VARIANT = {"wavenet": "he", "lstm": "xavier", "ffn": "xavier"}


class _Model:
    """A family's parameter store and passes: forward returns (predictions,
    cache), backward adds the parameter gradients, and predict is forward
    in evaluation mode, predictions only."""

    def __init__(self, params: ParamStore):
        self.params = params

    def predict(self, batch):
        return self.forward(batch)[0]


# ---------------------------------------------------------------------------
# WaveNet-style dilated stack


N_LAYERS = 4  # dilated layers, layer l with dilation 2^l
KERNEL_SIZE = 2  # the cone grids are exact only for k = 2
RECEPTIVE_FIELD = KERNEL_SIZE * 2 ** (N_LAYERS - 1)


@dataclass(frozen=True)
class WaveNetConfig:
    """Channels of the dilated stack.

    stack_channels is the filter count M carried through the stack; the
    default 1 keeps the dilated layers single-channel after the input 1x1
    conv (setting it to 3 runs three channels throughout instead).
    """

    in_channels: int = 1
    n_tasks: int = 1
    stack_channels: int = 1


class WaveNetParams(ParamStore):
    """Input 1x1 conv, L dilated convs, L skip 1x1 convs, one head per task."""

    def __init__(self, config: WaveNetConfig):
        self.config = config
        m = config.stack_channels
        self.input_conv = ConvLayerParams(m, config.in_channels, 1)
        self.dilated = [ConvLayerParams(m, m, KERNEL_SIZE, stride=2)
                        for _ in range(N_LAYERS)]
        self.skips = [ConvLayerParams(m, m, 1) for _ in range(N_LAYERS)]
        self.heads = [ConvLayerParams(1, m, 1) for _ in range(config.n_tasks)]
        super().__init__(
            [("input_conv", self.input_conv)]
            + [(f"dilated_{l + 1}", p) for l, p in enumerate(self.dilated)]
            + [(f"skip_{l + 1}", p) for l, p in enumerate(self.skips)]
            + [(f"head_{j}", p) for j, p in enumerate(self.heads)]
        )


def init_wavenet(config: WaveNetConfig, seed: int) -> WaveNetParams:
    return optim.init_params(WaveNetParams(config), INIT_VARIANT["wavenet"], seed)


def wavenet_forward(inputs: np.ndarray, params: WaveNetParams):
    """Run the stack on (batch, in_channels, width); width >= receptive field.

    Pipeline: input 1x1 conv on the last RECEPTIVE_FIELD positions ->
    [stride-2 pair conv -> relu -> residual add, with a skip 1x1 tap per
    layer] -> sum(skip taps) + final stream -> one 1x1 head per task.

    Returns (predictions (batch, n_tasks), cache).
    """
    cfg = params.config
    if inputs.ndim != 3 or inputs.shape[1] != cfg.in_channels:
        raise ShapeMismatch(
            f"expected (batch, {cfg.in_channels}, width), got {inputs.shape}"
        )
    if inputs.shape[2] < RECEPTIVE_FIELD:
        raise ShapeMismatch(
            f"width {inputs.shape[2]} < receptive field {RECEPTIVE_FIELD}"
        )
    streams = [conv1d_forward(inputs[:, :, -RECEPTIVE_FIELD:], params.input_conv)]
    relus = []
    for conv in params.dilated:
        relus.append(relu(conv1d_forward(streams[-1], conv)))
        streams.append(streams[-1][:, :, 1::2] + relus[-1])
    # each skip tap reads its layer's last position; they add in layer order
    final_in = sum(conv1d_forward(f[:, :, -1:], skip)
                   for f, skip in zip(relus, params.skips)) + streams[-1]
    preds = np.concatenate([conv1d_forward(final_in, head)[:, :, 0]
                            for head in params.heads], axis=1)
    return preds, (inputs, streams, relus, final_in)


def wavenet_backward(d_preds: np.ndarray, cache, params: WaveNetParams) -> None:
    """Exact adjoint of wavenet_forward: accumulates the parameter
    gradients, which sum at every fan-out."""
    inputs, streams, relus, final_in = cache
    if d_preds.shape != (inputs.shape[0], params.config.n_tasks):
        raise ShapeMismatch(
            f"d_preds shape {d_preds.shape} does not match predictions"
        )
    d_final_in = sum(conv1d_backward(d_preds[:, j, None, None], final_in, head)
                     for j, head in enumerate(params.heads))

    d_stream = d_final_in  # final_in = the skip taps + the width-1 final stream
    for l in reversed(range(N_LAYERS)):
        d_f = d_stream.copy()
        d_f[:, :, -1:] += conv1d_backward(d_final_in, relus[l][:, :, -1:], params.skips[l])
        d_f *= relu_grad(relus[l])
        d_prev = conv1d_backward(d_f, streams[l], params.dilated[l])
        d_prev[:, :, 1::2] += d_stream  # adjoint of the residual's odd positions
        d_stream = d_prev
    conv1d_backward(d_stream, inputs[:, :, -RECEPTIVE_FIELD:], params.input_conv)


class WaveNetModel(_Model):
    def forward(self, batch, training=False, rng=None):
        return wavenet_forward(batch, self.params)

    def backward(self, d_preds, cache):
        wavenet_backward(d_preds, cache, self.params)


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
              dropout_rate: float = 0.10) -> LstmModelParams:
    return optim.init_params(LstmModelParams(n_features, n_hidden, dropout_rate),
                             INIT_VARIANT["lstm"], seed)


def lstm_model_forward(inputs: np.ndarray, params: LstmModelParams,
                       training: bool = False, rng=None, h0=None, c0=None):
    """Unroll over inputs (batch, features, window), read time-major, from
    h0 = c0 = 0 (or a carried state), apply inverted dropout to the last
    hidden state during training only, then the dense head. Returns
    (predictions (batch, 1), cache)."""
    if inputs.ndim != 3 or inputs.shape[1] != params.n_features:
        raise ShapeMismatch(
            f"expected (batch, {params.n_features}, window), got {inputs.shape}"
        )
    b = inputs.shape[0]
    if h0 is None:
        h0 = np.zeros((b, params.n_hidden), dtype=np.float64)
    if c0 is None:
        c0 = np.zeros((b, params.n_hidden), dtype=np.float64)
    h_T, c_T, caches = lstm_sequence_forward(inputs.transpose(2, 0, 1), h0, c0,
                                             params.cell)
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


def lstm_model_backward(d_preds: np.ndarray, cache, params: LstmModelParams) -> None:
    """Adjoint of lstm_model_forward; accumulates the parameter gradients."""
    caches, h_T, c_T, h_out, mask = cache
    d_h_out = dense_backward(d_preds, h_out, params.head)
    d_h_T = d_h_out if mask is None else d_h_out * mask
    lstm_sequence_backward(d_h_T, caches, params.cell)


class LstmModel(_Model):
    def forward(self, batch, training=False, rng=None, h0=None, c0=None):
        return lstm_model_forward(batch, self.params, training, rng, h0, c0)

    def backward(self, d_preds, cache):
        lstm_model_backward(d_preds, cache, self.params)

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


def init_ffn(seed: int) -> FfnParams:
    return optim.init_params(FfnParams(), INIT_VARIANT["ffn"], seed)


def ffn_forward(inputs: np.ndarray, params: FfnParams):
    """(batch, 1, 5) -> (batch, 1) predictions, plus cache."""
    if inputs.ndim != 3 or inputs.shape[1:] != (1, FfnParams.WINDOW):
        raise ShapeMismatch(
            f"expected (batch, 1, {FfnParams.WINDOW}), got {inputs.shape}"
        )
    flat = inputs.reshape(inputs.shape[0], -1)
    hidden = sigmoid(dense_forward(flat, params.hidden))
    preds = dense_forward(hidden, params.out)
    return preds, (flat, hidden)


def ffn_backward(d_preds: np.ndarray, cache, params: FfnParams) -> None:
    """Adjoint of ffn_forward; accumulates the parameter gradients."""
    flat, hidden = cache
    d_hidden = dense_backward(d_preds, hidden, params.out)
    d_pre = d_hidden * sigmoid_grad(hidden)
    dense_backward(d_pre, flat, params.hidden)


class FfnModel(_Model):
    def forward(self, batch, training=False, rng=None):
        return ffn_forward(batch, self.params)

    def backward(self, d_preds, cache):
        ffn_backward(d_preds, cache, self.params)
