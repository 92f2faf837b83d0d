"""The grad-check gate: round-off never fails a correct gradient, and a
planted gradient error always fails.

Each case is the one `lorenzcast grad-check` runs. A mutant replaces a
model's backward function, so the gate's analytic pass sees the planted
error while its forward-only loss evaluations do not.
"""

import numpy as np
import pytest

from lorenzcast import cli
from lorenzcast import models as mz
from lorenzcast.nn_core import conv1d_backward, relu_grad

CHEAP_CASES = [c for c in cli.GRAD_CHECK_CASES if c != "lstm"]
# seeds at which the former 1e-12 denominator floor failed a correct gradient
ROUND_OFF_SEEDS = [12, 28, 29, 41, 108, 176, 326, 352,
                   2050891086, 1739178872, 2046968324]
MUTANT_SEEDS = list(range(100)) + [2050891086, 1739178872, 2046968324]
LSTM_MUTANT_SEEDS = [29, 2050891086]
BACKWARD = {"ffn": "ffn_backward", "wavenet": "wavenet_backward",
            "lstm": "lstm_model_backward"}
# a bias whose true gradient is nonzero at every seed swept
BIAS = {"ffn": ("hidden", "bias"), "wavenet": ("heads", "bias"),
        "lstm": ("cell", "b_f")}


def _family(case):
    return cli.GRAD_CHECK_CASES[case][0].model


def _error_ratio(case, seed):
    error, _ = cli._grad_check_case(case, seed)
    return error / cli.GRAD_CHECK_CASES[case][1]


def test_cheap_cases_pass_over_seed_sweep():
    for seed in list(range(200)) + ROUND_OFF_SEEDS:
        for case in CHEAP_CASES:
            assert _error_ratio(case, seed) < 1.0, (case, seed)


@pytest.mark.parametrize("seed", [29, 2046968324])
def test_lstm_case_passes_where_round_off_failed_it(seed):
    assert _error_ratio("lstm", seed) < 1.0


def _plant(monkeypatch, family, mutate):
    real = getattr(mz, BACKWARD[family])

    def mutant(d_preds, cache, params):
        real(d_preds, cache, params)
        mutate(params)

    monkeypatch.setattr(mz, BACKWARD[family], mutant)


def _scale_largest_gradient(params):
    params.grad[np.argmax(np.abs(params.grad))] *= 1.0 + 1e-3


def _zero_bias(family):
    owner, name = BIAS[family]

    def mutate(params):
        block = getattr(params, owner)
        block = block[0] if isinstance(block, list) else block
        block.grads[name][...] = 0.0

    return mutate


def _seeds(case):
    return LSTM_MUTANT_SEEDS if case == "lstm" else MUTANT_SEEDS


@pytest.mark.parametrize("case", list(cli.GRAD_CHECK_CASES))
def test_relative_error_on_largest_gradient_fails(case, monkeypatch):
    _plant(monkeypatch, _family(case), _scale_largest_gradient)
    for seed in _seeds(case):
        assert _error_ratio(case, seed) >= 1.0, seed


@pytest.mark.parametrize("case", list(cli.GRAD_CHECK_CASES))
def test_zeroed_bias_gradient_fails(case, monkeypatch):
    _plant(monkeypatch, _family(case), _zero_bias(_family(case)))
    for seed in _seeds(case):
        assert _error_ratio(case, seed) >= 1.0, seed


def _backward_without_top_residual(d_preds, cache, params):
    """wavenet_backward with the top dilated layer's residual term dropped."""
    inputs, streams, relus, final_in = cache
    d_final_in = np.zeros_like(final_in)
    for j, head in enumerate(params.heads):
        up = d_preds[:, j].reshape(inputs.shape[0], 1, 1)
        d_final_in += conv1d_backward(up, final_in, head)
    d_stream = d_final_in
    top = mz.N_LAYERS - 1
    for l in reversed(range(mz.N_LAYERS)):
        d_f = d_stream.copy()
        d_f[:, :, -1:] += conv1d_backward(d_final_in, relus[l][:, :, -1:], params.skips[l])
        d_prev = conv1d_backward(d_f * relu_grad(relus[l]), streams[l],
                                 params.dilated[l])
        if l != top:
            d_prev[:, :, 1::2] += d_stream
        d_stream = d_prev
    conv1d_backward(d_stream, inputs[:, :, -mz.RECEPTIVE_FIELD:], params.input_conv)


@pytest.mark.parametrize("case", [c for c in CHEAP_CASES if c != "ffn"])
def test_dropped_residual_term_fails(case, monkeypatch):
    monkeypatch.setattr(mz, "wavenet_backward", _backward_without_top_residual)
    for seed in MUTANT_SEEDS:
        assert _error_ratio(case, seed) >= 1.0, seed


@pytest.mark.parametrize("case", [c for c in CHEAP_CASES if c != "ffn"])
def test_dropped_input_conv_gradient_fails(case, monkeypatch):
    # wavenet_backward's one direct conv1d_param_grads call is the input
    # conv's; the stack's other convs reach it through conv1d_backward
    monkeypatch.setattr(mz, "conv1d_param_grads", lambda upstream, inputs, params: None)
    for seed in MUTANT_SEEDS:
        assert _error_ratio(case, seed) >= 1.0, seed
