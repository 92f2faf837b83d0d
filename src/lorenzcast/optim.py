"""Initialization schemes, the Adam update and the L2 weight penalty.

Updates operate on parallel lists of parameter and gradient arrays; a
model trains with one-element lists holding its flat parameter and
gradient vectors. Reproducibility: every draw comes from a PCG64 generator
seeded through numpy SeedSequence spawning, one child stream per array,
so a single master seed fixes all initial weights.
"""

from __future__ import annotations

import math

import numpy as np

from .nn_core import ShapeMismatch


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    """Uniform in [-c, c] with c = sqrt(6 / (fan_in + fan_out))."""
    c = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-c, c, size=shape)


def he_normal(rng: np.random.Generator, shape, fan_in: int):
    """Normal(0, sqrt(2 / fan_in)), suited to relu stacks."""
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


# init variant -> draw(rng, shape, fan_in, fan_out)
INIT_DRAWS = {
    "xavier": xavier_uniform,
    "he": lambda rng, shape, fan_in, fan_out: he_normal(rng, shape, fan_in),
}


def init_params(params, variant: str, seed: int):
    """Draw every weight array of the store `params` in place and return it.

    The weights are the (array, fan_in, fan_out) triples of
    params.weights_with_fans(), in storage order; other arrays are left as
    they are (zero in a fresh store). Each array gets its own child stream
    of the master seed, so inserting or reordering draws inside one array
    never perturbs the others.
    """
    if variant not in INIT_DRAWS:
        raise ValueError(f"unknown init variant {variant!r}")
    draw = INIT_DRAWS[variant]
    weights = params.weights_with_fans()
    children = np.random.SeedSequence(seed).spawn(len(weights))
    for (array, fan_in, fan_out), child in zip(weights, children):
        rng = np.random.default_rng(child)
        array[...] = draw(rng, array.shape, fan_in, fan_out)
    return params


class AdamState:
    """First/second moment buffers plus the step counter.

    alpha defaults to 1e-3; beta1=0.9, beta2=0.999 and eps=1e-8 are fixed.
    Update:
        m <- b1 m + (1-b1) g        mhat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      vhat = v / (1 - b2^t)
        p <- p - alpha * mhat / (sqrt(vhat) + eps)
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[np.ndarray], alpha: float = 1e-3):
        self.alpha = alpha
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def _check_pairs(params, grads):
    if len(params) != len(grads):
        raise ShapeMismatch("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} vs grad shape {g.shape}")


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> None:
    _check_pairs(params, grads)
    if len(params) != len(state.m):
        raise ShapeMismatch("optimizer state built for a different parameter set")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.alpha * (m / bias1) / (np.sqrt(v / bias2) + state.eps)


def l2_penalty(weights: list[np.ndarray], lam: float) -> float:
    """lam * sum of squared entries over the given weight arrays."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return lam * float(sum(np.sum(w * w) for w in weights))


def l2_grad(weights: list[np.ndarray], grads: list[np.ndarray], lam: float) -> None:
    """Add d/dp of the penalty, 2 * lam * p, to each gradient buffer."""
    _check_pairs(weights, grads)
    for w, g in zip(weights, grads):
        g += (2.0 * lam) * w
