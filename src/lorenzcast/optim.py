"""Initialization schemes, the Adam update and the L2 weight penalty.

Updates operate on parallel lists of parameter and gradient arrays; a
model trains with one-element lists holding its flat parameter and
gradient vectors. Reproducibility: every draw comes from a PCG64 generator
seeded through numpy SeedSequence spawning, one child stream per array,
so a single master seed fixes all initial weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn_core import ShapeMismatch

INIT_VARIANTS = ("xavier", "he", "zeros")


@dataclass(frozen=True)
class InitScheme:
    variant: str
    seed: int

    def __post_init__(self):
        if self.variant not in INIT_VARIANTS:
            raise ValueError(f"unknown init variant {self.variant!r}")


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    """Uniform in [-c, c] with c = sqrt(6 / (fan_in + fan_out))."""
    c = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-c, c, size=shape)


def he_normal(rng: np.random.Generator, shape, fan_in: int):
    """Normal(0, sqrt(2 / fan_in)), suited to relu stacks."""
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


def init_array(rng, shape, fan_in, fan_out, variant):
    if variant == "xavier":
        return xavier_uniform(rng, shape, fan_in, fan_out)
    if variant == "he":
        return he_normal(rng, shape, fan_in)
    if variant == "zeros":
        return np.zeros(shape, dtype=np.float64)
    raise ValueError(f"unknown init variant {variant!r}")


def init_params(specs, scheme: InitScheme) -> list[np.ndarray]:
    """Draw one array per (shape, fan_in, fan_out) spec.

    Each array gets its own child stream of the master seed, so inserting
    or reordering draws inside one array never perturbs the others.
    """
    children = np.random.SeedSequence(scheme.seed).spawn(len(list(specs)))
    out = []
    for (shape, fan_in, fan_out), child in zip(specs, children):
        rng = np.random.default_rng(child)
        out.append(init_array(rng, shape, fan_in, fan_out, scheme.variant))
    return out


class AdamState:
    """First/second moment buffers plus the step counter.

    Defaults alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8. Update:
        m <- b1 m + (1-b1) g        mhat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      vhat = v / (1 - b2^t)
        p <- p - alpha * mhat / (sqrt(vhat) + eps)
    """

    def __init__(self, params: list[np.ndarray], alpha: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
