import math

import numpy as np
import pytest

from lorenzcast.nn_core import ShapeMismatch
from lorenzcast.optim import (
    AdamState,
    InitScheme,
    adam_step,
    he_normal,
    init_params,
    l2_grad,
    l2_penalty,
    xavier_uniform,
)


# ---------------------------------------------------------------------------
# initialization


def test_xavier_bound_value_and_containment():
    c = math.sqrt(6.0 / 26.0)  # n_in=25, n_out=1
    assert abs(c - 0.48038446) < 1e-7
    rng = np.random.default_rng(0)
    draws = xavier_uniform(rng, (25, 1), fan_in=25, fan_out=1)
    assert np.all(np.abs(draws) <= c)


def test_he_normal_std_statistical():
    rng = np.random.default_rng(1)
    draws = he_normal(rng, (100_000,), fan_in=2)
    target = math.sqrt(2.0 / 2.0)
    assert abs(draws.std() - target) / target < 0.02
    assert abs(draws.mean()) < 0.02


def test_init_params_same_seed_bit_identical():
    specs = [((3, 4), 3, 4), ((4,), 4, 1)]
    a = init_params(specs, InitScheme("xavier", 99))
    b = init_params(specs, InitScheme("xavier", 99))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_init_params_per_array_streams_independent():
    # the second array's draw does not depend on the first array's size
    a = init_params([((2, 2), 2, 2), ((5,), 5, 1)], InitScheme("he", 7))
    b = init_params([((4, 4), 2, 2), ((5,), 5, 1)], InitScheme("he", 7))
    assert np.array_equal(a[1], b[1])


def test_init_scheme_validates_variant():
    with pytest.raises(ValueError):
        InitScheme("glorot", 0)


def test_init_zeros():
    (arr,) = init_params([((3, 3), 3, 3)], InitScheme("zeros", 0))
    assert np.array_equal(arr, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_magnitude():
    # bias correction makes mhat = g, vhat = g^2 at t=1, so the first update
    # is -alpha * g / (|g| + eps)
    p = [np.array([0.0])]
    g = [np.array([1.0])]
    state = AdamState(p, alpha=1e-3)
    adam_step(p, g, state)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(p[0][0] - expected) < 1e-15
    assert state.t == 1


def test_adam_zero_gradient_no_change():
    p = [np.array([2.5])]
    state = AdamState(p)
    adam_step(p, [np.array([0.0])], state)
    assert p[0][0] == 2.5


def test_adam_first_step_scale_invariance():
    deltas = []
    for g0 in (10.0, 0.1):
        p = [np.array([0.0])]
        state = AdamState(p, alpha=1e-3)
        adam_step(p, [np.array([g0])], state)
        deltas.append(abs(p[0][0]))
    assert abs(deltas[0] - deltas[1]) / deltas[0] < 1e-6


def test_adam_shapes_preserved_and_t_increases():
    p = [np.zeros((2, 3)), np.zeros(4)]
    g = [np.ones((2, 3)), np.ones(4)]
    state = AdamState(p)
    for expected_t in (1, 2, 3):
        adam_step(p, g, state)
        assert state.t == expected_t
    assert p[0].shape == (2, 3) and p[1].shape == (4,)
    assert all(np.all(np.isfinite(m)) for m in state.m)
    assert all(np.all(np.isfinite(v)) for v in state.v)


def test_adam_shape_mismatch():
    p = [np.zeros(3)]
    state = AdamState(p)
    with pytest.raises(ShapeMismatch):
        adam_step(p, [np.zeros(4)], state)
    with pytest.raises(ShapeMismatch):
        adam_step([np.zeros(3), np.zeros(2)], [np.zeros(3), np.zeros(2)], state)


def test_adam_quadratic_convergence_smoke():
    # minimize (p - 3)^2 from p = 0 with alpha = 0.1
    p = [np.array([0.0])]
    state = AdamState(p, alpha=0.1)
    for _ in range(200):
        g = [2.0 * (p[0] - 3.0)]
        adam_step(p, g, state)
    assert abs(p[0][0] - 3.0) < 0.05


# ---------------------------------------------------------------------------
# l2 penalty


def test_l2_zero_lambda():
    weights = [np.array([1.0, 2.0])]
    grads = [np.zeros(2)]
    assert l2_penalty(weights, 0.0) == 0.0
    l2_grad(weights, grads, 0.0)
    assert np.array_equal(grads[0], np.zeros(2))


def test_l2_penalty_hand_value():
    assert abs(l2_penalty([np.array([1.0, 2.0])], 0.001) - 0.005) < 1e-15


def test_l2_grad_hand_value():
    grads = [np.zeros(1)]
    l2_grad([np.array([3.0])], grads, 0.001)
    assert abs(grads[0][0] - 0.006) < 1e-15  # 2 * lambda * p
