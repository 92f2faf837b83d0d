import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzcast.lorenz import (
    DegenerateSeries,
    InsufficientData,
    LorenzParams,
    LorenzState,
    NonFinite,
    SeriesSet,
    euler_integrate,
    lorenz_derivative,
    make_windows,
    rescale,
    rescale_series_set,
    split_train_test,
)

PARAMS_A = LorenzParams(sigma=5.0, rho=20.0, beta=2.0)


def test_derivative_hand_value():
    d = lorenz_derivative(LorenzState(0.0, 1.0, 1.0), PARAMS_A)
    assert (d.x, d.y, d.z) == (5.0, -1.0, -2.0)


def test_derivative_origin_fixed_point():
    d = lorenz_derivative(LorenzState(0.0, 0.0, 0.0), PARAMS_A)
    assert (d.x, d.y, d.z) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_derivative_symmetric_fixed_points(sign):
    # x = y = +-sqrt(b(r-1)), z = r-1
    w = sign * math.sqrt(PARAMS_A.beta * (PARAMS_A.rho - 1.0))
    d = lorenz_derivative(LorenzState(w, w, PARAMS_A.rho - 1.0), PARAMS_A)
    assert math.sqrt(d.x**2 + d.y**2 + d.z**2) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        LorenzParams(sigma=-1.0, rho=20.0, beta=2.0)
    with pytest.raises(ValueError):
        LorenzParams(sigma=5.0, rho=20.0, beta=2.0, dt=0.0)


def test_euler_single_step_hand_value():
    params = LorenzParams(sigma=5.0, rho=20.0, beta=2.0, dt=0.01, n_steps=1)
    series = euler_integrate(LorenzState(0.0, 1.0, 1.0), params)
    assert abs(series.x[1] - 0.05) < 1e-12
    assert abs(series.y[1] - 0.99) < 1e-12
    assert abs(series.z[1] - 0.98) < 1e-12


@settings(max_examples=50)
@given(st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3))
def test_euler_steps_with_lorenz_derivative(coords):
    # the integrator and C1 share one right-hand side, bit for bit
    params = LorenzParams(sigma=10.0, rho=28.0, beta=8.0 / 3.0, n_steps=3)
    series = euler_integrate(LorenzState(*coords), params)
    for t in range(params.n_steps):
        state = LorenzState(series.x[t], series.y[t], series.z[t])
        d = lorenz_derivative(state, params)
        assert (series.x[t + 1], series.y[t + 1], series.z[t + 1]) == (
            state.x + params.dt * d.x, state.y + params.dt * d.y,
            state.z + params.dt * d.z)


def test_euler_zero_steps_returns_init():
    params = LorenzParams(sigma=5.0, rho=20.0, beta=2.0, n_steps=0)
    series = euler_integrate(LorenzState(0.0, 1.0, 1.0), params)
    assert len(series) == 1
    assert (series.x[0], series.y[0], series.z[0]) == (0.0, 1.0, 1.0)


def test_euler_trajectory_bounded():
    params = LorenzParams(sigma=5.0, rho=20.0, beta=2.0, n_steps=1500)
    series = euler_integrate(LorenzState(0.0, 1.0, 1.0), params)
    assert len(series) == 1501
    for name in ("x", "y", "z"):
        values = series.series(name)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) < 100.0


def test_euler_divergence_raises_nonfinite():
    params = LorenzParams(sigma=5.0, rho=20.0, beta=2.0, dt=10.0, n_steps=200)
    with pytest.raises(NonFinite):
        euler_integrate(LorenzState(0.0, 1.0, 1.0), params)


def test_euler_deterministic():
    params = LorenzParams(sigma=10.0, rho=28.0, beta=8.0 / 3.0, n_steps=500)
    a = euler_integrate(LorenzState(0.0, 1.0, 1.05), params)
    b = euler_integrate(LorenzState(0.0, 1.0, 1.05), params)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)


def test_rescale_endpoints():
    scaled, _ = rescale(np.array([0.0, 10.0]))
    assert np.array_equal(scaled, [-0.5, 0.5])


def test_rescale_midpoint():
    scaled, _ = rescale(np.array([0.0, 5.0, 10.0]))
    assert np.array_equal(scaled, [-0.5, 0.0, 0.5])


def test_rescale_constant_series_rejected():
    with pytest.raises(DegenerateSeries):
        rescale(np.array([3.0, 3.0, 3.0]))


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=2, max_size=50))
def test_rescale_round_trip(values):
    series = np.asarray(values)
    if series.max() - series.min() < 1e-6:
        return
    scaled, transform = rescale(series)
    assert scaled.min() == -0.5 and scaled.max() == 0.5
    assert np.all(scaled >= -0.5) and np.all(scaled <= 0.5)
    assert np.max(np.abs(transform.invert(scaled) - series)) < 1e-12


def _series_set(n):
    t = np.arange(n, dtype=float)
    return SeriesSet(t, t * 2.0, t - 3.0)


def test_split_paper_sizes():
    train, test = split_train_test(_series_set(1500), 1000, 500)
    assert len(train) == 1000 and len(test) == 500
    assert train.x[0] == 0.0 and train.x[-1] == 999.0
    assert test.x[0] == 1000.0 and test.x[-1] == 1499.0


def test_split_insufficient():
    with pytest.raises(InsufficientData):
        split_train_test(_series_set(100), 80, 30)


def test_split_empty_test():
    train, test = split_train_test(_series_set(100), 100, 0)
    assert len(train) == 100 and len(test) == 0


def test_windows_zero_padding_first_example():
    series = _series_set(1000)
    ds = make_windows(series, window=16)
    assert ds.n_examples == 1000
    assert np.array_equal(ds.inputs[0, 0], np.zeros(16))
    assert ds.targets[0, 0] == series.x[0]


def test_windows_ffn_example():
    series = SeriesSet(np.array([1., 2., 3., 4., 5., 6.]),
                       np.zeros(6), np.zeros(6))
    ds = make_windows(series, window=5, target="x")
    assert np.array_equal(ds.inputs[5, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert ds.targets[5, 0] == 6.0


def test_windows_conditional_three_channels():
    ds = make_windows(_series_set(100), window=16, conditional=True)
    assert ds.inputs.shape == (100, 3, 16)


@pytest.mark.parametrize("conditional", [False, True])
def test_windows_are_one_c_contiguous_array(conditional):
    # the lstm's hoisted input projection rounds by operand layout, so the
    # windows are one C-ordered (examples, channels, window) array
    series = _series_set(40)
    names = ("x", "y", "z") if conditional else ("z",)
    ds = make_windows(series, window=7, conditional=conditional, target="z")
    assert ds.inputs.shape == (40, len(names), 7)
    assert ds.inputs.flags.c_contiguous and ds.inputs.dtype == np.float64
    for c, name in enumerate(names):
        padded = np.concatenate([np.zeros(7), series.series(name)])
        for t in range(40):
            assert np.array_equal(ds.inputs[t, c], padded[t:t + 7])
    empty = make_windows(series[:0], window=7, conditional=conditional, target="z")
    assert empty.inputs.shape == (0, len(names), 7)


def test_windows_multitask_three_targets():
    ds = make_windows(_series_set(100), window=16, conditional=True,
                      multitask=True)
    assert ds.targets.shape == (100, 3)
    assert ds.target_names == ("x", "y", "z")


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 60), window=st.integers(1, 20),
       t=st.data())
def test_windows_causality(n, window, t):
    # every window holds exactly the `window` values strictly before the
    # target index, zeros where the history runs out
    rng = np.random.default_rng(0)
    series = SeriesSet(rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))
    ds = make_windows(series, window=window, target="y")
    idx = t.draw(st.integers(0, n - 1))
    padded = np.concatenate([np.zeros(window), series.y])
    assert np.array_equal(ds.inputs[idx, 0], padded[idx:idx + window])
    history = [series.y[j] if j >= 0 else 0.0
               for j in range(idx - window, idx)]
    assert np.array_equal(ds.inputs[idx, 0], history)


def test_rescale_series_set_scales_all():
    scaled = rescale_series_set(_series_set(50))
    for name in ("x", "y", "z"):
        values = scaled.series(name)
        assert values.min() == -0.5 and values.max() == 0.5
    assert set(scaled.scale) == {"x", "y", "z"}

