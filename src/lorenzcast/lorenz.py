"""Lorenz trajectory generation, rescaling, splitting and windowing.

The Lorenz system

    dx/dt = sigma * (y - x)
    dy/dt = rho * x - y - x * z
    dz/dt = x * y - beta * z

is integrated with the explicit Euler method and turned into supervised
one-step-ahead datasets (fixed-length input window -> next value).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonFinite(ArithmeticError):
    """A numeric value overflowed or became NaN."""


class DegenerateSeries(ValueError):
    """Series has no spread (max == min), cannot be rescaled."""


class InsufficientData(ValueError):
    """Requested split sizes exceed the available series length."""


SERIES_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class LorenzParams:
    """ODE parameters plus integration settings.

    sigma is the Prandtl number, rho the Rayleigh number, beta the third
    (nameless) parameter. dt is the Euler time step and n_steps the number
    of integration steps taken from the initial state.
    """

    sigma: float
    rho: float
    beta: float
    dt: float = 0.01
    n_steps: int = 1500

    def __post_init__(self):
        if not (self.sigma > 0 and self.rho > 0 and self.beta > 0):
            raise ValueError("sigma, rho, beta must all be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")


@dataclass(frozen=True)
class LorenzState:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ScaleTransform:
    """The affine map with which `rescale` sent a series' [min, max] onto
    [-0.5, 0.5].

    rescale computes scaled = (value - min) / (max - min) - 0.5 and records
    offset = min, gain = 1 / (max - min); invert maps back with
    value = (scaled + 0.5) / gain + offset.
    """

    offset: float
    gain: float

    def invert(self, scaled: np.ndarray) -> np.ndarray:
        return (np.asarray(scaled, dtype=np.float64) + 0.5) / self.gain + self.offset


@dataclass
class SeriesSet:
    """Three aligned scalar series, optionally carrying their rescaling."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    scale: dict[str, ScaleTransform] | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.float64)
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise ValueError("x, y, z must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def series(self, name: str) -> np.ndarray:
        if name not in SERIES_NAMES:
            raise KeyError(f"unknown series {name!r}")
        return getattr(self, name)

    def __getitem__(self, index: slice) -> "SeriesSet":
        return SeriesSet(self.x[index], self.y[index], self.z[index], scale=self.scale)

    def truncate(self, n: int) -> "SeriesSet":
        return self[:n]


def lorenz_derivative(state: LorenzState, params: LorenzParams) -> LorenzState:
    """Right-hand side of the Lorenz equations at `state`."""
    dx = params.sigma * (state.y - state.x)
    dy = params.rho * state.x - state.y - state.x * state.z
    dz = state.x * state.y - params.beta * state.z
    return LorenzState(dx, dy, dz)


def euler_integrate(init: LorenzState, params: LorenzParams) -> SeriesSet:
    """Integrate with explicit Euler: state[t+1] = state[t] + dt * f(state[t]).

    All three coordinates advance simultaneously from the state at step t.
    Returns series of length n_steps + 1, beginning with `init`.
    """
    n, dt = params.n_steps, params.dt
    traj = np.empty((n + 1, 3), dtype=np.float64)
    traj[0] = init.x, init.y, init.z
    state = init
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            d = lorenz_derivative(state, params)
            state = LorenzState(state.x + dt * d.x, state.y + dt * d.y,
                                state.z + dt * d.z)
            traj[t + 1] = state.x, state.y, state.z
    if not np.all(np.isfinite(traj)):
        bad = int(np.argwhere(~np.isfinite(traj).all(axis=1))[0, 0])
        raise NonFinite(f"trajectory became non-finite at step {bad}")
    return SeriesSet(traj[:, 0], traj[:, 1], traj[:, 2])


def rescale(series: np.ndarray) -> tuple[np.ndarray, ScaleTransform]:
    """Affinely map a series onto [-0.5, 0.5] (min -> -0.5, max -> +0.5)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise DegenerateSeries("empty series")
    lo, hi = float(series.min()), float(series.max())
    if hi == lo:
        raise DegenerateSeries(f"constant series (value {lo}) cannot be rescaled")
    # divide by the span rather than multiply by its reciprocal: x/x == 1
    # exactly in IEEE, so min/max land on -0.5/+0.5 with no ulp slop
    scaled = (series - lo) / (hi - lo) - 0.5
    return scaled, ScaleTransform(offset=lo, gain=1.0 / (hi - lo))


def rescale_series_set(series_set: SeriesSet) -> SeriesSet:
    """Rescale each of the three series independently onto [-0.5, 0.5]."""
    scaled = {}
    transforms = {}
    for name in SERIES_NAMES:
        scaled[name], transforms[name] = rescale(series_set.series(name))
    return SeriesSet(scaled["x"], scaled["y"], scaled["z"], scale=transforms)


def split_train_test(
    series_set: SeriesSet, n_train: int, n_test: int
) -> tuple[SeriesSet, SeriesSet]:
    """Contiguous split: test immediately follows train."""
    if n_train + n_test > len(series_set):
        raise InsufficientData(
            f"need {n_train + n_test} points, have {len(series_set)}"
        )
    return series_set[:n_train], series_set[n_train:n_train + n_test]


@dataclass
class WindowedDataset:
    """Supervised one-step-ahead examples.

    inputs is (examples, channels, window), the batch layout every model
    reads; targets is (examples, tasks). Example i targets series index i;
    its window holds the `window` values strictly before i (zero
    left-padding covers i < window).
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_names: tuple[str, ...] = field(default=("x",))

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on example count")

    @property
    def n_examples(self) -> int:
        return self.inputs.shape[0]

    def subset(self, start: int, stop: int) -> "WindowedDataset":
        return WindowedDataset(self.inputs[start:stop], self.targets[start:stop],
                               self.target_names)


def make_windows(
    series_set: SeriesSet,
    window: int,
    conditional: bool = False,
    multitask: bool = False,
    target: str = "x",
) -> WindowedDataset:
    """Window a series set into one example per series index.

    Each series is left-padded with `window` zeros, then example t gets the
    padded values at [t, t + window) as input (i.e. the original values at
    [t - window, t), zeros where that runs past the start) and the value at
    t as target. Inputs are (examples, channels, window). Conditional
    inputs carry all three series as channels in (x, y, z) order; otherwise
    the single channel is the target's own history. Multitask emits all
    three targets per example.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(series_set)
    channel_names = SERIES_NAMES if conditional else (target,)
    target_names = SERIES_NAMES if multitask else (target,)

    padded = np.pad(np.stack([series_set.series(name) for name in channel_names]),
                    ((0, 0), (window, 0)))
    # views[c, t] = padded[c, t:t + window]; the copy is (examples, channels, window)
    views = np.lib.stride_tricks.sliding_window_view(padded, window, axis=1)
    inputs = np.ascontiguousarray(views[:, :n].transpose(1, 0, 2))
    targets = np.stack(
        [series_set.series(name) for name in target_names], axis=1
    )
    return WindowedDataset(inputs, targets, tuple(target_names))

