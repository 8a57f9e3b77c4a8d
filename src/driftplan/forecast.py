"""Imperfect forecasts: release series and a synthetic structured-error generator.

The synthetic generator perturbs the true flow with a sum of random
Fourier modes per velocity component. Mode coefficients evolve between
releases as a stationary AR(1) process, so consecutive forecasts share
error structure, and amplitudes are calibrated analytically so the
expected vector RMSE equals the configured target. A release is an index
into its series, which holds the modes and every release's coefficients:
on the first grid-shaped point set sampled, releases get their errors in
blocks, each block from one cosine and one sine basis per component, and the
series holds one block at a time. Other point sets are evaluated once per
release and point set.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, ParameterError
from .flowfield import FlowSource, grid_lines
from .gridio import check_finite


@dataclass(frozen=True)
class ErrorModelConfig:
    """Calibration of the synthetic forecast-error field."""

    target_rmse: float
    spatial_correlation_length: float
    temporal_correlation: float
    n_modes: int = 24
    seed: int = 0

    def __post_init__(self):
        check_finite("target_rmse", self.target_rmse, sign="non-negative")
        check_finite("correlation scales", self.spatial_correlation_length,
                     self.temporal_correlation, sign="positive")
        if not (isinstance(self.n_modes, numbers.Integral) and self.n_modes >= 1):
            raise ParameterError(f"n_modes must be an integer >= 1, not {self.n_modes!r}")


def _error_fields(kx, ky, amplitude, coefs, xa, ya):
    """The error of each (coef_a, coef_b) pair at the points (xa, ya), as
    (2, *xa.shape) arrays: cos and sin of every mode's phase are evaluated
    once per component, however many pairs share them."""
    fields = [np.empty((2, *xa.shape)) for _ in coefs]
    for comp in (0, 1):
        phase = np.multiply.outer(xa, kx[comp])
        phase += np.multiply.outer(ya, ky[comp])
        trig = np.cos(phase)
        for f, (a, _) in zip(fields, coefs):
            f[comp] = trig @ a[comp]
        np.sin(phase, out=trig)
        for f, (_, b) in zip(fields, coefs):
            f[comp] = amplitude * (f[comp] + trig @ b[comp])
        del phase, trig  # so that one component's basis is alive at a time
    return fields


#: releases whose errors on the held grid are evaluated together, from one
#: basis: a mission replans on at most this many releases in one evaluation
_BLOCK = 16


class _SeriesErrors:
    """A generated series' modes and each release's coefficients, and one
    block of its releases' errors on the first grid-shaped point set sampled.
    Releases reference it by index and it references none of them, so a
    series is freed without the cycle collector."""

    def __init__(self, kx, ky, amplitude):
        self.kx, self.ky, self.amplitude = kx, ky, amplitude
        self.coefs = []  # (coef_a, coef_b) of each release, in release order
        self.held = None  # (bits of the point set's grid lines, field or None per release)

    def error(self, index, xa, ya):
        """Release ``index``'s error fields at (xa, ya). On the held grid, a
        release not held yet brings in the block of _BLOCK releases from it
        on, in place of the block held before; elsewhere it is evaluated
        alone."""
        lines = grid_lines(xa, ya)
        key = lines and (lines[0].tobytes(), lines[1].tobytes())
        modes = self.kx, self.ky, self.amplitude
        if key and self.held is None:
            self.held = key, [None] * len(self.coefs)
        if key and self.held[0] == key:
            fields = self.held[1]
            if fields[index] is None:
                fields[:] = [None] * len(fields)
                block = _error_fields(*modes, self.coefs[index:index + _BLOCK], xa, ya)
                fields[index:index + len(block)] = block
            return fields[index]
        return _error_fields(*modes, self.coefs[index:index + 1], xa, ya)[0]


@dataclass(frozen=True)
class FourierPerturbedFlow(FlowSource):
    """Truth plus the frozen-in-time Fourier error of release ``index`` of
    its series, valid over one release window [t_lo, t_hi]. With ``errors``
    None it is the truth on that window: a perfect release."""

    truth: FlowSource
    errors: _SeriesErrors | None = field(default=None, repr=False)
    index: int = 0
    t_lo: float = -math.inf
    t_hi: float = math.inf

    def __post_init__(self):
        tr = self.truth
        self._set_extent(tr.x_min, tr.x_max, tr.y_min, tr.y_max, self.t_lo, self.t_hi)

    @property
    def is_steady(self):
        # the perturbation coefficients are frozen within a release
        return self.truth.is_steady

    def sample_many(self, x, y, t, clamp_time=False):
        return self.sampler(x, y, clamp_time)(t)

    def sampler(self, x, y, clamp_time=False):
        # bind the truth's sampler once; the error is frozen within a
        # release, so it too is evaluated once per point set, and once per
        # series for the grid-shaped point set its releases share
        xa, ya = np.broadcast_arrays(*self._check_extent(x, y, axes="xy"))
        truth = self.truth.sampler(xa, ya, clamp_time=True)
        if self.errors is None:
            return lambda t: truth(*self._check_extent(t, axes="t", clamp_time=clamp_time))
        eu, ev = self.errors.error(self.index, xa, ya)

        def sample(t):
            u, v = truth(*self._check_extent(t, axes="t", clamp_time=clamp_time))
            return u + eu, v + ev

        return sample


@dataclass(frozen=True)
class ForecastSeries:
    """Ordered forecast releases, each valid over [release, release + horizon]."""

    releases: tuple  # of (release_time, FlowSource)

    def __post_init__(self):
        times = [t for t, _ in self.releases]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("release times must be strictly increasing")

    @property
    def release_times(self):
        return [t for t, _ in self.releases]

    def current(self, t: float) -> FlowSource:
        """Latest release available at wall-clock time t."""
        idx = bisect.bisect_right(self.release_times, t) - 1
        if idx < 0:
            raise HorizonError(f"no forecast released yet at t={t}")
        return self.releases[idx][1]


def check_release_timing(cadence: float, horizon: float) -> None:
    """A release cadence or window horizon that is not positive and finite is bad input."""
    check_finite("forecast cadence and horizon", cadence, horizon, sign="positive")


#: the most releases one series may hold: a year of hourly releases fits, and
#: a 1e-20 s cadence from 0 s, which would release about 9e15 times, does not
MAX_RELEASES = 10_000


def _release_windows(truth: FlowSource, t0: float, t1: float,
                     cadence: float, horizon: float):
    """(release time, window end) for each release in [t0, t1]; a window
    ends at the horizon or at the end of the truth, whichever is first, and
    no release comes at or after the end of the truth. More than
    MAX_RELEASES releases, or a cadence too small to advance a release time,
    raises ParameterError: a span only a few float spacings long can pass the
    count and still not advance."""
    check_release_timing(cadence, horizon)
    intervals = (min(t1 + 1e-9, truth.t_max) - t0) / cadence
    if intervals >= MAX_RELEASES:  # one release more than whole intervals
        raise ParameterError(f"forecast cadence {cadence} over [{t0}, {t1}] would make "
                             f"{intervals + 1:.3g} releases, more than {MAX_RELEASES}")
    rt = t0
    while rt <= t1 + 1e-9 and rt < truth.t_max:
        yield rt, min(rt + horizon, truth.t_max)
        if rt + cadence == rt:
            raise ParameterError(f"forecast cadence {cadence} is below the float spacing "
                                 f"of the release time {rt}, which would never advance")
        rt += cadence


def gen_forecast_series(
    truth: FlowSource,
    cfg: ErrorModelConfig | None,
    cadence: float,
    horizon: float,
    span: tuple[float, float],
) -> ForecastSeries:
    """Generate releases at ``cadence`` covering ``span = (t0, t1)``.

    Each release is truth plus a Fourier-mode error field whose expected
    vector RMSE equals cfg.target_rmse. Deterministic given cfg.seed. With
    cfg None, or a target_rmse of 0, each release has no error, so it is the
    truth on its window: a perfect series, which draws nothing.
    """
    windows = _release_windows(truth, *span, cadence, horizon)
    if cfg is None or cfg.target_rmse == 0.0:
        return ForecastSeries(tuple((rt, FourierPerturbedFlow(truth, t_lo=rt, t_hi=t_hi))
                                    for rt, t_hi in windows))
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_modes
    # wavelengths at or above the correlation length, isotropic directions
    wavelengths = cfg.spatial_correlation_length * rng.uniform(1.0, 4.0, size=(2, n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    kmag = 2.0 * math.pi / wavelengths
    kx = kmag * np.cos(angles)
    ky = kmag * np.sin(angles)
    # sum of squared amplitudes = target_rmse^2 / 2 per component
    amplitude = cfg.target_rmse / math.sqrt(2.0 * n)
    rho = math.exp(-cadence / cfg.temporal_correlation)
    coef_a = rng.standard_normal((2, n))
    coef_b = rng.standard_normal((2, n))
    errors = _SeriesErrors(kx, ky, amplitude)
    releases = []
    for index, (rt, t_hi) in enumerate(windows):
        errors.coefs.append((coef_a, coef_b))  # the AR(1) step below makes new arrays
        releases.append((rt, FourierPerturbedFlow(truth, errors, index, rt, t_hi)))
        noise_a = rng.standard_normal((2, n))
        noise_b = rng.standard_normal((2, n))
        coef_a = rho * coef_a + math.sqrt(1.0 - rho * rho) * noise_a
        coef_b = rho * coef_b + math.sqrt(1.0 - rho * rho) * noise_b
    return ForecastSeries(tuple(releases))

