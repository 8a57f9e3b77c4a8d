"""Imperfect forecasts: file-backed release series and a synthetic
structured-error generator.

The synthetic generator perturbs the true flow with a sum of random
Fourier modes per velocity component. Mode coefficients evolve between
releases as a stationary AR(1) process, so consecutive forecasts share
error structure, and amplitudes are calibrated analytically so the
expected vector RMSE equals the configured target. The releases of one
series share their modes, so a release evaluates the error once per series
and point set: the first grid-shaped point set sampled gets every release's
error from one cosine and one sine basis per component. Other point sets
are evaluated once per release and point set.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, HorizonError, ParameterError
from .flowfield import FlowSource, grid_lines, read_flow_file


@dataclass(frozen=True)
class ErrorModelConfig:
    """Calibration of the synthetic forecast-error field."""

    target_rmse: float
    spatial_correlation_length: float
    temporal_correlation: float
    n_modes: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.target_rmse < 0:
            raise ParameterError("target_rmse must be >= 0")
        if self.spatial_correlation_length <= 0 or self.temporal_correlation <= 0:
            raise ParameterError("correlation scales must be positive")
        if self.n_modes < 1:
            raise ParameterError("need at least one Fourier mode")


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


class _SeriesErrors:
    """The errors of a series' releases on one grid-shaped point set, all
    evaluated at the first request. Releases reference it and it references
    none of them, so a series is freed without the cycle collector."""

    def __init__(self, kx, ky, amplitude):
        self.kx, self.ky, self.amplitude = kx, ky, amplitude
        self.coefs = []  # (coef_a, coef_b) of each release, in release order
        self.held = None  # (bits of the point set's grid lines, fields per release)

    def lookup(self, flow, xa, ya):
        """flow's error fields at (xa, ya), or None where the held ones do not
        apply: another point set, or a release not built with these values."""
        lines = grid_lines(xa, ya)
        idx = next((i for i, (a, b) in enumerate(self.coefs)
                    if a is flow.coef_a and b is flow.coef_b), None)
        if (lines is None or idx is None or flow.kx is not self.kx
                or flow.ky is not self.ky or flow.amplitude != self.amplitude):
            return None
        key = (lines[0].tobytes(), lines[1].tobytes())
        if self.held is None:
            self.held = key, _error_fields(self.kx, self.ky, self.amplitude, self.coefs, xa, ya)
        return self.held[1][idx] if self.held[0] == key else None


@dataclass(frozen=True)
class FourierPerturbedFlow(FlowSource):
    """Truth plus a frozen-in-time sum of Fourier modes per component,
    valid over one release window [t_lo, t_hi]. With amplitude 0 it is the
    truth on that window: a perfect release."""

    truth: FlowSource
    kx: np.ndarray = field(repr=False)  # (2, n_modes): per component
    ky: np.ndarray = field(repr=False)
    coef_a: np.ndarray = field(repr=False)
    coef_b: np.ndarray = field(repr=False)
    amplitude: float = 0.0
    t_lo: float = -math.inf
    t_hi: float = math.inf
    #: the errors shared by the releases of one generated series
    series_errors: _SeriesErrors | None = field(default=None, repr=False, compare=False)

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
        if self.amplitude == 0.0:
            return lambda t: truth(*self._check_extent(t, axes="t", clamp_time=clamp_time))
        held = self.series_errors and self.series_errors.lookup(self, xa, ya)
        eu, ev = held if held is not None else _error_fields(
            self.kx, self.ky, self.amplitude, [(self.coef_a, self.coef_b)], xa, ya)[0]

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
    """A release cadence or window horizon that is not positive is bad input."""
    if not (cadence > 0 and horizon > 0):
        raise ParameterError(
            f"forecast cadence and horizon must be positive, not {cadence} and {horizon}")


def _release_windows(truth: FlowSource, t0: float, t1: float,
                     cadence: float, horizon: float):
    """(release time, window end) for each release in [t0, t1]; a window
    ends at the horizon or at the end of the truth, whichever is first, and
    no release comes at or after the end of the truth. A cadence too small
    to advance a release time raises ParameterError."""
    check_release_timing(cadence, horizon)
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
    cfg None each release has no modes and amplitude 0, so it is the truth
    on its window: a perfect series, which draws nothing.
    """
    windows = _release_windows(truth, *span, cadence, horizon)
    if cfg is None:
        no_modes = np.zeros((2, 0))
        return ForecastSeries(tuple(
            (rt, FourierPerturbedFlow(truth=truth, kx=no_modes, ky=no_modes, coef_a=no_modes,
                                      coef_b=no_modes, t_lo=rt, t_hi=t_hi))
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
    for rt, t_hi in windows:
        errors.coefs.append((coef_a.copy(), coef_b.copy()))
        releases.append((rt, FourierPerturbedFlow(
            truth=truth, kx=kx, ky=ky, coef_a=errors.coefs[-1][0], coef_b=errors.coefs[-1][1],
            amplitude=amplitude, t_lo=rt, t_hi=t_hi, series_errors=errors,
        )))
        noise_a = rng.standard_normal((2, n))
        noise_b = rng.standard_normal((2, n))
        coef_a = rho * coef_a + math.sqrt(1.0 - rho * rho) * noise_a
        coef_b = rho * coef_b + math.sqrt(1.0 - rho * rho) * noise_b
    return ForecastSeries(tuple(releases))


def load_forecast_series(entries) -> ForecastSeries:
    """Build a series from (release time, window end, OFG1 path) triples;
    each file must cover its release's window."""
    releases = []
    for rt, t_end, path in entries:
        flow = read_flow_file(path)
        if flow.t_min > rt + 1e-9 or flow.t_max < t_end - 1e-9:
            raise HorizonError(
                f"file {path} covers [{flow.t_min}, {flow.t_max}], "
                f"release at {rt} needs [{rt}, {t_end}]"
            )
        releases.append((rt, flow))
    return ForecastSeries(tuple(releases))


def write_series_manifest(entries, path) -> None:
    """Write (release time, window end, path) triples to a JSON manifest."""
    releases = [{"t_s": t, "t_end_s": e, "path": str(p)} for t, e, p in entries]
    with open(path, "w") as fh:
        json.dump({"releases": releases}, fh, indent=2)


def read_series_manifest(path):
    """The (release time, window end, path) triples of a manifest."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return [(e["t_s"], e["t_end_s"], e["path"]) for e in doc["releases"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: each release needs t_s, t_end_s and path") from exc
