"""Synthetic forecast-error model and forecast release series."""

import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    WindowedFlow,
    fourier_sample_many,
    gyre_sample_many,
    gyre_unique_sampler,
    padded_extent,
)

from driftplan import forecast
from driftplan.errors import ExtentError, HorizonError, ParameterError
from driftplan.flowfield import (
    GriddedFlow,
    SpaceTimeGrid,
    UniformFlow,
    make_double_gyre,
    make_highway,
    make_uniform,
)
from driftplan.forecast import (
    ErrorModelConfig,
    ForecastSeries,
    FourierPerturbedFlow,
    gen_forecast_series,
)
from driftplan.stats import vector_rmse


DAY_S = 86400.0
TRUTH = make_uniform(0.05, -0.08)


def _cfg(**kw):
    base = dict(target_rmse=0.2, spatial_correlation_length=2500.0,
                temporal_correlation=40000.0, n_modes=24, seed=0)
    base.update(kw)
    return ErrorModelConfig(**base)


@pytest.mark.parametrize("change", [
    dict(target_rmse=-0.1), dict(target_rmse=math.nan), dict(target_rmse=math.inf),
    dict(spatial_correlation_length=0.0), dict(spatial_correlation_length=math.nan),
    dict(temporal_correlation=-1.0), dict(temporal_correlation=math.nan),
    pytest.param(dict(target_rmse=10**400), id="{'target_rmse': 10**400}"),
    dict(spatial_correlation_length=math.inf),
    dict(temporal_correlation=math.inf),
    dict(n_modes=0), dict(n_modes=2.5), dict(n_modes=2.0), dict(n_modes="3"),
], ids=repr)
def test_config_validation(change):
    with pytest.raises(ParameterError):
        _cfg(**change)


def test_series_covers_span_at_cadence():
    s = gen_forecast_series(TRUTH, _cfg(), cadence=20000.0, horizon=50000.0,
                            span=(0.0, 60000.0))
    assert s.release_times == [0.0, 20000.0, 40000.0, 60000.0]
    fc = s.current(25000.0)
    assert fc.t_min == 20000.0
    assert fc.t_max == 70000.0


def test_series_stops_before_the_end_of_a_gridded_truth():
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=3, ny=3,
                      t0=0.0, dt_snap=45000.0, nt=3)
    truth = GriddedFlow(g, np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))
    # a release at the truth's last time would have an empty window
    for cfg in (_cfg(), None):
        s = gen_forecast_series(truth, cfg, 45000.0, 60000.0, (0.0, 90000.0))
        assert [(rt, f.t_min, f.t_max) for rt, f in s.releases] == [
            (0.0, 0.0, 60000.0), (45000.0, 45000.0, 90000.0)]
        assert gen_forecast_series(truth, cfg, 45000.0, 60000.0, (90000.0, 90000.0)).releases == ()


def test_current_release_selection():
    s = gen_forecast_series(TRUTH, None, 25000.0, 60000.0, (0.0, 50000.0))
    assert s.current(0.0) is s.releases[0][1]
    assert s.current(24999.0) is s.releases[0][1]
    assert s.current(25000.0) is s.releases[1][1]
    with pytest.raises(HorizonError):
        s.current(-1.0)


def test_series_without_error_model_is_exact(monkeypatch):
    # a perfect series draws nothing
    monkeypatch.setattr(np.random, "default_rng", None)
    s = gen_forecast_series(TRUTH, None, 25000.0, 60000.0, (0.0, 50000.0))
    fc = s.current(10.0)
    assert fc.sample(123.0, 456.0, 789.0) == TRUTH.sample(123.0, 456.0, 789.0)


@pytest.mark.parametrize("cadence, horizon", [(0.0, 50000.0), (-1.0, 50000.0),
                                              (20000.0, 0.0), (20000.0, -5.0),
                                              (math.nan, 50000.0)])
@pytest.mark.parametrize("cfg", [None, _cfg()], ids=["perfect", "fourier"])
def test_non_positive_cadence_or_horizon_is_refused(cfg, cadence, horizon):
    # a cadence of 0 would release at t0 forever
    with pytest.raises(ParameterError, match="cadence and horizon must be positive"):
        gen_forecast_series(TRUTH, cfg, cadence, horizon, (0.0, 50000.0))


@pytest.mark.parametrize("cfg", [None, _cfg()], ids=["perfect", "fourier"])
def test_cadence_below_the_float_spacing_of_a_release_is_refused(cfg):
    # 1e6 + 5e-11 == 1e6: the release time would never advance, although the
    # span's 1e-9 s of tolerance counts only 20 releases
    assert 1e6 + 5e-11 == 1e6
    with pytest.raises(ParameterError, match="never advance"):
        gen_forecast_series(TRUTH, cfg, 5e-11, 5000.0, (1e6, 1e6))


@pytest.mark.parametrize("cfg", [None, _cfg()], ids=["perfect", "fourier"])
@pytest.mark.parametrize("t0, cadence, t1", [(0.0, 1e-20, 2000.0), (1000.0, 1e-20, 2000.0),
                                             (0.0, 1e-3, 90000.0), (0.0, 3600.0, math.inf)])
def test_releases_over_the_cap_are_refused_before_the_first(cfg, t0, cadence, t1):
    """The releases are counted once, up front: from 0 s a 1e-20 s cadence
    advances each release time, and would release about 9e15 times."""
    # only the first releases are taken, in case they are not refused
    with pytest.raises(ParameterError, match="more than") as info:
        list(itertools.islice(forecast._release_windows(TRUTH, t0, t1, cadence, 5000.0), 4))
    assert str(info.value).endswith(f"more than {forecast.MAX_RELEASES}")
    with pytest.raises(ParameterError, match=f"more than {forecast.MAX_RELEASES}"):
        gen_forecast_series(TRUTH, cfg, cadence, 5000.0, (t0, t1))


def test_series_may_hold_the_cap_of_releases_and_no_more():
    cap = forecast.MAX_RELEASES
    series = gen_forecast_series(TRUTH, None, 90000.0 / (cap - 1), 5000.0, (0.0, 90000.0))
    assert len(series.releases) == cap
    with pytest.raises(ParameterError, match=f"more than {cap}"):
        gen_forecast_series(TRUTH, None, 90000.0 / cap, 5000.0, (0.0, 90000.0))


def test_error_rmse_calibration():
    """Averaged over seeds and space, the realized vector RMSE matches the
    configured target within a few percent."""
    rng = np.random.default_rng(10)
    diffs = []
    for seed in range(25):
        s = gen_forecast_series(TRUTH, _cfg(seed=seed), 20000.0, 50000.0,
                                (0.0, 40000.0))
        fc = s.releases[0][1]
        xs = rng.uniform(0, 50000, 300)
        ys = rng.uniform(0, 50000, 300)
        tu, tv = TRUTH.sample_many(xs, ys, 0.0)
        fu, fv = fc.sample_many(xs, ys, 0.0)
        diffs.append(np.stack([fu - tu, fv - tv], axis=-1))
    d = np.concatenate(diffs)
    rmse = vector_rmse(np.zeros_like(d), d)
    assert rmse == pytest.approx(0.2, rel=0.07)


def test_error_is_deterministic_in_seed():
    a = gen_forecast_series(TRUTH, _cfg(seed=7), 20000.0, 50000.0, (0.0, 20000.0))
    b = gen_forecast_series(TRUTH, _cfg(seed=7), 20000.0, 50000.0, (0.0, 20000.0))
    c = gen_forecast_series(TRUTH, _cfg(seed=8), 20000.0, 50000.0, (0.0, 20000.0))
    pt = (1234.0, 5678.0, 100.0)
    assert a.current(0.0).sample(*pt) == b.current(0.0).sample(*pt)
    assert a.current(0.0).sample(*pt) != c.current(0.0).sample(*pt)


def test_consecutive_releases_are_correlated_but_not_identical():
    s = gen_forecast_series(TRUTH, _cfg(seed=3), 20000.0, 50000.0, (0.0, 60000.0))
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 20000, 500)
    ys = rng.uniform(0, 20000, 500)

    def err(fc, t):
        fu, fv = fc.sample_many(xs, ys, t, clamp_time=True)
        tu, tv = TRUTH.sample_many(xs, ys, t)
        return np.concatenate([fu - tu, fv - tv])

    e0 = err(s.releases[0][1], 0.0)
    e1 = err(s.releases[1][1], 20000.0)
    corr = np.corrcoef(e0, e1)[0, 1]
    # AR(1) with rho = exp(-cadence/temporal_correlation) = exp(-0.5)
    assert 0.25 < corr < 0.85
    assert not np.allclose(e0, e1)


def test_zero_rmse_degenerates_to_truth():
    s = gen_forecast_series(TRUTH, _cfg(target_rmse=0.0), 20000.0, 50000.0,
                            (0.0, 20000.0))
    assert s.current(0.0).sample(9.0, 8.0, 7.0) == TRUTH.sample(9.0, 8.0, 7.0)


def test_release_window_enforced():
    s = gen_forecast_series(TRUTH, _cfg(), 20000.0, 50000.0, (0.0, 20000.0))
    fc = s.current(0.0)
    from driftplan.errors import ExtentError
    with pytest.raises(ExtentError):
        fc.sample(0.0, 0.0, 60000.0)
    # clamped queries succeed
    fc.sample(0.0, 0.0, 60000.0, clamp_time=True)


def test_series_requires_increasing_releases():
    fc = TRUTH
    with pytest.raises(ParameterError):
        ForecastSeries(releases=((10.0, fc), (10.0, fc)))


def _sampler_flows():
    """One flow of each kind, all valid for t in [0, 50 ks] on [0, 10 km]^2."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=20000.0, nt=6)
    rng = np.random.default_rng(3)
    gridded = GriddedFlow(g, 0.3 * rng.standard_normal((6, 11, 11)),
                          0.3 * rng.standard_normal((6, 11, 11)))
    gyre = make_double_gyre(0.16, 2 * math.pi / DAY_S, 0.25, 5000.0)

    def release(truth, **kw):
        return gen_forecast_series(truth, _cfg(**kw), DAY_S, 50000.0, (0.0, 0.0)).current(0.0)

    return {
        "uniform": make_uniform(0.05, -0.08),
        "highway": make_highway(4000.0, 6000.0, (0.4, 0.0)),
        "gyre": gyre,
        "gridded": gridded,
        "perfect": gen_forecast_series(gyre, None, DAY_S, 50000.0, (0.0, 0.0)).current(0.0),
        "fourier_zero": release(gyre, target_rmse=0.0),
        "fourier_gyre": release(gyre),
        "fourier_gridded": release(gridded),
    }


SAMPLER_FLOWS = _sampler_flows()
WINDOWED = [k for k, f in SAMPLER_FLOWS.items() if math.isfinite(f.t_max)]


#: (lo, hi) of the padded extent in x and in y of the bounded flows above
EDGE = list(zip(*padded_extent(SAMPLER_FLOWS["gridded"])))[:2]
MESHES = ["mesh", "row", "column", "signed_zero", "mixed_zero", "edge", "ij"]


def _points(seed, shape):
    """Random points of the given shape, or a mesh named in MESHES:
    - ``"mesh"``, a solver-style meshgrid whose x axis is unsorted and
      repeats values;
    - ``"row"`` and ``"column"``, meshes of one row and of one column;
    - ``"signed_zero"``, a mesh with -0.0 nodes on both axes, and
      ``"mixed_zero"``, one whose first column holds 0.0 in one row and
      -0.0 in the others, so that it is grid-shaped by == but not by bits;
    - ``"edge"``, a mesh with nodes on each edge of the padded extent;
    - ``"ij"``, a meshgrid with ``indexing="ij"``, which is not grid-shaped.
    """
    rng = np.random.default_rng(seed)

    def axis(n):
        return rng.uniform(0.0, 10000.0, n)

    if shape == "mesh":
        return np.meshgrid(rng.choice(axis(5), size=9), axis(6))
    if shape == "row":
        return np.meshgrid(axis(7), axis(1))
    if shape == "column":
        return np.meshgrid(axis(1), axis(7))
    if shape in ("signed_zero", "mixed_zero"):
        x, y = np.meshgrid(np.r_[-0.0, axis(3), -0.0], np.r_[axis(2), -0.0])
        if shape == "mixed_zero":
            x[0, 0] = 0.0
        return x, y
    if shape == "edge":
        (x_lo, x_hi), (y_lo, y_hi) = EDGE
        return np.meshgrid(np.r_[x_lo, axis(3), x_hi], np.r_[y_hi, axis(2), y_lo])
    if shape == "ij":
        return np.meshgrid(axis(5), axis(4), indexing="ij")
    return axis(shape), axis(shape)


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(SAMPLER_FLOWS)),
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(), (1,), (7,), (5, 9), (11, 11)] + MESHES),
    ts=st.lists(st.floats(0.0, 50000.0), min_size=1, max_size=4),
)
def test_sampler_matches_sample_many_bitwise(name, seed, shape, ts):
    flow = SAMPLER_FLOWS[name]
    x, y = _points(seed, shape)
    sample = flow.sampler(x, y)
    for t in ts:
        _assert_bitwise(sample(t), flow.sample_many(x, y, t))


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(k for k, f in SAMPLER_FLOWS.items()
                                if isinstance(f, FourierPerturbedFlow))),
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(), (1,), (7,), (5, 9), (11, 11)] + MESHES),
    ts=st.lists(st.floats(0.0, 50000.0), min_size=1, max_size=4),
    clamp=st.booleans(),
)
def test_release_sample_many_matches_replaced_path_bitwise(name, seed, shape, ts, clamp):
    """A release's sample_many, which samples through its sampler, equals the
    path it replaced, which added the error at every call, byte for byte, at
    one time for all points and at a time per point."""
    flow = SAMPLER_FLOWS[name]
    x, y = _points(seed, shape)
    per_point = np.random.default_rng(seed).uniform(0.0, 50000.0, np.shape(x))
    for t in [*ts, per_point]:
        _assert_bitwise(flow.sample_many(x, y, t, clamp_time=clamp),
                        fourier_sample_many(flow, x, y, t, clamp))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(), (7,), (5, 9)] + MESHES),
    ts=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
    clamp=st.booleans(),
)
def test_gyre_matches_pointwise_and_replaced_sampler_bitwise(seed, shape, ts, clamp):
    """On the double gyre, sample_many and sampler(x, y)(t) equal the closed
    form at every point and the np.unique/take sampler that the grid path
    replaced, byte for byte, on every mesh and on scattered points. That
    sampler took 0.0 and -0.0 as one x, so it is left out where x has both."""
    gyre = SAMPLER_FLOWS["gyre"]
    x, y = _points(seed, shape)
    sample = gyre.sampler(x, y, clamp_time=clamp)
    replaced = gyre_unique_sampler(gyre, x, y, clamp)
    for t in ts:
        want = gyre_sample_many(gyre, x, y, t, clamp)
        _assert_bitwise(gyre.sample_many(x, y, t, clamp_time=clamp), want)
        _assert_bitwise(sample(t), want)
        if shape != "mixed_zero":
            _assert_bitwise(replaced(t), want)


def _short_truth_flows():
    """A gridded truth that ends at 30 ks, inside the [0, 50 ks] window of a
    Fourier and of a perfect release built on it."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=10000.0, nt=4)
    rng = np.random.default_rng(5)
    short = GriddedFlow(g, 0.3 * rng.standard_normal((4, 11, 11)),
                        0.3 * rng.standard_normal((4, 11, 11)))
    return {
        "gridded": short,
        "fourier": replace(SAMPLER_FLOWS["fourier_gridded"], truth=short),
        "perfect": replace(SAMPLER_FLOWS["perfect"], truth=short),
    }


SHORT_TRUTH_FLOWS = _short_truth_flows()


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(SHORT_TRUTH_FLOWS)),
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(), (7,), (5, 9)] + MESHES),
    ts=st.lists(st.floats(-20000.0, 80000.0), min_size=1, max_size=4),
)
def test_clamped_sampler_matches_sample_many_bitwise(name, seed, shape, ts):
    """With clamp_time, a sampler clamps to the release window and the
    truth's own time range as sample_many does, byte for byte."""
    flow = SHORT_TRUTH_FLOWS[name]
    x, y = _points(seed, shape)
    sample = flow.sampler(x, y, clamp_time=True)
    for t in ts:
        _assert_bitwise(sample(t), flow.sample_many(x, y, t, clamp_time=True))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(WINDOWED),
    seed=st.integers(0, 2**31 - 1),
    past=st.booleans(),
    offset=st.floats(1.0, 1e6),
)
def test_sampler_rejects_out_of_window_time(name, seed, past, offset):
    flow = SAMPLER_FLOWS[name]
    x, y = _points(seed, (4, 3))
    sample = flow.sampler(x, y)
    t = flow.t_max + offset if past else flow.t_min - offset
    with pytest.raises(ExtentError) as info:
        sample(t)
    assert info.value.axis == "t"
    # the sampler stays usable after a rejected time
    sample(flow.t_min)


def test_sampler_rejects_points_outside_extent():
    flow = SAMPLER_FLOWS["fourier_gridded"]
    x, y = _points(0, (5,))
    x[2] = 10500.0
    with pytest.raises(ExtentError) as info:
        flow.sampler(x, y)(0.0)
    assert info.value.axis == "x"


PERFECT_TRUTHS = {k: SAMPLER_FLOWS[k] for k in ("uniform", "highway", "gyre", "gridded")}


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(PERFECT_TRUTHS)),
    release=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(), (1,), (7,), (5, 9)]),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    clamp=st.booleans(),
)
def test_perfect_release_matches_windowed_reference(name, release, seed, shape,
                                                     fracs, clamp):
    """A perfect release samples like the truth restricted to its window,
    byte for byte, through sample_many and sampler alike."""
    truth = PERFECT_TRUTHS[name]
    series = gen_forecast_series(truth, None, 20000.0, 50000.0, (10000.0, 30000.0))
    rt, fc = series.releases[release]
    ref = WindowedFlow(truth, rt, fc.t_max)
    x, y = _points(seed, shape)
    sample = fc.sampler(x, y)
    for frac in fracs:
        t = fc.t_min + frac * (fc.t_max - fc.t_min)
        want = ref.sample_many(x, y, t, clamp_time=clamp)
        for got in (fc.sample_many(x, y, t, clamp_time=clamp), sample(t)):
            _assert_bitwise(got, want)


def test_perfect_release_samples_truth_just_past_its_window():
    """Within the time tolerance past t_hi, a perfect release samples the
    truth at t, as every Fourier release does, rather than at t_hi."""
    gyre = SAMPLER_FLOWS["gyre"]
    fc = gen_forecast_series(gyre, None, DAY_S, 50000.0, (0.0, 0.0)).current(0.0)
    x, y = _points(1, (6,))
    t = fc.t_max + 0.01  # inside the 1e-6 relative tolerance of 50 ks
    for a, b in zip(fc.sample_many(x, y, t), gyre.sample_many(x, y, t)):
        assert a.tobytes() == b.tobytes()


#: a truth of -0.0 everywhere, the additive identity: a release samples its error
SIGNED_ZERO_TRUTH = UniformFlow(-0.0, -0.0)


def _error_point_sets(seed):
    """Grid A, a second grid B, grid A with a -0.0 node, grid A's lines
    broadcast against each other, scattered points and one scalar point."""
    rng = np.random.default_rng(seed)
    xs, ys = (np.r_[0.0, rng.uniform(1.0, 9000.0, n)] for n in (6, 3))
    grid_a = np.meshgrid(xs, ys)
    signed = grid_a[0].copy()
    signed[:, 0] = -0.0
    return {
        "grid_a": grid_a,
        "grid_b": np.meshgrid(rng.uniform(0.0, 9000.0, 5), rng.uniform(0.0, 9000.0, 3)),
        "signed_zero_node": (signed, grid_a[1]),
        "broadcast": (xs[None, :], ys[:, None]),
        "scattered": (rng.uniform(0.0, 9000.0, 7), rng.uniform(0.0, 9000.0, 7)),
        "scalar": (float(xs[3]), float(ys[1])),
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    order=st.permutations(["grid_a", "grid_b", "signed_zero_node", "broadcast",
                           "scattered", "scalar"]),
    n_modes=st.integers(1, 30),
)
def test_release_errors_match_per_release_path_bitwise(seed, order, n_modes):
    """Each release's error, from the basis its series evaluates once, equals
    the per-release reference byte for byte, whichever point set comes first:
    on a second grid, on a grid that differs only by a -0.0 node, on
    broadcast and scalar points, on a release built with dataclasses.replace,
    and on a second series on the same truth. A release's index picks its own
    coefficients, and each series holds its own fields."""
    series, other = (gen_forecast_series(SIGNED_ZERO_TRUTH, _cfg(seed=s, n_modes=n_modes),
                                         20000.0, 50000.0, (0.0, 40000.0))
                     for s in (seed, seed + 1))
    releases = [f for _, f in series.releases]
    first = releases[0]
    assert [f.index for f in releases] == list(range(len(releases)))
    # another index on the first release's window: the error of that release
    reindexed = [replace(first, index=f.index) for f in releases[1:]]
    flows = [*releases, replace(first, t_hi=first.t_hi + 1.0), *reindexed,
             *(f for _, f in other.releases)]
    points = _error_point_sets(seed)
    for name in order:
        x, y = points[name]
        got = {}
        for flow in flows:
            got[id(flow)] = flow.sample_many(x, y, flow.t_lo)
            _assert_bitwise(got[id(flow)], fourier_sample_many(flow, x, y, flow.t_lo))
        for f, r in zip(releases[1:], reindexed):
            _assert_bitwise(got[id(r)], got[id(f)])
        # the second series' first release has the same index, not the same error
        assert got[id(first)][0].tobytes() != got[id(other.releases[0][1])][0].tobytes()
    grid_first = next(n for n in order if n in ("grid_a", "grid_b", "signed_zero_node",
                                                "broadcast"))
    x, y = np.broadcast_arrays(*points[grid_first])
    for s in (series, other):
        assert s.releases[0][1].errors.held[0] == (x[0].tobytes(), y[:, 0].tobytes())
    held, other_held = first.errors.held[1], other.releases[0][1].errors.held[1]
    assert len(held) == len(other_held) == len(releases)
    assert not any(np.shares_memory(a, b) for a in held for b in other_held)


def test_series_is_freed_without_the_cycle_collector():
    """A sampled release holds its series' errors, and they hold no release."""
    X, Y = np.meshgrid(np.linspace(0.0, 9000.0, 7), np.linspace(0.0, 9000.0, 5))
    gc.disable()
    try:
        series = gen_forecast_series(TRUTH, _cfg(), 20000.0, 50000.0, (0.0, 40000.0))
        series.current(0.0).sampler(X, Y)
        assert series.current(0.0).errors.held is not None
        refs = [weakref.ref(f) for _, f in series.releases]
        del series
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_held_errors_are_one_block_of_releases(monkeypatch):
    """On the held grid a release brings in the errors of the block of
    releases from it on, from one basis, and the block held before is
    dropped: 240 hourly releases on 81 x 41 hold one block, not all 240
    (12.8 MB), and each release's error keeps its bytes."""
    X, Y = np.meshgrid(np.linspace(0.0, 40000.0, 81), np.linspace(0.0, 20000.0, 41))
    series = gen_forecast_series(TRUTH, _cfg(), 3600.0, 50000.0, (0.0, 239 * 3600.0))
    releases = [f for _, f in series.releases]
    assert len(releases) == 240
    original, bases = forecast._error_fields, []

    def counted(kx, ky, amplitude, coefs, xa, ya):
        bases.append(len(coefs))
        return original(kx, ky, amplitude, coefs, xa, ya)

    monkeypatch.setattr(forecast, "_error_fields", counted)
    block = forecast._BLOCK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in releases[:block]:
            f.sampler(X, Y)
        assert bases == [block]  # a mission of up to _BLOCK replans evaluates one basis
        releases[100].sampler(X, Y)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bases == [block, block]
    assert kept <= (block + 2) * 2 * X.nbytes  # the block's (2, 41, 81) fields
    held = releases[0].errors.held[1]
    assert [i for i, f in enumerate(held) if f is not None] == list(range(100, 100 + block))
    for f in (releases[0], releases[block - 1], releases[block], releases[100], releases[-1]):
        _assert_bitwise(f.sample_many(X, Y, f.t_lo), fourier_sample_many(f, X, Y, f.t_lo))
