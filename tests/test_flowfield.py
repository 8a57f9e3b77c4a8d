"""Flow sources: analytic fields, gridded interpolation, binary round-trip."""

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftplan.errors import ExtentError, FormatError, ParameterError
from driftplan.flowfield import (
    GriddedFlow,
    SpaceTimeGrid,
    make_double_gyre,
    make_highway,
    make_uniform,
    read_flow_file,
    write_flow_file,
)
from driftplan.forecast import ErrorModelConfig, gen_forecast_series
from driftplan.gridio import SpatialGrid


def test_uniform_flow_everywhere():
    f = make_uniform(0.3, -0.1)
    assert f.sample(123.0, -456.0, 789.0) == (0.3, -0.1)
    u, v = f.sample_many(np.linspace(0, 1e6, 7), np.zeros(7), 0.0)
    assert np.all(u == 0.3) and np.all(v == -0.1)
    assert f.is_steady


_GRID = dict(x0=0.0, y0=0.0, dx=1.0, dy=1.0, nx=2, ny=2)


@pytest.mark.parametrize("build", [
    lambda: make_uniform(math.nan, 0.0),
    lambda: make_uniform(0.0, -math.inf),
    lambda: make_highway(math.nan, 200.0, (1.0, 0.0)),
    lambda: make_highway(100.0, math.inf, (1.0, 0.0)),
    lambda: make_highway(100.0, 200.0, (math.nan, 0.0)),
    lambda: make_highway(100.0, 200.0, (0.0, math.inf)),
    lambda: make_double_gyre(0.1, math.nan, 0.25, 5000.0),
    lambda: make_double_gyre(0.1, 1e-4, math.inf, 5000.0),
    lambda: make_double_gyre(math.nan, 1e-4, 0.25, 5000.0),
    lambda: make_double_gyre(math.inf, 1e-4, 0.25, 5000.0),
    lambda: make_double_gyre(0.1, 1e-4, 0.25, math.nan),
    lambda: make_double_gyre(0.1, 1e-4, 0.25, math.inf),
    lambda: SpatialGrid(**dict(_GRID, x0=math.nan)),
    lambda: SpatialGrid(**dict(_GRID, y0=math.inf)),
    lambda: SpaceTimeGrid(**dict(_GRID, x0=-math.inf)),
    lambda: SpaceTimeGrid(**_GRID, t0=math.nan),
    lambda: SpaceTimeGrid(**_GRID, t0=math.inf),
    lambda: SpaceTimeGrid(**_GRID, dt_snap=10**400),
    lambda: SpaceTimeGrid(**_GRID, dt_snap=math.inf),
], ids=["uniform-u-nan", "uniform-v-inf", "highway-y1-nan", "highway-y2-inf",
        "highway-band-u-nan", "highway-band-v-inf", "gyre-omega-nan", "gyre-epsilon-inf",
        "gyre-amplitude-nan", "gyre-amplitude-inf", "gyre-scale-nan", "gyre-scale-inf",
        "grid-x0-nan", "grid-y0-inf", "space-time-grid-x0-inf", "grid-t0-nan", "grid-t0-inf",
        "grid-dt-snap-huge-integer", "grid-dt-snap-inf"])
def test_non_finite_model_numbers_are_refused(build):
    # NaN fails every comparison, so only a check written to fail on it refuses
    # it; let through, it fails in a solve or drifts particles out of the region
    with pytest.raises(ParameterError):
        build()


def test_highway_band_membership():
    f = make_highway(100.0, 200.0, (1.4, 0.0))
    assert f.sample(0.0, 150.0, 0.0) == (1.4, 0.0)
    assert f.sample(0.0, 99.0, 0.0) == (0.0, 0.0)
    assert f.sample(0.0, 201.0, 0.0) == (0.0, 0.0)
    # band edges included
    assert f.sample(5.0, 100.0, 0.0)[0] == 1.4
    assert f.sample(5.0, 200.0, 0.0)[0] == 1.4


def test_double_gyre_divergence_free():
    from oracles import central_divergence

    f = make_double_gyre(amplitude=0.25, omega=2 * math.pi / 1000.0,
                         epsilon=0.25, scale=1000.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(50, 1950)
        y = rng.uniform(50, 950)
        t = rng.uniform(0, 2000)
        assert abs(central_divergence(f, x, y, t, h=0.5)) < 1e-6


def test_double_gyre_walls_are_streamlines():
    # normal velocity vanishes on the domain walls of the gyre box
    f = make_double_gyre(0.3, 0.01, 0.1, 500.0)
    for x in (0.0, 500.0, 1000.0):
        assert abs(f.sample(x, 0.0, 3.0)[1]) < 1e-12
        assert abs(f.sample(x, 500.0, 3.0)[1]) < 1e-12
    for y in (0.0, 250.0, 500.0):
        assert abs(f.sample(0.0, y, 3.0)[0]) < 1e-12
        assert abs(f.sample(1000.0, y, 3.0)[0]) < 1e-12


def _gridded(nx=5, ny=4, nt=3):
    g = SpaceTimeGrid(x0=0, y0=0, dx=100.0, dy=100.0, nx=nx, ny=ny,
                      t0=0.0, dt_snap=600.0, nt=nt)
    shape = (nt, ny, nx)
    u = np.arange(np.prod(shape), dtype=float).reshape(shape) * 1e-3
    v = -u / 2.0
    return GriddedFlow(grid=g, u=u, v=v)


def test_gridded_flow_exact_at_nodes():
    f = _gridded()
    g = f.grid
    for k in range(g.nt):
        for j in (0, 2):
            for i in (0, 4):
                u, v = f.sample(g.xs[i], g.ys[j], g.ts[k])
                assert u == pytest.approx(f.u[k, j, i])
                assert v == pytest.approx(f.v[k, j, i])


def test_gridded_flow_bilinear_midpoints():
    f = _gridded()
    g = f.grid
    u, _ = f.sample(50.0, 0.0, 0.0)
    assert u == pytest.approx(0.5 * (f.u[0, 0, 0] + f.u[0, 0, 1]))
    u, _ = f.sample(0.0, 0.0, 300.0)
    assert u == pytest.approx(0.5 * (f.u[0, 0, 0] + f.u[1, 0, 0]))


def test_gridded_flow_extent_errors():
    f = _gridded()
    with pytest.raises(ExtentError):
        f.sample(-1.0, 0.0, 0.0)
    with pytest.raises(ExtentError):
        f.sample(0.0, 0.0, 1e9)
    # clamp applies to time only
    u, _ = f.sample(0.0, 0.0, 1e9, clamp_time=True)
    assert u == pytest.approx(f.u[-1, 0, 0])
    with pytest.raises(ExtentError):
        f.sample(-1.0, 0.0, 0.0, clamp_time=True)


def test_flow_file_round_trip(tmp_path):
    f = _gridded()
    path = tmp_path / "flow.ofg"
    write_flow_file(f, path)
    g2 = read_flow_file(path)
    assert g2.grid == f.grid
    # float32 payload: round-trip to float32 precision
    np.testing.assert_allclose(g2.u, f.u, atol=1e-6)
    np.testing.assert_allclose(g2.v, f.v, atol=1e-6)


def test_read_flow_file_returns_read_only_float32(tmp_path):
    path = tmp_path / "flow.ofg"
    write_flow_file(_gridded(), path)
    f = read_flow_file(path)
    for arr in (f.u, f.v):
        assert arr.dtype == np.float32 and arr.shape == (3, 4, 5)
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        f.u[0, 0, 0] = 1.0


@settings(max_examples=100, deadline=None)
@given(nt=st.integers(1, 4), seed=st.integers(0, 2**31 - 1), clamp_time=st.booleans())
def test_float32_flow_samples_like_its_float64_widening(nt, seed, clamp_time):
    """A float32-backed flow and one built from the same values widened to
    float64 sample byte for byte alike, on nodes, cell edges and snapshot
    times, with one snapshot, and with clamped times."""
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(x0=-300.0, y0=100.0, dx=150.0, dy=250.0, nx=6, ny=4,
                      t0=500.0, dt_snap=700.0, nt=nt)
    u32, v32 = rng.standard_normal((2, nt, g.ny, g.nx)).astype(np.float32)
    f32 = GriddedFlow(g, u32, v32)
    f64 = GriddedFlow(g, u32.astype(np.float64), v32.astype(np.float64))
    assert f32.u.dtype == np.float32 and np.shares_memory(f32.u, u32)
    assert f64.u.dtype == np.float64
    n = 40
    x = rng.uniform(g.x0, g.x_max, n)
    y = rng.uniform(g.y0, g.y_max, n)
    t = rng.uniform(g.t0, g.t_max, n)
    x[:10] = g.xs[rng.integers(0, g.nx, 10)]  # on nodes and on edges
    y[5:15] = g.ys[rng.integers(0, g.ny, 10)]
    t[:8] = g.ts[rng.integers(0, nt, 8)]
    if clamp_time:
        t[-8:] = np.where(rng.random(8) < 0.5, g.t0 - 1500.0, g.t_max + 1500.0)
    got = f32.sample_many(x, y, t, clamp_time=clamp_time)
    want = f64.sample_many(x, y, t, clamp_time=clamp_time)
    for a, b in zip(got, want):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
    for p in zip(x, y, t):
        assert (struct.pack("<2d", *f32.sample(*p, clamp_time=clamp_time))
                == struct.pack("<2d", *f64.sample(*p, clamp_time=clamp_time)))


def _outcome(fn):
    """What a sampling call gives: the type, shape and bytes of u and v, or
    the exception's type, message, and an ExtentError's axis and value, a
    NaN value as equal to any other."""
    try:
        u, v = fn()
    except Exception as exc:
        value = getattr(exc, "value", None)
        if isinstance(value, float) and math.isnan(value):
            value = "nan"
        return type(exc), str(exc), getattr(exc, "axis", None), value
    return type(u), type(v), np.shape(u), np.asarray(u).tobytes(), np.asarray(v).tobytes()


def _zero_heavy_flow(nt, dtype):
    """A flow on a zero origin whose u is mostly -0.0, as a double gyre's is
    on its walls, so that the sign of a zero weight shows in the result, and
    whose (t_max - t0) / dt_snap rounds to just below nt - 1, so that a time
    clamped to t_max blends differently from one clipped in index space."""
    g = SpaceTimeGrid(x0=0.0, y0=100.0, dx=150.0, dy=250.0, nx=6, ny=4,
                      t0=0.0, dt_snap=0.7, nt=nt)
    rng = np.random.default_rng(nt)
    u, v = rng.standard_normal((2, nt, g.ny, g.nx))
    u[rng.random(u.shape) < 0.75] = -0.0
    v[rng.random(v.shape) < 0.25] = 0.0
    return GriddedFlow(g, u.astype(dtype), v.astype(dtype))


def _nan_outcome(f, x, y, t):
    """The outcome of points that hold a NaN: an ExtentError for the first
    axis, x before y before t, with a NaN on it; None without a NaN."""
    for axis, a in zip("xyt", (x, y, t)):
        if np.isnan(a).any():
            err = ExtentError(axis, math.nan, getattr(f, f"{axis}_min"), getattr(f, f"{axis}_max"))

            def fail():
                raise err

            return _outcome(fail)
    return None


def _assert_samples_like_oracle(f, x, y, t, clamp_time):
    """sample_many, and sample at each point, give the reference's bytes
    and exceptions. A NaN lies outside every extent, where the reference
    lets it through, so points that hold one raise for it instead; no case
    puts a finite point outside the extent before a NaN."""
    from oracles import gridded_sample_many

    assert (_outcome(lambda: f.sample_many(x, y, t, clamp_time=clamp_time))
            == (_nan_outcome(f, x, y, t)
                or _outcome(lambda: gridded_sample_many(f, x, y, t, clamp_time=clamp_time))))
    for p in zip(*(a.ravel() for a in np.broadcast_arrays(x, y, t))):
        p = tuple(map(float, p))
        want = (_nan_outcome(f, *p)
                or _outcome(lambda: tuple(map(float, gridded_sample_many(f, *p, clamp_time)))))
        assert _outcome(lambda: f.sample(*p, clamp_time=clamp_time)) == want


@settings(max_examples=600, deadline=None)
@given(data=st.data(), nt=st.sampled_from([1, 2, 4]), float32=st.booleans(),
       ndim=st.integers(0, 3), scalar_t=st.booleans(), clamp_time=st.booleans())
def test_gridded_sampling_matches_oracle_bytewise(data, nt, float32, ndim, scalar_t,
                                                   clamp_time):
    """Byte-equal to the reference, signed zeros included, with the same
    exceptions, for 0-d, 1-d, 2-d and empty points and a scalar time, at
    points on, just inside and just beyond each padded edge of the extent,
    far beyond it, on grid nodes and at -0.0."""
    from oracles import padded_extent

    f = _zero_heavy_flow(nt, np.float32 if float32 else float)
    g = f.grid
    lo, hi = padded_extent(f)
    shape = ((), (3,), (2, 3), (0,))[ndim]

    def coords(axis, shape):
        a, b = lo[axis], hi[axis]
        edges = [a, b, np.nextafter(a, b), np.nextafter(b, a), np.nextafter(a, -np.inf),
                 np.nextafter(b, np.inf), a - 1.0, b + 1.0, -0.0]
        nodes = (g.xs, g.ys, g.ts)[axis].tolist() + [-0.0]
        point = st.one_of(st.floats(a, b), st.sampled_from(edges), st.sampled_from(nodes))
        n = math.prod(shape)
        drawn = data.draw(st.lists(point, min_size=n, max_size=n))
        return np.array(drawn, dtype=float).reshape(shape)

    x, y = coords(0, shape), coords(1, shape)
    t = coords(2, () if scalar_t else shape)
    if ndim == 0:
        x, y = float(x), float(y)
    if scalar_t:
        t = float(t)
    _assert_samples_like_oracle(f, x, y, t, clamp_time)


@pytest.mark.parametrize("nt", [1, 4])
@pytest.mark.parametrize("clamp_time", [False, True])
@pytest.mark.parametrize("x, y, t", [
    (np.empty((2, 0)), 100.0, 0.5),  # no point: the scalar time is still checked
    (np.empty((2, 0)), 100.0, 9.5),
    (-0.0, 100.0, -0.0),  # signed zeros on a zero origin
    (np.array([-0.0, 150.0, 750.0]), 350.0, np.array([-0.0, 0.7, 1e9])),
    (50.0, 100.0, math.nan),  # NaN lies outside, clamped or not
    (math.nan, 100.0, 0.5),
    (np.array([50.0, math.nan, -1e9]), 100.0, 0.5),  # NaN is the first point outside
    (50.0, 100.0, 1e9),  # far beyond t_max: clamped to it, or refused
    # beyond the last node but inside the tolerance: the index is capped
    (np.array([750.0 + 5e-7, 700.0]), np.array([120.0, 850.0 + 5e-7]), 2.1 + 1e-6),
])
def test_gridded_sampling_corner_cases_match_oracle(nt, clamp_time, x, y, t):
    _assert_samples_like_oracle(_zero_heavy_flow(nt, np.float32), x, y, t, clamp_time)


def _nan_flows():
    """One flow of each kind, each with the point (300, 400, 0) inside its
    extent."""
    gridded = _zero_heavy_flow(4, np.float32)
    cfg = ErrorModelConfig(target_rmse=0.1, spatial_correlation_length=300.0,
                           temporal_correlation=10.0)
    return {
        "uniform": make_uniform(0.1, -0.2),
        "highway": make_highway(350.0, 450.0, (0.5, 0.0)),
        "gyre": make_double_gyre(0.2, 0.01, 0.25, 1000.0),
        "gridded_nt1": _zero_heavy_flow(1, float),
        "gridded_nt4": gridded,
        "release": gen_forecast_series(gridded, cfg, 1.0, 2.0, (0.0, 0.0)).current(0.0),
    }


NAN_FLOWS = _nan_flows()


@pytest.mark.parametrize("name", sorted(NAN_FLOWS))
@pytest.mark.parametrize("method, array", [
    ("sample", False), ("sample_many", False), ("sample_many", True),
    ("sampler", False), ("sampler", True),
])
@pytest.mark.parametrize("axis", ["x", "y", "t"])
@pytest.mark.parametrize("clamp_time", [False, True])
def test_nan_coordinate_is_outside_every_extent(name, method, array, axis, clamp_time):
    """A NaN in x, y or t, alone or inside an array of points, raises an
    ExtentError naming its axis, with or without clamp_time."""
    f = NAN_FLOWS[name]
    p = {"x": 300.0, "y": 400.0, "t": 0.0}
    p[axis] = np.array([p[axis], math.nan, p[axis]]) if array else math.nan
    with pytest.raises(ExtentError) as info:
        if method == "sampler":
            f.sampler(p["x"], p["y"], clamp_time=clamp_time)(p["t"])
        else:
            getattr(f, method)(p["x"], p["y"], p["t"], clamp_time=clamp_time)
    err = info.value
    assert err.axis == axis and math.isnan(err.value)
    assert (err.lo, err.hi) == (getattr(f, f"{axis}_min"), getattr(f, f"{axis}_max"))


def _mesh(xs=(0.0, 150.0, 300.0, 450.0), ys=(100.0, 400.0, 700.0), node=None, t=0.0):
    """A meshgrid inside every NAN_FLOWS extent with the given axes, and
    ``node = (axis, row, col, value)`` set at one node, which leaves the
    mesh not grid-shaped."""
    x, y = np.meshgrid(xs, ys)
    if node is not None:
        axis, j, i, value = node
        (x if axis == "x" else y)[j, i] = value
    return x, y, t


MESH_CASES = {
    "x_column_nan": _mesh(xs=(0.0, 150.0, math.nan, 450.0)),
    "x_node_nan": _mesh(node=("x", 1, 2, math.nan)),
    "y_row_nan": _mesh(ys=(100.0, math.nan, 700.0)),
    "x_far_then_y_nan": _mesh(xs=(0.0, 150.0, 300.0, 1e9), ys=(math.nan, 400.0, 700.0)),
    "y_far_then_t_nan": _mesh(ys=(100.0, 400.0, -1e9), t=math.nan),
    "x_node_far_then_t_nan": _mesh(node=("x", 2, 1, -1e9), t=math.nan),
    "t_far_then_y_node_nan": _mesh(node=("y", 0, 3, math.nan), t=1e9),
    "t_nan": _mesh(t=math.nan),
}


@pytest.mark.parametrize("name", sorted(NAN_FLOWS))
@pytest.mark.parametrize("case", sorted(MESH_CASES))
@pytest.mark.parametrize("method", ["sample_many", "sampler"])
@pytest.mark.parametrize("clamp_time", [False, True])
def test_first_point_outside_a_mesh_is_the_one_named(name, case, method, clamp_time):
    """On a 2-D mesh, grid-shaped or not, a NaN or a point beyond the padded
    extent raises an ExtentError for the first such point, x before y
    before t and in C order within an axis, as at scattered points; with
    clamp_time a finite time beyond the extent is clamped instead."""
    from oracles import padded_extent

    f = NAN_FLOWS[name]
    x, y, t = MESH_CASES[case]
    lo, hi = padded_extent(f)
    for k, (axis, a) in enumerate(zip("xyt", (x, y, t))):
        a = np.ravel(a)
        bad = np.isnan(a) if clamp_time and axis == "t" else ~((a >= lo[k]) & (a <= hi[k]))
        if bad.any():
            break
    with pytest.raises(ExtentError) as info:
        if method == "sampler":
            f.sampler(x, y, clamp_time=clamp_time)(t)
        else:
            f.sample_many(x, y, t, clamp_time=clamp_time)
    err = info.value
    assert (err.axis, struct.pack("<d", err.value)) == (axis, struct.pack("<d", a[bad][0]))
    assert (err.lo, err.hi) == (getattr(f, f"{axis}_min"), getattr(f, f"{axis}_max"))


#: the SIMD groups that ROADMAP item 2 turns off to test host independence
SIMD_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
_HOST_SCRIPT = """
import json, math, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from driftplan.flowfield import SpaceTimeGrid, make_double_gyre

groups = sys.argv[1].split()
gyre = make_double_gyre(0.16, 2 * math.pi / 86400.0, 0.25, 20000.0)
X, Y = SpaceTimeGrid(x0=0.0, y0=0.0, dx=200.0, dy=200.0, nx=201, ny=101).meshgrid()
sample = gyre.sampler(X, Y)
mismatches = 0
for t in (0.0, 25200.0, 43210.5, 432000.0):
    want = [a.reshape(X.shape) for a in gyre.sample_many(X.ravel(), Y.ravel(), t)]
    for got in (gyre.sample_many(X, Y, t), sample(t)):
        mismatches += any(a.tobytes() != b.tobytes() for a, b in zip(got, want))
print(json.dumps({"known": [g for g in groups if g in __cpu_features__],
                  "still_on": [g for g in groups if __cpu_features__.get(g)],
                  "mismatches": mismatches}))
"""


def test_grid_path_equals_pointwise_path_with_simd_groups_off():
    """In a process whose numpy dispatches none of SIMD_OFF, the double
    gyre's grid path gives the pointwise path's bytes on the 201 x 101 grid
    of the drift benchmark's set-up. Where numpy refuses the setting, or
    has no such groups, the test is skipped with the reason."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=SIMD_OFF,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HOST_SCRIPT, SIMD_OFF], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={SIMD_OFF!r}: "
                    + proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["known"] or out["still_on"]:
        pytest.skip(f"numpy on this host dispatches {out['known']} of {SIMD_OFF!r}, "
                    f"and {out['still_on']} stay on under the setting")
    assert out["mismatches"] == 0


@pytest.mark.parametrize("name", ["gridded_nt1", "gridded_nt4", "release"])
def test_covers_holds_exactly_to_the_padded_extent(name):
    """A box on the padded extent is covered; one ulp beyond it on any side
    of any axis is not."""
    from oracles import padded_extent

    f = NAN_FLOWS[name]
    lo, hi = padded_extent(f)
    box = [lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]]
    assert f.covers(*box)
    for k in range(6):
        beyond = list(box)
        beyond[k] = np.nextafter(box[k], math.inf if k % 2 else -math.inf)
        assert not f.covers(*beyond)


def test_flow_file_bad_magic(tmp_path):
    path = tmp_path / "bad.ofg"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(FormatError) as ei:
        read_flow_file(path)
    assert ei.value.offset == 0


def test_flow_file_truncated_payload(tmp_path):
    f = _gridded()
    path = tmp_path / "trunc.ofg"
    write_flow_file(f, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError):
        read_flow_file(path)


OFG1_HEADER = 64  # magic, nx, ny, nt, then x0, dx, y0, dy, t0, dt_snap as f64


def _set_header_nx_1(data):
    struct.pack_into("<I", data, 4, 1)
    return data, 4


def _cut_header(data):
    return data[:20], 20


def _nan_in_u(data):
    struct.pack_into("<f", data, OFG1_HEADER + 4 * 7, math.nan)
    return data, OFG1_HEADER + 4 * 7


def _inf_in_v(data):
    count = 3 * 4 * 5  # nt * ny * nx of _gridded()
    struct.pack_into("<f", data, OFG1_HEADER + 4 * (count + 5), math.inf)
    return data, OFG1_HEADER + 4 * (count + 5)


def _nan_x0(data):
    # a non-finite origin is an invalid header, as a bad node count is
    struct.pack_into("<d", data, 16, math.nan)
    return data, 4


def _inf_t0(data):
    struct.pack_into("<d", data, 48, -math.inf)
    return data, 4


@pytest.mark.parametrize("corrupt", [_set_header_nx_1, _cut_header, _nan_in_u, _inf_in_v,
                                     _nan_x0, _inf_t0])
def test_flow_file_defect_offsets(tmp_path, corrupt):
    path = tmp_path / "flow.ofg"
    write_flow_file(_gridded(), path)
    data, offset = corrupt(bytearray(path.read_bytes()))
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as ei:
        read_flow_file(path)
    assert ei.value.offset == offset


def _traced_peak(fn, *args):
    """Peak memory traced by tracemalloc while fn runs, above what was
    allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_flow_file_io_memory(tmp_path):
    # reading holds the file's bytes once, and writing converts one snapshot
    # at a time instead of copying the whole field
    f = _gridded(nx=60, ny=50, nt=40)
    payload = 2 * f.u.size * 4
    path = tmp_path / "flow.ofg"
    assert _traced_peak(write_flow_file, f, path) <= 0.1 * payload
    assert path.stat().st_size == OFG1_HEADER + payload
    assert _traced_peak(read_flow_file, path) <= 1.25 * payload



def test_inside_agrees_with_check_space_at_the_tolerance():
    f = GriddedFlow(SpaceTimeGrid(x0=-500.0, y0=0.0, dx=1000.0, dy=500.0, nx=11, ny=5),
                    np.zeros((1, 5, 11)), np.zeros((1, 5, 11)))
    eps_x, eps_y = 1e-9 * 9500.0, 1e-9 * 2000.0
    xs = [f.x_min - eps_x, f.x_max + eps_x, 3000.0]
    ys = [f.y_min - eps_y, f.y_max + eps_y, 1000.0]
    xs += [np.nextafter(xs[0], -np.inf), np.nextafter(xs[1], np.inf)]
    ys += [np.nextafter(ys[0], -np.inf), np.nextafter(ys[1], np.inf)]
    X, Y = np.meshgrid(xs, ys)
    inside = f.inside(X, Y)
    assert inside.shape == X.shape
    for x, y, ok in zip(X.ravel(), Y.ravel(), inside.ravel()):
        try:
            f._check_extent(x, y, axes="xy")
            raised = False
        except ExtentError:
            raised = True
        assert ok == (not raised)
        assert ok == (x in xs[:3] and y in ys[:3])
    # an extent error names the first point outside, x before y
    with pytest.raises(ExtentError, match="x="):
        f._check_extent(X, Y, axes="xy")
    assert make_uniform(0.1, 0.0).inside(np.array([-1e300, 1e300]), 0.0).all()
    assert list(make_uniform(0.1, 0.0).inside(np.array([math.nan, 0.0]), 0.0)) == [False, True]


def test_clamped_times_sample_each_point_as_alone():
    # (t_max - t0) / dt_snap rounds to just below nt - 1 on this grid, so
    # clamping a time inside the tolerance would move its blend weight
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1.0, dy=1.0, nx=2, ny=2,
                      t0=0.0, dt_snap=0.7, nt=4)
    u = np.zeros((4, 2, 2))
    u[2] = 1.0  # any weight left on snapshot 2 shows in u
    f = GriddedFlow(g, u, np.zeros((4, 2, 2)))
    t = np.array([g.t_max + 1e-7, g.t_max + 1.0])
    su, sv = f.sample_many(np.full(2, 0.3), np.full(2, 0.6), t, clamp_time=True)
    for k in range(2):
        assert (su[k], sv[k]) == f.sample(0.3, 0.6, t[k], clamp_time=True)
    assert su[0] == 0.0
