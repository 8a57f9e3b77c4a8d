"""Flow sources: analytic fields, gridded interpolation, binary round-trip."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftplan.errors import ExtentError, FormatError
from driftplan.flowfield import (
    GriddedFlow,
    SpaceTimeGrid,
    degrees_to_meters_grid,
    make_double_gyre,
    make_highway,
    make_uniform,
    read_flow_file,
    write_flow_file,
)


def test_uniform_flow_everywhere():
    f = make_uniform(0.3, -0.1)
    assert f.sample(123.0, -456.0, 789.0) == (0.3, -0.1)
    u, v = f.sample_many(np.linspace(0, 1e6, 7), np.zeros(7), 0.0)
    assert np.all(u == 0.3) and np.all(v == -0.1)
    assert f.is_steady


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
    the exception's type, message, and an ExtentError's axis and value."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # NaN indices warn
            u, v = fn()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "axis", None), getattr(exc, "value", None)
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


def _assert_samples_like_oracle(f, x, y, t, clamp_time):
    """sample_many, and sample at each point, give the reference's bytes
    and exceptions."""
    from oracles import gridded_sample_many

    assert (_outcome(lambda: f.sample_many(x, y, t, clamp_time=clamp_time))
            == _outcome(lambda: gridded_sample_many(f, x, y, t, clamp_time=clamp_time)))
    for p in zip(*(a.ravel() for a in np.broadcast_arrays(x, y, t))):
        p = tuple(map(float, p))
        want = _outcome(lambda: tuple(map(float, gridded_sample_many(f, *p, clamp_time))))
        assert _outcome(lambda: f.sample(*p, clamp_time=clamp_time)) == want


@settings(max_examples=600, deadline=None)
@given(data=st.data(), nt=st.sampled_from([1, 2, 4]), float32=st.booleans(),
       ndim=st.integers(0, 3), scalar_t=st.booleans(), clamp_time=st.booleans())
def test_gridded_sampling_matches_oracle_bytewise(data, nt, float32, ndim, scalar_t,
                                                   clamp_time):
    """Byte-equal to the reference, signed zeros included, with the same
    exceptions, for 0-d, 1-d, 2-d and empty points and a scalar time, at
    points on, just inside and just beyond each padded edge of the extent,
    far beyond it, on grid nodes, at -0.0 and at NaN."""
    f = _zero_heavy_flow(nt, np.float32 if float32 else float)
    g = f.grid
    lo, hi = f._padded_extent()
    shape = ((), (3,), (2, 3), (0,))[ndim]

    def coords(axis, shape):
        a, b = lo[axis], hi[axis]
        edges = [a, b, np.nextafter(a, b), np.nextafter(b, a), np.nextafter(a, -np.inf),
                 np.nextafter(b, np.inf), a - 1.0, b + 1.0, -0.0, math.nan]
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
    (50.0, 100.0, math.nan),  # NaN: an index error, or a sample on one snapshot
    (math.nan, 100.0, 0.5),
    (np.array([50.0, math.nan, -1e9]), 100.0, 0.5),  # NaN hides no ExtentError
    (50.0, 100.0, 1e9),  # far beyond t_max: clamped to it, or refused
    # beyond the last node but inside the tolerance: the index is capped
    (np.array([750.0 + 5e-7, 700.0]), np.array([120.0, 850.0 + 5e-7]), 2.1 + 1e-6),
])
def test_gridded_sampling_corner_cases_match_oracle(nt, clamp_time, x, y, t):
    _assert_samples_like_oracle(_zero_heavy_flow(nt, np.float32), x, y, t, clamp_time)


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


@pytest.mark.parametrize("corrupt", [_set_header_nx_1, _cut_header, _nan_in_u, _inf_in_v])
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


def test_degrees_to_meters_adapter():
    # 1 degree of latitude is 111320 m; longitude scales by cos(mid-lat)
    g = degrees_to_meters_grid(lon0=10.0, lat0=60.0, dlon=1.0, dlat=1.0,
                               nx=3, ny=3, t0=0.0, dt_snap=3600.0, nt=1)
    assert g.dy == pytest.approx(111320.0)
    assert g.dx == pytest.approx(111320.0 * math.cos(math.radians(61.0)))



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
            f._check_space(x, y)
            raised = False
        except ExtentError:
            raised = True
        assert ok == (not raised)
        assert ok == (x in xs[:3] and y in ys[:3])
    # an extent error names the first point outside, x before y
    with pytest.raises(ExtentError, match="x="):
        f._check_space(X, Y)
    assert make_uniform(0.1, 0.0).inside(np.array([-1e300, 1e300]), 0.0).all()


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
