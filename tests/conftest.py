import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from driftplan.flowfield import SpaceTimeGrid
from driftplan.terrain import ObstacleMask, SpatialGrid

# in CI the property tests draw their examples from each test's name alone,
# with no example database, so a change and its parent draw the same ones
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def small_grid():
    """51x51 desk-scale grid, 200 m spacing, 10 km square domain."""
    return SpaceTimeGrid(x0=0.0, y0=0.0, dx=200.0, dy=200.0,
                         nx=51, ny=51, t0=0.0, dt_snap=3000.0, nt=31)


@pytest.fixture
def island_mask(small_grid):
    """Rectangular island in the middle of the small grid."""
    g = small_grid
    X, Y = g.meshgrid()
    mask = (X >= 3000) & (X <= 7000) & (Y >= 4600) & (Y <= 5400)
    return ObstacleMask(
        grid=SpatialGrid(g.x0, g.y0, g.dx, g.dy, g.nx, g.ny), mask=mask
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def config(tmp_path):
    """A small self-contained experiment: band flow onto a coastal wall."""
    cfg = {
        "seed": 7,
        "out": str(tmp_path / "out"),
        "scenario": {
            "flow": {"kind": "highway", "y1": 4000.0, "y2": 6000.0,
                     "band_velocity": [0.4, 0.0]},
            "terrain": {
                "kind": "synthetic",
                "grid": {"x0": 0, "y0": 0, "dx": 200.0, "dy": 200.0,
                         "nx": 51, "ny": 51},
                "base_elevation": -4000.0,
                "blocks": [[8600.0, 10000.0, 0.0, 10000.0, 0.0]],
            },
            "region": [0.0, 10000.0, 0.0, 10000.0],
        },
        "solver": {"dt_snap": 3000.0, "u_max": 0.1},
        "sim": {"step_dt": 600.0},
        "forecast": {"target_rmse": 0.0, "cadence": 30000.0,
                     "horizon": 90000.0},
        "solve": {"target_center": [2000.0, 2000.0], "target_radius": 300.0,
                  "t_start": 0.0, "terminal_time": 90000.0},
        "missions": {
            "min_boundary_dist": 1000.0,
            "min_obstacle_dist": 1500.0,
            "max_obstacle_dist": 9000.0,
            "target_radius": 300.0,
            "ttr_window": [10000.0, 80000.0],
            "final_time_horizon": [80000.0, 90000.0],
            "t_max": 90000.0,
        },
        "controllers": ["mtr", "floating"],
        "baseline": "floating",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return dict(path=str(path), out=str(tmp_path / "out"), raw=cfg,
                tmp=tmp_path)


@pytest.fixture
def run_script():
    """Run a Python script in a subprocess on this checkout's ``src``, and
    return its CompletedProcess. A script that has not ended within
    ``timeout`` seconds fails the test then, for code that might not return."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(script, *args, timeout=30):
        try:
            return subprocess.run([sys.executable, "-c", script, *args], env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            pytest.fail(f"the script did not return within {timeout} s")

    return run
