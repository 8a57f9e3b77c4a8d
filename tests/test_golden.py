"""Golden outputs, against the reference digests in perfbench/digests.json:
sha256 of solve_mtr values on the benchmark's four fixed scenarios (the
``solve_mtr/*`` entries), and of the first tasks of the ``gyre_drift``
stranding studies and of the ``island_forecast`` and ``gyre_forecast``
closed-loop missions at seed 42. A pure refactor of the solver, of flow
sampling, of the drift stepping or of the mission loop must leave every hash
unchanged.

The hashes are of float64 output. Every forecast error goes through the
``@`` in ``forecast._error_fields``, which runs OpenBLAS's ``dgemv``,
and that kernel's last bits depend on the core type OpenBLAS picks for the
host's CPU. Under ``OPENBLAS_CORETYPE=Prescott`` the ``island_fourier`` solve
digest and both mission digests change on unchanged code, while
``gyre_wall``, which goes through np.sin/np.cos, and the drift digest hold.
The recorded hashes are those of an AVX-512 host with OpenBLAS's default
kernel and numpy 2.4.6; on a host where OpenBLAS picks another kernel, the
tests that draw a forecast error can fail on unchanged code. They do not
depend on scipy, which the package no longer imports: the obstacle
clearance and the distance map come from numpy transforms in ``gridio``.

The benchmark's missions run only ``mtr``, ``mtr_no_obs`` and ``floating``;
the switching and small-disturbance kinds have their own mission digests
here, on the highway and wall with perfect forecasts, which take no ``@``.
"""

import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

from driftplan.controllers import ControllerKind
from driftplan.flowfield import SpaceTimeGrid, make_highway
from driftplan.hjsolver import SolverConfig, TargetSpec
from driftplan.simulator import BatchSpec, Mission, SimConfig, run_batch
from driftplan.terrain import ObstacleMask, SpatialGrid, distance_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _digests():
    return json.loads((PERFBENCH / "digests.json").read_text())


def _golden():
    digests = _digests()
    prefix = "solve_mtr/"
    return {k[len(prefix):]: v for k, v in digests.items() if k.startswith(prefix)}


def _scenarios():
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", PERFBENCH / "scenarios.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_solve_digests_match_golden():
    golden = _golden()
    assert len(golden) == 4
    assert _scenarios().solve_digests() == golden


def _first_tasks_digest(scenarios, name):
    """The digest of a workload's first ``trace_tasks`` tasks at seed 42, the
    tasks every benchmark run digests, once its own output checks pass."""
    workload = scenarios.WORKLOADS[name]
    scen = workload.setup(42)
    results = [workload.task(scen, i, time.perf_counter) for i in range(workload.trace_tasks)]
    assert all(r.failed == 0 for r in results)
    assert workload.check(scen, results) == []
    return workload.digest(results)


def test_drift_digests_match_golden(tmp_path, monkeypatch):
    # the studies sample a flow file written to and read back from OUT_DIR
    scenarios = _scenarios()
    monkeypatch.setattr(scenarios, "OUT_DIR", str(tmp_path))
    assert _first_tasks_digest(scenarios, "gyre_drift") == _digests()["gyre_drift/seed42"]


def test_mission_digests_match_golden():
    # closed-loop missions on a uniform truth: the scalar sample with
    # clamp_time in every RK4 stage, and the release sampler in every solve
    digest = _first_tasks_digest(_scenarios(), "island_forecast")
    assert digest == _digests()["island_forecast/seed42"]


def test_gyre_mission_digests_match_golden():
    # closed-loop missions on the unsteady gyre: the scalar gyre sample in
    # every RK4 stage, which no other golden test takes
    digest = _first_tasks_digest(_scenarios(), "gyre_forecast")
    assert digest == _digests()["gyre_forecast/seed42"]


#: sha256 of each kind's four mission CSVs, in mission order, and the
#: branches its records take
_WALL_MISSIONS = {
    "switch_mtr": ("da6ecba02f170b9d831936ee75b93b9659126b5fe2fbcde168f17fd1e39e7daf",
                   {"plan", "safety", "doomed"}),
    "switch_mtr_no_obs": ("ae676148b4241794b74cacd48b89aa62ef717f7eba4415ae5cb868b31fb1f3d3",
                          {"plan", "safety"}),
    "smalldist_mtr": ("2518a65a563cc4accfceabb56cc673d284ca621675ec4457b7a63f54db134fd6",
                      {"plan", "doomed"}),
}


def test_switching_and_small_disturbance_mission_digests(tmp_path):
    """Missions on a 0.4 m/s band (y 4-6 km) that runs east into a wall (x >=
    8.6 km): a start west of the band, one in the band 600 m from the wall,
    which the obstacle-aware plans mark as lost, one north of the band, and
    one in still water 400 m from the wall, inside the 500 m threshold."""
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, _ = g.meshgrid()
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51), mask=X >= 8600.0)
    target = TargetSpec((2000.0, 2000.0), 300.0)
    missions = [Mission(x, y, 0.0, target, 90000.0)
                for x, y in ((1000.0, 5000.0), (8000.0, 5000.0), (7000.0, 8000.0), (8200.0, 1000.0))]
    for kind, (digest, branches) in _WALL_MISSIONS.items():
        spec = BatchSpec(kind=ControllerKind(kind), solver_config=SolverConfig(grid=g, u_max=0.1),
                         obstacles=om, dmap=distance_map(om), switch_threshold=500.0,
                         cadence=30000.0, horizon=90000.0)
        h = hashlib.sha256()
        for i, rec in enumerate(run_batch(missions, truth, spec, SimConfig(step_dt=600.0))):
            path = tmp_path / f"{kind}_{i}.csv"
            rec.write_csv(path)
            h.update(path.read_bytes())
            branches = branches - set(rec.branches)
        assert branches == set(), f"{kind} never took {branches}"
        assert h.hexdigest() == digest, kind
