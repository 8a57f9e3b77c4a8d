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
So do the command-line outputs of the ``config`` experiment of conftest.py,
whose bytes a change to how the CLI parses or dispatches must not change.
"""

import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from driftplan.cli import EXIT_OK, main
from driftplan.controllers import ControllerKind
from driftplan.flowfield import SpaceTimeGrid, make_highway
from driftplan.gridio import FLOAT_MAX
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
        # a region that holds every finite position never ends these missions
        anywhere = SimConfig((-FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX), 600.0)
        for i, rec in enumerate(run_batch(missions, truth, spec, anywhere)):
            path = tmp_path / f"{kind}_{i}.csv"
            rec.write_csv(path)
            h.update(path.read_bytes())
            branches = branches - set(rec.branches)
        assert branches == set(), f"{kind} never took {branches}"
        assert h.hexdigest() == digest, kind


#: sha256 of each file that solve, sample-missions --n 4, batch --controllers
#: mtr,floating and stats write for the ``config`` experiment, by path in --out
_CLI_FILES = {
    "batch_summary.json": "28236b9d2d41038cb6b72e8f45dccad58f7d7617f6bede524d614dc7a7c46cc4",
    "floating/mission_0000.csv": "9592beee24731f991c1b508f0eb379fa9904549fa289ed2d81a6e002e1de385c",
    "floating/mission_0001.csv": "5031a3896b0479e143e607d5188b5c272b302d050343e08cb3df17fe6ea2098c",
    "floating/mission_0002.csv": "6f70b3085c2e92fe0a9ebbaa01c4e2b267659fceadf9d3c4222bd0eb27d728d6",
    "floating/mission_0003.csv": "084a878238256153a8cc8024100f3a1003ede01e0f4335bf03ce069344547a22",
    "missions.jsonl": "3758d6aba060172e7292a4d919c69a2605a10419be94109b77c51507291dd8f1",
    "mtr/mission_0000.csv": "af722eb98ea379ac3876eb67d50d7f33a2b686c0d34a2158355bdb3763dd1c9b",
    "mtr/mission_0001.csv": "bd53c7bfd8c7c94f757305d9d57e0577c6ae67a8601779b1740db7b4431386dc",
    "mtr/mission_0002.csv": "ef1b6f198a8d157fd06d7a09ac80fb6969eda28d15431bab67551c5b35358a49",
    "mtr/mission_0003.csv": "c2bb80416fae01fa5f7b3695f82a22961b642171e103526d740e856fce70032c",
    "solve_summary.json": "e866731a0e7893dc84b9a0b7a9241d334d9867d892219bcd85f4cc8fedf74f9f",
    "stats_report.json": "56af3c16286f977d9d28da628c460f51b8aefbc476da91109fe226efcd25be30",
    "ttr.csv": "477588f94fd5ffcc794db3531c968d3d75a86d65daae694713517ea6e81cae58",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_output_bytes(config, workers):
    """Every file that the commands write has its recorded bytes, with one
    mission worker or two."""
    out = config["tmp"] / "out"
    for command, *flags in (["solve"], ["sample-missions", "--n", "4"],
                            ["batch", "--missions", str(out / "missions.jsonl"),
                             "--controllers", "mtr,floating", "--workers", workers],
                            ["stats", "--summary", str(out / "batch_summary.json")]):
        assert main([command, "--config", config["path"], *flags]) == EXIT_OK
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
    assert written == _CLI_FILES
