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
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

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
