"""Golden outputs, against the reference digests in perfbench/digests.json:
sha256 of solve_mtr values on the benchmark's four fixed scenarios (the
``solve_mtr/*`` entries), and of the first stranding studies of the
``gyre_drift`` workload at seed 42. A pure refactor of the solver, of flow
sampling or of the drift stepping must leave every hash unchanged.

The solve hashes are of float64 output, and the double-gyre scenarios go
through np.sin/np.cos, whose last bits depend on numpy's SIMD path for the
host's CPU; the drift study samples an OFG1 file written from that gyre. The
recorded hashes are those of an AVX-512 host; on a host where numpy takes
another sin/cos path, these tests can fail on unchanged code.
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


def test_drift_digests_match_golden(tmp_path, monkeypatch):
    # the studies the benchmark digests: its first tasks at seed 42, on a
    # flow file written to and read back from OUT_DIR
    scenarios = _scenarios()
    monkeypatch.setattr(scenarios, "OUT_DIR", str(tmp_path))
    workload = scenarios.WORKLOADS["gyre_drift"]
    assert workload.trace_tasks == 3
    scen = workload.setup(42)
    results = [workload.task(scen, i, time.perf_counter) for i in range(3)]
    assert all(r.failed == 0 for r in results)
    assert workload.check(scen, results) == []
    assert workload.digest(results) == _digests()["gyre_drift/seed42"]
