"""Golden outputs: sha256 of solve_mtr values on the benchmark's four fixed
scenarios, against the ``solve_mtr/*`` entries of perfbench/digests.json.
A pure refactor of the solver or of flow sampling must leave every hash
unchanged.

The hashes are of float64 output, and the double-gyre scenario goes through
np.sin/np.cos, whose last bits depend on numpy's SIMD path for the host's
CPU. The recorded hashes are those of an AVX-512 host; on a host where
numpy takes another sin/cos path, this test can fail on unchanged code.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _golden():
    digests = json.loads((PERFBENCH / "digests.json").read_text())
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
