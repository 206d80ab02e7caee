"""Every benchmark workload must keep its output byte for byte.

`perfbench/bench.py` digests every verdict, witness, trace, TSV and model
text its operations print. Those digests are pinned here, one seeded
round per workload, so a refactor that changes any output fails Tier-1
and not only a benchmark run. A change that means to alter an output
updates the digest it names here, and says why.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    "bce-3cnf": "b7d72849aa274780",
    "classify-mixed": "b353866c3441b2c9",
    "supbc-gadgets": "315e3fe832597032",
}


@pytest.fixture(scope="module")
def bench():
    # bench.py imports its sibling modules by their bare names; no
    # bytecode is written next to them
    before = set(sys.modules)
    quiet = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = quiet
        for name in set(sys.modules) - before:
            if name in ("bench", "tracing", "workloads"):
                del sys.modules[name]


def test_every_workload_is_pinned(bench):
    assert sorted(bench.SETUPS) == sorted(DIGESTS)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_output_digest(bench, workload, tmp_path):
    result, info = bench.measure(workload, 1, 0.0, False, tmp_path, scale=1.0)
    assert result["failed"] == 0
    assert info["output_digest"] == DIGESTS[workload]
