"""Every benchmark workload must keep its output byte for byte.

`perfbench/bench.py` digests every verdict, witness, trace, TSV and model
text its operations print. Those digests are pinned here, one round per
workload and seed, so a refactor that changes any output fails Tier-1
and not only a benchmark run. A change that means to alter an output
updates the digest it names here, and says why.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# workload -> output digest per seed 1, 2, 3
DIGESTS = {
    "bce-3cnf": ("b7d72849aa274780", "b16386f1d4bb0a88", "61553b0b38998696"),
    "classify-mixed": ("b353866c3441b2c9", "086482f9b68240f9", "f208a0d1b9e31fec"),
    "supbc-gadgets": ("315e3fe832597032", "254aa5bb60a0c32c", "a590e82906a18ae0"),
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


@pytest.mark.parametrize("workload, seed", [
    pytest.param(w, seed, id=w if seed == 1 else "%s-seed%d" % (w, seed))
    for w in sorted(DIGESTS) for seed in (1, 2, 3)
])
def test_output_digest(bench, workload, seed, tmp_path):
    result, info = bench.measure(workload, seed, 0.0, False, tmp_path, scale=1.0)
    assert result["failed"] == 0
    assert info["output_digest"] == DIGESTS[workload][seed - 1]
