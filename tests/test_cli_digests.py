"""The set- and super-blocking CLI outputs that no benchmark workload digests.

`test_bench_digests.py` pins `check`, the default `classify`, and
`eliminate --property bc` with its `reconstruct`. This file pins the rest
of what set- and super-blocking print, byte for byte: `classify` (every
property, also with `--k 1 --ext-cap 2`), `eliminate --property
setbc|supbc` with and without `--compact` (residual, trace and exit code),
and `reconstruct` of each trace. Each digest must hold on both routes: the
bit lattice, and the search with every lattice forced to it.

The inputs are the classify-mixed formulas of seeds 1 to 3, small seeded
random formulas with tautologies added, and one `sat2setbc` gadget whose
13-literal clause has 8,191 candidates, past the bit lattices.
"""

import hashlib
from random import Random

import pytest

from blockcheck import Formula, blocking, cli
from blockcheck.cnf import parse_dimacs, write_dimacs
from blockcheck.gen import random_clause, random_formula
from blockcheck.oracle import first_model
from blockcheck.reductions import sat_to_setblocking

from test_bench_digests import bench  # noqa: F401 (the fixture; it imports perfbench read-only)

# input -> output digest
DIGESTS = {
    "classify-mixed-seed1": "7e368489a398be9a",
    "classify-mixed-seed2": "2227012714a00e6c",
    "classify-mixed-seed3": "27e8414536875e33",
    "random": "2aa2349c407c496a",
    "sat2setbc": "31a395d7449fe14f",
}


def random_inputs():
    """Seeded random formulas, each with tautologies added: some with a
    variable no other clause has, some of the form (-v v)."""
    rng = Random(20170838)
    for _ in range(12):
        nvars = rng.randint(7, 9)
        f = random_formula(rng, nvars, rng.randint(14, 26), 4)
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, nvars + 1)
            width = rng.randint(0, 3)
            f.add(random_clause(rng, nvars, width) | (v, -v) if width else (-v, v))
        yield f


def sat2setbc():
    inst = sat_to_setblocking(Formula([(1, 2), (-1, 3), (2, -3), (4, 5), (-5, 6)]))
    f = inst.formula.copy()
    f.add(inst.clause)
    assert len(inst.clause) == 13
    return f


def model_text(residual):
    """A model of a DIMACS formula as `v ... 0` text, the first model of
    each variable-disjoint part of it; None when it has none."""
    parts = []  # (variables, clauses)
    for d in parse_dimacs(residual):
        vs, ds = set(map(abs, d)), [d]
        for part in [p for p in parts if not p[0].isdisjoint(vs)]:
            parts.remove(part)
            vs |= part[0]
            ds += part[1]
        parts.append((vs, ds))
    lits = []
    for _, ds in parts:
        m = first_model(Formula(ds))
        if m is None:
            return None
        lits += m.to_literals()
    return "v %s 0\n" % " ".join(map(str, sorted(lits, key=abs))) if lits else "v 0\n"


def outputs(path, work):
    """Per command on the formula at `path`: its name, exit code and the
    text of each file it wrote."""
    def run(name, *args):
        outs = [work / ("%s.%s" % (name, ext)) for ext in ("out", "trace")]
        argv = [args[0], str(path), *args[1:], "--out", str(outs[0])]
        if args[0] == "eliminate":
            argv += ["--trace", str(outs[1])]
        code = cli.run(argv)
        texts = [p.read_text() if p.exists() else "-" for p in outs]
        yield name, str(code), *texts
        return texts

    yield from run("classify", "classify")
    yield from run("classify-k1", "classify", "--k", "1", "--ext-cap", "2")
    for prop in ("setbc", "supbc"):
        for compact in ((), ("--compact",)):
            name = prop + "".join(compact)
            residual, _ = yield from run(name, "eliminate", "--property", prop, *compact)
            model = model_text(residual)
            if model is None:
                yield name, "unsat"
                continue
            (work / (name + ".model")).write_text(model)
            yield from run(name + ".full", "reconstruct", "--trace", str(work / (name + ".trace")),
                           "--model", str(work / (name + ".model")))


def digest(paths, work):
    h = hashlib.sha256()
    for path in paths:
        for record in outputs(path, work):
            h.update("\0".join(record).encode() + b"\n")
    return h.hexdigest()[:16]


def write(path, f):
    path.write_text(write_dimacs(f))
    return path


def input_paths(name, work, bench):
    if name.startswith("classify-mixed"):
        (classify,), _ = bench.SETUPS["classify-mixed"](int(name[-1]), work)
        return [classify.path]
    if name == "random":
        return [write(work / ("r%d.cnf" % i), f) for i, f in enumerate(random_inputs())]
    return [write(work / "gadget.cnf", sat2setbc())]


@pytest.mark.parametrize("route", ["bits", "search"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(bench, tmp_path, monkeypatch, name, route):
    if route == "search":
        monkeypatch.setattr(blocking, "_BIT_LATTICE", 0)
    assert digest(input_paths(name, tmp_path, bench), tmp_path) == DIGESTS[name]


def test_the_inputs_reach_what_they_are_for():
    fs = list(random_inputs())
    assert sum(c.is_tautology() for f in fs for c in f) >= 12
    assert any(c.is_tautology() and len(c) == 2 for f in fs for c in f)
    # the gadget's clause has no bit lattice with k unbounded
    f = sat2setbc()
    c = f.clauses[-1]
    assert blocking.count_candidate_sets(len(c), len(c)) > blocking._BIT_LATTICE
