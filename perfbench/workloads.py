"""The benchmark's workloads: seeded inputs, timed CLI calls, output checks.

Each workload's `setup` generates its inputs from the seed, writes them to
files and computes ground truth with the package's oracles. It returns the
operations of one round. An operation times only its `blockcheck.cli.run`
calls; reading and checking the outputs happens outside the timed region,
with the benchmark's own DIMACS reader and clause evaluator, so a defect in
the package's parser or evaluator cannot hide a wrong answer.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from blockcheck import cli, gen, oracle, reductions
from blockcheck.cnf import Formula
from blockcheck.varelim import QbfInstance

PROPERTIES = ("t", "s", "bc", "setbc", "supbc", "at", "as", "abc", "rt", "rs", "rat", "ras")

# Implications every classify row must satisfy (README hierarchy): a "yes"
# on the left forces one of the cells on the right.
HIERARCHY = (
    ("bc", "setbc", ("yes",)),
    ("setbc", "supbc", ("yes", "cap")),
    ("t", "at", ("yes",)),
    ("s", "as", ("yes",)),
    ("t", "rt", ("yes",)),
    ("s", "rs", ("yes",)),
    ("at", "rat", ("yes",)),
    ("as", "ras", ("yes",)),
)

# Seed of the classify-mixed formula's shape; --seed only scrambles it.
SHAPE_SEED = 20170217

VERDICT_CODES = {"BLOCKED": 0, "NOT-BLOCKED": 1, "UNKNOWN": 2}

Runner = Callable[[list], "tuple[int, str, float]"]


def run_cli(argv: list) -> "tuple[int, str, float]":
    """Run one CLI command in this process: exit code, stdout, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run([str(a) for a in argv])
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


@dataclass
class Outcome:
    """One operation's result: CLI seconds, what was wrong, output digest.

    `seconds` is None when a CLI call raised instead of returning.
    """

    seconds: "float | None"
    error: "str | None"
    digest: str
    decided: int = 1
    units: int = 1


def _digest(*parts: "str | bytes") -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- the benchmark's own DIMACS reading, writing and evaluation ---------------


def write_cnf(path: Path, clauses, nvars: int) -> None:
    lines = ["p cnf %d %d" % (nvars, len(clauses))]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    path.write_text("\n".join(lines) + "\n")


def read_cnf(text: str) -> "list[frozenset[int]]":
    out, pending = [], []
    for line in text.splitlines():
        if not line or line[0] in "cp":
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                pending.append(lit)
            else:
                out.append(frozenset(pending))
                pending = []
    if pending:
        raise ValueError("unterminated clause")
    return out


def read_model(text: str) -> "dict[int, bool]":
    toks = text.split()
    if not toks or toks[0] != "v" or toks[-1] != "0":
        raise ValueError("malformed model")
    return {abs(int(t)): int(t) > 0 for t in toks[1:-1]}


def falsified(clauses, model: "dict[int, bool]"):
    """The first clause no literal of which is true under model, or None."""
    for c in clauses:
        if not any(model.get(abs(l), False) == (l > 0) for l in c):
            return c
    return None


def forall_exists_true(universals, existentials, matrix) -> bool:
    """Evaluate ∀X∃Y matrix with one bit set per universal assignment.

    The oracle's enumeration is capped at 20 variables; this evaluator
    handles the 17–18 universals of the cap group in a few big-integer
    operations per existential assignment. Bit a of a set stands for the
    universal assignment whose i-th variable is bit i of a.
    """
    xs = sorted(universals)
    ys = sorted(existentials)
    size = 1 << len(xs)
    full = (1 << size) - 1
    true_at = {}
    for i, v in enumerate(xs):
        period = 1 << (i + 1)
        block = ((1 << (period // 2)) - 1) << (period // 2)
        true_at[v] = block * (full // ((1 << period) - 1))
    clauses = [tuple(c) for c in matrix]
    covered = 0
    for ym in range(1 << len(ys)):
        yval = {v: bool(ym >> j & 1) for j, v in enumerate(ys)}
        ok = full
        for c in clauses:
            if any(abs(l) in yval and yval[abs(l)] == (l > 0) for l in c):
                continue
            cl = 0
            for l in c:
                if abs(l) in true_at:
                    cl |= true_at[l] if l > 0 else full ^ true_at[-l]
            ok &= cl
            if not ok:
                break
        covered |= ok
        if covered == full:
            return True
    return False


# -- input generation ---------------------------------------------------------


def planted_clauses(rng: Random, nvars: int, widths, model) -> "list[tuple[int, ...]]":
    """Distinct random clauses of the given widths, each satisfied by model.

    A clause the planted model falsifies gets one literal flipped, so the
    formula is satisfiable and model witnesses it.
    """
    seen, out = set(), []
    for w in widths:
        while True:
            lits = list(gen.random_clause(rng, nvars, w))
            if not any(model[abs(l)] == (l > 0) for l in lits):
                j = rng.randrange(len(lits))
                lits[j] = -lits[j]
            key = frozenset(lits)
            if key not in seen:
                break
        seen.add(key)
        out.append(tuple(lits))
    return out


def random_model(rng: Random, nvars: int) -> "dict[int, bool]":
    return {v: rng.random() < 0.5 for v in range(1, nvars + 1)}


# -- bce-3cnf ----------------------------------------------------------------


class Pipeline:
    """eliminate --property bc, then reconstruct from the planted model."""

    def __init__(self, work: Path, clauses, planted):
        self.work = work
        self.clauses = clauses
        self.clause_set = frozenset(frozenset(c) for c in clauses)
        self.planted = planted

    def __call__(self, run: Runner) -> Outcome:
        w = self.work
        code, _, t_elim = run(["eliminate", w / "f.cnf", "--property", "bc",
                               "--out", w / "residual.cnf", "--trace", w / "steps.trace"])
        if code != 0:
            return Outcome(t_elim, "eliminate exited %d" % code, "")
        residual_text = (w / "residual.cnf").read_text()
        residual = read_cnf(residual_text)
        if not set(residual) <= self.clause_set:
            return Outcome(t_elim, "residual is not a subset of the input", "")
        # The planted model restricted to the residual's variables; every
        # other variable defaults to false, so reconstruct has to repair.
        kept = sorted({abs(l) for c in residual for l in c})
        model = " ".join(str(v if self.planted[v] else -v) for v in kept)
        (w / "residual.model").write_text("v %s 0\n" % model if model else "v 0\n")
        code, _, t_rec = run(["reconstruct", w / "f.cnf", "--trace", w / "steps.trace",
                              "--model", w / "residual.model", "--out", w / "full.model"])
        seconds = t_elim + t_rec
        if code != 0:
            return Outcome(seconds, "reconstruct exited %d" % code, "")
        model_text = (w / "full.model").read_text()
        bad = falsified(self.clauses, read_model(model_text))
        if bad is not None:
            return Outcome(seconds, "repaired model falsifies %s" % sorted(bad), "")
        return Outcome(seconds, None,
                       _digest(residual_text, (w / "steps.trace").read_text(), model_text))


def setup_bce(seed: int, work: Path, scale: float = 1.0):
    """One planted random 3-CNF at clause/variable ratio 2."""
    rng = Random(seed)
    nvars = max(8, int(10000 * scale))
    planted = random_model(rng, nvars)
    clauses = planted_clauses(rng, nvars, [3] * (2 * nvars), planted)
    write_cnf(work / "f.cnf", clauses, nvars)
    return [Pipeline(work, clauses, planted)], [work / "f.cnf"]


# -- classify-mixed ----------------------------------------------------------


class Classify:
    """classify with all properties; every row must respect the hierarchy."""

    def __init__(self, path: Path, clauses):
        self.path = path
        self.clause_set = frozenset(frozenset(c) for c in clauses)

    def __call__(self, run: Runner) -> Outcome:
        out = self.path.with_suffix(".tsv")
        code, _, seconds = run(["classify", self.path, "--out", out])
        if code != 0:
            return Outcome(seconds, "classify exited %d" % code, "")
        text = out.read_text()
        lines = text.splitlines()
        if not lines or lines[0].split("\t") != ["clause", *PROPERTIES]:
            return Outcome(seconds, "unexpected TSV header", "")
        rows, cells, decided = [], 0, 0
        for line in lines[1:]:
            head, *row = line.split("\t")
            if len(row) != len(PROPERTIES) or any(v not in ("yes", "no", "cap") for v in row):
                return Outcome(seconds, "malformed TSV row %r" % line, "")
            cell = dict(zip(PROPERTIES, row))
            for lo, hi, allowed in HIERARCHY:
                if cell[lo] == "yes" and cell[hi] not in allowed:
                    return Outcome(seconds, "row %r: %s=yes but %s=%s" % (head, lo, hi, cell[hi]), "")
            if cell["rt"] != cell["bc"]:
                return Outcome(seconds, "row %r: rt differs from bc" % head, "")
            rows.append(read_cnf(head)[0])
            cells += len(row)
            decided += sum(v != "cap" for v in row)
        if len(rows) != len(self.clause_set) or set(rows) != self.clause_set:
            return Outcome(seconds, "TSV rows do not match the formula's clauses", "")
        return Outcome(seconds, None, _digest(text), decided, cells)


def setup_classify(seed: int, work: Path, scale: float = 1.0):
    """One planted mixed-width (1–4) formula of 200 clauses, scrambled by seed.

    The formula's shape is drawn once, from a fixed seed: eight blocks that
    share no variable, each with 25 planted clauses over 10 variables and
    the widths in equal shares. The seed then renames the variables, flips
    their polarities and shuffles the clauses. Fresh random formulas of this
    size differ in classify cost by 15–30% from draw to draw, which would
    swamp any bound; a scrambled copy keeps the checkers' work the same
    while the input file differs from seed to seed.
    """
    shape = Random(SHAPE_SEED)
    clauses, nvars = [], 10 * max(1, round(8 * scale))
    for offset in range(0, nvars, 10):
        planted = random_model(shape, 10)
        widths = [1 + j % 4 for j in range(25)]
        shape.shuffle(widths)
        clauses += [tuple(l + offset if l > 0 else l - offset for l in c)
                    for c in planted_clauses(shape, 10, widths, planted)]
    rng = Random(seed)
    rename = list(range(1, nvars + 1))
    rng.shuffle(rename)
    sign = [1 if rng.random() < 0.5 else -1 for _ in range(nvars)]
    clauses = [tuple((1 if l > 0 else -1) * sign[abs(l) - 1] * rename[abs(l) - 1] for l in c)
               for c in clauses]
    rng.shuffle(clauses)
    path = work / "mixed.cnf"
    write_cnf(path, clauses, nvars)
    return [Classify(path, clauses)], [path]


# -- supbc-gadgets -----------------------------------------------------------


class Question:
    """One `check` call on a reduction gadget with a known answer.

    `blocked` is the truth from the oracle; an UNKNOWN answer is undecided,
    not wrong.
    """

    def __init__(self, path: Path, clause, prop: str, k: "int | None", blocked: bool):
        self.argv = ["check", path, "--property", prop,
                     "--clause", " ".join(map(str, clause)) + " 0"]
        if k is not None:
            self.argv += ["--k", k]
        self.blocked = blocked

    def __call__(self, run: Runner) -> Outcome:
        code, out, seconds = run(self.argv)
        words = out.split()
        verdict = words[0] if words else ""
        if verdict not in VERDICT_CODES:
            return Outcome(seconds, "unrecognized answer %r" % out[:40], "", 0)
        if code != VERDICT_CODES[verdict]:
            return Outcome(seconds, "%s with exit code %d" % (verdict, code), "", 0)
        if verdict == "UNKNOWN":
            return Outcome(seconds, None, _digest(out), 0)
        if (verdict == "BLOCKED") != self.blocked:
            return Outcome(seconds, "answered %s, truth is %s" % (
                verdict, "BLOCKED" if self.blocked else "NOT-BLOCKED"), "")
        return Outcome(seconds, None, _digest(out))


def _random_3cnf(rng: Random, nvars: int, nclauses: int) -> Formula:
    return Formula(gen.random_clause(rng, nvars, 3) for _ in range(nclauses))


def _random_forall_exists(rng: Random, nx: int, ny: int, nclauses: int) -> QbfInstance:
    """∀X∃Y with every variable of X used and an existential in every clause."""
    xs, ys = list(range(1, nx + 1)), list(range(nx + 1, nx + ny + 1))

    def sign(v):
        return v if rng.random() < 0.5 else -v

    clauses = []
    for i in range(nclauses):
        picked = rng.sample(xs, min(2, nx))
        if i < nx and xs[i] not in picked:
            picked[0] = xs[i]
        clauses.append([sign(v) for v in picked] + [sign(rng.choice(ys))])
    return QbfInstance(frozenset(xs), frozenset(ys), Formula(clauses))


def _write_instance(work: Path, name: str, inst) -> Path:
    path = work / (name + ".cnf")
    clauses = [c.literals for c in inst.formula]
    write_cnf(path, clauses, max((abs(l) for c in clauses for l in c), default=0))
    return path


def _balanced(rng: Random, count: int, draw):
    """count/2 instances whose truth is True and count/2 whose truth is False.

    Equal shares keep the latency mix the same for every seed: a refuted
    question stops at its first failing restriction, a blocked one scans
    them all.
    """
    want = {True: count // 2, False: count - count // 2}
    out = []
    while want[True] or want[False]:
        source, truth = draw(rng)
        if want[truth]:
            want[truth] -= 1
            out.append((source, truth))
    return out


def setup_gadgets(seed: int, work: Path, scale: float = 1.0):
    """The paper's reductions, with each question's answer from an oracle."""
    rng = Random(seed)
    n = max(2, int(50 * scale))
    ops, paths = [], []

    def add(name, inst, prop, k, blocked):
        path = _write_instance(work, name, inst)
        ops.append(Question(path, inst.clause.literals, prop, k, blocked))
        paths.append(path)

    # F unsatisfiable ⟺ the gadget clause is 1-super-blocked.
    def unsat_source(r):
        f = _random_3cnf(r, 8, 34)
        return f, not oracle.is_satisfiable(f)

    for i, (f, unsat) in enumerate(_balanced(rng, n + n // 5, unsat_source)):
        add("unsat%d" % i, reductions.unsat_to_1superblocking(f), "supbc", 1, unsat)

    # ∀X∃Y true ⟺ the gadget clause is super-blocked; X becomes external.
    # About 1 in 100 of these matrices is true, so this group is not
    # balanced. It is the largest, so that the median question is a quick
    # refutation, while p90 falls among the full scans of the first group.
    for i in range(3 * n):
        nx = rng.randint(6, 9)
        q = _random_forall_exists(rng, nx, 3, nx + rng.randint(2, 6))
        add("qbf%d" % i, reductions.forall_exists_to_superblocking(q), "supbc", None,
            oracle.eval_forall_exists(q))

    # F satisfiable ⟺ the gadget clause is set-blocked.
    def sat_source(r):
        f = _random_3cnf(r, 5, 21)
        return f, oracle.is_satisfiable(f)

    for i, (f, sat) in enumerate(_balanced(rng, n, sat_source)):
        add("sat%d" % i, reductions.sat_to_setblocking(f), "setbc", None, sat)

    # 17–18 external variables: past the default --ext-cap of 16, so the
    # restriction scan refuses and the answer is UNKNOWN unless the clause
    # is set-blocked outright.
    for i in range(max(1, n // 8)):
        nx = 17 + i % 2
        q = _random_forall_exists(rng, nx, 3, nx + 4)
        true = forall_exists_true(q.universals, q.existentials, q.matrix)
        add("cap%d" % i, reductions.forall_exists_to_superblocking(q), "supbc", None, true)
    return ops, paths


SETUPS = {
    "bce-3cnf": setup_bce,
    "classify-mixed": setup_classify,
    "supbc-gadgets": setup_gadgets,
}
