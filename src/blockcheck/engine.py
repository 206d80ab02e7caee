"""Clause elimination to fixpoint, replayable traces, and model repair.

The engine repeatedly scans the formula with one redundancy checker and
removes whatever it marks. After each removal the clauses whose resolution
environment contained the removed one are queued for the next pass; a pass
that removes nothing ends the run.

Whether a clause is blocked depends only on its resolution environment, so
the engine remembers, per clause, which of its literals were touched since
its last refuted check (answer no, or a cap): removing D touches literal
-m of every clause holding -m, for each m in D. A queued clause with no
touched literal is skipped, which is exact for every property. Tautology
reads only the clause, and the blocking checks read only its environment,
which is unchanged. Subsumption, the asymmetric checks, asymmetric blocking
and the lifted checks can only go from yes to no when clauses outside the
environment are removed (fewer clauses imply less), so a no stays a no. A
literal-blocking recheck tries only the touched literals, in canonical
order: an untouched literal was refuted and still has the same clauses to
resolve with, so the first blocking literal, and with it the trace, is
the one a full check finds (Järvisalo, Biere and Heule, "Blocked Clause
Elimination", TACAS 2010).

Every removal is logged with the property tag and the witness the checker
produced, in removal order. That trace is enough to repair models: given an
assignment satisfying the simplified formula, walking the trace backwards
and, whenever a removed clause comes out falsified, making its witness
literals true, yields an assignment satisfying the original formula. The
implied-style properties (tautology, subsumption and their asymmetric
variants, and the direct branch of the lifted checks) need no repair at
all — a falsified clause there means the trace does not belong to the
formula, which is reported instead of papered over.

Super-blocking witnesses can be bulky (one blocking set per external
assignment), so traces optionally store them compactly and the repair step
recomputes the needed set against the replayed formula state; both paths
produce identical repairs, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .asymmetric import BASES, ala_closure, is_AS, is_AT, is_subsumed, r_lift_witness
from .blocking import (
    BlockingWitness,
    is_literal_blocked,
    is_set_blocked,
    is_super_blocked,
)
from .cnf import (
    Assignment,
    Clause,
    Formula,
    external_variables,
    numbered_lines,
    read_literals,
    restrict,
)
from .errors import CapExceeded, ParseError, ReconstructionError

PROPERTIES: tuple[str, ...] = (
    "t", "s", "bc", "setbc", "supbc", "at", "as", "abc", "rt", "rs", "rat", "ras",
)


def _check_t(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    return c.is_tautology(), None


def _check_s(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    return is_subsumed(g, c), None


def _check_bc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    w = is_literal_blocked(g, c, touched)
    return w is not None, w


def _check_setbc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    w = is_set_blocked(g, c, cfg.k)
    return w is not None, w


def _check_supbc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    w = is_super_blocked(g, c, cfg.k, cfg.ext_cap)
    if w is not None and w.kind == "super" and cfg.compact_witnesses:
        w = BlockingWitness(kind="super", per_tau=None)
    return w is not None, w


def _check_at(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    return is_AT(g, c), None


def _check_as(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    return is_AS(g, c), None


def _check_abc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    closure = ala_closure(g, c, stop_at_tautology=True)
    if closure.is_tautology():
        # Tautological closure means the clause is implied by the rest of
        # the formula; it can never be falsified at repair time. Every
        # resolvent of it is tautological too, so it is blocked whatever
        # the rest of the saturation would add.
        return True, None
    w = is_literal_blocked(g, closure)
    if w is None:
        return False, None
    # For a non-tautological closure the blocking literal necessarily lies
    # in c itself (an added literal's own donor defeats it), so flipping it
    # is a valid repair.
    return True, w


def _lift_check(base_key: str):
    def check(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
        ok, lit = r_lift_witness(BASES[base_key], g, c)
        w = BlockingWitness(kind="literal", literal=lit) if lit is not None else None
        return ok, w

    return check


# check(g, c, cfg, touched) -> (verdict, witness). `touched` is None for a
# first check; on a recheck it holds the literals of c whose environment
# (the clauses with their complement) lost a clause since c was refuted.
# Only the literal-blocking check uses it, to try just those literals.
_CHECKS: dict[str, Callable] = {
    "t": _check_t,
    "s": _check_s,
    "bc": _check_bc,
    "setbc": _check_setbc,
    "supbc": _check_supbc,
    "at": _check_at,
    "as": _check_as,
    "abc": _check_abc,
    "rt": _lift_check("t"),
    "rs": _lift_check("s"),
    "rat": _lift_check("at"),
    "ras": _lift_check("as"),
}

_ORDERS = ("ascending-id", "descending-length")

# the touched-literal entry of a refuted clause nothing has touched since;
# shared, so refuting a clause allocates nothing
_UNTOUCHED: frozenset[int] = frozenset()


@dataclass(frozen=True)
class EliminationConfig:
    property: str = "bc"
    k: int | None = None
    ext_cap: int = 16
    clause_order: str = "ascending-id"
    rounds_cap: int = 1000
    compact_witnesses: bool = False

    def __post_init__(self):
        if self.property not in _CHECKS:
            raise ValueError("unknown property %r" % (self.property,))
        if self.clause_order not in _ORDERS:
            raise ValueError("unknown clause order %r" % (self.clause_order,))
        if self.rounds_cap < 1:
            raise ValueError("rounds cap must be positive")
        if self.ext_cap < 0:
            raise ValueError("external-variable cap must be non-negative")
        if self.k is not None and self.k < 1:
            raise ValueError("blocking-set bound must be positive")


def check_property(f: Formula, c: Clause, cfg: EliminationConfig) -> tuple[bool, BlockingWitness | None]:
    """One property check, as the elimination loop would run it."""
    return _CHECKS[cfg.property](f, c, cfg)


@dataclass(frozen=True)
class TraceEntry:
    clause: Clause
    tag: str
    witness: BlockingWitness | None


@dataclass
class EliminationTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    skipped: list[tuple[Clause, str]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["t blockcheck 1"]
        for e in self.entries:
            w = e.witness
            if w is None or w.kind == "super":
                wpart = "0"
            elif w.kind == "literal":
                wpart = "%d 0" % (w.literal,)
            else:
                wpart = w.blocking_set.dimacs()
            lines.append("d %s %s w %s" % (e.tag, e.clause.dimacs(), wpart))
            if w is not None and w.kind == "super" and w.per_tau is not None:
                for tau in sorted(w.per_tau, key=lambda a: a.to_literals()):
                    tlits = " ".join(str(l) for l in tau.to_literals())
                    head = "wt %s 0 " % (tlits,) if tlits else "wt 0 "
                    lines.append(head + w.per_tau[tau].dimacs())
        for clause, reason in self.skipped:
            lines.append(("x %s %s" % (clause.dimacs(), reason)).rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EliminationTrace":
        entries: list[TraceEntry] = []
        skipped: list[tuple[Clause, str]] = []
        pending: "dict | None" = None
        header_seen = False

        def finalize() -> None:
            nonlocal pending
            if pending is not None:
                per = pending["per_tau"]
                w = BlockingWitness(kind="super", per_tau=per if per else None)
                entries.append(TraceEntry(pending["clause"], "supbc", w))
                pending = None

        lineno = 1
        for lineno, line in numbered_lines(text):
            if not header_seen:
                if line != "t blockcheck 1":
                    raise ParseError("line %d: unrecognized trace header: %r" % (lineno, line))
                header_seen = True
                continue
            toks = line.split()
            if toks[0] == "d":
                finalize()
                if len(toks) < 2:
                    raise ParseError("line %d: truncated trace line: %r" % (lineno, line))
                tag = toks[1]
                if tag not in _CHECKS:
                    raise ParseError("line %d: unknown property tag %r" % (lineno, tag))
                clause_lits, i = _terminated_literals(toks, 2, lineno)
                if i == len(toks) or toks[i] != "w":
                    raise ParseError("line %d: missing witness section: %r" % (lineno, line))
                wlits, i = _terminated_literals(toks, i + 1, lineno)
                if i != len(toks):
                    raise ParseError("line %d: trailing tokens on trace line: %r" % (lineno, line))
                clause = Clause(clause_lits)
                if tag == "supbc":
                    if wlits:
                        w = BlockingWitness(kind="set", blocking_set=Clause(wlits))
                        entries.append(TraceEntry(clause, tag, w))
                    else:
                        pending = {"clause": clause, "per_tau": {}}
                elif tag == "setbc":
                    if not wlits:
                        raise ParseError("line %d: set-blocking entry without a witness" % lineno)
                    w = BlockingWitness(kind="set", blocking_set=Clause(wlits))
                    entries.append(TraceEntry(clause, tag, w))
                elif tag == "bc":
                    if len(wlits) != 1:
                        raise ParseError("line %d: literal-blocking entry needs one witness" % lineno)
                    entries.append(TraceEntry(clause, tag, BlockingWitness(kind="literal", literal=wlits[0])))
                elif tag in ("t", "s", "at", "as"):
                    if wlits:
                        raise ParseError("line %d: unexpected witness for %r" % (lineno, tag))
                    entries.append(TraceEntry(clause, tag, None))
                else:
                    if len(wlits) > 1:
                        raise ParseError("line %d: at most one witness literal allowed" % lineno)
                    w = BlockingWitness(kind="literal", literal=wlits[0]) if wlits else None
                    entries.append(TraceEntry(clause, tag, w))
            elif toks[0] == "wt":
                if pending is None:
                    raise ParseError("line %d: restriction line outside a supbc entry" % lineno)
                tlits, i = _terminated_literals(toks, 1, lineno)
                slits, i = _terminated_literals(toks, i, lineno)
                if i != len(toks):
                    raise ParseError("line %d: trailing tokens on trace line: %r" % (lineno, line))
                try:
                    tau = Assignment.from_literals(tlits)
                except ValueError as exc:
                    raise ParseError("line %d: %s" % (lineno, exc)) from exc
                per = pending["per_tau"]
                if tau in per:
                    raise ParseError("line %d: second restriction line for one assignment" % lineno)
                if per and tau.variables() != next(iter(per)).variables():
                    raise ParseError("line %d: restriction over other variables than the first" % lineno)
                per[tau] = Clause(slits)
            elif toks[0] == "x":
                finalize()
                lits, i = _terminated_literals(toks, 1, lineno)
                skipped.append((Clause(lits), " ".join(toks[i:])))
            else:
                raise ParseError("line %d: unrecognized trace line: %r" % (lineno, line))
        if not header_seen:
            raise ParseError("line %d: empty trace" % lineno)
        finalize()
        return cls(entries, skipped)


def _terminated_literals(tokens: Sequence[str], start: int, lineno: int) -> tuple[list[int], int]:
    """A trace line's literal list, whose 0 must come on the same line."""
    lits, end = read_literals(tokens, start, lineno)
    if end is None:
        raise ParseError("line %d: unterminated literal list" % lineno)
    return lits, end


def eliminate_clauses(
    f: Formula,
    cfg: "EliminationConfig | None" = None,
) -> tuple[Formula, EliminationTrace]:
    """Remove clauses satisfying cfg.property until nothing more applies.

    Clauses the checker refuses due to a cap are skipped and reported in
    the trace; they are retried only if a removal changes their
    environment. The result is satisfiability-equivalent to the input.
    """
    cfg = cfg if cfg is not None else EliminationConfig()
    check = _CHECKS[cfg.property]
    g = f.copy()
    entries: list[TraceEntry] = []
    capped: dict[Clause, str] = {}
    # checked clause -> its literals touched since it was last refuted
    # (answer no or cap); a clause never checked has no entry
    touched: dict[Clause, "set[int] | frozenset[int]"] = {}
    pending = set(g)
    seq_of = g.seq_of

    if cfg.clause_order == "descending-length":
        def order_key(c: Clause):
            return (-len(c), seq_of(c))
    else:
        order_key = seq_of

    rounds = 0
    while pending and rounds < cfg.rounds_cap:
        rounds += 1
        batch = sorted((c for c in pending if c in g), key=order_key)
        pending = set()
        for c in batch:
            if c not in g:
                continue
            lits = touched.get(c)
            if lits is _UNTOUCHED:
                continue  # its environment is as it was when c was refuted
            try:
                ok, w = check(g, c, cfg, lits)
            except CapExceeded as exc:
                capped[c] = str(exc)
                touched[c] = _UNTOUCHED
                continue
            if not ok:
                touched[c] = _UNTOUCHED
                continue
            g.remove(c)
            capped.pop(c, None)
            entries.append(TraceEntry(c, cfg.property, w))
            for m in c._canon:
                bucket = g.occurrences(-m)
                if not bucket:
                    continue
                pending.update(bucket)
                for d in bucket:
                    seen = touched.get(d)
                    if seen is _UNTOUCHED:
                        touched[d] = {-m}
                    elif seen is not None:
                        seen.add(-m)

    still = [(c, reason) for c, reason in capped.items() if c in g]
    still.sort(key=lambda pair: g.seq_of(pair[0]))
    return g, EliminationTrace(entries, still)


def reconstruct_model(
    trace: EliminationTrace,
    original: Formula,
    model: Assignment,
) -> Assignment:
    """Repair a model of the simplified formula into one of the original.

    The incoming model is totalized over the original variables (unassigned
    defaults to false), checked against the simplified formula, and then the
    trace is replayed backwards: a falsified removed clause gets its witness
    literals set true. Any inconsistency — clause missing at replay, repair
    not taking, implied clause falsified — is reported as a reconstruction
    error, since it means trace and formula do not belong together.
    """
    g = original.copy()
    for e in trace.entries:
        if not g.discard(e.clause):
            raise ReconstructionError(
                "trace removes a clause the formula does not contain: %r" % (e.clause,)
            )

    # the assignment as the set of its true literals, one per variable
    true = {-v for v in original.variables()}

    def make_true(lit: int) -> None:
        true.discard(-lit)
        true.add(lit)

    def value(v: int) -> int:
        return 1 if v in true else 0

    def sat(clause: Clause) -> bool:
        return not true.isdisjoint(clause._lits)

    for v, val in model.items():
        make_true(v if val else -v)
    if not all(sat(d) for d in g):
        raise ReconstructionError("model does not satisfy the simplified formula")

    for e in reversed(trace.entries):
        c = e.clause
        if sat(c):
            g.add(c)
            continue
        w = e.witness
        if w is None:
            raise ReconstructionError(
                "removed clause is falsified but carries no repair witness: %r" % (c,)
            )
        if w.kind == "literal":
            make_true(w.literal)
        elif w.kind == "set":
            for lit in w.blocking_set:
                make_true(lit)
        elif w.kind == "super":
            state = g.with_clause(c)
            if w.per_tau is not None:
                dom = next(iter(w.per_tau)).variables()
                if not all(v in true or -v in true for v in dom):
                    raise ReconstructionError(
                        "stored restriction table names variables outside the formula"
                    )
                tau = Assignment({v: value(v) for v in dom})
                chosen = w.per_tau.get(tau)
                if chosen is None:
                    raise ReconstructionError(
                        "stored restriction table lacks the current external assignment"
                    )
            else:
                ext = external_variables(state, c)
                tau = Assignment({v: value(v) for v in ext})
                found = is_set_blocked(restrict(state, tau), c)
                if found is None:
                    raise ReconstructionError("failed to recompute a blocking set during repair")
                chosen = found.blocking_set
            for lit in chosen:
                make_true(lit)
        else:
            raise ReconstructionError("unknown witness kind %r" % (w.kind,))
        if not sat(c):
            raise ReconstructionError("repair failed to satisfy the removed clause: %r" % (c,))
        g.add(c)

    if not all(sat(d) for d in original):
        raise ReconstructionError("reconstructed assignment does not satisfy the original formula")
    return Assignment({abs(l): 1 if l > 0 else 0 for l in true})


@dataclass(frozen=True)
class ClassifyReport:
    properties: tuple[str, ...]
    rows: tuple[tuple[Clause, tuple[str, ...]], ...]

    def to_tsv(self) -> str:
        lines = ["clause\t" + "\t".join(self.properties)]
        for clause, cells in self.rows:
            lines.append(clause.dimacs() + "\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


def classify(
    f: Formula,
    properties: "Iterable[str] | None" = None,
    *,
    k: int | None = None,
    ext_cap: int = 16,
) -> ClassifyReport:
    """Per-clause membership matrix: yes / no / cap for each property.

    Every cell is an independent check of the clause against the same
    formula; rows follow formula order.
    """
    props = tuple(properties) if properties is not None else PROPERTIES
    cfgs = {}
    for p in props:
        if p not in _CHECKS:
            raise ValueError("unknown property %r" % (p,))
        cfgs[p] = EliminationConfig(property=p, k=k, ext_cap=ext_cap)

    def cell(c: Clause, p: str) -> str:
        try:
            ok, _ = _CHECKS[p](f, c, cfgs[p])
        except CapExceeded:
            return "cap"
        return "yes" if ok else "no"

    rows = tuple((c, tuple(cell(c, p) for p in props)) for c in f.clauses)
    return ClassifyReport(props, rows)


def write_model(a: Assignment) -> str:
    lits = " ".join(str(l) for l in a.to_literals())
    return "v %s 0\n" % (lits,) if lits else "v 0\n"


def parse_model(text: str) -> Assignment:
    """Read a 'v ... 0' model; the literal list may continue over several 'v' lines."""
    lits: list[int] = []
    terminated = False
    lineno = 1
    for lineno, line in numbered_lines(text):
        if terminated:
            raise ParseError("line %d: content after model terminator: %r" % (lineno, line))
        toks = line.split()
        if toks[0] != "v":
            raise ParseError("line %d: unrecognized model line: %r" % (lineno, line))
        vals, end = read_literals(toks, 1, lineno)
        lits.extend(vals)
        terminated = end is not None
        if terminated and end != len(toks):
            raise ParseError("line %d: content after model terminator: %r" % (lineno, line))
    if not terminated:
        raise ParseError("line %d: model not zero-terminated" % lineno)
    try:
        return Assignment.from_literals(lits)
    except ValueError as exc:
        raise ParseError("line %d: %s" % (lineno, exc)) from exc
