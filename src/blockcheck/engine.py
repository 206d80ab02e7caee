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
environment are removed (fewer clauses imply less), so a no stays a no.
Tautology, subsumption, AT and AS keep a no whatever clause is removed, so
the engine asks each of them once per clause (`_ASKED_ONCE`): a removal
queues nothing, so such a run ends after its first round. A literal-blocking
recheck (bc, and rt: resolution tautology is literal blocking of a clause
that is no tautology, and a tautology is never refuted) tries only the
touched literals, in canonical order: an untouched literal was refuted and
still has the same clauses to resolve with, so the first blocking literal,
and with it the trace, is the one a full check finds (Järvisalo, Biere and
Heule, "Blocked Clause Elimination", TACAS 2010).

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
recomputes the needed set against the replayed formula state, from the
clause's compiled environment under the model's external values; both paths
produce identical repairs, which the tests check. Only such an entry reads
the replayed formula, so a repair builds it at the first one it meets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from . import blocking
from .asymmetric import BASES, BaseProperty, asymmetric_blocking, r_lift_witness
from .blocking import (
    EXT_CAP,
    BlockingWitness,
    RestrictionTable,
    blocking_set_under,
    is_literal_blocked,
    is_set_blocked,
)
from .cnf import (
    Assignment,
    Clause,
    Formula,
    assignment_index,
    numbered_lines,
    read_literals,
)
from .errors import CapExceeded, ParseError, ReconstructionError


def _base_check(base: BaseProperty):
    """A check from a base property: the verdict for c itself, no witness
    (tautology, subsumption and their asymmetric variants need no repair)."""

    def check(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
        return base(g, c, c), None

    return check


def _literal_check(decide: Callable[[Formula, Clause], "tuple[bool, int | None]"]):
    """A check from a (verdict, repair literal) decider; no literal means
    the clause never needs a repair."""

    def check(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
        ok, lit = decide(g, c)
        return ok, None if lit is None else BlockingWitness(kind="literal", literal=lit)

    return check


def _check_bc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    # in a classify row, `rt` asks `bc`'s full check again (`Formula.answers`)
    answers = g.answers
    if answers is None or touched is not None:
        w = is_literal_blocked(g, c, touched)
        return w is not None, w
    key = ("bc", c)
    verdict = answers.get(key)
    if verdict is None:
        w = is_literal_blocked(g, c)
        verdict = answers[key] = (w is not None, w)
    return verdict


def _check_rt(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    # resolution tautology is literal blocking by definition: a tautological
    # c needs no repair, any other is blocked by the literal `bc` finds
    if c.is_tautology():
        return True, None
    return _check_bc(g, c, cfg, touched)


def _check_setbc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    w = is_set_blocked(g, c, cfg.k)
    return w is not None, w


def _check_supbc(g: Formula, c: Clause, cfg: "EliminationConfig", touched=None):
    # called as a module attribute, so a wrapper put on the module (the
    # benchmark's tracer) sees every engine call
    w = blocking.check_super_blocked(g, c, cfg.k, cfg.ext_cap).witness
    if w is not None and w.kind == "super" and cfg.compact_witnesses:
        w = BlockingWitness(kind="super", per_tau=None)
    return w is not None, w


# check(g, c, cfg, touched) -> (verdict, witness). `touched` is None for a
# first check; on a recheck it holds the literals of c whose environment
# (the clauses with their complement) lost a clause since c was refuted.
# Only the literal-blocking checks (bc, and rt, which is literal blocking
# for a clause that is no tautology) use it, to try just those literals.
_CHECKS: dict[str, Callable] = {
    "t": _base_check(BASES["t"]),
    "s": _base_check(BASES["s"]),
    "bc": _check_bc,
    "setbc": _check_setbc,
    "supbc": _check_supbc,
    "at": _base_check(BASES["at"]),
    "as": _base_check(BASES["as"]),
    "abc": _literal_check(asymmetric_blocking),
    "rt": _check_rt,
    "rs": _literal_check(partial(r_lift_witness, BASES["s"])),
    "rat": _literal_check(partial(r_lift_witness, BASES["at"])),
    "ras": _literal_check(partial(r_lift_witness, BASES["as"])),
}

PROPERTIES: tuple[str, ...] = tuple(_CHECKS)

# The properties whose no stays a no while clauses are removed, each asked
# once per clause by `eliminate_clauses`. Tautology reads only the clause;
# subsumption and the asymmetric checks ask whether other clauses imply c
# (directly or after ALA), and fewer clauses imply less. None of them has a
# cap, so every refusal is a no, and a removal queues nothing.
_ASKED_ONCE = frozenset({"t", "s", "at", "as"})

ORDERS = ("ascending-id", "descending-length")

# the touched-literal entry of a refuted clause nothing has touched since;
# shared, so refuting a clause allocates nothing
_UNTOUCHED: frozenset[int] = frozenset()


@dataclass(frozen=True)
class EliminationConfig:
    property: str = "bc"
    k: int | None = None
    ext_cap: int = EXT_CAP
    clause_order: str = "ascending-id"
    rounds_cap: int = 1000
    compact_witnesses: bool = False

    def __post_init__(self):
        if self.property not in _CHECKS:
            raise ValueError("unknown property %r" % (self.property,))
        if self.clause_order not in ORDERS:
            raise ValueError("unknown clause order %r" % (self.clause_order,))
        if self.rounds_cap < 1:
            raise ValueError("rounds cap must be positive")
        blocking.check_bounds(self.k, self.ext_cap)


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
                lines.extend("wt %s %s" % row for row in w.per_tau.dimacs_rows())
        for clause, reason in self.skipped:
            lines.append(("x %s %s" % (clause.dimacs(), reason)).rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EliminationTrace":
        """Read a trace back into the entries and tables the writer wrote.

        A `wt` block's rows may come in any order but must cover every
        assignment of their variables. Witness literals lie in their clause.
        """
        entries: list[TraceEntry] = []
        skipped: list[tuple[Clause, str]] = []
        # the open supbc entry: [clause, 'd' line, variables, sets by mask]
        block: "list | None" = None
        header_seen = False

        def finalize() -> None:
            nonlocal block
            if block is not None:
                clause, at, variables, rows = block
                # the rows are counted before any list of 2^n sets is built
                if rows and len(rows) != 1 << len(variables):
                    raise ParseError("line %d: restriction table covers %d of %d assignments"
                                     % (at, len(rows), 1 << len(variables)))
                table = RestrictionTable(variables, map(rows.get, range(len(rows)))) if rows else None
                entries.append(TraceEntry(clause, "supbc", BlockingWitness(kind="super", per_tau=table)))
                block = None

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
                clause_lits, wlits = _entry_literals(toks, lineno, line)
                clause = Clause(clause_lits)
                if tag in BASES and wlits:
                    raise ParseError("line %d: unexpected witness for %r" % (lineno, tag))
                if tag == "bc" and len(wlits) != 1:
                    raise ParseError("line %d: literal-blocking entry needs one witness" % lineno)
                if tag == "setbc" and not wlits:
                    raise ParseError("line %d: set-blocking entry without a witness" % lineno)
                if tag not in ("setbc", "supbc") and len(wlits) > 1:
                    raise ParseError("line %d: at most one witness literal allowed" % lineno)
                _check_within(clause, wlits, lineno)
                if tag == "supbc" and not wlits:
                    block = [clause, lineno, None, {}]
                    continue
                if tag in ("setbc", "supbc"):
                    w = BlockingWitness(kind="set", blocking_set=Clause(wlits))
                else:
                    w = BlockingWitness(kind="literal", literal=wlits[0]) if wlits else None
                entries.append(TraceEntry(clause, tag, w))
            elif toks[0] == "wt":
                if block is None:
                    raise ParseError("line %d: restriction line outside a supbc entry" % lineno)
                tlits, i = _terminated_literals(toks, 1, lineno)
                slits, i = _terminated_literals(toks, i, lineno)
                if i != len(toks):
                    raise ParseError("line %d: trailing tokens on trace line: %r" % (lineno, line))
                try:
                    tau = Assignment.from_literals(tlits)
                except ValueError as exc:
                    raise ParseError("line %d: %s" % (lineno, exc)) from exc
                clause, _, variables, rows = block
                if not rows:
                    block[2] = variables = sorted(tau.variables())
                elif sorted(tau.variables()) != variables:
                    raise ParseError("line %d: restriction over other variables than the first" % lineno)
                m = assignment_index(variables, tau.value)
                if m in rows:
                    raise ParseError("line %d: second restriction line for one assignment" % lineno)
                if not slits:
                    raise ParseError("line %d: empty blocking set in restriction line" % lineno)
                _check_within(clause, slits, lineno)
                rows[m] = Clause(slits)
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


def _entry_literals(toks: Sequence[str], lineno: int, line: str) -> tuple[list[int], list[int]]:
    """The clause and the witness literals of a 'd' trace line."""
    clause_lits, i = _terminated_literals(toks, 2, lineno)
    if i == len(toks) or toks[i] != "w":
        raise ParseError("line %d: missing witness section: %r" % (lineno, line))
    wlits, i = _terminated_literals(toks, i + 1, lineno)
    if i != len(toks):
        raise ParseError("line %d: trailing tokens on trace line: %r" % (lineno, line))
    return clause_lits, wlits


def _terminated_literals(tokens: Sequence[str], start: int, lineno: int) -> tuple[list[int], int]:
    """A trace line's literal list, whose 0 must come on the same line."""
    lits, end = read_literals(tokens, start, lineno)
    if end is None:
        raise ParseError("line %d: unterminated literal list" % lineno)
    return lits, end


def _check_within(clause: Clause, lits: Iterable[int], lineno: int) -> None:
    """Every witness a checker writes is made of its clause's literals."""
    for lit in lits:
        if lit not in clause:
            raise ParseError("line %d: witness literal %d is not in the clause" % (lineno, lit))


def eliminate_clauses(
    f: Formula,
    cfg: "EliminationConfig | None" = None,
) -> tuple[Formula, EliminationTrace]:
    """Remove clauses satisfying cfg.property until nothing more applies.

    Clauses the checker refuses due to a cap are skipped and reported in
    the trace; they are retried only if a removal changes their
    environment. A run stopped by cfg.rounds_cap reports every clause the
    last round queued and did not check again afterwards as skipped, with
    the rounds cap as the reason. Under a property asked once
    (`_ASKED_ONCE`) a removal queues nothing, so the first round reaches
    the fixpoint. The result is satisfiability-equivalent to the input.
    """
    cfg = cfg if cfg is not None else EliminationConfig()
    check = _CHECKS[cfg.property]
    once = cfg.property in _ASKED_ONCE
    g = f.copy()
    entries: list[TraceEntry] = []
    capped: dict[Clause, str] = {}
    # checked clause -> its literals touched since it was last refuted
    # (answer no or cap); a clause never checked has no entry
    touched: dict[Clause, "set[int] | frozenset[int]"] = {}
    # the clauses removed so far: g only shrinks, so membership in g is a
    # set lookup instead of a call per clause
    gone: set[Clause] = set()
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
        batch = sorted(pending - gone, key=order_key)
        pending = set()
        for c in batch:
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
            gone.add(c)
            capped.pop(c, None)
            entries.append(TraceEntry(c, cfg.property, w))
            if once:
                continue
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

    # a queued clause refuted since it was queued would be skipped by the
    # next round, so only the others were cut short by the rounds cap
    cut = "rounds cap %d reached" % (cfg.rounds_cap,)
    capped.update((c, cut) for c in pending if touched.get(c) is not _UNTOUCHED)
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
    entries = trace.entries
    removed: set[Clause] = set()
    for e in entries:
        if e.clause in removed or e.clause not in original:
            raise ReconstructionError(
                "trace removes a clause the formula does not contain: %r" % (e.clause,)
            )
        removed.add(e.clause)

    # the assignment as the set of its true literals, one per variable
    true = {-v for v in original.variables()}

    def make_true(lit: int) -> None:
        true.discard(-lit)
        true.add(lit)

    for v, val in model._map.items():
        make_true(v if val else -v)
    # a satisfied clause shares a literal with `true`; the Clause is the
    # receiver, which keeps isdisjoint in C
    if any(d.isdisjoint(true) for d in original if d not in removed):
        raise ReconstructionError("model does not satisfy the simplified formula")

    # The formula as it was when the entry at hand removed its clause. Only
    # a compact super-blocking witness reads it, so it is built at the first
    # such entry and kept in step from then on.
    g: "Formula | None" = None
    for j in reversed(range(len(entries))):
        c, w = entries[j].clause, entries[j].witness
        if g is not None:
            g.add(c)
        if not c.isdisjoint(true):
            continue
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
            if w.per_tau is not None:
                if not all(v in true or -v in true for v in w.per_tau.variables):
                    raise ReconstructionError(
                        "stored restriction table names variables outside the formula"
                    )
                chosen = w.per_tau.sets[assignment_index(w.per_tau.variables, true.__contains__)]
            else:
                if g is None:
                    g = Formula(d for d in original if d not in removed)
                    for later in reversed(entries[j:]):
                        g.add(later.clause)
                chosen = blocking_set_under(g, c, true.__contains__)
                if chosen is None:
                    raise ReconstructionError("failed to recompute a blocking set during repair")
            for lit in chosen:
                make_true(lit)
        else:
            raise ReconstructionError("unknown witness kind %r" % (w.kind,))
        if c.isdisjoint(true):
            raise ReconstructionError("repair failed to satisfy the removed clause: %r" % (c,))

    if any(d.isdisjoint(true) for d in original):
        raise ReconstructionError("reconstructed assignment does not satisfy the original formula")
    return Assignment.from_literals(true)


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
    ext_cap: int = EXT_CAP,
) -> ClassifyReport:
    """Per-clause membership matrix: yes / no / cap for each property.

    Every cell is an independent check of the clause against the same
    formula, and equals its own `check_property` answer; rows follow
    formula order. No cell is filled from another property's verdict.
    Within a row the checks ask some questions alike, and each is answered
    once: AT of c and of a lifted resolvent (`at`, `as`, `rat`, `ras`),
    subsumption of c (`s`, `rs`), c's full literal-blocking check (`bc`,
    `rt`) and the resolvents upon each literal of c (`rs`, `rat`, `ras`).
    The answers live in `f.answers` for the row alone.
    """
    props = tuple(properties) if properties is not None else PROPERTIES
    cfgs = {p: EliminationConfig(property=p, k=k, ext_cap=ext_cap) for p in props}

    def cell(c: Clause, p: str) -> str:
        try:
            ok, _ = _CHECKS[p](f, c, cfgs[p])
        except CapExceeded:
            return "cap"
        return "yes" if ok else "no"

    rows = []
    try:
        for c in f.clauses:
            f.answers = {}
            rows.append((c, tuple(cell(c, p) for p in props)))
    finally:
        f.answers = None
    return ClassifyReport(props, tuple(rows))


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
