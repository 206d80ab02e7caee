"""Asymmetric literal addition and the redundancy properties built on it.

A literal l can be added to c when some other clause of the formula has the
shape D | {-l} with D a subset of c: any assignment satisfying that clause
while falsifying c must falsify l too, so the addition never changes which
assignments are repairable. Saturating the rule gives a canonical closure
(the rule is monotone in c, so the fixpoint is order-independent), and the
closure's properties classify c:

* asymmetric tautology (AT): the closure is tautological;
* asymmetric subsumption (AS): another clause subsumes the closure;
* asymmetric blocking (ABC): the closure is blocked by a literal.

Saturation runs as breadth-first propagation over the formula's occurrence
lists (`_rounds`, the one propagation loop): a round looks only at the
clauses holding a literal the round before added. The step log of
`ala_fixpoint` starts from the clause alone, takes in the unit clauses in
round 1, follows the batched-round rule — each round judges its donors
against the clause as it stood at the start of the round and records every
literal with the first donor in formula order — and runs to the full
fixpoint.

The checks seed every closure instead. Let U(G) be the closure of the
empty clause over G: the literals unit propagation forces from G's units,
negated. For any x, the closure of x over F without c equals the closure of
x together with U(F without c), and round 1 then needs only the donors
holding a literal of x outside U; every other donor has already fired
inside U.

U lives on one trail per formula, like the trail of a CDCL solver (Eén and
Sörensson, SAT 2003), kept in the formula's `kept` slot (`_Trail`): the set
U(F) and its derivation, one map from each donor to the literal it
justifies, in derivation order. A question about c turns the set into
U(F without c) in place by retraction: the literal c justified goes, and
so does every literal whose donor holds one that went; the retracted
literals' occurrence lists lead to those donors. U(F) is a fixpoint, so
only a clause holding the complement of a retracted literal can fire on the
rest, and propagation resumes from those clauses alone: the work follows
what c's literal supports, not the size of F. The trail stays retracted
until a question about another clause puts U(F) back, touching only what
the retraction changed; classify asks every property of c, and of every
lifted resolvent of c, in a row. Each check grows the same set to its
closure and removes what it added on the way out (`_closure`), so a
question copies no part of U. `remove(D)` commits D's retraction, and
U(F without D) becomes U(F); `add` drops the trail, since a new clause can
force more; `copy` leaves it behind, since a trail belongs to one formula
(and one formula must not be checked from two threads at once). A kept U
is one valid derivation, not necessarily the one a fresh propagation
records, so only its tautology flag, and its literals when it is not
tautological, are fixed. A tautological U(F) is no fixpoint: U(F without
c) then comes from a full propagation.

U stops at its first complementary pair, so a formula refuted by unit
propagation keeps few donors. A tautological U(F without c) answers every
check yes at once: the donor D other than c that completed the pair lies
wholly inside U, and every closure holds U, so every closure is
tautological (AT, ABC) and subsumed by D (AS). A closure is therefore only
ever saturated from a non-tautological U, which is a fixpoint; only the
step log starts from the clause alone.

The yes/no checks stop at the first complementary pair too; tautology
survives literal addition, so no verdict depends on the rest. AS of a
clause x that is no tautology is AT of x, save for the empty clause. The
closure of x turns tautological only through a donor D other than c whose
literals all end up in it, and D subsumes it. A closure that never does is
the full fixpoint, and a clause other than c inside it would fire and add
the complements of its own literals; the empty clause never fires, so it
is the one clause that can still subsume it. So with the empty clause in
F, every non-empty clause is AS, AT or not. A tautological x keeps the
full closure: with F = {(1 -1)} and c = (1 -1), c is AT but not AS.
Subsumption walks only the occurrence lists of the literals the question
added to U: U is a fixpoint that every closure holds, and a clause other
than c inside it would fire and make U tautological, so a subsumer holds a
literal outside U.

`r_lift_witness` then turns a base redundancy property into its
resolution-lifted variant: c qualifies if the base holds for c itself, or
some literal l in c makes the base hold for every c | (D \\ {-l}) with D a
partner upon l. The base is always evaluated against the formula without
c — letting c justify itself would admit clauses whose removal changes
satisfiability. No clause other than c is ever excluded: when a lifted
resolvent happens to coincide with a formula clause, that clause
legitimately subsumes it / saturates it to a tautology, and dropping it
would break the hierarchy (a clause whose closure is blocked could fail the
lifted tautology check). While `engine.classify` works on a row, the
resolvents upon each literal of c are built once, as a list kept in the
formula's `answers` dict, which `rs`, `rat` and `ras` share; so are the
answers of `_base_s` and `_base_at`, so `as`, `rat` and `ras` saturate
only what `at` and `rat` did not. Outside a row the resolvents stay a lazy
generator, which stops at the first one the base refutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Iterator, TypeVar

from .cnf import Clause, Formula, as_clause, literal_key


@dataclass(frozen=True)
class AlaStep:
    """One saturation step: `literal` was added, justified by `donor`."""

    literal: int
    donor: Clause


@dataclass(frozen=True)
class AlaTrace:
    base: Clause
    added: tuple[AlaStep, ...]

    @property
    def clause(self) -> Clause:
        """The closure: the base clause plus every added literal."""
        return self.base | (step.literal for step in self.added)


_EMPTY = Clause()


def _rounds(
    f: Formula,
    c: Clause,
    current: set[int],
    donors: "Iterable[Clause]",
    stop_at_tautology: bool = False,
) -> Iterator[tuple[set[int], dict[int, Clause]]]:
    """Literal addition on `current` as breadth-first propagation over f's occurrence lists.

    Grows `current` in place and yields, per round, the clause as it stands
    after the round and the literals the round added, each with its donor.
    A donor D fires when at most one of its literals lies outside the clause
    as it stood at the start of the round; it adds the complement of that
    literal, or of each of its literals when none lies outside. Round 1
    looks at `donors`, which must hold every clause that can fire on the
    start set. Each later round looks only at the clauses holding a literal
    the round before added, because a clause that holds none of them was
    just as ready a round earlier and has fired. Donors are visited in
    formula order, so each literal keeps the first donor in formula order
    that justified it in its round; c itself is never a donor.

    With stop_at_tautology, the first added literal whose complement the
    clause already holds, or the round added before it, ends the round and
    the run; the clause is then tautological, and so is every clause
    literal addition grows from it.
    """
    while donors:
        found: dict[int, Clause] = {}
        for d in donors:
            outside = d.difference(current)
            if len(outside) > 1 or d == c:
                continue
            for m in outside or d._canon:
                if -m not in current and -m not in found:
                    found[-m] = d
                    if stop_at_tautology and (m in current or m in found):
                        current.update(found)
                        yield current, found
                        return
        if not found:
            return
        current.update(found)
        yield current, found
        donors = f.clauses_with_any(found)


class _Trail:
    """U(F) on one mutable trail: `lits` is U(F), or U(F without `without`)
    while the trail stands retracted for that clause, with `tautological`
    its flag. `donors` is U(F)'s derivation and `whole_tautological` its
    flag. A retraction keeps what it changed: the literals of U(F) it took
    back (`gone`, each with its donor) and the donors propagation then
    fired (`resumed`, each with its literal).
    """

    __slots__ = ("lits", "donors", "whole_tautological", "tautological", "without", "gone", "resumed")

    def __init__(self, f: Formula, c: "Clause | None" = None):
        """U(f without c) by propagation from f's unit clauses."""
        self.lits: set[int] = set()
        self.donors: dict[Clause, int] = {}
        self.without: "Clause | None" = None
        self.gone: dict[int, Clause] = {}
        self.resumed: dict[Clause, int] = {}
        # the empty clause never adds a literal, so excluding it excludes nothing;
        # U stops at the first clash, often after a few units: walk them in place
        units = f.unit_clauses()
        self.tautological = self.whole_tautological = self._propagate(f, c or _EMPTY, units, self.donors)

    def _propagate(self, f: Formula, c: Clause, start: "Iterable[Clause]", into: dict[Clause, int]) -> bool:
        """Unit propagation over f without c, grown into `lits` from `start`
        (every clause that can fire on it) and stopped at the first
        complementary pair; each literal it adds goes into `into` with its
        donor. Returns whether it stopped. Under the stop a donor justifies
        one literal: one whose literals all lie in the clause completes a
        pair with its first."""
        found: dict[int, Clause] = {}
        for _, found in _rounds(f, c, self.lits, start, stop_at_tautology=True):
            into.update((d, lit) for lit, d in found.items())
        # the stop comes right after the literal that completes the pair
        return bool(found) and -next(reversed(found)) in self.lits

    def retract(self, f: Formula, c: Clause) -> None:
        """Turn `lits` into U(f without c), putting U(F) back first if the
        trail stands retracted for another clause; a tautological U(F) is
        retracted in full, and propagation starts again from the units."""
        if c == self.without:
            return
        if self.without is not None:
            self.restore()
        donors = self.donors
        if c not in donors:
            return
        if self.whole_tautological:
            gone = {lit: d for d, lit in donors.items()}
            start: "Iterable[Clause]" = f.unit_clauses()
        else:
            gone = {donors[c]: c}  # retracted literal -> its donor
            work = list(gone)
            while work:
                for d in f.occurrences(work.pop()):
                    lit = donors.get(d)
                    if lit is not None and lit not in gone:
                        gone[lit] = d
                        work.append(lit)
            start = f.clauses_with_any(map(neg, gone))
        self.lits.difference_update(gone)
        self.without, self.gone = c, gone
        self.tautological = self._propagate(f, c, start, self.resumed)

    def restore(self) -> None:
        """Put U(F) back: the resumed literals go (one may be a retracted
        literal justified again), then the retracted ones return."""
        self.lits.difference_update(self.resumed.values())
        self.lits.update(self.gone)
        self.tautological = self.whole_tautological
        self.without, self.gone, self.resumed = None, {}, {}

    def removed(self, f: Formula, d: Clause) -> "_Trail":
        """The trail once D has left f: D's retraction is committed, its
        retracted donors leaving the map and the resumed ones joining its end
        in derivation order; a D only the standing retraction fired puts U(F)
        back. Nothing else rests on D, and a removal forces nothing new."""
        if d in self.donors:
            self.retract(f, d)
            for x in self.gone.values():
                del self.donors[x]
            self.donors.update(self.resumed)
            self.whole_tautological = self.tautological
            self.without, self.gone, self.resumed = None, {}, {}
        elif d in self.resumed:
            self.restore()  # D justifies nothing in U(F)
        return self

    def derivation(self) -> dict[Clause, int]:
        """The derivation of `lits`: U(F)'s without the retracted donors, then the resumed ones."""
        gone = set(self.gone.values())
        steps = {d: lit for d, lit in self.donors.items() if d not in gone}
        steps.update(self.resumed)
        return steps

    def holds(self, f: Formula) -> bool:
        """Whether U(F), and `lits` as U(f without `without`), each hold (`_derives`)."""
        whole = self.lits.difference(self.resumed.values()).union(self.gone)
        return (_derives(f, None, self.donors, whole, self.whole_tautological)
                and _derives(f, self.without, self.derivation(), self.lits, self.tautological))


def _derives(
    f: Formula, without: "Clause | None", steps: dict[Clause, int], lits: "set[int]", tautological: bool
) -> bool:
    """Whether `steps` (donor -> literal) derive `lits`, flagged
    `tautological`, as U(f without `without`). A fresh propagation may record
    another derivation, so only the flag, and the literals when not
    tautological, are compared with one; and walking the steps in order,
    each donor must be in f, not be `without`, and justify a literal not
    justified before from the literals before it, which make up `lits`.
    """
    fresh = _Trail(f, without)
    if tautological != fresh.tautological or not tautological and lits != fresh.lits:
        return False
    seen: set[int] = set()
    for d, lit in steps.items():
        if lit in seen or d not in f or d == without or -lit not in d or not d.difference((-lit,)) <= seen:
            return False
        seen.add(lit)
    return lits == seen


def _trail(f: Formula, c: "Clause | None") -> _Trail:
    """f's trail, built on first use and turned into U(f without c); a
    retraction cut short by an error leaves no trail on f."""
    trail = f.kept
    if trail is None:
        trail = f.kept = _Trail(f)
    if c != trail.without:
        f.kept = None
        trail.retract(f, c)
        f.kept = trail
    return trail


_T = TypeVar("_T")


def _closure(f: Formula, c: Clause, x: Clause, stop_at_tautology: bool, answer: "Callable[..., _T]") -> _T:
    """answer(lits, added, tautological) on the saturation closure of x over
    f without c, grown in place from the trail's U(f without c).

    `added` lists the literals the closure gained over U; they leave `lits`
    again once answered, whether or not answering raised. With
    stop_at_tautology, saturation stops at the first complementary pair (a
    tautological x, answered as `lits`, U, or x with U stops at once), so
    the closure is tautological exactly when it stopped. Without it, it
    runs to the full fixpoint from a U(f without c) that must not be
    tautological: a stopped U is no fixpoint.
    """
    if stop_at_tautology and x.is_tautology():
        return answer(x, [], True)
    trail = _trail(f, c)
    lits = trail.lits
    added = [lit for lit in x._canon if lit not in lits]
    lits.update(added)
    try:
        if stop_at_tautology and (trail.tautological or not lits.isdisjoint(map(neg, x._canon))):
            return answer(lits, added, True)
        found: dict[int, Clause] = {}
        for _, found in _rounds(f, c, lits, f.clauses_with_any(added), stop_at_tautology):
            added.extend(found)
        return answer(lits, added, stop_at_tautology and bool(found) and -next(reversed(found)) in lits)
    finally:
        lits.difference_update(added)


# The base properties judge a clause x against f with c excluded: c is the
# clause under test, x is c itself or one of its lifted resolvents.
BaseProperty = Callable[[Formula, Clause, Clause], bool]


def _base_t(f: Formula, c: Clause, x: Clause) -> bool:
    return x.is_tautology()


def _subsumed(f: Formula, c: Clause, within: "set[int] | frozenset[int]", walk: Iterable[int]) -> bool:
    """True iff a clause of f other than c is a subset of the literals `within`.

    Every such clause other than the empty one holds a literal of `walk`,
    so only those literals' occurrence lists are walked.
    """
    # the empty clause subsumes everything
    if c and _EMPTY in f:
        return True
    for lit in walk:
        for d in f.occurrences(lit):
            if d <= within and d != c:
                return True
    return False


# While classify works on a row, `s` and `rs`, and `at`, `as`, `rat` and
# `ras`, ask some of the same questions about c: the formula's `answers`
# dict then keeps each answer under its question.
def _base_s(f: Formula, c: Clause, x: Clause) -> bool:
    answers = f.answers
    if answers is None:
        return _subsumed(f, c, x, x._canon)
    key = ("s", c, x)
    s = answers.get(key)
    if s is None:
        s = answers[key] = _subsumed(f, c, x, x._canon)
    return s


def _tautological(lits: "set[int]", added: list[int], tautological: bool) -> bool:
    return tautological


def _base_at(f: Formula, c: Clause, x: Clause) -> bool:
    answers = f.answers
    if answers is None:
        return _closure(f, c, x, True, _tautological)
    key = ("at", c, x)
    at = answers.get(key)
    if at is None:
        at = answers[key] = _closure(f, c, x, True, _tautological)
    return at


def _base_as(f: Formula, c: Clause, x: Clause) -> bool:
    if _trail(f, c).tautological:
        # the donor that completed U's pair lies inside U, and so inside every closure
        return True
    if not x.is_tautology():
        # a closure turns tautological only through a donor inside it; a
        # non-tautological one is a fixpoint, and a clause other than c
        # inside it would fire, save for the empty clause
        return bool(c) and _EMPTY in f or _base_at(f, c, x)
    # a subsumer holds a literal the closure added to U
    return _closure(f, c, x, False, lambda lits, added, _: _subsumed(f, c, lits, added))


BASES: dict[str, BaseProperty] = {
    "t": _base_t,
    "s": _base_s,
    "at": _base_at,
    "as": _base_as,
}


def ala_fixpoint(f: Formula, c: "Clause | Iterable[int]") -> AlaTrace:
    """Run literal addition on c to fixpoint, drawing donors from f without c.

    The step log follows the batched-round rule: each round judges the
    donors against the clause as it stood at the start of the round, then
    commits the discovered literals in canonical order, each recorded with
    the first donor in formula order that justified it. The closure does not
    depend on any of this; only the step log is pinned down by it. The log
    starts from c alone, not from the seed U, and runs through tautology to
    the full fixpoint — stopping at the first complementary pair would make
    it order-dependent; only the yes/no checks stop there.
    """
    c = as_clause(c)
    steps: list[AlaStep] = []
    # round 1: the clauses holding a literal of c and the unit clauses; any
    # other clause has two literals outside c
    for _, found in _rounds(f, c, set(c), f.clauses_with_any(c._canon, units=True)):
        steps.extend(AlaStep(lit, found[lit]) for lit in sorted(found, key=literal_key))
    return AlaTrace(c, tuple(steps))


def asymmetric_blocking(f: Formula, c: "Clause | Iterable[int]") -> tuple[bool, int | None]:
    """Asymmetric blocking (ABC): (verdict, repair literal) for c in f.

    The closure stops at its first complementary pair. A tautological
    closure is blocked (every resolvent of a tautology is one) and c, being
    implied by the rest of f, needs no repair: (True, None). Otherwise the
    closure is the full fixpoint, and (True, lit) names the first literal of
    c, in canonical order, that blocks it. Only c's literals are tried: an
    added literal never blocks, because its own donor resolves with it back
    into a subset of the closure; and flipping a literal of c repairs c.

    It reads the closure S off the trail, building no clause: l blocks S
    when each D holding -l holds some m other than -l with -m in S, or a
    pair on another variable than l's (D without -l is a tautology).
    """
    c = as_clause(c)

    def blocked(lits: "set[int]", added: list[int], tautological: bool) -> tuple[bool, int | None]:
        if tautological:
            return True, None
        for lit in c._canon:
            if all(any(m != -lit and -m in lits for m in d._canon)
                   or d._taut and any(-m in d for m in d._canon if m != lit and m != -lit)
                   for d in f.occurrences(-lit)):
                return True, lit
        return False, None

    return _closure(f, c, c, True, blocked)


def r_lift_witness(
    base: BaseProperty,
    f: Formula,
    c: "Clause | Iterable[int]",
) -> tuple[bool, int | None]:
    """The resolution-lifted variant of a base property: (verdict, lift literal).

    c qualifies when the base holds for c itself, answered (True, None), or
    when some literal lit of c makes the base hold for every resolvent
    c | (D \\ {-lit}) with D a clause holding -lit, answered (True, lit)
    for the first such literal in canonical order. Every base sees f
    without c. Lifting T gives resolution tautology, which coincides with
    literal blocking by construction; S, AT and AS give RS, RAT and RAS.
    """
    c = as_clause(c)
    if base(f, c, c):
        return True, None
    answers = f.answers
    for lit in c:
        if answers is None:
            resolvents: "Iterable[Clause]" = _resolvents(f, c, lit)
        else:
            key = ("r", c, lit)
            resolvents = answers.get(key)
            if resolvents is None:
                resolvents = answers[key] = list(_resolvents(f, c, lit))
        if all(base(f, c, r) for r in resolvents):
            return True, lit
    return False, None


def _resolvents(f: Formula, c: Clause, lit: int) -> Iterator[Clause]:
    """c's resolvents upon lit: c | (D \\ {-lit}) for each D holding -lit."""
    return (Clause(c.union(d.difference((-lit,)))) for d in f.occurrences(-lit))
