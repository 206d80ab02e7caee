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
inside U. U is computed once per formula state and kept in the formula's
`kept` slot (`_Kept`), which also keeps U(F without c) for the last donor
c of U(F) asked about: classify asks every property of c, and every lifted
resolvent of c, in a row. The formula clears the slot on `add`, since a
new clause can force more, and `_Kept.removed` decides what survives
`remove(D)`: a closure D is a donor of goes, any other still holds the
same derivation, nothing new can be forced, and once c itself goes
U(F without c) is U(F).

U is kept as a derivation: one map from each donor to the literal it
justifies, in derivation order. U(F without c) is derived from U(F) by
retraction (`_retract`): the literal c justified goes, and so does every
literal whose donor holds one that went; the retracted literals'
occurrence lists lead to those donors. U(F) is a fixpoint, so only a
clause holding the complement of a retracted literal can fire on the rest,
and propagation resumes from those clauses alone; apart from copying the
donor map, the work per donor follows what c's literal supports, not the
size of F. A kept U is one valid derivation, not necessarily the one a
fresh propagation records, so only its tautology flag, and its literals
when it is not tautological, are fixed. A tautological U(F) is no
fixpoint: U(F without c) then comes from a full propagation.

U stops at its first complementary pair, so a formula refuted by unit
propagation keeps few donors, and a removal rarely drops U. Every closure
is then tautological: AT, ABC and AS of a non-tautological clause answer
yes at once. The full closures (the step log, `ala_closure` without the
stop, AS of a tautology) fall back to unseeded rounds, because a stopped U
is no fixpoint.

The yes/no checks stop at the first complementary pair too; tautology
survives literal addition, so no verdict depends on the rest. AS stops
there as well: the closure of a non-tautological x turns tautological only
through a donor D other than c whose literals all end up in it, and D
subsumes it. So the first complementary pair answers yes, and a closure
that never gets one is the full fixpoint, which subsumption is then tested
on. A tautological x keeps the full closure: with F = {(1 -1)} and
c = (1 -1), c is AT but not AS. Subsumption walks the occurrence lists of
the closure's own literals outside U when U is not tautological: such a
U is a fixpoint that every closure holds, and a clause other than c
inside it would fire and make U tautological, so a subsumer holds a
literal outside U. A tautological U leaves every list to walk.

`r_lift_witness` then turns a base redundancy property into its
resolution-lifted variant: c qualifies if the base holds for c itself, or
some literal l in c makes the base hold for every c | (D \\ {-l}) with D a
partner upon l. The base is always evaluated against the formula without
c — letting c justify itself would admit clauses whose removal changes
satisfiability. No clause other than c is ever excluded: when a lifted
resolvent happens to coincide with a formula clause, that clause
legitimately subsumes it / saturates it to a tautology, and dropping it
would break the hierarchy (a clause whose closure is blocked could fail the
lifted tautology check).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple

from .blocking import is_literal_blocked
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


class _Units(NamedTuple):
    """U(G): the closure of the empty clause over G, stopped at its first
    complementary pair, kept as one derivation of it: each donor with the
    one literal it justifies, in derivation order. A value is shared by
    formula copies: none of its parts is ever changed.
    """

    lits: frozenset[int]
    tautological: bool
    donors: dict[Clause, int]  # donor -> the literal it justifies, in derivation order


def _stopped(current: set[int], found: dict[int, Clause]) -> bool:
    """Whether a `_rounds` run with stop_at_tautology from a non-tautological
    clause stopped at a complementary pair; `current` and `found` are its
    last yield, and the stop comes right after the literal that completes
    the pair."""
    return bool(found) and -next(reversed(found)) in current


def _propagate(
    f: Formula, c: Clause, current: set[int], start: "Iterable[Clause]", donors: dict[Clause, int]
) -> _Units:
    """Unit propagation over f without c from `current`, `start` holding every
    clause that can fire on it, stopped at the first complementary pair;
    each literal it adds is appended to `donors` (taken over, not copied)
    with its donor. Under the stop a donor justifies one literal: one whose
    literals all lie in the clause completes a pair with its first."""
    found: dict[int, Clause] = {}
    for current, found in _rounds(f, c, current, start, stop_at_tautology=True):
        donors.update((d, lit) for lit, d in found.items())
    return _Units(frozenset(current), _stopped(current, found), donors)


def _derive_units(f: Formula, c: "Clause | None") -> _Units:
    """U(f without c) by propagation from f's unit clauses."""
    # the empty clause never adds a literal, so excluding it excludes nothing;
    # U stops at the first clash, often after a few units: walk the units in
    # place rather than copying and sorting them all
    return _propagate(f, _EMPTY if c is None else c, set(), f.unit_clauses(), {})


def _retract(f: Formula, units: _Units, c: Clause) -> _Units:
    """U(f without c) from the non-tautological U(f), c one of its donors.

    Retracts the literal c justified and every literal whose donor rests on
    a retracted one r, that is, holds r: such a donor sits in r's occurrence
    list, so a worklist over those lists finds them all. What is left is
    still a derivation, each literal from the ones before it. U(f) is a
    fixpoint, so a clause that can fire on the rest holds the complement of
    a retracted literal: propagation resumes from those clauses alone. Apart
    from copying the donor map and the closure, the work follows what the
    retraction touches, not the size of f.
    """
    donors = units.donors
    gone = {donors[c]: c}  # retracted literal -> its donor
    work = list(gone)
    while work:
        for d in f.occurrences(work.pop()):
            lit = donors.get(d)
            if lit is not None and lit not in gone:
                gone[lit] = d
                work.append(lit)
    rest = dict(donors)
    for d in gone.values():
        del rest[d]
    current = set(units.lits)
    current.difference_update(gone)
    return _propagate(f, c, current, f.clauses_with_any(map(neg, gone)), rest)


def _units_hold(f: Formula, without: "Clause | None", units: _Units) -> bool:
    """Whether a kept U(f without `without`) is valid; a fresh propagation
    may record another derivation, so it is not simply compared with one.

    The closure (when not tautological) and the tautology flag must be what
    a full propagation gives, and walking the donors in order, each must be
    in f, not be `without`, and justify a literal not justified before from
    the literals before it; those literals must make up the closure.
    """
    fresh = _derive_units(f, without)
    if units.tautological != fresh.tautological:
        return False
    if not units.tautological and units.lits != fresh.lits:
        return False
    seen: set[int] = set()
    for d, lit in units.donors.items():
        if lit in seen or d not in f or d == without or -lit not in d or not d.difference((-lit,)) <= seen:
            return False
        seen.add(lit)
    return units.lits == seen


class _Kept(NamedTuple):
    """The unit closures a formula keeps in its `kept` slot: U(F) as `whole`,
    and U(F without c) as `part` for c = `without`, the last donor of U(F)
    asked about; a closure not derived yet, or dropped, is None, and so is
    `without` when `part` is."""

    whole: "_Units | None"
    without: "Clause | None"
    part: "_Units | None"

    def removed(self, d: Clause) -> "_Kept":
        """What stays valid once D goes: U(F without D) becomes U(F);
        otherwise a closure D is a donor of goes, and the other stays."""
        if d == self.without:
            return _Kept(self.part, None, None)
        whole, part = (u if u is not None and d not in u.donors else None for u in (self.whole, self.part))
        return _Kept(whole, None if part is None else self.without, part)

    def holds(self, f: Formula) -> bool:
        """Whether each closure kept is valid for f (`_units_hold`)."""
        return (self.whole is None or _units_hold(f, None, self.whole)) and (
            self.part is None or _units_hold(f, self.without, self.part)
        )


def _units_without(f: Formula, c: "Clause | None") -> _Units:
    """U(f without c), kept on f: U(f) itself unless c is one of its donors.

    U(f) comes from a full propagation, and so does U(f without c) when U(f)
    is tautological (a stopped U is no fixpoint); otherwise `_retract`
    derives it from U(f).
    """
    kept = f.kept or _Kept(None, None, None)
    units = kept.whole
    if units is None:
        units = _derive_units(f, None)
        kept = f.kept = kept._replace(whole=units)
    if c not in units.donors:
        return units
    if kept.without != c:
        part = _derive_units(f, c) if units.tautological else _retract(f, units, c)
        kept = f.kept = kept._replace(without=c, part=part)
    return kept.part


def _first_donors(f: Formula, x: Clause) -> list[Clause]:
    """Round 1 donors of unseeded literal addition on x: the clauses holding a
    literal of x plus the unit clauses (any other clause has no literal to
    add or two outside x)."""
    return f.clauses_with_any(x._canon, units=True)


def _closure_lits(f: Formula, c: Clause, x: Clause, stop_at_tautology: bool) -> tuple[set[int], bool]:
    """The literals of the saturation closure of x over f without c, and
    whether saturation stopped at a complementary pair.

    Seeded with U(f without c): a literal U holds is added to any clause
    sooner or later, and a donor that holds no literal of x outside U has
    already fired inside U, so round 1 looks only at the donors holding such
    a literal. With stop_at_tautology, saturation stops at the first
    complementary pair (a tautological x, U or x with U stops at once):
    literal addition only grows the clause, so every later closure is
    tautological too, and the closure is tautological exactly when it
    stopped. Without it, it never stops, and a stopped U is no fixpoint, so
    a tautological U falls back to unseeded rounds.
    """
    if stop_at_tautology and x.is_tautology():
        return set(x), True
    units = _units_without(f, c)
    if units.tautological and not stop_at_tautology:
        current, donors = set(x), _first_donors(f, x)
    else:
        seed = units.lits
        # one bulk copy of U; set(x.union(seed)) inserts U entry by entry, then copies it again
        current = set(seed)
        current.update(x._canon)
        if stop_at_tautology and (units.tautological or not seed.isdisjoint(map(neg, x._canon))):
            return current, True
        donors = f.clauses_with_any(x.difference(seed))
    found: dict[int, Clause] = {}
    for current, found in _rounds(f, c, current, donors, stop_at_tautology):
        pass
    return current, stop_at_tautology and _stopped(current, found)


# The base properties judge a clause x against f with c excluded: c is the
# clause under test, x is c itself or one of its lifted resolvents.
BaseProperty = Callable[[Formula, Clause, Clause], bool]


def _base_t(f: Formula, c: Clause, x: Clause) -> bool:
    return x.is_tautology()


def _subsumed(
    f: Formula, c: Clause, within: "set[int] | frozenset[int]", inside: "frozenset[int]" = _EMPTY
) -> bool:
    """True iff a clause of f other than c is a subset of the literals `within`.

    No clause of f other than c may lie within `inside` (AS passes a
    non-tautological U(f without c)), so the occurrence lists of its
    literals are not walked.
    """
    # A subsumer holds only literals of `within`, one of them outside
    # `inside`, so it sits in that literal's occurrence list — unless it is
    # the empty clause, which subsumes everything.
    if c and _EMPTY in f:
        return True
    for lit in within.difference(inside) if inside else within:
        for d in f.occurrences(lit):
            if d <= within and d != c:
                return True
    return False


def _base_s(f: Formula, c: Clause, x: Clause) -> bool:
    return _subsumed(f, c, x)


def _base_at(f: Formula, c: Clause, x: Clause) -> bool:
    return _closure_lits(f, c, x, stop_at_tautology=True)[1]


def _base_as(f: Formula, c: Clause, x: Clause) -> bool:
    # A closure of a non-tautological x turns tautological only through a
    # donor D other than c whose literals all end up in it (D adds a literal
    # whose complement D itself or the clause already holds), and D then
    # subsumes the closure. So the first complementary pair answers yes, and
    # a closure that never gets one is the full fixpoint.
    # no clause other than c lies inside a non-tautological U (it would
    # fire and make U tautological), and every closure holds U
    units = _units_without(f, c)
    inside = _EMPTY if units.tautological else units.lits
    if x.is_tautology():
        return _subsumed(f, c, _closure_lits(f, c, x, stop_at_tautology=False)[0], inside)
    lits, tautological = _closure_lits(f, c, x, stop_at_tautology=True)
    return tautological or _subsumed(f, c, lits, inside)


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
    for _, found in _rounds(f, c, set(c), _first_donors(f, c)):
        steps.extend(AlaStep(lit, found[lit]) for lit in sorted(found, key=literal_key))
    return AlaTrace(c, tuple(steps))


def ala_closure(f: Formula, c: "Clause | Iterable[int]", stop_at_tautology: bool = False) -> Clause:
    """The saturation closure of c without its step log, donors from f without c.

    With stop_at_tautology, saturation stops at the first round whose closure
    holds a complementary pair (enough for yes/no checks).
    """
    c = as_clause(c)
    return Clause(_closure_lits(f, c, c, stop_at_tautology)[0])


def asymmetric_blocking(f: Formula, c: "Clause | Iterable[int]") -> tuple[bool, int | None]:
    """Asymmetric blocking (ABC): (verdict, repair literal) for c in f.

    The closure stops at its first complementary pair. A tautological
    closure is blocked (every resolvent of a tautology is one) and c, being
    implied by the rest of f, needs no repair: (True, None). Otherwise the
    closure is the full fixpoint, and (True, lit) names the first literal of
    c, in canonical order, that blocks it. Only c's literals are tried: an
    added literal never blocks, because its own donor resolves with it back
    into a subset of the closure; and flipping a literal of c repairs c.
    """
    c = as_clause(c)
    lits, tautological = _closure_lits(f, c, c, stop_at_tautology=True)
    if tautological:
        return True, None
    witness = is_literal_blocked(f, Clause(lits), c)
    return (False, None) if witness is None else (True, witness.literal)


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
    for lit in c:
        if all(base(f, c, Clause(c.union(d.difference((-lit,))))) for d in f.occurrences(-lit)):
            return True, lit
    return False, None
