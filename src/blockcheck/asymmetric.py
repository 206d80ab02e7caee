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
lists: a round looks only at the clauses holding a literal the round before
added (the first round at those holding a literal of c, plus the units).
The step log of `ala_fixpoint` still follows the batched-round rule — each
round judges its donors against the clause as it stood at the start of the
round and records every literal with the first donor in formula order — and
runs to the full fixpoint. Only the yes/no checks stop early, once the
partial closure holds a complementary pair; tautology survives literal
addition, so no verdict depends on the rest. Subsumption walks the
occurrence lists of the clause's own literals.

`r_lift` then turns a base redundancy property into its resolution-lifted
variant: c qualifies if the base holds for c itself, or some literal l in c
makes the base hold for every c | (D \\ {-l}) with D a partner upon l. The
base is always evaluated against the formula without c — letting c justify
itself would admit clauses whose removal changes satisfiability. No clause
other than c is ever excluded: when a lifted resolvent happens to coincide
with a formula clause, that clause legitimately subsumes it / saturates it
to a tautology, and dropping it would break the hierarchy (a clause whose
closure is blocked could fail the lifted tautology check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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


def _rounds(f: Formula, c: Clause, x: Clause) -> Iterator[tuple[set[int], dict[int, Clause]]]:
    """Literal addition on x as breadth-first propagation over f's occurrence lists.

    Yields, per round, the clause as it stands after the round and the
    literals the round added, each with its donor. A donor D fires when at
    most one of its literals lies outside the clause as it stood at the
    start of the round; it adds the complement of that literal, or of each
    of its literals when none lies outside. Round 1 looks at the clauses
    holding a literal of x plus the unit clauses (any other clause has no
    literal to add or two outside x); each later round looks only at the
    clauses holding a literal the round before added, because a clause that
    holds none of them was just as ready a round earlier and has fired.
    Donors are visited in formula order, so each literal keeps the first
    donor in formula order that justified it in its round; c itself is
    never a donor.
    """
    current = set(x._lits)
    donors = f.clauses_with_any(current, units=True)
    while donors:
        found: dict[int, Clause] = {}
        for d in donors:
            outside = d._lits - current
            if len(outside) > 1 or d._lits == c._lits:
                continue
            for m in outside or d._lits:
                if -m not in current and -m not in found:
                    found[-m] = d
        if not found:
            return
        current.update(found)
        yield current, found
        donors = f.clauses_with_any(found)


def _saturate(f: Formula, c: Clause, x: Clause) -> AlaTrace:
    """Run literal addition on x to fixpoint, drawing donors from f without c.

    The step log follows the batched-round rule: each round judges the
    donors against the clause as it stood at the start of the round, then
    commits the discovered literals in canonical order, each recorded with
    the first donor in formula order that justified it. The closure does not
    depend on any of this; only the step log is pinned down by it. The log
    runs through tautology to the full fixpoint — stopping at the first
    complementary pair would make it order-dependent; only the yes/no
    checks (`_closure` with stop_at_tautology) stop there.
    """
    steps: list[AlaStep] = []
    for _, found in _rounds(f, c, x):
        steps.extend(AlaStep(lit, found[lit]) for lit in sorted(found, key=literal_key))
    return AlaTrace(x, tuple(steps))


def _closure(f: Formula, c: Clause, x: Clause, stop_at_tautology: bool = False) -> Clause:
    """The saturation closure of x, drawing donors from f without c.

    With stop_at_tautology, saturation stops after the first round whose
    closure holds a complementary pair: literal addition only grows the
    clause, so every later closure is tautological too and a verdict that
    only asks whether the closure is tautological is already settled.
    """
    current = x._lits
    if not (stop_at_tautology and x.is_tautology()):
        for current, found in _rounds(f, c, x):
            if stop_at_tautology and any(-lit in current for lit in found):
                break
    return Clause(current)


# The base properties judge a clause x against f with c excluded: c is the
# clause under test, x is c itself or one of its lifted resolvents.
BaseProperty = Callable[[Formula, Clause, Clause], bool]

_EMPTY = Clause()


def _base_t(f: Formula, c: Clause, x: Clause) -> bool:
    return x.is_tautology()


def _base_s(f: Formula, c: Clause, x: Clause) -> bool:
    # A subsumer holds only literals of x, so it sits in their occurrence
    # lists — unless it is the empty clause, which subsumes everything.
    if c._lits and _EMPTY in f:
        return True
    within = x._lits
    for lit in within:
        for d in f.clauses_with(lit):
            if d._lits <= within and d._lits != c._lits:
                return True
    return False


def _base_at(f: Formula, c: Clause, x: Clause) -> bool:
    return _closure(f, c, x, stop_at_tautology=True).is_tautology()


def _base_as(f: Formula, c: Clause, x: Clause) -> bool:
    return _base_s(f, c, _closure(f, c, x))


BASES: dict[str, BaseProperty] = {
    "t": _base_t,
    "s": _base_s,
    "at": _base_at,
    "as": _base_as,
}


def ala_fixpoint(f: Formula, c: "Clause | Iterable[int]") -> AlaTrace:
    """Saturate literal addition on c, drawing donors from f without c."""
    c = as_clause(c)
    return _saturate(f, c, c)


def ala_closure(f: Formula, c: "Clause | Iterable[int]", stop_at_tautology: bool = False) -> Clause:
    """The saturation closure of c without its step log, donors from f without c.

    With stop_at_tautology, saturation stops at the first round whose closure
    holds a complementary pair (enough for yes/no checks).
    """
    c = as_clause(c)
    return _closure(f, c, c, stop_at_tautology)


def is_AT(f: Formula, c: "Clause | Iterable[int]") -> bool:
    """Asymmetric tautology: the saturation closure of c is tautological."""
    c = as_clause(c)
    return _base_at(f, c, c)


def is_subsumed(f: Formula, c: "Clause | Iterable[int]") -> bool:
    """True iff a clause of f other than c itself is a subset of c."""
    c = as_clause(c)
    return _base_s(f, c, c)


def is_AS(f: Formula, c: "Clause | Iterable[int]") -> bool:
    """Asymmetric subsumption: some other clause subsumes the closure of c."""
    c = as_clause(c)
    return _base_as(f, c, c)


def asymmetric_blocking_literal(f: Formula, c: "Clause | Iterable[int]") -> int | None:
    """The first literal blocking the saturation closure of c in f, or None.

    When the closure is non-tautological, a blocking literal is necessarily a
    literal of c itself: an added literal cannot block, because its own donor
    resolves with it back into a subset of the closure.
    """
    closure = ala_closure(f, c)
    witness = is_literal_blocked(f, closure)
    return None if witness is None else witness.literal


def is_ABC(f: Formula, c: "Clause | Iterable[int]") -> bool:
    """Asymmetric blocking: the saturation closure of c is literal-blocked in f."""
    return asymmetric_blocking_literal(f, c) is not None


def r_lift_witness(
    base: BaseProperty,
    f: Formula,
    c: "Clause | Iterable[int]",
) -> tuple[bool, int | None]:
    """Like r_lift, but also reports which branch fired.

    (True, None) means the base holds for c itself; (True, lit) names the
    first literal of c for which every partner resolvent satisfies the base.
    """
    c = as_clause(c)
    if base(f, c, c):
        return True, None
    for lit in c:
        if all(base(f, c, c | (d - (-lit,))) for d in f.clauses_with(-lit)):
            return True, lit
    return False, None


def r_lift(base: BaseProperty, f: Formula, c: "Clause | Iterable[int]") -> bool:
    """Resolution-lift a base property (see BASES for the four intended ones)."""
    return r_lift_witness(base, f, c)[0]


def is_RT(f: Formula, c: "Clause | Iterable[int]") -> bool:
    """Resolution tautology: coincides with literal blocking, by construction."""
    return r_lift(BASES["t"], f, c)


def is_RS(f: Formula, c: "Clause | Iterable[int]") -> bool:
    return r_lift(BASES["s"], f, c)


def is_RAT(f: Formula, c: "Clause | Iterable[int]") -> bool:
    return r_lift(BASES["at"], f, c)


def is_RAS(f: Formula, c: "Clause | Iterable[int]") -> bool:
    return r_lift(BASES["as"], f, c)
