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
from typing import Callable, Iterable

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


def _saturate(f: Formula, c: Clause, x: Clause) -> AlaTrace:
    """Run literal addition on x to fixpoint, drawing donors from f without c.

    Rounds are batched: each round scans the donors in order against the
    clause as it stood at the start of the round, then commits the discovered
    literals in canonical order, each recorded with the first donor that
    justified it. The closure does not depend on any of this; only the step
    log is pinned down by it. Saturation runs through tautology — stopping at
    the first complementary pair would make the result order-dependent.
    """
    donors = f.clauses_except(c)
    current = set(x)
    steps: list[AlaStep] = []
    while True:
        found: dict[int, Clause] = {}
        for donor in donors:
            for m in donor:
                add = -m
                if add in current or add in found:
                    continue
                if all(other in current for other in donor if other != m):
                    found[add] = donor
        if not found:
            return AlaTrace(x, tuple(steps))
        for lit in sorted(found, key=literal_key):
            steps.append(AlaStep(lit, found[lit]))
        current.update(found)


# The base properties judge a clause x against f with c excluded: c is the
# clause under test, x is c itself or one of its lifted resolvents.
BaseProperty = Callable[[Formula, Clause, Clause], bool]


def _base_t(f: Formula, c: Clause, x: Clause) -> bool:
    return x.is_tautology()


def _base_s(f: Formula, c: Clause, x: Clause) -> bool:
    return any(d.issubset(x) for d in f.clauses_except(c))


def _base_at(f: Formula, c: Clause, x: Clause) -> bool:
    return _saturate(f, c, x).clause.is_tautology()


def _base_as(f: Formula, c: Clause, x: Clause) -> bool:
    return _base_s(f, c, _saturate(f, c, x).clause)


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
    closure = ala_fixpoint(f, as_clause(c)).clause
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
