"""Hardness reductions, used here as instance generators and cross-checks.

Each construction turns a source problem into a blocking question:

* truth of a two-block ∀X∃Y formula  ⟺  the gadget clause is super-blocked
  in F′ (with X becoming exactly the external variables);
* satisfiability of F  ⟺  the gadget clause is set-blocked in F′. This is
  the ∃-only case of the one above: with no universal variables the gadget
  clause has no external variables, and then super-blocking is
  set-blocking;
* unsatisfiability of F  ⟺  the gadget clause is 1-super-blocked in F′
  (and k-super-blocked for every k, which the tests exploit).

The shared gadget: a selector u guards the translated source clauses, and
each relevant source variable v gets a primed twin v′ standing in for ¬v,
so the gadget clause can mention "v false" without a complementary literal.
The twins are tied together by (¬v ∨ ¬v′), (¬v ∨ u), (¬v′ ∨ u). Choosing a
blocking set inside the gadget clause then amounts to choosing a (partial)
assignment of the source variables, which is the whole point.

Fresh variables are numbered deterministically: selectors directly after
the source range, then primed twins in ascending source order. The maps are
kept on the instance so generated files can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .cnf import Clause, Formula
from .varelim import QbfInstance


@dataclass(frozen=True)
class ReductionInstance:
    """A generated (F′, C) pair plus the variable bookkeeping behind it."""

    formula: Formula
    clause: Clause
    selectors: tuple[int, ...]
    primes: Mapping[int, int] = field(default_factory=dict)


def sat_to_setblocking(f: Formula) -> ReductionInstance:
    """F satisfiable ⟺ the gadget clause is set-blocked in the result.

    The ∃-only case of `forall_exists_to_superblocking`: every variable of F
    is existential and primed, so the gadget clause has no external
    variables, and with none super-blocking is set-blocking.
    """
    return forall_exists_to_superblocking(QbfInstance(frozenset(), frozenset(f.variables()), f))


def forall_exists_to_superblocking(q: QbfInstance) -> ReductionInstance:
    """q true ⟺ the gadget clause is super-blocked in the result.

    Only the existential variables are primed; universal literals pass
    through untouched, so they end up external to the gadget clause. A
    universal variable absent from the matrix never reaches F′ and drops
    out of the external set, which is harmless: it cannot influence q.
    """
    ys = sorted(q.existentials)
    qmax = max(q.universals | q.existentials | q.matrix.variables(), default=0)
    u = qmax + 1
    primes = {y: u + i for i, y in enumerate(ys, start=1)}
    out = Formula()
    for d in q.matrix:
        # guard with ¬u; negative literals of primed variables become the twin
        out.add([-u] + [primes[-lit] if -lit in primes else lit for lit in d])
    for y in ys:
        out.add((-y, -primes[y]))
        out.add((-y, u))
        out.add((-primes[y], u))
    c = Clause([u] + ys + [primes[y] for y in ys])
    return ReductionInstance(out, c, (u,), primes)


def unsat_to_1superblocking(f: Formula) -> ReductionInstance:
    """F unsatisfiable ⟺ the gadget clause is 1-super-blocked in the result.

    One selector per source clause; the i-th block says "uᵢ forces every
    literal of the i-th clause false". Picking the singleton {uᵢ} therefore
    works out exactly when nothing satisfies clause i — and with every
    source variable external, the quantification over restrictions makes
    the verdict equivalent to unsatisfiability. Blocking sets larger than
    singletons add nothing here, so any k gives the same verdict.
    """
    clauses = f.clauses
    vmax = max(f.variables(), default=0)
    selectors = tuple(vmax + i for i in range(1, len(clauses) + 1))
    out = Formula()
    for u_i, d in zip(selectors, clauses):
        for lit in d:
            out.add((-u_i, -lit))
    return ReductionInstance(out, Clause(selectors), selectors, {})
