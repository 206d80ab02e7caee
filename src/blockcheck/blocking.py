"""Deciders for the blocking hierarchy: literal-, set-, and super-blocking.

A literal l of c blocks c when every resolvent of c upon l is a tautology;
a non-empty L within c blocks c as a set when for every clause D touching a
complement of L, (c \\ L) | complements(L) | D is a tautology; and c is
super-blocked when it is set-blocked in every restriction of the formula by
an assignment to the variables outside c that appear in its resolution
environment. Set-blocking searches run over candidate subsets in a fixed
canonical order (smaller sets first, then the clause's own literal order),
so witnesses are deterministic and the cost of a failed search is exactly
`count_candidate_sets`.

The super-blocking decider enumerates all 2^|ext| restrictions, which is
exact but exponential; it refuses to start past `ext_cap` and offers a
sampling fallback that can refute but never confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from random import Random
from typing import Iterable, Mapping

from .cnf import (
    Assignment,
    Clause,
    Formula,
    as_clause,
    external_variables,
    resolution_environment,
)
from .errors import CapExceeded


@dataclass(frozen=True)
class BlockingWitness:
    """Evidence that a clause is blocked.

    Exactly one payload is populated, matching `kind`: the blocking literal
    for kind="literal", the blocking set for kind="set", and for kind="super"
    a map from each assignment over the external variables to the set that
    blocks the clause in the correspondingly restricted formula.
    """

    kind: str
    literal: int | None = None
    blocking_set: Clause | None = None
    per_tau: "Mapping[Assignment, Clause] | None" = None


def literal_blocks(f: Formula, c: "Clause | Iterable[int]", lit: int) -> bool:
    """True iff every resolvent of c upon lit against f is a tautology.

    The resolvent c | (D \\ {-lit}) is a tautology iff c is one, or
    D \\ {-lit} is one, or D holds the complement of a literal of c other
    than lit; this is decided on the literal sets, building no resolvent.
    """
    c = as_clause(c)
    if lit not in c:
        raise ValueError("blocking literal must belong to the clause")
    flipped = frozenset(-m for m in c._lits if m != lit)
    if not flipped.isdisjoint(c._lits):  # c is a tautology
        return True
    return all(
        not flipped.isdisjoint(d._lits)
        or any(-m in d._lits for m in d._lits if m != lit and m != -lit)
        for d in f.clauses_with(-lit)
    )


def is_literal_blocked(f: Formula, c: "Clause | Iterable[int]") -> BlockingWitness | None:
    """The first blocking literal of c in canonical order, as a witness."""
    c = as_clause(c)
    for lit in c:
        if literal_blocks(f, c, lit):
            return BlockingWitness(kind="literal", literal=lit)
    return None


def set_blocks(f: Formula, c: "Clause | Iterable[int]", lits: "Clause | Iterable[int]") -> bool:
    """True iff the literals `lits` jointly block c in f."""
    c = as_clause(c)
    chosen = as_clause(lits)
    if len(chosen) == 0 or not chosen.issubset(c):
        raise ValueError("blocking set must be a non-empty subset of the clause")
    flipped = tuple(-l for l in chosen)
    rest = (c - chosen) | flipped
    return all((rest | d).is_tautology() for d in f.clauses_with_any(flipped))


def candidate_sets(c: "Clause | Iterable[int]", k: int | None = None):
    """Non-empty subsets of c, smallest first, in canonical literal order."""
    c = as_clause(c)
    bound = len(c) if k is None else min(k, len(c))
    for size in range(1, bound + 1):
        for picked in combinations(c.literals, size):
            yield Clause(picked)


def count_candidate_sets(n: int, k: int) -> int:
    """Number of candidate sets a failed search over n literals visits."""
    if not 1 <= k <= n:
        raise ValueError("candidate bound must satisfy 1 <= k <= n")
    return sum(comb(n, size) for size in range(1, k + 1))


def _search_blocking_set(
    f: Formula,
    c: Clause,
    k: int | None,
    stats: "dict[str, int] | None" = None,
) -> Clause | None:
    if len(c) == 0:
        return None
    if stats is not None:
        stats.setdefault("candidates", 0)

    if c.is_tautology():
        # The complement-pair analysis below assumes c has no internal pair,
        # so fall back to testing candidates directly. Any complementary
        # pair inside c blocks unconditionally, so for k != 1 this always
        # succeeds by size two.
        for cand in candidate_sets(c, k):
            if stats is not None:
                stats["candidates"] += 1
            if set_blocks(f, c, cand):
                return cand
        return None

    # Compile the environment once: a clause D with shared literals P and
    # complemented literals N (both relative to c) rules out exactly the
    # candidates L with N <= L and P disjoint from L. A candidate blocks
    # iff no environment clause rules it out; tautological D never does.
    constraints: set[tuple[frozenset[int], frozenset[int]]] = set()
    for d in resolution_environment(f, c):
        if d.is_tautology():
            continue
        shared = frozenset(x for x in c if x in d)
        flipped = frozenset(x for x in c if -x in d)
        constraints.add((shared, flipped))

    for cand in candidate_sets(c, k):
        if stats is not None:
            stats["candidates"] += 1
        picked = frozenset(cand)
        if all(not flipped <= picked or shared & picked for shared, flipped in constraints):
            return cand
    return None


def is_set_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    k: int | None = None,
    stats: "dict[str, int] | None" = None,
) -> BlockingWitness | None:
    """The first set of at most k literals blocking c, as a witness.

    With k=None the whole subset lattice of c is searched. `stats`, when
    given, receives the number of candidates tested under "candidates".
    """
    found = _search_blocking_set(f, as_clause(c), k, stats)
    if found is None:
        return None
    return BlockingWitness(kind="set", blocking_set=found)


@dataclass(frozen=True)
class SuperBlockingResult:
    """Outcome of an exhaustive restriction scan."""

    witness: BlockingWitness | None
    failing_tau: Assignment | None

    @property
    def blocked(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class IncompleteScan:
    """Outcome of a sampled restriction scan: refutation or no verdict."""

    refuted: bool
    failing_tau: Assignment | None
    samples: int


class _RestrictionScan:
    """Shared machinery for walking assignments over the external variables.

    Restrictions only ever remove environment clauses (satisfied ones), so
    the blocking search depends on nothing but the surviving subset; results
    are memoised per survivor mask, which collapses the tau loop whenever
    distinct assignments satisfy the same clauses.
    """

    def __init__(self, f: Formula, c: Clause, k: int | None):
        self.c = c
        self.k = k
        self.env = resolution_environment(f, c)
        self.ext = sorted(external_variables(f, c))
        self.n = len(self.ext)
        # Highest bit = smallest variable, so counting masks upward walks
        # the assignments in lexicographic order, false before true.
        self._bit = {v: self.n - 1 - i for i, v in enumerate(self.ext)}
        self._masks = []
        for d in self.env:
            pos = neg = 0
            for lit in d:
                b = self._bit.get(abs(lit))
                if b is None:
                    continue
                if lit > 0:
                    pos |= 1 << b
                else:
                    neg |= 1 << b
            self._masks.append((pos, neg))
        self._memo: dict[int, Clause | None] = {}

    def tau(self, m: int) -> Assignment:
        return Assignment({v: (m >> self._bit[v]) & 1 for v in self.ext})

    def _survivors(self, m: int) -> int:
        alive = 0
        full = (1 << self.n) - 1
        for i, (pos, neg) in enumerate(self._masks):
            if not (pos & m) and not (neg & (~m & full)):
                alive |= 1 << i
        return alive

    def blocking_set_at(self, m: int) -> Clause | None:
        alive = self._survivors(m)
        if alive not in self._memo:
            g = Formula(d for i, d in enumerate(self.env) if alive & (1 << i))
            self._memo[alive] = _search_blocking_set(g, self.c, self.k)
        return self._memo[alive]


def check_super_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    k: int | None = None,
    ext_cap: int = 16,
) -> SuperBlockingResult:
    """Decide super-blocking by scanning every external assignment.

    Set-blocking in the unrestricted formula is checked first: restrictions
    only remove constraints, so a set that blocks c in f blocks it in every
    restriction and the scan can be skipped. Otherwise each assignment gets
    its own witness, and the first assignment without one refutes.
    """
    c = as_clause(c)
    fast = is_set_blocked(f, c, k)
    if fast is not None:
        return SuperBlockingResult(fast, None)

    ext = external_variables(f, c)
    if len(ext) > ext_cap:
        raise CapExceeded(
            "restriction scan over %d external variables exceeds cap %d"
            % (len(ext), ext_cap),
            count=len(ext),
            cap=ext_cap,
        )

    scan = _RestrictionScan(f, c, k)
    per_tau: dict[Assignment, Clause] = {}
    for m in range(1 << scan.n):
        found = scan.blocking_set_at(m)
        if found is None:
            return SuperBlockingResult(None, scan.tau(m))
        per_tau[scan.tau(m)] = found
    return SuperBlockingResult(BlockingWitness(kind="super", per_tau=per_tau), None)


def is_super_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    k: int | None = None,
    ext_cap: int = 16,
) -> BlockingWitness | None:
    return check_super_blocked(f, c, k, ext_cap).witness


def sample_super_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    rng: Random,
    samples: int = 256,
    k: int | None = None,
) -> IncompleteScan:
    """Test random external assignments; can refute super-blocking, not confirm it.

    Intended for instances past the exhaustive cap, so no cap applies here.
    """
    c = as_clause(c)
    if is_set_blocked(f, c, k) is not None:
        return IncompleteScan(False, None, 0)
    scan = _RestrictionScan(f, c, k)
    for i in range(samples):
        m = rng.getrandbits(scan.n)
        if scan.blocking_set_at(m) is None:
            return IncompleteScan(True, scan.tau(m), i + 1)
    return IncompleteScan(False, None, samples)
