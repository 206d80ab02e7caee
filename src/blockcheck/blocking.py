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

Set-blocking is decided on a compiled form of c's resolution environment:
a clause D of it rules out exactly the candidates L that hold every
literal of c whose complement D contains and no literal D shares with c,
so each literal position of c gets two bitsets over the environment and a
candidate's rule-out set is an AND of one of them per position (see
`_Environment`). Candidates are decided by integer operations, building
no resolvent and no clause.

The super-blocking decider enumerates all 2^|ext| restrictions, which is
exact but exponential; it refuses to start past `ext_cap` and offers a
sampling fallback that can refute but never confirm. It compiles the
environment once per question, and under each restriction only the set of
surviving clauses changes, a bitset as well (see `_RestrictionScan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import neg
from random import Random
from typing import Container, Iterable, Mapping

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
    if lit not in c._lits:
        raise ValueError("blocking literal must belong to the clause")
    bucket = f.occurrences(-lit)
    if not bucket:  # no resolvent at all: lit is pure
        return True
    flipped = set(map(neg, c._lits))
    flipped.discard(-lit)
    if not flipped.isdisjoint(c._lits):  # c is a tautology
        return True
    for d in bucket:
        lits = d._lits
        if flipped.isdisjoint(lits) and (
            lits.isdisjoint(map(neg, lits))
            or not any(-m in lits for m in lits if m != lit and m != -lit)
        ):
            return False
    return True


def is_literal_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    among: "Container[int] | None" = None,
) -> BlockingWitness | None:
    """The first blocking literal of c in canonical order, as a witness.

    With `among`, only c's literals in it are tried, still in canonical order.
    """
    c = as_clause(c)
    lits = c._canon if among is None else [l for l in c._canon if l in among]
    for lit in lits:
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


class _Environment:
    """c's resolution environment compiled into rule-out bitsets.

    Bit i stands for environment clause i. A non-tautological clause D with
    shared literals P and complemented literals N (positions of c's
    canonical literals) rules out exactly the candidates L with N <= L and
    P disjoint from L; tautological D rules out nothing. So for each
    position q there are two bitsets, `no_p[q]` (the non-tautological
    clauses whose P lacks q) and `no_n[q]` (those whose N lacks q), and the
    clauses ruling out L are AND_q (no_p[q] if q in L else no_n[q]). A
    candidate blocks c in any subset of the environment whose bitset meets
    none of them.

    A tautological c keeps its complementary pairs as position pairs in
    `pairs`. A candidate that takes both or neither literal of a pair
    leaves (c \\ L) | complements(L) a tautology, so nothing rules it out;
    for one that takes exactly one literal of every pair the rule above is
    exact.
    """

    __slots__ = ("lits", "pairs", "no_p", "no_n", "suf_n")

    def __init__(self, c: Clause, env: "list[Clause]"):
        self.lits = lits = c.literals
        where = {x: q for q, x in enumerate(lits)}
        self.pairs = [(q, where[-x]) for q, x in enumerate(lits) if x > 0 and -x in where]
        has_p = [0] * len(lits)
        has_n = [0] * len(lits)
        live = 0
        for i, d in enumerate(env):
            bit = 1 << i
            ds = d._lits
            for m in ds:
                if -m in ds:  # tautological: left out of every rule-out set
                    break
                q = where.get(m)
                if q is not None:
                    has_p[q] |= bit
                q = where.get(-m)
                if q is not None:
                    has_n[q] |= bit
            else:
                live |= bit
        self.no_p = [live & ~h for h in has_p]
        self.no_n = [live & ~h for h in has_n]
        # suf_n[q]: AND of no_n over the positions from q on, so the
        # positions after a candidate's last one cost a single AND.
        self.suf_n = suf = [live] * (len(lits) + 1)
        for q in range(len(lits) - 1, -1, -1):
            suf[q] = suf[q + 1] & self.no_n[q]

    def candidates(self, k: "int | None"):
        """(positions, rule-out bitset) per candidate, in `candidate_sets` order.

        The positions list is reused from step to step; copy it to keep it.
        """
        no_p, no_n, suf_n, pairs = self.no_p, self.no_n, self.suf_n, self.pairs
        n = len(no_p)
        for size in range(1, (n if k is None else min(k, n)) + 1):
            # pos walks the size-subsets of positions like `combinations`;
            # ahead[j] is the AND over the positions before pos[j] (no_p for
            # chosen ones, no_n for skipped ones) and upto[j] adds pos[j].
            pos = list(range(size))
            ahead = [0] * size
            upto = [0] * size
            acc = suf_n[n]
            for j in range(size):
                ahead[j] = acc
                acc = upto[j] = acc & no_p[j]
            last = size - 1
            while True:
                if pairs and any((a in pos) == (b in pos) for a, b in pairs):
                    yield pos, 0
                else:
                    yield pos, upto[last] & suf_n[pos[last] + 1]
                j = last
                while j >= 0 and pos[j] == n - size + j:
                    j -= 1
                if j < 0:
                    break
                ahead[j] &= no_n[pos[j]]
                pos[j] += 1
                upto[j] = ahead[j] & no_p[pos[j]]
                for j in range(j + 1, size):
                    pos[j] = pos[j - 1] + 1
                    ahead[j] = upto[j - 1]
                    upto[j] = ahead[j] & no_p[pos[j]]

    def clause(self, picked: Iterable[int]) -> Clause:
        return Clause(self.lits[q] for q in picked)


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
    env = _Environment(c, resolution_environment(f, c))
    for picked, ruled_out in env.candidates(k):
        if stats is not None:
            stats["candidates"] += 1
        if not ruled_out:
            return env.clause(picked)
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
    the blocking search depends on nothing but the surviving subset, and
    the environment is compiled once per scan into bitsets (bit i stands
    for environment clause i). `_sat[b]` holds the clauses satisfied by
    setting the variable at bit b false and true, so the survivors of
    assignment m are the environment minus one bitset per external
    variable. The candidates' rule-out bitsets (see `_Environment`) are
    drawn lazily in canonical order and kept across assignments, so each
    assignment is decided by integer ANDs against its survivors: the first
    candidate whose rule-out set meets none of them blocks. No formula or
    clause is built per assignment.
    """

    def __init__(self, f: Formula, c: Clause, k: int | None):
        env = resolution_environment(f, c)
        self.ext = sorted(external_variables(f, c))
        self.n = len(self.ext)
        # Highest bit = smallest variable, so counting masks upward walks
        # the assignments in lexicographic order, false before true.
        self._bit = {v: self.n - 1 - i for i, v in enumerate(self.ext)}
        self._sat = [[0, 0] for _ in self.ext]
        for i, d in enumerate(env):
            for lit in d:
                b = self._bit.get(abs(lit))
                if b is not None:
                    self._sat[b][lit > 0] |= 1 << i
        self._all = (1 << len(env)) - 1
        self._compiled = _Environment(c, env)
        self._more = self._compiled.candidates(k)
        # rule-out bitset and positions (a Clause once it has blocked) of
        # each candidate drawn so far
        self._ruled: list[int] = []
        self._picked: "list[tuple[int, ...] | Clause]" = []

    def tau(self, m: int) -> Assignment:
        return Assignment({v: (m >> self._bit[v]) & 1 for v in self.ext})

    def _survivors(self, m: int) -> int:
        dead = 0
        for b, by_value in enumerate(self._sat):
            dead |= by_value[(m >> b) & 1]
        return self._all & ~dead

    def blocking_set_at(self, m: int) -> Clause | None:
        alive = self._survivors(m)
        for i, ruled_out in enumerate(self._ruled):
            if not ruled_out & alive:
                return self._set(i)
        for picked, ruled_out in self._more:
            self._ruled.append(ruled_out)
            self._picked.append(tuple(picked))
            if not ruled_out & alive:
                return self._set(len(self._ruled) - 1)
        return None

    def _set(self, i: int) -> Clause:
        found = self._picked[i]
        if not isinstance(found, Clause):
            found = self._picked[i] = self._compiled.clause(found)
        return found


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

    scan = _RestrictionScan(f, c, k)
    if scan.n > ext_cap:
        raise CapExceeded(
            "restriction scan over %d external variables exceeds cap %d"
            % (scan.n, ext_cap),
            count=scan.n,
            cap=ext_cap,
        )

    # The table's assignments are built only once every mask has a set: a
    # scan that ends in a refutation needs none of them.
    sets: list[Clause] = []
    for m in range(1 << scan.n):
        found = scan.blocking_set_at(m)
        if found is None:
            return SuperBlockingResult(None, scan.tau(m))
        sets.append(found)
    per_tau = {scan.tau(m): found for m, found in enumerate(sets)}
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
