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
sampling fallback that can refute but never confirm. Both read and compile
c's environment once per question: set-blocking in the whole formula is
the scan's first step, and under each restriction only the set of
surviving clauses changes, a bitset as well (see `_RestrictionScan`). Its
witness keeps the sets in the scan's order (see `RestrictionTable`), which
is also the order `check` and traces write them in.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product
from math import comb
from operator import neg
from random import Random
from typing import Callable, Container, Iterable, Iterator

from .cnf import (
    Assignment,
    Clause,
    Formula,
    as_clause,
    resolution_environment,
)
from .errors import CapExceeded


@dataclass(frozen=True)
class BlockingWitness:
    """Evidence that a clause is blocked.

    Exactly one payload is populated, matching `kind`: the blocking literal
    for kind="literal", the blocking set for kind="set", and for kind="super"
    a map from each assignment over the external variables to the set that
    blocks the clause in the correspondingly restricted formula (a
    `RestrictionTable` when the scan built it).
    """

    kind: str
    literal: int | None = None
    blocking_set: Clause | None = None
    per_tau: "Mapping[Assignment, Clause] | None" = None


class RestrictionTable(Mapping):
    """Read-only map from every assignment over `variables` to a blocking set.

    `variables` is sorted and `sets[m]` belongs to the assignment whose bits,
    smallest variable highest, spell m. Counting m upward walks the
    assignments in lexicographic order of their literals, false before true,
    which is the order of iteration and of `rows()`. Assignments are built
    only when a caller asks for one; a key that is not an `Assignment` over
    exactly `variables` is absent.
    """

    __slots__ = ("variables", "sets")

    def __init__(self, variables: Iterable[int], sets: Iterable[Clause]):
        self.variables = tuple(variables)
        self.sets = tuple(sets)
        if list(self.variables) != sorted(set(self.variables)):
            raise ValueError("restriction table variables must be distinct and sorted")
        if len(self.sets) != 1 << len(self.variables):
            raise ValueError("a restriction table needs one set per assignment")

    def rows(self) -> "Iterator[tuple[str, Clause]]":
        """(assignment as zero-terminated DIMACS literals, set) per row, in
        table order; each literal is formatted once, not once per row."""
        texts = [("-%d" % v, "%d" % v) for v in self.variables]
        return zip(map(" ".join, product(*texts, ("0",))), self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> "Iterator[Assignment]":
        for values in product((0, 1), repeat=len(self.variables)):
            yield Assignment(dict(zip(self.variables, values)))

    def __getitem__(self, tau: Assignment) -> Clause:
        if not isinstance(tau, Assignment) or len(tau) != len(self.variables):
            raise KeyError(tau)
        m = 0
        for v in self.variables:
            value = tau.value(v)
            if value is None:
                raise KeyError(tau)
            m = (m << 1) | value
        return self.sets[m]


def restriction_rows(per_tau: "Mapping[Assignment, Clause]") -> "Iterator[tuple[str, str]]":
    """The rows of a super-blocking witness as (τ, set) DIMACS texts.

    Rows come in lexicographic order of τ's literals: a `RestrictionTable`
    is already in that order, and any other mapping is sorted into it.
    """
    if isinstance(per_tau, RestrictionTable):
        rows = per_tau.rows()
    else:
        ordered = sorted((tau.to_literals(), s) for tau, s in per_tau.items())
        rows = ((" ".join(map(str, lits + (0,))), s) for lits, s in ordered)
    return ((tau, s.dimacs()) for tau, s in rows)


def literal_blocks(f: Formula, c: "Clause | Iterable[int]", lit: int) -> bool:
    """True iff every resolvent of c upon lit against f is a tautology."""
    c = as_clause(c)
    if lit not in c:
        raise ValueError("blocking literal must belong to the clause")
    return is_literal_blocked(f, c, (lit,)) is not None


def is_literal_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    among: "Container[int] | None" = None,
) -> BlockingWitness | None:
    """The first blocking literal of c in canonical order, as a witness.

    With `among`, only c's literals in it are tried, still in canonical order.

    The resolvent of c upon lit with D is c | (D \\ {-lit}), a tautology iff
    c is one, or D \\ {-lit} is one, or D holds the complement of a literal
    of c other than lit. This is decided on the literal sets, building no
    resolvent: c's complement set is built and c tested for tautology once
    per check, and each literal tried takes its own complement out of that
    set while it runs.
    """
    c = as_clause(c)
    lits = c._canon if among is None else [l for l in c._canon if l in among]
    if not lits:
        return None
    flipped = set(map(neg, c._canon))
    if not c.isdisjoint(flipped):  # c is a tautology, and so is every resolvent
        return BlockingWitness(kind="literal", literal=lits[0])
    occurrences = f.occurrences
    for lit in lits:
        flipped.remove(-lit)
        for d in occurrences(-lit):
            # the Clause is the receiver: a set argument keeps isdisjoint in C
            if d.isdisjoint(flipped) and (
                d.isdisjoint(map(neg, d._canon))
                or not any(-m in d for m in d._canon if m != lit and m != -lit)
            ):
                break  # a resolvent that is not a tautology
        else:
            return BlockingWitness(kind="literal", literal=lit)
        flipped.add(-lit)
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
        flipped = c.complements()
        has_p = [0] * len(lits)
        has_n = [0] * len(lits)
        live = 0
        for i, d in enumerate(env):
            if not d.isdisjoint(map(neg, d._canon)):  # tautological: left out of every rule-out set
                continue
            bit = 1 << i
            live |= bit
            for m in d.intersection(c):
                has_p[where[m]] |= bit
            for m in d.intersection(flipped):
                has_n[where[-m]] |= bit
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
            # chosen ones, no_n for skipped ones).
            last = size - 1
            pos = list(range(size))
            ahead = [suf_n[n]] * size
            for j in range(1, size):
                ahead[j] = ahead[j - 1] & no_p[j - 1]
            while True:
                # the last position runs to the end here, and `acc` takes in
                # no_n of each position it leaves behind
                acc = ahead[last]
                for q in range(pos[last], n):
                    pos[last] = q
                    if pairs and any((a in pos) == (b in pos) for a, b in pairs):
                        yield pos, 0
                    else:
                        yield pos, acc & no_p[q] & suf_n[q + 1]
                    acc &= no_n[q]
                j = last - 1
                while j >= 0 and pos[j] == n - size + j:
                    j -= 1
                if j < 0:
                    break
                ahead[j] &= no_n[pos[j]]
                pos[j] += 1
                for j in range(j + 1, size):
                    pos[j] = pos[j - 1] + 1
                    ahead[j] = ahead[j - 1] & no_p[pos[j - 1]]

    def clause(self, picked: Iterable[int]) -> Clause:
        return Clause(self.lits[q] for q in picked)

    def clause_at(self, i: int) -> Clause:
        """The candidate `candidates` yields at index i (counting from 0)."""
        n = len(self.lits)
        size = 1
        while i >= comb(n, size):
            i -= comb(n, size)
            size += 1
        return self.clause(next(islice(combinations(range(n), size), i, None)))


def _search_blocking_set(
    f: Formula,
    c: Clause,
    k: int | None,
    stats: "dict[str, int] | None" = None,
) -> Clause | None:
    # Streams the candidates rather than calling
    # `_RestrictionScan(f, c, k).blocking_set()`, which finds the same set
    # but also keeps each candidate's rule-out bitset for later restrictions
    # and tests it against an `alive` mask; a question with no restrictions
    # pays for that and gains nothing. Through the scan, each
    # sat_to_setblocking question (random 3-CNF, 5 variables, 21 clauses; 50
    # questions, best of 40 interleaved runs on a 2-core x86 host) took
    # 3-17% longer, 9-10% at the median.
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
    """One super-blocking question, compiled once, and its walk over the
    assignments to the external variables.

    c's resolution environment is read once and compiled once (bit i stands
    for environment clause i, see `_Environment`). Restrictions only ever
    remove environment clauses (satisfied ones), so the blocking search
    depends on nothing but the surviving subset. The candidates' rule-out
    bitsets are drawn lazily in canonical order and kept, so no candidate
    is drawn twice: the first candidate whose rule-out set meets none of the
    survivors blocks. The whole formula, with every clause alive, is the
    first question asked (`blocking_set`); it needs nothing else. Only when
    a restriction is asked about are the external variables sorted and
    `_sat` built: `_sat[b]` holds the clauses satisfied by setting the
    variable at bit b false and true, so the survivors of assignment m are
    the environment minus one bitset per external variable. No formula or
    clause is built per assignment.
    """

    def __init__(self, f: Formula, c: Clause, k: int | None):
        self._c = c
        self._env = env = resolution_environment(f, c)
        self._all = (1 << len(env)) - 1
        self._compiled = _Environment(c, env)
        self._more = self._compiled.candidates(k)
        # the rule-out bitset of each candidate drawn so far, and by index
        # the candidates that have blocked
        self._ruled: list[int] = []
        self._sets: dict[int, Clause] = {}

    @cached_property
    def ext(self) -> "list[int]":
        """The external variables, sorted: those of the environment outside c."""
        seen = frozenset().union(*self._env)
        return sorted(set(map(abs, seen)) - self._c.variables())

    @cached_property
    def _sat(self) -> "list[list[int]]":
        # Highest bit = smallest variable, so counting masks upward walks
        # the assignments in lexicographic order, false before true.
        acc = {}
        for v in self.ext:
            acc[v] = acc[-v] = 0
        for i, d in enumerate(self._env):
            bit = 1 << i
            for lit in d._canon:
                if lit in acc:
                    acc[lit] |= bit
        return [[acc[-v], acc[v]] for v in reversed(self.ext)]

    def tau(self, m: int) -> Assignment:
        top = len(self.ext) - 1
        return Assignment({v: (m >> (top - i)) & 1 for i, v in enumerate(self.ext)})

    def _survivors(self, m: int) -> int:
        dead = 0
        for b, by_value in enumerate(self._sat):
            dead |= by_value[(m >> b) & 1]
        return self._all & ~dead

    def blocking_set(self) -> Clause | None:
        """The first set blocking c in the whole formula: `is_set_blocked`'s."""
        return self._first(self._all)

    def blocking_set_at(self, m: int) -> Clause | None:
        return self._first(self._survivors(m))

    def _first(self, alive: int) -> Clause | None:
        ruled = self._ruled
        for i, ruled_out in enumerate(ruled):
            if not ruled_out & alive:
                return self._set(i)
        for _, ruled_out in self._more:
            ruled.append(ruled_out)
            if not ruled_out & alive:
                return self._set(len(ruled) - 1)
        return None

    def _set(self, i: int) -> Clause:
        found = self._sets.get(i)
        if found is None:
            found = self._sets[i] = self._compiled.clause_at(i)
        return found


def check_super_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    k: int | None = None,
    ext_cap: int = 16,
    sample: "tuple[Random, int] | None" = None,
) -> SuperBlockingResult:
    """Decide super-blocking by scanning every external assignment.

    Set-blocking in the unrestricted formula is the scan's first step:
    restrictions only remove constraints, so a set that blocks c in f blocks
    it in every restriction and no assignment needs a look (nor does the
    cap apply). Otherwise each assignment gets its own witness, and the
    first assignment without one refutes.

    Past the cap, `sample` (a random source and a count) tests that many
    random assignments on the same compiled question, as
    `sample_super_blocked` does: one without a set refutes, and when none
    refutes the cap error stands.
    """
    scan = _RestrictionScan(f, as_clause(c), k)
    found = scan.blocking_set()
    if found is not None:
        return SuperBlockingResult(BlockingWitness(kind="set", blocking_set=found), None)

    n = len(scan.ext)
    if n > ext_cap:
        if sample is not None:
            sampled = _sample(scan, *sample)
            if sampled.refuted:
                return SuperBlockingResult(None, sampled.failing_tau)
        raise CapExceeded(
            "restriction scan over %d external variables exceeds cap %d" % (n, ext_cap),
            count=n,
            cap=ext_cap,
        )

    # Masks count upward in the table's own order, so the sets are the table.
    sets: list[Clause] = []
    for m in range(1 << n):
        found = scan.blocking_set_at(m)
        if found is None:
            return SuperBlockingResult(None, scan.tau(m))
        sets.append(found)
    per_tau = RestrictionTable(scan.ext, sets)
    return SuperBlockingResult(BlockingWitness(kind="super", per_tau=per_tau), None)


def blocking_set_under(
    f: Formula,
    c: "Clause | Iterable[int]",
    value: "Callable[[int], int]",
) -> Clause | None:
    """The first set blocking c once f is restricted by `value` (0 or 1 per
    variable) on c's external variables.

    The same set as `is_set_blocked(restrict(f, tau), c)` for tau the
    assignment `value` gives `external_variables(f, c)`, read off c's
    compiled environment instead of a restricted copy of f.
    """
    scan = _RestrictionScan(f, as_clause(c), None)
    m = 0
    for v in scan.ext:
        m = (m << 1) | value(v)
    return scan.blocking_set_at(m)


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
    scan = _RestrictionScan(f, as_clause(c), k)
    if scan.blocking_set() is not None:
        return IncompleteScan(False, None, 0)
    return _sample(scan, rng, samples)


def _sample(scan: _RestrictionScan, rng: Random, samples: int) -> IncompleteScan:
    """Random assignments of a question not set-blocked in the whole formula."""
    n = len(scan.ext)
    for i in range(samples):
        m = rng.getrandbits(n)
        if scan.blocking_set_at(m) is None:
            return IncompleteScan(True, scan.tau(m), i + 1)
    return IncompleteScan(False, None, samples)
