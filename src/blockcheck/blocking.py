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
literal of c whose complement D contains and no literal D shares with c
(see `_Environment`). Candidates are decided by integer operations,
building no resolvent and no clause, on one of two routes. A lattice of 64
to 2^11 candidates, whose rules take at most 2^20 bits, gets one bit per
candidate, numbered in `candidate_sets` order, and each clause D one
rule-out bitset over them; the first blocking set is the lowest bit no
rule covers. Every other lattice is walked candidate by candidate, each
candidate's rule-out set an AND of one bitset over the environment per
position of c. Both routes give the same sets, tables, failing
assignments and counts.

The super-blocking decider covers all 2^|ext| restrictions, which is exact
but exponential. Past `ext_cap` it refuses, or, given a random source and
a count, samples that many restrictions, which can refute but never
confirm. Set-blocking in the whole formula is the scan's first step, and
under each restriction only the set of surviving clauses changes (see
`_RestrictionScan`). On the bit route the scan goes depth first over the
external variables and stops at the first subtree in which the clauses
that survive every completion already rule out every candidate. Its
witness keeps the sets in the scan's order (see `RestrictionTable`),
which is also the order `check` and traces write them in; reading a trace
back builds the same table.

Both deciders read and compile c's environment once per clause and
formula state: the formula keeps the last one compiled in its `compiled`
slot (see `_compile`), which it clears on every change, and the compiled
form does not depend on k (its rule-out bitsets over a lattice are kept
in it per bound). So every k, and a super-blocking question after a
set-blocking one on the same clause (classify asks both in a row), share
one compile.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice, product
from math import comb
from operator import neg, or_
from random import Random
from typing import Callable, Container, Iterable, Iterator

from .cnf import (
    Assignment,
    Clause,
    Formula,
    as_clause,
    assignment_at,
    assignment_index,
    resolution_environment,
)
from .errors import CapExceeded

# The default cap on external variables for an exhaustive restriction scan.
EXT_CAP = 16


def check_bounds(k: int | None, ext_cap: int = 0) -> None:
    """Reject a blocking-set bound below 1 and a negative external-variable
    cap: the one rule both deciders and `EliminationConfig` apply."""
    if ext_cap < 0:
        raise ValueError("external-variable cap must be non-negative")
    if k is not None and k < 1:
        raise ValueError("blocking-set bound must be positive")


@dataclass(frozen=True)
class BlockingWitness:
    """Evidence that a clause is blocked.

    Exactly one payload is populated, matching `kind`: the blocking literal
    for kind="literal", the blocking set for kind="set", and for kind="super"
    the `RestrictionTable` of the set that blocks the clause under each
    assignment to the external variables (None in a compact trace, where
    repair recomputes the one set it needs).
    """

    kind: str
    literal: int | None = None
    blocking_set: Clause | None = None
    per_tau: "RestrictionTable | None" = None


class RestrictionTable(Mapping):
    """Read-only map from every assignment over `variables` to a blocking set.

    `variables` is sorted and `sets[m]` belongs to the assignment with index
    m (`cnf.assignment_index`). Counting m upward walks the assignments in
    lexicographic order, which is the order of iteration and of `rows()`.
    Assignments are built only when a caller asks for one; a key that is
    not an `Assignment` over exactly `variables` is absent.

    It is the one form of a super-blocking witness table: the scan builds
    it, `check` and the trace writer print its `dimacs_rows()`, and the
    trace reader builds it back from a `wt` block.
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
        table order; each literal is formatted once, not once per row. The
        library prints `dimacs_rows()`; this is the same rows with the sets
        as clauses, for a caller that reads them (the tests compare
        `dimacs_rows()` and the printed tables with it)."""
        return zip(self._taus(), self.sets)

    def dimacs_rows(self) -> "Iterator[tuple[str, str]]":
        """`rows()` with each set as its DIMACS text, which is formatted once
        per distinct set, not once per row."""
        texts = {s: s.dimacs() for s in set(self.sets)}
        return zip(self._taus(), map(texts.__getitem__, self.sets))

    def _taus(self) -> "Iterator[str]":
        texts = [("-%d" % v, "%d" % v) for v in self.variables]
        return map(" ".join, product(*texts, ("0",)))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> "Iterator[Assignment]":
        for m in range(len(self.sets)):
            yield assignment_at(self.variables, m)

    def __getitem__(self, tau: Assignment) -> Clause:
        if not isinstance(tau, Assignment) or tau.variables() != set(self.variables):
            raise KeyError(tau)
        return self.sets[assignment_index(self.variables, tau.value)]


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


# Lattices of this many candidates are decided one bit per candidate. Under
# 64 the walk is cheaper; 2^11 covers the largest lattice timed on both
# routes (2,047 candidates, an 11-literal clause with k unbounded), and
# larger ones keep the walk, which can stop at an early blocking set
# without building every clause's rule-out bitset.
_BIT_LATTICE = range(64, (1 << 11) + 1)
# Clauses of fewer literals have fewer candidates than the smallest lattice.
_BIT_MIN_LITERALS = _BIT_LATTICE.start.bit_length()
# A bit lattice holds at most this many rule bits (|env| x candidates), so
# the one kept with a compiled environment stays under a megabyte with
# Python's int headers; a larger environment keeps the walk.
_LATTICE_BITS = 1 << 20


@lru_cache(maxsize=4)
def _candidate_bits(n: int, bound: int) -> "tuple[int, tuple[int, ...]] | None":
    """The candidates of an n-literal clause with at most `bound` literals,
    bit j for the j-th in `candidate_sets` order: (all of them, per position
    q the ones that hold q). None for a lattice the walk decides."""
    if count_candidate_sets(n, bound) not in _BIT_LATTICE:
        return None
    if bound == 1:
        return (1 << n) - 1, tuple(1 << q for q in range(n))
    # row[t][e]: the t-subsets of range(m), in lexicographic order, that hold
    # e, for m = 1 to n; size[t] counts them. The ones holding 0 come first,
    # then the t-subsets of range(1, m), so row m follows from row m - 1.
    row = [[] for _ in range(bound + 1)]
    size = [1] + [0] * bound
    for m in range(1, n + 1):
        row = [[0] * m] + [
            [(1 << size[t - 1]) - 1] + [a | b << size[t - 1] for a, b in zip(row[t - 1], row[t])]
            for t in range(1, bound + 1)
        ]
        size = [1] + [size[t - 1] + size[t] for t in range(1, bound + 1)]
    holds, offset = [0] * n, 0
    for t in range(1, bound + 1):
        for q, bits in enumerate(row[t]):
            holds[q] |= bits << offset
        offset += size[t]
    return (1 << offset) - 1, tuple(holds)


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

    It also keeps c as `subject` and the environment as `env`, the list bit
    i counts in. The walk's bitsets are built on the first walk
    (`walk_bitsets`); a bit lattice (`_BIT_LATTICE`) gets one rule-out
    bitset per clause over the candidates instead (see `lattice`), built on
    first use and kept in `kept_lattice` for the last bound asked. Only
    those lazily built parts change, and they are what a fresh compile
    would build, so it is the value a formula keeps in its `compiled` slot,
    shared by formula copies (see `_compile`).
    """

    __slots__ = ("subject", "env", "lits", "pairs", "no_p", "no_n", "suf_n", "kept_lattice")

    def __init__(self, c: Clause, env: "list[Clause]"):
        self.subject = c
        self.env = env
        self.lits = lits = c.literals
        where = {x: q for q, x in enumerate(lits)}
        self.pairs = [(q, where[-x]) for q, x in enumerate(lits) if x > 0 and -x in where]
        self.no_p = self.no_n = self.suf_n = None
        # (bound, `lattice`'s answer for it), for the last bound asked
        self.kept_lattice: "tuple[int, tuple[int, list[int]] | None] | None" = None

    def walk_bitsets(self) -> None:
        """Build `no_p`, `no_n` and `suf_n`, the walk's bitsets."""
        c, lits = self.subject, self.lits
        where = {x: q for q, x in enumerate(lits)}
        flipped = c.complements()
        has_p = [0] * len(lits)
        has_n = [0] * len(lits)
        live = 0
        for i, d in enumerate(self.env):
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

    def holds(self, f: Formula) -> bool:
        """Whether a fresh read and compile of the clause's environment in f
        give the same environment, in order, and the same bitsets, those of
        the walk and of the kept lattice."""
        fresh = _Environment(self.subject, resolution_environment(f, self.subject))
        if (self.no_p, self.no_n, self.suf_n) != (None, None, None):
            fresh.walk_bitsets()
        if self.kept_lattice is not None:
            fresh.lattice(self.kept_lattice[0])
        return all(getattr(fresh, a) == getattr(self, a) for a in _Environment.__slots__)

    def lattice(self, k: "int | None") -> "tuple[int, list[int]] | None":
        """(all candidates, rules): one bit per candidate of at most k
        literals, in `candidates` order, and per environment clause the
        candidates it rules out. None when the number of candidates is
        outside `_BIT_LATTICE` or the rules would pass `_LATTICE_BITS`:
        `candidates` walks those.

        A clause holding literal m rules out only candidates that hold the
        position of -m in c and lack that of m; for a tautological c, also
        only those that split every pair.
        """
        n = len(self.lits)
        if n < _BIT_MIN_LITERALS:
            return None
        bound = n if k is None else min(k, n)
        kept = self.kept_lattice
        if kept is not None and kept[0] == bound:
            return kept[1]
        bits = _candidate_bits(n, bound)
        if bits is not None and len(self.env) * bits[0].bit_length() > _LATTICE_BITS:
            bits = None
        if bits is None:
            self.kept_lattice = bound, None
            return None
        full, holds = bits
        masks: "dict[int, int]" = {}
        for q, x in enumerate(self.lits):
            masks[-x] = masks.get(-x, full) & holds[q]
            masks[x] = masks.get(x, full) & ~holds[q]
        split = full
        for a, b in self.pairs:
            split &= holds[a] ^ holds[b]
        rules = []
        for d in self.env:
            ruled = 0
            if d.isdisjoint(map(neg, d._canon)):  # a tautological clause rules out nothing
                ruled = split
                for m in d._canon:
                    mask = masks.get(m)
                    if mask is not None:
                        ruled &= mask
            rules.append(ruled)
        self.kept_lattice = bound, (full, rules)
        return full, rules

    def candidates(self, k: "int | None"):
        """(positions, rule-out bitset) per candidate, in `candidate_sets` order.

        The positions list is reused from step to step; copy it to keep it.
        """
        if self.no_p is None:
            self.walk_bitsets()
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

    @staticmethod
    def first_free(full: int, ruled: int) -> int:
        """The index of the lowest candidate of a bit lattice that `ruled`
        lacks, or -1 when it holds them all."""
        free = full & ~ruled
        return (free & -free).bit_length() - 1

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


def _compile(f: Formula, c: Clause) -> _Environment:
    """c's environment in f, compiled, once per clause and formula state: f
    keeps the last one in its `compiled` slot."""
    kept = f.compiled
    if kept is None or kept.subject != c:
        kept = f.compiled = _Environment(c, resolution_environment(f, c))
    return kept


def _search_blocking_set(
    f: Formula,
    c: Clause,
    k: int | None,
    stats: "dict[str, int] | None" = None,
) -> Clause | None:
    # The walk streams the candidates rather than calling
    # `_RestrictionScan(f, c, k).blocking_set()`, which finds the same set
    # but also keeps each candidate's rule-out bitset for later restrictions
    # and tests it against an `alive` mask; a question with no restrictions
    # pays for that and gains nothing. Through the scan, each
    # sat_to_setblocking question (random 3-CNF, 5 variables, 21 clauses; 50
    # questions, best of 40 interleaved runs on a 2-core x86 host) took
    # 3-17% longer, 9-10% at the median, when such questions were walked.
    if len(c) == 0:
        return None
    if stats is not None:
        stats.setdefault("candidates", 0)
    env = _compile(f, c)
    lattice = env.lattice(k)
    if lattice is not None:
        full, rules = lattice
        i = env.first_free(full, reduce(or_, rules, 0))
        if stats is not None:
            stats["candidates"] += i + 1 if i >= 0 else full.bit_length()
        return env.clause_at(i) if i >= 0 else None
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
    check_bounds(k)
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


class _RestrictionScan:
    """One super-blocking question on c's compiled environment, and its walk
    over the assignments to the external variables.

    c's resolution environment comes compiled from `_compile`, once per
    clause and formula state (bit i stands for environment clause i, see
    `_Environment`); the scan's own state lives here. Restrictions only ever
    remove environment clauses (satisfied ones), so the blocking search
    depends on nothing but the surviving subset. On the walk the
    candidates' rule-out bitsets are drawn lazily in canonical order and
    kept, so no candidate is drawn twice: the first candidate whose rule-out
    set meets none of the survivors blocks. On a bit lattice the first set
    is the lowest candidate no survivor's rule covers. The whole formula,
    with every clause alive, is the first question asked (`blocking_set`);
    it needs nothing else. Only when a restriction is asked about are the
    external variables sorted (`external`) and `_sat` built: `_sat[b]`
    holds the clauses satisfied by setting the variable at bit b false and
    true, so the survivors of assignment m are the environment minus one
    bitset per external variable. No formula or clause is built per
    assignment.
    """

    __slots__ = ("_compiled", "_lattice", "_all", "_more", "_ruled", "_sets", "_ext", "_sat")

    def __init__(self, f: Formula, c: Clause, k: int | None):
        self._compiled = compiled = _compile(f, c)
        self._lattice = compiled.lattice(k)
        self._all = (1 << len(compiled.env)) - 1
        self._more = compiled.candidates(k)
        # the rule-out bitset of each candidate drawn so far, and by index
        # the candidates that have blocked
        self._ruled: list[int] = []
        self._sets: dict[int, Clause] = {}
        self._ext: "list[int] | None" = None
        self._sat: "list[list[int]] | None" = None

    def external(self) -> "list[int]":
        """The external variables, sorted: those of the environment outside c."""
        if self._ext is None:
            seen = frozenset().union(*self._compiled.env)
            self._ext = sorted(set(map(abs, seen)) - self._compiled.subject.variables())
        return self._ext

    def _survivors(self, m: int) -> int:
        if self._sat is None:
            # bit b of an index is the b-th largest external variable
            # (`cnf.assignment_index`)
            acc = {}
            for v in self.external():
                acc[v] = acc[-v] = 0
            for i, d in enumerate(self._compiled.env):
                bit = 1 << i
                for lit in d._canon:
                    if lit in acc:
                        acc[lit] |= bit
            self._sat = [[acc[-v], acc[v]] for v in reversed(self._ext)]
        dead = 0
        for b, by_value in enumerate(self._sat):
            dead |= by_value[(m >> b) & 1]
        return self._all & ~dead

    def blocking_set(self) -> Clause | None:
        """The first set blocking c in the whole formula: `is_set_blocked`'s."""
        return self._first(self._all)

    def blocking_set_at(self, m: int) -> Clause | None:
        return self._first(self._survivors(m))

    def sets(self) -> "list[Clause]":
        """The blocking set of each assignment in index order, up to the
        first assignment without one: all 2^|ext| when there is none."""
        if self._lattice is not None:
            return self._sets_by_bits()
        out = []
        for m in range(1 << len(self.external())):
            found = self.blocking_set_at(m)
            if found is None:
                break
            out.append(found)
        return out

    def _sets_by_bits(self) -> "list[Clause]":
        # Depth first over the external variables in index order (smallest
        # first, false before true), so leaves come in index order. A node
        # carries the OR of the rules of the clauses that survive all of its
        # completions: those whose external literals it has all set false.
        # When that OR covers every candidate, all its leaves fail, and the
        # first of them, its all-false completion, is the next index.
        full, rules = self._lattice
        ext = self.external()
        n = len(ext)
        # per external literal: its variable's depth, the variable's bit in
        # an index, and that bit's value where the literal is false
        bit = {}
        for j, v in enumerate(ext):
            b = 1 << (n - 1 - j)
            bit[v] = j, b, 0
            bit[-v] = j, b, b
        ruled = 0
        # per depth j, (care, want, rule) of the clauses whose last external
        # variable is ext[j]: they survive below a node at depth j + 1 whose
        # index bits so far (`path`) have path & care == want
        settles: "list[list[tuple[int, int, int]]]" = [[] for _ in ext]
        for d, rule in zip(self._compiled.env, rules):
            if not rule:
                continue
            care = want = 0
            last = -1
            for lit in d._canon:  # external literals come in `ext` order
                at = bit.get(lit)
                if at is not None:
                    last, b, w = at
                    care |= b
                    want |= w
            if last < 0:
                ruled |= rule
            else:
                settles[last].append((care, want, rule))
        first_free = self._compiled.first_free
        out = []
        stack = [(0, 0, ruled)]
        while stack:
            j, path, ruled = stack.pop()
            if ruled == full:
                break
            if j == n:
                out.append(self._set(first_free(full, ruled)))
                continue
            for step in (path | 1 << (n - 1 - j), path):
                below = ruled
                for care, want, rule in settles[j]:
                    if (step & care) == want:
                        below |= rule
                stack.append((j + 1, step, below))
        return out

    def _first(self, alive: int) -> Clause | None:
        if self._lattice is not None:
            full, rules = self._lattice
            ruled = 0
            for i, rule in enumerate(rules):
                if alive >> i & 1:
                    ruled |= rule
            i = self._compiled.first_free(full, ruled)
            return self._set(i) if i >= 0 else None
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
    ext_cap: int = EXT_CAP,
    sample: "tuple[Random, int] | None" = None,
) -> SuperBlockingResult:
    """Decide super-blocking by scanning every external assignment.

    Set-blocking in the unrestricted formula is the scan's first step:
    restrictions only remove constraints, so a set that blocks c in f blocks
    it in every restriction and no assignment needs a look (nor does the
    cap apply). Otherwise each assignment gets its own witness, and the
    first assignment without one refutes.

    Past the cap, `sample` (a random source and a count) tests that many
    random assignments on the same compiled question: the first without a
    set refutes, and when none refutes the cap error stands.
    """
    check_bounds(k, ext_cap)
    scan = _RestrictionScan(f, as_clause(c), k)
    found = scan.blocking_set()
    if found is not None:
        return SuperBlockingResult(BlockingWitness(kind="set", blocking_set=found), None)

    ext = scan.external()
    n = len(ext)
    if n > ext_cap:
        if sample is not None:
            rng, samples = sample
            for _ in range(samples):
                m = rng.getrandbits(n)
                if scan.blocking_set_at(m) is None:
                    return SuperBlockingResult(None, assignment_at(ext, m))
        raise CapExceeded(
            "restriction scan over %d external variables exceeds cap %d" % (n, ext_cap),
            count=n,
            cap=ext_cap,
        )

    # The sets come in the table's own order, up to the first failing index.
    sets = scan.sets()
    if len(sets) < 1 << n:
        return SuperBlockingResult(None, assignment_at(ext, len(sets)))
    per_tau = RestrictionTable(ext, sets)
    return SuperBlockingResult(BlockingWitness(kind="super", per_tau=per_tau), None)


def blocking_set_under(
    f: Formula,
    c: "Clause | Iterable[int]",
    value: "Callable[[int], int]",
) -> Clause | None:
    """The first set blocking c once f is restricted by `value` (0 or 1, or a
    bool, per variable) on c's external variables.

    The same set as `is_set_blocked(restrict(f, tau), c)` for tau the
    assignment `value` gives `external_variables(f, c)`, read off c's
    compiled environment instead of a restricted copy of f.
    """
    scan = _RestrictionScan(f, as_clause(c), None)
    return scan.blocking_set_at(assignment_index(scan.external(), value))

