"""Deciders for the blocking hierarchy: literal-, set-, and super-blocking.

A literal l of c blocks c when every resolvent of c upon l is a tautology;
a non-empty L within c blocks c as a set when for every clause D touching a
complement of L, (c \\ L) | complements(L) | D is a tautology; and c is
super-blocked when it is set-blocked in every restriction of the formula by
an assignment to the variables outside c that appear in its resolution
environment. Set-blocking answers the first blocking set in a fixed
canonical order of candidate subsets (smaller sets first, then the
clause's own literal order), so witnesses are deterministic and a failed
search counts exactly `count_candidate_sets` candidates.

Both properties are local: they are decided on one compiled form of c's
resolution environment, `_Environment`. A tautology in it rules out
nothing, so it is set aside there once; any other clause D of it rules out
exactly the candidates L that hold every literal of c whose complement D
contains and no literal D shares with c, and for a tautological c only
those L that also split every complementary pair of c. A tautological c
is answered before either route: its first blocking set is among its
first three candidates. Restrictions only ever remove environment
clauses (satisfied ones), so every question the deciders ask is one
question on it: the first candidate that no live clause rules out, with
every clause live for set-blocking in f, and the survivors of an
assignment to the external variables for a restriction. Candidates are
decided by integer operations, building no resolvent and no clause, on
one of two routes, which only the environment picks. A lattice of
at most 2^11 candidates, whose rules take at most 2^20 bits, gets one bit
per candidate, numbered in `candidate_sets` order, and each clause D one
rule-out bitset over them; the first blocking set is the lowest bit no
live rule covers. A larger lattice goes to a backtracking search over c's
positions; `reductions.sat_to_setblocking` encodes SAT into that question,
and nothing bounds the search. Both routes give the same sets, tables,
failing assignments and counts.

The super-blocking decider covers all 2^|ext| restrictions, which is exact
but exponential. Past `ext_cap` it refuses, or, given a random source and
a count, samples that many restrictions, which can refute but never
confirm. Set-blocking in the whole formula is the scan's first step. The
scan goes depth first over the external variables on both routes, and on
the bit route it stops at the first subtree in which the clauses that
survive every completion already rule out every candidate. Its witness
keeps the sets in the scan's order (see `RestrictionTable`), which is also
the order `check` and traces write them in; reading a trace back builds
the same table.

Each question reads and compiles c's environment once, for its bound k:
the compiled form fixes k, the route and, on the bit route, the rule-out
bitsets. A `classify` row asks one k, so while `engine.classify` works on
it, the formula's `answers` keep the compiled form (see `_compile`): the
row's set- and super-blocking cells share one read and one compile.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import combinations, compress, product
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
    lexicographic order, which is the order of iteration and of
    `dimacs_rows()`.
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

    def dimacs_rows(self) -> "Iterator[tuple[str, str]]":
        """(assignment as zero-terminated DIMACS literals, set as DIMACS text)
        per row, in table order. Each literal and each distinct set is
        formatted once, not once per row."""
        texts = {s: s.dimacs() for s in set(self.sets)}
        taus = map(" ".join, product(*[("-%d" % v, "%d" % v) for v in self.variables], ("0",)))
        return zip(taus, map(texts.__getitem__, self.sets))

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
    resolvent: c's complement set is built once per check, and each literal
    tried takes its own complement out of that set while it runs.
    """
    c = as_clause(c)
    lits = c._canon if among is None else [l for l in c._canon if l in among]
    if not lits:
        return None
    if c._taut:  # c is a tautology, and so is every resolvent
        return BlockingWitness(kind="literal", literal=lits[0])
    flipped = set(map(neg, c._canon))
    occurrences = f.occurrences
    for lit in lits:
        flipped.remove(-lit)
        for d in occurrences(-lit):
            # the Clause is the receiver: a set argument keeps isdisjoint in C
            if d.isdisjoint(flipped) and (
                not d._taut
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


# Lattices of at most this many candidates are decided one bit per
# candidate. 2^11 covers the largest lattice timed on both routes (2,047
# candidates, an 11-literal clause with k unbounded); larger ones go to the
# search, which builds no per-candidate bitset.
_BIT_LATTICE = 1 << 11
# A bit lattice holds at most this many rule bits (|env| x candidates), so
# the one kept with a compiled environment stays under a megabyte with
# Python's int headers; a larger environment goes to the search.
_LATTICE_BITS = 1 << 20


# One table per (n, bound) a run asks about: 32 holds clauses of widths 1
# to 8 under every bound from 1 to 3 and unbounded. An unbounded 8-literal
# table takes ~0.15 ms to build and ~0.5 KB, and a 2,047-candidate one
# ~1.2-1.7 ms and ~3 KB (Xeon, CPython 3.11); with room for only 4, a
# `classify` of widths 1 to 8 rebuilt a table on almost every question
# (196 builds for 200 clauses, not 8).
@lru_cache(maxsize=32)
def _candidate_bits(n: int, bound: int) -> "tuple[int, tuple[int, ...]]":
    """The candidates of an n-literal clause with at most `bound` literals,
    bit j for the j-th in `candidate_sets` order: (all of them, per position
    q the ones that hold q). The empty clause has the empty lattice."""
    holds, j = [0] * n, 0
    for size in range(1, bound + 1):
        for picked in combinations(range(n), size):
            for q in picked:
                holds[q] |= 1 << j
            j += 1
    return (1 << j) - 1, tuple(holds)


class _Environment:
    """One compiled question: c, its resolution environment and a bound k,
    and the one object that answers every set- and super-blocking question
    about c under k.

    Bit i stands for clause i of `env`, the environment's non-tautological
    clauses: a tautology rules out nothing. Such a clause D with shared
    literals P and complemented literals N (positions of c's canonical
    literals) rules out exactly the candidates L with N <= L and P disjoint
    from L. So a candidate blocks c in a subset of the environment when it
    satisfies the CNF over the positions that has, per live D, the clause
    "leave out some position of N or take some position of P" (`clauses`).
    For a tautological c that rule is exact on the candidates that split
    every complementary pair, and `tautological` answers the rest.

    It keeps c's literals as `lits`, the bitset of all of `env` as `every`,
    and, from the whole environment, the external variables `ext`: a
    variable only a tautology carries is one too. Every question is the
    first candidate that no clause of a live subset rules out (`finder`).
    A restriction table finds its rows' live clauses on one depth-first
    scan over the external variables (`table`); a single restriction's
    are its `survivors`. The route is picked once, here: the bit lattice
    (`lattice`), or None past it, where `search` answers. The search's
    clauses (`ends`) are built on first use.
    """

    __slots__ = ("env", "every", "lits", "pairs", "bound", "count", "lattice", "ends", "ext")

    def __init__(self, c: Clause, env: "list[Clause]", k: "int | None"):
        self.ext = sorted(set(map(abs, frozenset().union(*env))) - c.variables())
        self.env = env = [d for d in env if not d._taut]
        self.every = (1 << len(env)) - 1
        self.lits = lits = c.literals
        where = {x: q for q, x in enumerate(lits)}
        self.pairs = [(q, where[-x]) for q, x in enumerate(lits) if x > 0 and -x in where]
        n = len(lits)
        self.bound = bound = n if k is None else min(k, n)
        self.count = count = (1 << n) - 1 if bound == n else count_candidate_sets(n, bound)
        self.ends: "list[list[tuple[int, int, int]]] | None" = None
        # (all candidates, rules): one bit per candidate, in `candidate_sets`
        # order, and per clause of `env` the candidates it rules out; None
        # past `_BIT_LATTICE` candidates or `_LATTICE_BITS` rule bits. A
        # clause holding literal m rules out only candidates that hold the
        # position of -m in c and lack that of m.
        self.lattice: "tuple[int, list[int]] | None" = None
        if count <= _BIT_LATTICE and len(env) * count <= _LATTICE_BITS:
            full, holds = _candidate_bits(n, bound)
            masks: "dict[int, int]" = {}
            for q, x in enumerate(lits):
                masks[-x] = masks.get(-x, full) & holds[q]
                masks[x] = masks.get(x, full) & ~holds[q]
            rules = []
            for d in env:
                ruled = full
                for m in d._canon:
                    mask = masks.get(m)
                    if mask is not None:
                        ruled &= mask
                rules.append(ruled)
            self.lattice = full, rules

    def survivors(self, m: int) -> int:
        """The environment clauses that assignment m to the external
        variables (`cnf.assignment_index`) leaves: those with no literal it
        makes true. Only the sampler and `blocking_set_under` ask; `table`
        finds its rows' live clauses on its own scan."""
        true = {v if m >> b & 1 else -v for b, v in enumerate(reversed(self.ext))}
        # the Clause is the receiver: a set argument keeps isdisjoint in C
        return sum(1 << i for i, d in enumerate(self.env) if d.isdisjoint(true))

    def finder(self) -> "Callable[[int], int]":
        """`first(alive)`: the index in `candidate_sets` order of the first
        candidate that no clause in `alive` (a bitset over `env`) rules out,
        or -1 when every candidate is ruled out.

        A tautological c with three or more candidates is answered on
        neither route (`tautological`). On a bit lattice the answer is the
        lowest candidate no live clause's rule covers; past it, `search`
        answers, once per live set: the rows of a restriction table often
        share theirs.
        """
        if self.pairs and self.count > 2:
            return self.tautological
        if self.lattice is None:
            return cache(self.search)
        full, rules = self.lattice

        def first(alive: int) -> int:
            live = rules
            if alive != self.every:  # bin(alive)[:1:-1]: alive's bits from bit 0 up
                live = compress(rules, map("1".__eq__, bin(alive)[:1:-1]))
            return self.first_free(full, reduce(or_, live, 0))

        return first

    def tautological(self, alive: int) -> int:
        """What `finder()(alive)` answers for a tautological c, unless it is
        (-v v) under k = 1, whose two candidates each split the pair.

        A candidate that keeps some complementary pair of c whole (takes
        both or neither of its literals) leaves (c \\ L) | complements(L) a
        tautology, so nothing rules it out; for one that splits every pair
        the plain rule is exact. {c0} splits every pair only when c has one
        pair and c0 is in it, and likewise {c1}; so the answer is the first
        of them that keeps a pair whole or that no live clause rules out (a
        clause rules out {cq} when its N is q alone), or else candidate 2,
        which keeps the pair whole: {c2}, or both literals of (-v v)."""
        for q in (0, 1):
            if any(q not in pair for pair in self.pairs) or not any(
                    need == 1 << q and bit & alive for at in self.clauses() for bit, _, need in at):
                return q
        return 2

    def clauses(self) -> "list[list[tuple[int, int, int]]]":
        """The search's CNF: per position q of c, (bit, seen, need) for each
        clause D of `env` whose last position is q, with `need` D's N and
        `seen` N | P as position masks. D rules out L when L & seen == need
        (N is never empty: D holds a complement of c's)."""
        if self.ends is None:
            where = {x: q for q, x in enumerate(self.lits)}
            self.ends = [[] for _ in self.lits]
            for i, d in enumerate(self.env):
                need = sum(1 << where[-m] for m in d._canon if -m in where)
                seen = need | sum(1 << where[m] for m in d._canon if m in where)
                self.ends[seen.bit_length() - 1].append((1 << i, seen, need))
        return self.ends

    def search(self, alive: int) -> int:
        """What `finder()(alive)` answers past the bit lattice, by
        backtracking over c's positions: one search with no size bound says
        whether any candidate is free, and if one is, a search per size from
        1 up finds the first of its size."""
        n = len(self.lits)
        ends = self.clauses()
        if alive != self.every:
            ends = [[r for r in at if r[0] & alive] for at in ends]
        if _first_fit(ends, 1, n) is None:
            return -1
        upto = 0  # the candidates of at most `size` literals
        for size in range(1, self.bound + 1):
            upto += comb(n, size)
            chosen = _first_fit(ends, size, size)
            if chosen is not None:
                # less those of its size after it: per i, the ones sharing its
                # first i positions and taking all size - i others past its i-th
                picked = [q for q in range(n) if chosen >> q & 1]
                return upto - 1 - sum(comb(n - 1 - q, size - i) for i, q in enumerate(picked))
        return -1

    def table(self, first: "Callable[[int], int]") -> "list[Clause]":
        """The set blocking c under each assignment to the external variables,
        in index order, up to the first assignment without one: all 2^|ext|
        when there is none. Rows with the same set share one `Clause`.

        The scan goes depth first over the external variables in index order
        (smallest first, false before true), so leaves come in index order.
        A node carries the OR of the rules of the clauses that survive all of
        its completions: those whose external literals it has all set false.
        On a bit lattice a clause's rule is its rule-out bitset and a leaf
        takes the lowest candidate that OR lacks; when the OR covers every
        candidate, all the node's leaves fail, and the first of them, its
        all-false completion, is the next index. Past the lattice a clause's
        rule is its own bit, so a leaf's OR is its live set, which `first`,
        this question's `finder`, answers, and no subtree is cut short.
        """
        if self.lattice is None:
            full = -1  # no OR is -1
            rules = [1 << i for i in range(len(self.env))]
            leaf = lambda _, alive: first(alive)
        else:
            (full, rules), leaf = self.lattice, self.first_free
        ext = self.ext
        n = len(ext)
        # per external literal: its variable's depth, the variable's bit in
        # an index, and that bit's value where the literal is false
        bit = {}
        for j, v in enumerate(ext):
            b = 1 << (n - 1 - j)
            bit[v] = j, b, 0
            bit[-v] = j, b, b
        ruled = 0
        # per depth j, (care, want, rule) of the clauses with two or more
        # external literals, the last on ext[j]: they survive below a node at
        # depth j + 1 whose index bits so far (`path`) have path & care ==
        # want
        settles: "list[list[tuple[int, int, int]]]" = [[] for _ in ext]
        # per depth j and value of ext[j], the OR of the rules of the
        # clauses whose one external literal, on ext[j], that value falsifies
        single = [[0, 0] for _ in ext]
        for d, rule in zip(self.env, rules):
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
            elif care == b:  # its one external literal is the last one seen
                single[last][w != 0] |= rule
            else:
                settles[last].append((care, want, rule))
        found: "list[int]" = []
        stack = [(0, 0, ruled)]
        while stack:
            j, path, ruled = stack.pop()
            if ruled == full:
                break
            if j == n:
                i = leaf(full, ruled)
                if i < 0:
                    break
                found.append(i)
                continue
            if_false, if_true = single[j]
            high = path | 1 << (n - 1 - j)
            ruled_high, ruled_low = ruled | if_true, ruled | if_false
            # care holds ext[j]'s bit, on which the two children differ, so
            # a clause settled here survives below one of them at most
            for care, want, rule in settles[j]:
                if (high & care) == want:
                    ruled_high |= rule
                elif (path & care) == want:
                    ruled_low |= rule
            stack.append((j + 1, high, ruled_high))
            stack.append((j + 1, path, ruled_low))
        sets = {i: self.clause_at(i) for i in set(found)}
        return [sets[i] for i in found]

    @staticmethod
    def first_free(full: int, ruled: int) -> int:
        """The index of the lowest candidate of a bit lattice that `ruled`
        lacks, or -1 when it holds them all."""
        free = full & ~ruled
        return (free & -free).bit_length() - 1

    def clause_at(self, i: int) -> "Clause | None":
        """The candidate at index i (from 0) in `candidate_sets` order, or None
        for -1, a finder's answer when every candidate is ruled out."""
        return None if i < 0 else Clause([self.lits[q] for q in _positions(len(self.lits), i)])


def _positions(n: int, i: int) -> "list[int]":
    """The positions, ascending, of candidate i of an n-literal clause in
    `candidate_sets` order."""
    size = 1
    while i >= comb(n, size):
        i -= comb(n, size)
        size += 1
    picked, q = [], 0
    for left in range(size - 1, 0, -1):
        while i >= comb(n - 1 - q, left):  # the candidates taking q next
            i -= comb(n - 1 - q, left)
            q += 1
        picked.append(q)
        q += 1
    return picked + [q + i]


def _first_fit(ends: "list[list[tuple[int, int, int]]]", low: int, high: int) -> "int | None":
    """The first set of `low` to `high` positions, as a mask, that no clause
    of `ends` (`_Environment.clauses`) rules out, or None: depth first, taking
    each position before leaving it out (so one size comes in `combinations`
    order), checking a clause once its last position is set or forced."""
    n = len(ends)
    stack = [(0, 0, 0)]  # (positions set, chosen, its size)
    while stack:
        q, chosen, size = stack.pop()
        if q and any(chosen & seen == need for _, seen, need in ends[q - 1]):
            continue
        if q == n or size == high or size + n - q == low:  # the rest is forced
            if size < high:
                chosen |= (1 << n) - (1 << q)
            if not any(chosen & seen == need for at in ends[q:] for _, seen, need in at):
                return chosen
            continue
        if size + n - q > low:
            stack.append((q + 1, chosen, size))
        stack.append((q + 1, chosen | 1 << q, size + 1))
    return None


def _compile(f: Formula, c: Clause, k: "int | None") -> _Environment:
    """c's environment in f, compiled for the bound k; kept in f's `answers`
    while they are set, so a classify row, which asks one k, compiles it
    once."""
    answers = f.answers
    if answers is None:
        return _Environment(c, resolution_environment(f, c), k)
    key = ("env", c, k)
    env = answers.get(key)
    if env is None:
        env = answers[key] = _Environment(c, resolution_environment(f, c), k)
    return env


def is_set_blocked(
    f: Formula,
    c: "Clause | Iterable[int]",
    k: int | None = None,
    stats: "dict[str, int] | None" = None,
) -> BlockingWitness | None:
    """The first set of at most k literals blocking c, as a witness.

    With k=None the whole subset lattice of c is searched. `stats`, when
    given, receives the number of candidates tested under "candidates":
    up to and including the blocking set, or all of them. The empty clause
    has no candidate; it leaves `stats` untouched.
    """
    check_bounds(k)
    c = as_clause(c)
    if not c:
        return None
    env = _compile(f, c, k)
    i = env.finder()(env.every)
    if stats is not None:
        stats["candidates"] = stats.get("candidates", 0) + (i + 1 if i >= 0 else env.count)
    if i < 0:
        return None
    return BlockingWitness(kind="set", blocking_set=env.clause_at(i))


@dataclass(frozen=True)
class SuperBlockingResult:
    """Outcome of an exhaustive restriction scan."""

    witness: BlockingWitness | None
    failing_tau: Assignment | None

    @property
    def blocked(self) -> bool:
        return self.witness is not None


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
    env = _compile(f, as_clause(c), k)
    first = env.finder()
    found = env.clause_at(first(env.every))
    if found is not None:
        return SuperBlockingResult(BlockingWitness(kind="set", blocking_set=found), None)

    ext = env.ext
    n = len(ext)
    if n > ext_cap:
        if sample is not None:
            rng, samples = sample
            for _ in range(samples):
                m = rng.getrandbits(n)
                if first(env.survivors(m)) < 0:
                    return SuperBlockingResult(None, assignment_at(ext, m))
        raise CapExceeded(
            "restriction scan over %d external variables exceeds cap %d" % (n, ext_cap),
            count=n,
            cap=ext_cap,
        )

    # The sets come in the table's own order, up to the first failing index.
    sets = env.table(first)
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
    env = _compile(f, as_clause(c), None)
    alive = env.survivors(assignment_index(env.ext, value))
    return env.clause_at(env.finder()(alive))
