import random
from itertools import product
from math import comb

import pytest

from blockcheck import (
    Assignment,
    CapExceeded,
    Clause,
    Formula,
    candidate_sets,
    check_super_blocked,
    count_candidate_sets,
    external_variables,
    is_literal_blocked,
    is_satisfiable,
    is_set_blocked,
    is_super_blocked,
    literal_blocks,
    random_instance,
    resolution_environment,
    restrict,
    sample_super_blocked,
    set_blocks,
)
from blockcheck.blocking import (
    BlockingWitness,
    IncompleteScan,
    SuperBlockingResult,
    _Environment,
    _RestrictionScan,
    _search_blocking_set,
)
from blockcheck.gen import random_formula, random_qbf
from blockcheck.reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)

from conftest import clause, formula


class TestLiteralBlocking:
    def test_b_blocks_but_a_does_not(self, ex_blocked):
        f, c = ex_blocked
        assert literal_blocks(f, c, 2)
        assert not literal_blocks(f, c, 1)

    def test_literal_must_be_in_clause(self, ex_blocked):
        f, c = ex_blocked
        with pytest.raises(ValueError):
            literal_blocks(f, c, 3)

    def test_tautology_blocked_on_the_complementary_pair(self):
        f = formula((1, 2), (-1, 3), (1, -3))
        c = clause(1, -1, 2)
        assert literal_blocks(f, c, 1)
        assert literal_blocks(f, c, -1)

    def test_witness_is_first_in_canonical_order(self, ex_blocked):
        f, c = ex_blocked
        w = is_literal_blocked(f, c)
        assert w is not None and w.kind == "literal" and w.literal == 2

    def test_absent_witnesses(self, ex_setblocked, ex_full_blocking):
        for f, c in (ex_setblocked, ex_full_blocking):
            assert is_literal_blocked(f, c) is None

    def test_vacuous_blocking(self):
        assert is_literal_blocked(Formula(), clause(1)).literal == 1


class TestSetBlocks:
    def test_pair_blocks(self, ex_setblocked):
        f, c = ex_setblocked
        assert set_blocks(f, c, (1, 2))

    def test_singleton_does_not(self, ex_setblocked):
        f, c = ex_setblocked
        assert not set_blocks(f, c, (1,))
        assert not set_blocks(f, c, (2,))

    def test_tautology_with_complementary_pair(self):
        f = formula((1, 3), (-1, 2))
        assert set_blocks(f, clause(1, -1, 2), (1, -1))

    def test_rejects_bad_sets(self, ex_setblocked):
        f, c = ex_setblocked
        with pytest.raises(ValueError):
            set_blocks(f, c, ())
        with pytest.raises(ValueError):
            set_blocks(f, c, (1, 3))


class TestSetBlockedSearch:
    def test_finds_the_pair(self, ex_setblocked):
        f, c = ex_setblocked
        w = is_set_blocked(f, c)
        assert w.kind == "set" and w.blocking_set == clause(1, 2)

    def test_size_bound(self, ex_setblocked):
        f, c = ex_setblocked
        assert is_set_blocked(f, c, k=1) is None
        assert is_set_blocked(f, c, k=2).blocking_set == clause(1, 2)

    def test_no_set_for_any_k(self, at_not_setblocked):
        f, c = at_not_setblocked
        for k in (1, 2, 3, None):
            assert is_set_blocked(f, c, k=k) is None

    def test_literal_blocked_implies_singleton_found(self, ex_blocked):
        f, c = ex_blocked
        w = is_set_blocked(f, c)
        assert w.blocking_set == clause(2)

    def test_search_order_is_size_then_lex(self):
        sets = list(candidate_sets(clause(1, 2, 3)))
        assert sets == [
            clause(1), clause(2), clause(3),
            clause(1, 2), clause(1, 3), clause(2, 3),
            clause(1, 2, 3),
        ]
        assert list(candidate_sets(clause(1, 2, 3), k=2)) == sets[:6]

    def test_failed_search_tries_every_candidate(self):
        f = formula((-1, 5), (-2, 5), (-3, 5), (-4, 5))
        c = clause(1, 2, 3, 4)
        stats = {}
        assert _search_blocking_set(f, c, 3, stats) is None
        assert stats["candidates"] == count_candidate_sets(4, 3)
        stats = {}
        assert _search_blocking_set(f, c, None, stats) is None
        assert stats["candidates"] == count_candidate_sets(4, 4)


class TestCandidateCount:
    def test_cubic_closed_form(self):
        for n in range(3, 13):
            total = n ** 3 + 5 * n
            assert total % 6 == 0
            assert count_candidate_sets(n, 3) == total // 6

    def test_small_values(self):
        assert count_candidate_sets(3, 3) == 7
        assert count_candidate_sets(5, 2) == 15

    def test_matches_binomials(self):
        assert count_candidate_sets(8, 4) == sum(comb(8, i) for i in range(1, 5))

    def test_bound_validation(self):
        for n, k in ((3, 0), (3, 4), (0, 1)):
            with pytest.raises(ValueError):
                count_candidate_sets(n, k)


class TestSuperBlocking:
    def test_full_blocking_witness(self, ex_full_blocking):
        f, c = ex_full_blocking
        w = is_super_blocked(f, c)
        assert w is not None and w.kind == "super"
        per_tau = {tau.to_literals(): L for tau, L in w.per_tau.items()}
        assert per_tau == {(-3,): clause(1, 2), (3,): clause(1)}

    def test_per_tau_images_block_in_the_restriction(self, ex_full_blocking):
        f, c = ex_full_blocking
        w = is_super_blocked(f, c)
        assert set(external_variables(f, c)) == {3}
        for tau, L in w.per_tau.items():
            assert set_blocks(restrict(f, tau), c, L)

    def test_not_super_blocked_reports_first_failing_tau(self, at_not_setblocked):
        f, c = at_not_setblocked
        res = check_super_blocked(f, c)
        assert not res.blocked and res.witness is None
        assert res.failing_tau.to_literals() == (-3,)
        assert is_super_blocked(f, c) is None

    def test_set_blocked_instances_short_circuit(self, ex_setblocked):
        f, c = ex_setblocked
        w = is_super_blocked(f, c)
        assert w.kind == "set" and w.blocking_set == clause(1, 2)

    def test_tautology_is_super_blocked(self):
        w = is_super_blocked(formula((1, 2), (-2, 3)), clause(2, -2))
        assert w is not None and w.blocking_set == clause(2, -2)

    def test_k_bound_respected(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert is_super_blocked(f, c, k=1) is None  # tau(x)=0 needs the pair
        assert is_super_blocked(f, c, k=2) is not None

    def test_ext_cap(self):
        donors = [(-1, i) for i in range(2, 20)]
        f = Formula(donors)
        with pytest.raises(CapExceeded) as err:
            check_super_blocked(f, clause(1), ext_cap=16)
        assert err.value.count == 18
        # the bound is on the external variables, not the formula size
        assert check_super_blocked(f, clause(1), ext_cap=18) is not None

    def test_sampling_refutes_soundly(self, at_not_setblocked):
        import random

        f, c = at_not_setblocked
        scan = sample_super_blocked(f, c, random.Random(0), samples=32)
        assert scan.refuted
        assert is_set_blocked(restrict(f, scan.failing_tau), c) is None

    def test_sampling_cannot_refute_a_blocked_instance(self, ex_full_blocking):
        import random

        f, c = ex_full_blocking
        scan = sample_super_blocked(f, c, random.Random(7), samples=16)
        assert not scan.refuted and scan.samples == 16


class TestWitnessShape:
    def test_literal_witness_is_in_clause(self, ex_blocked):
        f, c = ex_blocked
        assert is_literal_blocked(f, c).literal in c

    def test_set_witness_is_nonempty_subset(self, ex_setblocked):
        f, c = ex_setblocked
        w = is_set_blocked(f, c)
        assert len(w.blocking_set) > 0 and w.blocking_set.issubset(c)

    def test_super_witness_covers_all_assignments(self, ex_full_blocking):
        f, c = ex_full_blocking
        w = is_super_blocked(f, c)
        ext = external_variables(f, c)
        assert len(w.per_tau) == 2 ** len(ext)
        for tau in w.per_tau:
            assert tau.is_total_over(ext) and len(tau) == len(ext)


# -- the bitset search against the search it replaced --------------------------


def reference_search(f, c, k, stats=None):
    """The set-blocking search as it stood before the bitset encoding.

    Each call re-derives one (shared, complemented) constraint per
    non-tautological environment clause and tests every candidate
    against all of them with frozenset operations.
    """
    if len(c) == 0:
        return None
    if stats is not None:
        stats.setdefault("candidates", 0)
    if c.is_tautology():
        for cand in candidate_sets(c, k):
            if stats is not None:
                stats["candidates"] += 1
            if set_blocks(f, c, cand):
                return cand
        return None
    constraints = set()
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


def reference_tau(ext, m):
    """Assignment for mask m; the smallest variable is the highest bit."""
    return Assignment({v: (m >> (len(ext) - 1 - i)) & 1 for i, v in enumerate(ext)})


def reference_super(f, c, k):
    """Super-blocking by restricting the whole formula once per assignment."""
    fast = reference_search(f, c, k)
    if fast is not None:
        return SuperBlockingResult(BlockingWitness(kind="set", blocking_set=fast), None)
    ext = sorted(external_variables(f, c))
    per_tau = {}
    for values in product((0, 1), repeat=len(ext)):
        tau = Assignment(dict(zip(ext, values)))
        found = reference_search(restrict(f, tau), c, k)
        if found is None:
            return SuperBlockingResult(None, tau)
        per_tau[tau] = found
    return SuperBlockingResult(BlockingWitness(kind="super", per_tau=per_tau), None)


def reference_sample(f, c, rng, samples, k):
    if reference_search(f, c, k) is not None:
        return IncompleteScan(False, None, 0)
    ext = sorted(external_variables(f, c))
    for i in range(samples):
        tau = reference_tau(ext, rng.getrandbits(len(ext)))
        if reference_search(restrict(f, tau), c, k) is None:
            return IncompleteScan(True, tau, i + 1)
    return IncompleteScan(False, None, samples)


def differential_cases():
    """Seeded (formula, clause) questions covering the search's corners."""
    rng = random.Random(20170217)
    for i in range(240):
        f, c = random_instance(rng, max_vars=7, max_clauses=12, max_width=3)
        kind = i % 8
        if kind == 1:  # tautological environment clauses, pair outside and inside c
            lit = rng.choice(c.literals)
            f.add((-lit, 8, -8))
            f.add((-lit, lit, 9))
        elif kind == 2:  # tautological c with one to three complementary pairs
            for v in rng.sample(range(1, 8), rng.randint(1, 3)):
                c = c | (v, -v)
        elif kind == 3:  # c outside F
            f.discard(c)
        elif kind == 4:
            c = Clause()
        elif kind == 5:  # no external variable
            f = Formula(d for d in f if d.variables() <= c.variables())
        elif kind == 6:  # two environment clauses with the same (P, N)
            env = resolution_environment(f, c)
            if env:
                f.add(env[0] | (rng.choice((8, -8)),))
        yield f, c
    unsat = 0
    while unsat < 12:
        # an unsatisfiable source makes the gadget clause super-blocked
        # without being set-blocked, a satisfiable one refutes it
        source = random_formula(rng, 3, rng.randint(4, 8), 3)
        unsat += not is_satisfiable(source)
        inst = unsat_to_1superblocking(source)
        yield inst.formula, inst.clause
    for _ in range(16):
        inst = sat_to_setblocking(random_formula(rng, 3, rng.randint(4, 7), 3))
        yield inst.formula, inst.clause
        inst = forall_exists_to_superblocking(random_qbf(rng, max_vars=6, max_clauses=8))
        yield inst.formula, inst.clause


class TestAgainstTheReference:
    def test_witnesses_tables_and_counts_match(self):
        seen = {"set": 0, "super": 0, "refuted": 0, "taut": 0, "no-ext": 0}
        for n, (f, c) in enumerate(differential_cases()):
            for k in (None, 1, 2):
                want_stats, got_stats = {}, {}
                want = reference_search(f, c, k, want_stats)
                got = _search_blocking_set(f, c, k, got_stats)
                assert got == want and got_stats == want_stats, (f, c, k)
                assert is_set_blocked(f, c, k) == (
                    None if want is None else BlockingWitness(kind="set", blocking_set=want)
                )

                want = reference_super(f, c, k)
                got = check_super_blocked(f, c, k)
                assert got == want, (f, c, k)
                if got.witness is not None and got.witness.kind == "super":
                    assert list(got.witness.per_tau) == list(want.witness.per_tau)
                kind = "refuted" if got.witness is None else got.witness.kind
                seen[kind] += 1
                seen["taut"] += c.is_tautology()
                seen["no-ext"] += not external_variables(f, c)

                for seed in (n, n + 1000):
                    assert sample_super_blocked(f, c, random.Random(seed), 8, k) == (
                        reference_sample(f, c, random.Random(seed), 8, k)
                    ), (f, c, k, seed)
        assert min(seen.values()) >= 30, seen


class TestBitsetEdges:
    def test_tautological_environment_clause_never_rules_out(self):
        # read as a plain clause, (-1 3 -3) would rule out {1} and {1, 2}
        f = formula((-1, 3, -3), (-2, 1))
        c = clause(1, 2)
        env = _Environment(c, resolution_environment(f, c))
        ruled = {tuple(p): r for p, r in env.candidates(None)}
        assert ruled == {(0,): 0, (1,): 0b10, (0, 1): 0}
        assert is_set_blocked(f, c).blocking_set == clause(1)

    def test_clauses_with_equal_shared_and_complemented_sets_both_count(self):
        # both have P = {} and N = {1}; {1} blocks only once both are gone
        f = formula((-1, 3), (-1, 4))
        c = clause(1)
        scan = _RestrictionScan(f, c, None)
        assert [scan.blocking_set_at(m) for m in range(4)] == [None, None, None, clause(1)]
        res = check_super_blocked(f, c)
        assert res.failing_tau.to_literals() == (-3, -4)

    def test_clause_ruling_out_only_the_pair(self):
        d = clause(-1, -2, 3)
        c = clause(1, 2)
        env = _Environment(c, [d])
        assert {tuple(p): r for p, r in env.candidates(None)} == {(0,): 0, (1,): 0, (0, 1): 1}
        f = formula(d, (-1, 2), (-2, 1))
        assert is_set_blocked(Formula([d]), c).blocking_set == clause(1)
        assert is_set_blocked(f, c) is None
        scan = _RestrictionScan(f, c, None)
        assert scan.blocking_set_at(0) is None  # 3 false: (-1 -2 3) survives
        assert scan.blocking_set_at(1) == clause(1, 2)
        assert scan.blocking_set_at(1) is scan.blocking_set_at(1)
        assert check_super_blocked(f, c).failing_tau.to_literals() == (-3,)

    def test_assignment_satisfying_every_environment_clause(self, at_not_setblocked):
        f, c = at_not_setblocked
        scan = _RestrictionScan(f, c, None)
        assert scan._survivors(1) == 0
        assert scan.blocking_set_at(1) == clause(1)
        assert scan.blocking_set_at(0) is None

    def test_tautological_clause_rules_out_only_candidates_splitting_its_pair(self):
        # {-1} and {1} each split the pair and meet one clause; {2} and
        # {-1, 1} keep or flip both literals of it, so nothing rules them out
        f = formula((1, 3), (-1, 4))
        c = clause(-1, 1, 2)
        env = _Environment(c, resolution_environment(f, c))
        ruled = {env.clause(p): r for p, r in env.candidates(None)}
        assert ruled == {
            clause(-1): 0b01, clause(1): 0b10, clause(2): 0,
            clause(-1, 1): 0, clause(-1, 2): 0b01, clause(1, 2): 0b10,
            clause(-1, 1, 2): 0,
        }
        assert is_set_blocked(f, c, 1).blocking_set == clause(2)
        # (-2 5) holds the complement of 2, yet c \ {2} still holds the pair
        f.add((-2, 5))
        assert is_set_blocked(f, c, 1).blocking_set == clause(2)
