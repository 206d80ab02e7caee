import gc
import random
import tracemalloc
from itertools import product
from math import comb

import pytest

from blockcheck import (
    Assignment,
    CapExceeded,
    Clause,
    EliminationConfig,
    Formula,
    check_super_blocked,
    is_literal_blocked,
    is_set_blocked,
)
from blockcheck import blocking, cli
from blockcheck.blocking import (
    BlockingWitness,
    RestrictionTable,
    SuperBlockingResult,
    _Environment,
    blocking_set_under,
    candidate_sets,
    count_candidate_sets,
    set_blocks,
)
from blockcheck.cnf import assignment_at, external_variables, resolution_environment, restrict
from blockcheck.engine import PROPERTIES, EliminationTrace, TraceEntry, classify
from blockcheck.gen import random_clause, random_formula, random_instance, random_qbf
from blockcheck.oracle import is_satisfiable
from blockcheck.reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)
from blockcheck.varelim import QbfInstance

from conftest import clause, formula, table_rows
from test_asymmetric import reference_literal_blocks
from test_cli import FULL_BLOCKING_WIDE, REFUTABLE


class TestLiteralBlocking:
    def test_b_blocks_but_a_does_not(self, ex_blocked):
        f, c = ex_blocked
        assert is_literal_blocked(f, c, (2,)) is not None
        assert is_literal_blocked(f, c, (1,)) is None

    def test_literal_must_be_in_clause(self, ex_blocked):
        # -3 occurs nowhere, so 3 would block vacuously; it is not in c, so
        # it is never tried, and neither is -2, the complement of c's literal
        f, c = ex_blocked
        assert is_literal_blocked(f, c, (3,)) is None
        assert is_literal_blocked(f, c, (-2,)) is None
        assert is_literal_blocked(f, c, (3, 2)).literal == 2

    def test_tautology_blocked_on_the_complementary_pair(self):
        f = formula((1, 2), (-1, 3), (1, -3))
        c = clause(1, -1, 2)
        assert is_literal_blocked(f, c, (1,)) is not None
        assert is_literal_blocked(f, c, (-1,)) is not None

    def test_witness_is_first_in_canonical_order(self, ex_blocked):
        f, c = ex_blocked
        w = is_literal_blocked(f, c)
        assert w is not None and w.kind == "literal" and w.literal == 2

    def test_absent_witnesses(self, ex_setblocked, ex_full_blocking):
        for f, c in (ex_setblocked, ex_full_blocking):
            assert is_literal_blocked(f, c) is None

    def test_witness_is_the_first_blocking_literal_within_among(self):
        # against one-literal checks and against resolvents built one by one
        rng = random.Random("first blocking literal")
        shapes = dict.fromkeys(("taut c", "taut d", "pure", "empty among", "partial among"), 0)
        for i in range(400):
            f, c = random_instance(rng, max_vars=6, max_clauses=10, max_width=3)
            if i % 4 == 1:  # tautological c
                v = rng.randint(1, 6)
                c = c | (v, -v)
            elif i % 4 == 2 and c.literals:  # a tautological D resolving with c
                lit = rng.choice(c.literals)
                f.add((-lit, 7, -7) if i % 8 == 2 else (-lit, lit, 7))
            for among in (None, (), set(rng.sample(c.literals, len(c) // 2))):
                tried = [l for l in c if among is None or l in among]
                want = next((l for l in tried if reference_literal_blocks(f, c, l)), None)
                w = is_literal_blocked(f, c, among)
                assert (None if w is None else w.literal) == want, (f.clauses, c, among)
                one_by_one = (l for l in tried if is_literal_blocked(f, c, (l,)) is not None)
                assert want == next(one_by_one, None)
                shapes["empty among"] += among == () and len(c) > 0
                shapes["partial among"] += among is not None and 0 < len(among) < len(c)
            shapes["taut c"] += c.is_tautology()
            shapes["taut d"] += any(d.is_tautology() for d in resolution_environment(f, c))
            shapes["pure"] += any(not f.occurrences(-l) for l in c)
        assert min(shapes.values()) >= 50, shapes

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
        assert is_set_blocked(f, c, 3, stats) is None
        assert stats["candidates"] == count_candidate_sets(4, 3)
        stats = {}
        assert is_set_blocked(f, c, None, stats) is None
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


class TestBounds:
    # the deciders reject what EliminationConfig rejects, with its texts;
    # the command line never passes such a bound, argparse stops it first
    BAD_K = "^blocking-set bound must be positive$"
    BAD_CAP = "^external-variable cap must be non-negative$"

    def test_a_bound_below_one_is_no_bound_to_search(self):
        f, c = formula((1, 2), (-1, 3)), clause(1, 2)
        assert is_set_blocked(f, c).blocking_set == clause(2)
        for k in (0, -2):
            for decide in (is_set_blocked, check_super_blocked):
                with pytest.raises(ValueError, match=self.BAD_K):
                    decide(f, c, k=k)
                # before the empty clause's early answer, too
                with pytest.raises(ValueError, match=self.BAD_K):
                    decide(f, clause(), k=k)
            with pytest.raises(ValueError, match=self.BAD_K):
                EliminationConfig(k=k)

    def test_a_negative_cap_is_no_cap_to_scan_under(self):
        f, c = formula((1,), (-1,)), clause(1)
        res = check_super_blocked(f, c, ext_cap=0)
        assert not res.blocked and res.failing_tau == Assignment({})
        for ext_cap in (-1, -5):
            with pytest.raises(ValueError, match=self.BAD_CAP):
                check_super_blocked(f, c, ext_cap=ext_cap)
            with pytest.raises(ValueError, match=self.BAD_CAP):
                EliminationConfig(ext_cap=ext_cap)


class TestSuperBlocking:
    def test_full_blocking_witness(self, ex_full_blocking):
        f, c = ex_full_blocking
        w = check_super_blocked(f, c).witness
        assert w is not None and w.kind == "super"
        per_tau = {tau.to_literals(): L for tau, L in w.per_tau.items()}
        assert per_tau == {(-3,): clause(1, 2), (3,): clause(1)}

    def test_per_tau_images_block_in_the_restriction(self, ex_full_blocking):
        f, c = ex_full_blocking
        w = check_super_blocked(f, c).witness
        assert set(external_variables(f, c)) == {3}
        for tau, L in w.per_tau.items():
            assert set_blocks(restrict(f, tau), c, L)

    def test_not_super_blocked_reports_first_failing_tau(self, at_not_setblocked):
        f, c = at_not_setblocked
        res = check_super_blocked(f, c)
        assert not res.blocked and res.witness is None
        assert res.failing_tau.to_literals() == (-3,)

    def test_set_blocked_instances_short_circuit(self, ex_setblocked):
        f, c = ex_setblocked
        w = check_super_blocked(f, c).witness
        assert w.kind == "set" and w.blocking_set == clause(1, 2)

    def test_tautology_is_super_blocked(self):
        w = check_super_blocked(formula((1, 2), (-2, 3)), clause(2, -2)).witness
        assert w is not None and w.blocking_set == clause(2, -2)

    def test_k_bound_respected(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert not check_super_blocked(f, c, k=1).blocked  # tau(x)=0 needs the pair
        assert check_super_blocked(f, c, k=2).blocked

    def test_the_first_failing_assignment_is_lexicographically_first(self):
        # {1} blocks (1) once (-1 -3) and (-1 -4 5) are satisfied: 3 false,
        # and 4 false or 5 true
        f, c = formula((-1, -3), (-1, -4, 5)), clause(1)
        failing = [
            tau for tau in RestrictionTable((3, 4, 5), [c] * 8)
            if is_set_blocked(restrict(f, tau), c) is None
        ]
        assert [tau.to_literals() for tau in failing][:2] == [(-3, 4, -5), (3, -4, -5)]
        assert check_super_blocked(f, c).failing_tau == failing[0]

    def test_ext_cap(self):
        donors = [(-1, i) for i in range(2, 20)]
        f = Formula(donors)
        with pytest.raises(CapExceeded) as err:
            check_super_blocked(f, clause(1), ext_cap=16)
        assert err.value.count == 18
        # the bound is on the external variables, not the formula size; with
        # the cap at 18 the scan refutes (1) at its first restriction, all false
        result = check_super_blocked(f, clause(1), ext_cap=18)
        assert result.blocked is False
        assert result.failing_tau.to_literals() == tuple(range(-2, -20, -1))

    def test_set_blocking_is_decided_before_the_cap(self):
        # {1} blocks (1 2) in the whole formula: no restriction is needed,
        # so the three external variables do not meet the cap
        f = formula((-1, -2, 3), (-1, -2, 4), (-1, -2, 5))
        c = clause(1, 2)
        res = check_super_blocked(f, c, ext_cap=0)
        assert res.witness == BlockingWitness(kind="set", blocking_set=clause(1))
        # (-1 2 6) rules out {1} and (1 -2 7) rules out {2}: now the scan is needed
        f.add((-1, 2, 6))
        f.add((1, -2, 7))
        assert is_set_blocked(f, c) is None
        with pytest.raises(CapExceeded) as err:
            check_super_blocked(f, c, ext_cap=4)
        assert err.value.count == len(external_variables(f, c)) == 5

    def test_sampling_refutes_soundly(self, at_not_setblocked):
        import random

        f, c = at_not_setblocked
        tau = sampled_tau(f, c, random.Random(0), 32)
        assert tau is not None
        assert is_set_blocked(restrict(f, tau), c) is None

    def test_sampling_cannot_refute_a_blocked_instance(self, ex_full_blocking):
        import random

        f, c = ex_full_blocking
        with pytest.raises(CapExceeded):
            check_super_blocked(f, c, None, 0, (random.Random(7), 16))


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
        w = check_super_blocked(f, c).witness
        ext = external_variables(f, c)
        assert len(w.per_tau) == 2 ** len(ext)
        for tau in w.per_tau:
            assert tau.variables() == set(ext)


class TestRestrictionTable:
    def test_zero_external_variables_is_one_row(self):
        table = RestrictionTable((), [clause(1)])
        assert len(table) == 1
        assert list(table) == [Assignment()]
        assert table[Assignment()] == clause(1)
        assert Assignment({1: 0}) not in table
        assert table_rows(table) == [("0", clause(1))]
        assert table == {Assignment(): clause(1)}

    def test_needs_one_set_per_assignment_over_sorted_variables(self):
        with pytest.raises(ValueError):
            RestrictionTable((3,), [clause(1)])
        for variables in ((5, 3), (3, 3)):
            with pytest.raises(ValueError):
                RestrictionTable(variables, [clause(1)] * 4)

    def test_rows_are_lexicographic(self):
        sets = [clause(i + 1) for i in range(8)]
        table = RestrictionTable((2, 5, 7), sets)
        assert [tau for tau, _ in table_rows(table)] == [
            "-2 -5 -7 0", "-2 -5 7 0", "-2 5 -7 0", "-2 5 7 0",
            "2 -5 -7 0", "2 -5 7 0", "2 5 -7 0", "2 5 7 0",
        ]
        assert [tau.to_literals() for tau in table] == sorted(tau.to_literals() for tau in table)
        assert table[Assignment({2: 1, 5: 0, 7: 1})] == sets[0b101]
        assert dict(table) == {tau: table[tau] for tau in table}


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
    """The first sampled assignment without a blocking set, or None."""
    if reference_search(f, c, k) is not None:
        return None
    ext = sorted(external_variables(f, c))
    for _ in range(samples):
        tau = reference_tau(ext, rng.getrandbits(len(ext)))
        if reference_search(restrict(f, tau), c, k) is None:
            return tau
    return None


def sampled_tau(f, c, rng, samples, k=None):
    """The failing assignment `check_super_blocked` samples past a cap of 0,
    or None when it finds a witness or every sample has a blocking set."""
    try:
        return check_super_blocked(f, c, k, 0, (rng, samples)).failing_tau
    except CapExceeded:
        return None


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
            f = f.without(c)
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


def assert_table_contract(table, want):
    """`table` is a read-only mapping equal to the dict `want`, in its order,
    and answers absent for every key that is not one of its assignments."""
    assert isinstance(table, RestrictionTable)
    assert len(table) == len(want)
    assert table_rows(table) == [
        (" ".join(map(str, tau.to_literals() + (0,))), s) for tau, s in want.items()
    ]
    assert list(table.dimacs_rows()) == [(tau, s.dimacs()) for tau, s in table_rows(table)]
    for tau, s in want.items():
        assert tau in table and table[tau] == s and table.get(tau) == s
    tau = next(reversed(want))  # the all-true row
    extra = max(tau.variables()) + 1
    absent = [
        Assignment(dict(tau.items()[1:])),  # fewer variables
        Assignment(dict(tau.items() + [(extra, 0)])),  # more variables
        Assignment(dict(tau.items()[1:] + [(extra, 1)])),  # as many, but other variables
        tau.to_literals(),  # not an Assignment
        0,
    ]
    for key in absent:
        assert key not in table and table.get(key) is None, key
        with pytest.raises(KeyError):
            table[key]
    with pytest.raises(TypeError):
        table[tau] = Clause()


class TestAgainstTheReference:
    def test_witnesses_tables_and_counts_match(self):
        seen = {"set": 0, "super": 0, "refuted": 0, "taut": 0, "no-ext": 0}
        for n, (f, c) in enumerate(differential_cases()):
            for k in (None, 1, 2):
                want_stats, got_stats = {}, {}
                want = reference_search(f, c, k, want_stats)
                got = is_set_blocked(f, c, k, got_stats)
                assert got == (
                    None if want is None else BlockingWitness(kind="set", blocking_set=want)
                ), (f, c, k)
                assert got_stats == want_stats, (f, c, k)

                want = reference_super(f, c, k)
                got = check_super_blocked(f, c, k)
                assert got == want, (f, c, k)
                if got.witness is not None and got.witness.kind == "super":
                    assert list(got.witness.per_tau) == list(want.witness.per_tau)
                    assert_table_contract(got.witness.per_tau, want.witness.per_tau)
                kind = "refuted" if got.witness is None else got.witness.kind
                seen[kind] += 1
                seen["taut"] += c.is_tautology()
                seen["no-ext"] += not external_variables(f, c)

                for seed in (n, n + 1000):
                    assert sampled_tau(f, c, random.Random(seed), 8, k) == (
                        reference_sample(f, c, random.Random(seed), 8, k)
                    ), (f, c, k, seed)
        assert min(seen.values()) >= 30, seen


def rule_out_sets(c, env, k=None):
    """Per candidate of c in `candidate_sets` order, the bitset over `env` of
    the clauses that rule it out, by the definition: a non-tautological D
    rules out L when L holds every literal of c whose complement D holds
    (N) and none that D shares with c (P), and, for a tautological c, only
    when L takes exactly one literal of every complementary pair."""
    pairs = [x for x in c if x > 0 and -x in c]
    sets = []
    for cand in candidate_sets(c, k):
        splits = all((x in cand) != (-x in cand) for x in pairs)
        sets.append(sum(1 << i for i, d in enumerate(env)
                        if splits and not d.is_tautology()
                        and all(x in cand for x in c if -x in d)
                        and not any(x in cand for x in c if x in d)))
    return sets


def assert_lattice_transposes(env, k):
    """The bit lattice's rules are the rule-out sets, transposed: bit j of
    clause i's rule is bit i of candidate j's set."""
    full, rules = env.lattice(k)
    sets = rule_out_sets(env.subject, env.env, k)
    assert full.bit_length() == len(sets)
    assert rules == [sum(((r >> i) & 1) << j for j, r in enumerate(sets))
                     for i in range(len(env.env))], (env.env, env.subject, k)


def first_sets(f, c, indexes):
    """The first set blocking c under each of the assignments to the
    external variables with the given indexes, read off c's compiled
    environment in f."""
    env = _Environment(c, resolution_environment(f, c))
    first = env.finder(None)
    return [env.clause_at(first(env.survivors(m))) for m in indexes]


class TestBitsetEdges:
    def test_tautological_environment_clause_never_rules_out(self):
        # read as a plain clause, (-1 3 -3) would rule out {1} and {1, 2}
        f = formula((-1, 3, -3), (-2, 1))
        c = clause(1, 2)
        env = _Environment(c, resolution_environment(f, c))
        ruled = dict(zip(candidate_sets(c), rule_out_sets(c, env.env)))
        assert ruled == {clause(1): 0, clause(2): 0b10, clause(1, 2): 0}
        assert_lattice_transposes(env, None)
        assert is_set_blocked(f, c).blocking_set == clause(1)

    def test_clauses_with_equal_shared_and_complemented_sets_both_count(self):
        # both have P = {} and N = {1}; {1} blocks only once both are gone
        f = formula((-1, 3), (-1, 4))
        c = clause(1)
        assert first_sets(f, c, range(4)) == [None, None, None, clause(1)]
        res = check_super_blocked(f, c)
        assert res.failing_tau.to_literals() == (-3, -4)

    def test_clause_ruling_out_only_the_pair(self):
        d = clause(-1, -2, 3)
        c = clause(1, 2)
        env = _Environment(c, [d])
        assert rule_out_sets(c, env.env) == [0, 0, 1]
        assert_lattice_transposes(env, None)
        f = formula(d, (-1, 2), (-2, 1))
        assert is_set_blocked(Formula([d]), c).blocking_set == clause(1)
        assert is_set_blocked(f, c) is None
        # 3 false: (-1 -2 3) survives
        assert first_sets(f, c, (0, 1)) == [None, clause(1, 2)]
        assert check_super_blocked(f, c).failing_tau.to_literals() == (-3,)

    def test_rows_with_the_same_set_share_one_clause(self, monkeypatch):
        # the unsat2supbc gadget of an unsatisfiable source: 8 rows, fewer sets
        source = formula((1, 2), (1, -2), (-1, 3), (-1, -3))
        inst = unsat_to_1superblocking(source)
        for search in (False, True):
            with monkeypatch.context() as m:
                if search:
                    searching(m)
                table = check_super_blocked(inst.formula, inst.clause, 1).witness.per_tau
                env = _Environment(inst.clause, resolution_environment(inst.formula, inst.clause))
                assert (env.lattice(1) is None) == search
                distinct = set(table.sets)
                assert len(distinct) < len(table) == 8
                assert len(set(map(id, table.sets))) == len(distinct), search

    def test_assignment_satisfying_every_environment_clause(self, at_not_setblocked):
        f, c = at_not_setblocked
        env = _Environment(c, resolution_environment(f, c))
        assert env.survivors(1) == 0 and env.survivors(0) == env.every == 0b111
        assert first_sets(f, c, (1, 0)) == [clause(1), None]

    def test_survivors_are_the_clauses_an_assignment_leaves(self):
        # clause i survives m exactly when assignment_at(external(), m)
        # makes none of its literals true
        rng = random.Random(20170333)
        seen = dict.fromkeys(("ext=6", "taut", "taut-on-ext", "no-ext", "dead", "live"), 0)
        for _ in range(300):
            c = random_clause(rng, 3, rng.randint(1, 3))
            # external: those of 1..3 outside c, and 4..3+nx
            nx = rng.randint(0, 3 + len(c))
            env = []
            for _ in range(rng.randint(1, 6)):
                lits = {-rng.choice(c.literals)}
                lits.update(random_clause(rng, 3 + nx, rng.randint(1, 4)))
                if rng.random() < 0.2:  # a complementary pair on any variable
                    v = rng.randint(1, 3 + nx)
                    lits |= {v, -v}
                env.append(Clause(lits))
            compiled = _Environment(c, resolution_environment(Formula(env + [c]), c))
            ext = compiled.external()
            assert len(ext) <= 6
            seen["ext=6"] += len(ext) == 6
            for d in compiled.env:
                outside = [x for x in d if abs(x) in ext]
                seen["taut"] += d.is_tautology()
                seen["taut-on-ext"] += any(-x in d for x in outside)
                seen["no-ext"] += not outside
            for m in range(1 << len(ext)):
                tau = assignment_at(ext, m)
                want = sum(1 << i for i, d in enumerate(compiled.env)
                           if not any(tau.lit_value(x) == 1 for x in d))
                assert compiled.survivors(m) == want, (compiled.env, c, m)
                seen["dead"] += want != compiled.every
                seen["live"] += want != 0
        assert min(seen.values()) >= 10, seen

    def test_a_table_past_the_lattice_asks_no_survivors(self, monkeypatch, at_not_setblocked):
        # the scan finds each row's live clauses itself, on both routes
        asked = []
        survivors = _Environment.survivors
        monkeypatch.setattr(_Environment, "survivors",
                            lambda env, m: asked.append(m) or survivors(env, m))
        searching(monkeypatch)
        inst = unsat_to_1superblocking(formula((1, 2), (1, -2), (-1, 3), (-1, -3)))
        cases = [(inst.formula, inst.clause, 1), (*at_not_setblocked, None)]
        for f, c, k in cases:
            res = check_super_blocked(f, c, k)
            assert _Environment(c, resolution_environment(f, c)).lattice(k) is None
            if res.witness is None:
                assert is_set_blocked(restrict(f, res.failing_tau), c, k) is None
            else:
                table = res.witness.per_tau
                assert len(table) == 8
                for tau in table:
                    assert table[tau] == is_set_blocked(restrict(f, tau), c, k).blocking_set
        assert asked == []

    def test_tautological_clause_rules_out_only_candidates_splitting_its_pair(self):
        # {-1} and {1} each split the pair and meet one clause; {2} and
        # {-1, 1} keep or flip both literals of it, so nothing rules them out
        f = formula((1, 3), (-1, 4))
        c = clause(-1, 1, 2)
        env = _Environment(c, resolution_environment(f, c))
        ruled = dict(zip(candidate_sets(c), rule_out_sets(c, env.env)))
        assert_lattice_transposes(env, None)
        assert ruled == {
            clause(-1): 0b01, clause(1): 0b10, clause(2): 0,
            clause(-1, 1): 0, clause(-1, 2): 0b01, clause(1, 2): 0b10,
            clause(-1, 1, 2): 0,
        }
        assert is_set_blocked(f, c, 1).blocking_set == clause(2)
        # (-2 5) holds the complement of 2, yet c \ {2} still holds the pair
        f.add((-2, 5))
        assert is_set_blocked(f, c, 1).blocking_set == clause(2)


@pytest.fixture
def compiles(monkeypatch):
    """Count environment reads and compiles."""
    seen = {"read": 0, "compiled": 0}
    read = blocking.resolution_environment

    def counting_read(f, c):
        seen["read"] += 1
        return read(f, c)

    class Counting(_Environment):
        __slots__ = ()

        def __init__(self, c, env):
            seen["compiled"] += 1
            super().__init__(c, env)

    monkeypatch.setattr(blocking, "resolution_environment", counting_read)
    monkeypatch.setattr(blocking, "_Environment", Counting)

    def reset():
        seen.update(read=0, compiled=0)
        return seen

    return reset


def ask_both(f, c, k=None):
    """`is_set_blocked`, then `check_super_blocked` (cap 3), on one clause."""
    is_set_blocked(f, c, k)
    try:
        check_super_blocked(f, c, k, ext_cap=3)
    except CapExceeded:
        pass


class TestOneCompilePerQuestion:
    def test_every_outcome_reads_and_compiles_once(self, compiles, monkeypatch):
        # in a row store (classify sets one per row; here the test does),
        # every k, and a super-blocking question after a set-blocking one,
        # share one read and compile; outside a row each question reads and
        # compiles once. These lattices are all bit lattices; with every
        # lattice searched, the same holds.
        for search in (False, True):
            with monkeypatch.context() as m:
                if search:
                    searching(m)
                outcomes = {"set": 0, "super": 0, "refuted": 0, "cap": 0}
                walked = 0  # refutations past the first assignment
                for f, c in differential_cases():
                    seen = compiles()
                    f.answers = {}
                    for k in (None, 1, 2):
                        is_set_blocked(f, c, k)
                        try:
                            res = check_super_blocked(f, c, k, ext_cap=3)
                        except CapExceeded as exc:
                            assert exc.count == len(external_variables(f, c))
                            kind = "cap"
                        else:
                            kind = "refuted" if res.witness is None else res.witness.kind
                            if kind == "refuted" and any(v for _, v in res.failing_tau.items()):
                                walked += 1
                        outcomes[kind] += 1
                        assert (seen["read"], seen["compiled"]) == (1, 1), (f, c, k, kind)
                    f.answers = None
                    asked = 1 + bool(c)  # per `ask_both`; the empty clause searches no set
                    ask_both(f, c)
                    ask_both(f, c, 1)
                    assert (seen["read"], seen["compiled"]) == (1 + 2 * asked,) * 2, (f, c)
                assert min(outcomes.values()) >= 30 and walked >= 30, (outcomes, walked)

    def test_a_classify_row_compiles_its_clause_once(self, compiles, monkeypatch):
        # a row's setbc and supbc cells share one read and compile, in
        # either order, with every property asked and on both routes
        for search in (False, True):
            with monkeypatch.context() as m:
                if search:
                    searching(m)
                for i, (f, c) in enumerate(differential_cases()):
                    if i % 4:
                        continue
                    f.add(c)
                    for props, k in ((("setbc", "supbc"), None), (("supbc", "setbc"), 1),
                                     (PROPERTIES, 2)):
                        seen = compiles()
                        classify(f, props, k=k, ext_cap=3)
                        assert (seen["read"], seen["compiled"]) == (len(f), len(f)), (f, props)

    def test_a_failed_set_search_past_the_lattice_allocates_little(self):
        # an unsatisfiable source: no set blocks the 13-literal gadget
        # clause, so all 8,191 candidates, past the bit lattices, count; the
        # whole question (read, compile and search) builds no per-candidate bitset
        source = formula((1, 2), (1, -2), (-1, 2), (-1, -2), (3, 4), (5, 6))
        inst = sat_to_setblocking(source)
        f, c = inst.formula, inst.clause
        stats = {}
        assert is_set_blocked(f, c, None, stats) is None  # indexes f
        assert stats == {"candidates": 8191}
        assert _Environment(c, resolution_environment(f, c)).lattice(None) is None
        tracemalloc.start()
        try:
            assert is_set_blocked(f, c) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_the_search_clauses_of_a_small_environment(self):
        f = formula((-1, 2), (-2, 1), (-1, 3), (-2, -1, 4))
        c = clause(1, 2)
        # per position, (bit, N | P, N) of the clauses ending there
        assert _Environment(c, resolution_environment(f, c)).clauses() == [
            [(0b100, 0b01, 0b01)],
            [(0b1, 0b11, 0b01), (0b10, 0b11, 0b10), (0b1000, 0b11, 0b11)],
        ]

    def test_sampling_reads_and_compiles_once(self, compiles, ex_setblocked,
                                              ex_full_blocking, at_not_setblocked):
        for (f, c), refuted in ((ex_setblocked, False), (ex_full_blocking, False),
                                (at_not_setblocked, True)):
            seen = compiles()
            assert (sampled_tau(f, c, random.Random(3), 8) is not None) == refuted
            assert (seen["read"], seen["compiled"]) == (1, 1)

    @pytest.mark.parametrize("text, args, code, out", [
        (REFUTABLE, ("--incomplete", "4", "--seed", "5"), 1, "NOT-BLOCKED failing-tau 3 -4\n"),
        (FULL_BLOCKING_WIDE, ("--incomplete", "3"), 2, "UNKNOWN sampled 3\n"),
    ])
    def test_check_samples_the_capped_question_it_compiled(self, compiles, tmp_path, capsys,
                                                          text, args, code, out):
        path = tmp_path / "f.cnf"
        path.write_text(text)
        seen = compiles()
        argv = ["check", str(path), "--property", "supbc", "--clause", "1 2 0", "--ext-cap", "1"]
        assert cli.run(argv + list(args)) == code
        assert capsys.readouterr().out == out
        assert (seen["read"], seen["compiled"]) == (1, 1)

    def test_the_empty_clause_searches_no_set(self, compiles):
        seen = compiles()
        assert is_set_blocked(formula((1, 2)), Clause()) is None
        assert (seen["read"], seen["compiled"]) == (0, 0)
        res = check_super_blocked(formula((1, 2)), Clause())
        assert res.failing_tau == Assignment()
        assert (seen["read"], seen["compiled"]) == (1, 1)


# -- the bit-parallel route against the search -----------------------------------


def lattice_cases():
    """Seeded questions on clauses of 1 to 11 literals and on the
    `sat2setbc`, `qbf2supbc` and `unsat2supbc` gadgets (the last with 34
    literals), most of whose lattices the bit route decides for some k."""
    rng = random.Random(20161001)
    for i in range(200):
        kind = i % 5
        if kind < 2:
            # one to three environment clauses per literal of c: its
            # complement, at most one literal of c, and one or two of four
            # external variables
            width = rng.randint(1, 11)
            c = random_clause(rng, width + 2, width)
            f = Formula()
            for x in c.literals:
                for _ in range(rng.randint(1, 3)):
                    lits = [-x] + rng.sample(c.literals, rng.randint(0, 1))
                    lits += [rng.choice((1, -1)) * rng.randint(width + 3, width + 6)
                             for _ in range(rng.randint(1, 2))]
                    f.add(Clause(lits))
            if kind == 1:  # tautological environment clauses and a tautological c
                lit = rng.choice(c.literals)
                f.add((-lit, width + 8, -(width + 8)))
                f.add((-lit, lit, width + 3))
                if rng.random() < 0.5:
                    c = c | (-rng.choice(c.literals),)
            yield f, c
        elif kind == 2:
            inst = sat_to_setblocking(random_formula(rng, rng.randint(3, 5), rng.randint(4, 16), 3))
            yield inst.formula, inst.clause
        elif kind == 4:
            # 34 distinct source clauses of width 2 or 3 over four variables,
            # so the gadget clause has 34 literals and four external
            # variables; every other source is satisfied by a planted model
            model = [rng.choice((1, -1)) * v for v in range(1, 5)]
            source = Formula()
            while len(source) < 34:
                d = random_clause(rng, 4, rng.randint(2, 3))
                if i % 10 == 4 or not d.isdisjoint(model):
                    source.add(d)
            inst = unsat_to_1superblocking(source)
            yield inst.formula, inst.clause
        else:
            # three existentials, so the gadget clause has 7 literals, and
            # one of them in each clause, with one or two universals
            nx = rng.randint(2, 6)
            matrix = Formula(
                random_clause(rng, nx, rng.randint(1, 2))
                | (rng.choice((1, -1)) * rng.randint(nx + 1, nx + 3),)
                for _ in range(rng.randint(nx, 2 * nx))
            )
            q = QbfInstance(frozenset(range(1, nx + 1)), frozenset(range(nx + 1, nx + 4)), matrix)
            inst = forall_exists_to_superblocking(q)
            yield inst.formula, inst.clause


def decide_everything(f, c, k):
    """What the deciders answer about c in f for k, each on a fresh compile:
    the set search with its count, the super-blocking result with its table
    rows (cap 4), the failing assignment of five samples past a cap of 0,
    and, with at most four external variables, the set `reconstruct`
    recomputes for a compact entry under each of their assignments."""
    stats = {}
    found = is_set_blocked(f, c, k, stats)
    try:
        res = check_super_blocked(f, c, k, ext_cap=4)
        table = res.witness and res.witness.per_tau and table_rows(res.witness.per_tau)
    except CapExceeded as exc:
        res, table = exc.count, None
    sampled = sampled_tau(f, c, random.Random(len(f)), 5, k)
    ext = sorted(external_variables(f, c))
    under = None
    if len(ext) <= 4:
        under = [blocking_set_under(f, c, assignment_at(ext, m).value)
                 for m in range(1 << len(ext))]
    return found, stats, res, table, sampled, under


def write_cnf(path, f):
    path.write_text("p cnf %d %d\n%s" % (
        max(f.variables(), default=0), len(f), "".join(d.dimacs() + "\n" for d in f)))
    return path


def searching(monkeypatch):
    """Make every lattice with a candidate one the search decides."""
    monkeypatch.setattr(blocking, "_BIT_LATTICE", 0)


# `check` questions on the qbf2supbc gadget, one per kind of answer
COMMAND_CASES = [
    (((2, -5), (1, -4)), "setbc", "BLOCKED"),
    (((-1, -3), (1, -5), (-1, 5), (-2, -3)), "supbc", "BLOCKED witness-per-tau 4"),
    (((-1, -5), (2, 5), (-1, 5)), "supbc", "NOT-BLOCKED failing-tau"),
]


class TestBitLattice:
    def test_candidate_bits_number_candidate_sets(self):
        for n in range(1, 13):
            c = Clause(range(1, n + 1))
            for bound in range(1, n + 1):
                cands = list(candidate_sets(c, bound))
                # the environment takes a lattice of at most 2^11 candidates
                # on the bit route
                lattice = _Environment(c, []).lattice(bound)
                if len(cands) > 1 << 11:
                    assert lattice is None, (n, bound)
                    continue
                full, holds = blocking._candidate_bits(n, bound)
                assert lattice == (full, [])
                assert full == (1 << len(cands)) - 1
                assert holds == tuple(sum(1 << j for j, s in enumerate(cands) if q + 1 in s)
                                      for q in range(n)), (n, bound)
        # one literal per candidate, and the largest lattices that fit
        assert blocking._candidate_bits(70, 1) == ((1 << 70) - 1, tuple(1 << q for q in range(70)))
        assert blocking._candidate_bits(2048, 1)[0] == (1 << 2048) - 1
        assert _Environment(Clause(range(1, 2049)), []).lattice(1) is not None
        assert _Environment(Clause(range(1, 2050)), []).lattice(1) is None
        assert blocking._candidate_bits(11, 11)[0] == (1 << 2047) - 1
        assert _Environment(Clause(range(1, 13)), []).lattice(12) is None
        # the smallest lattices: one candidate, and the empty clause's none
        assert blocking._candidate_bits(1, 1) == (1, (1,))
        assert blocking._candidate_bits(0, 0) == (0, ())

    def test_each_table_is_built_once_per_width_and_bound(self):
        # widths 1 to 8 classified under four bounds ask for 26 distinct
        # (n, bound) tables; each is built once however the clauses interleave
        rng = random.Random(5)
        f = Formula(random_clause(rng, 40, 1 + i % 8) for i in range(120))
        blocking._candidate_bits.cache_clear()
        for k in (None, 1, 2, 3):
            classify(f, ("setbc", "supbc"), k=k)
        keys = {(n, n if k is None else min(k, n)) for n in range(1, 9) for k in (None, 1, 2, 3)}
        assert blocking._candidate_bits.cache_info().misses == len(keys) == 26

    def test_a_lattice_past_the_bit_budget_is_searched(self):
        # 2,047 candidates: 512 environment clauses fill the 2^20 rule bits
        # a lattice may take, and 513 pass them
        c = Clause(range(1, 12))
        for extra, bits in ((511, True), (512, False)):
            f = formula((-1, 20), *((-2, 21 + i) for i in range(extra)))
            env = _Environment(c, resolution_environment(f, c))
            assert (env.lattice(None) is not None) == bits, extra
            assert env.kept_lattice[0] == 11
            stats = {}
            assert is_set_blocked(f, c, None, stats).blocking_set == clause(3)
            assert stats == {"candidates": 3}

    def test_tautological_environment_clause_rules_out_nothing(self):
        # 127 candidates; read as a plain clause, (-1 8 -8) would rule out
        # every candidate holding 1, and (-2 9) rules out those holding 2
        c = Clause(range(1, 8))
        f = formula((-1, 8, -8), (-2, 9))
        env = _Environment(c, resolution_environment(f, c))
        full, rules = env.lattice(None)
        assert full.bit_length() == 127 and rules[0] == 0
        stats = {}
        assert is_set_blocked(f, c, None, stats).blocking_set == clause(1)
        assert stats == {"candidates": 1}
        assert check_super_blocked(f, c).witness.blocking_set == clause(1)
        # with {1} taken by a plain clause, {3} is the first set left
        f.add((-1, 10))
        assert is_set_blocked(f, c).blocking_set == clause(3)

    def test_bits_and_search_agree(self, monkeypatch):
        seen = dict.fromkeys(("set", "super", "refuted", "walked", "cap", "taut-c", "sampled",
                              "repaired", "small", "gadget34", "one-ext+", "one-ext-",
                              "several-ext"), 0)
        for f, c in lattice_cases():
            assert len(c) <= 12 or len(c) == 34
            ext = set(external_variables(f, c))
            reached = set()  # how many external literals the environment's clauses have
            for d in resolution_environment(f, c):
                outside = [x for x in d if abs(x) in ext]
                if len(outside) == 1:
                    reached.add("one-ext+" if outside[0] > 0 else "one-ext-")
                elif outside:
                    reached.add("several-ext")
            for k in (None, 1, 2, 3):
                env = _Environment(c, resolution_environment(f, c))
                lattice = env.lattice(k)
                if lattice is None:
                    continue
                assert_lattice_transposes(env, k)
                got = decide_everything(f, c, k)
                with monkeypatch.context() as m:
                    searching(m)
                    assert decide_everything(f, c, k) == got, (f, c, k)
                _, _, res, _, sampled, under = got
                if isinstance(res, int):
                    seen["cap"] += 1
                elif res.witness is None:
                    seen["refuted"] += 1
                    seen["walked"] += any(v for _, v in res.failing_tau.items())
                else:
                    seen[res.witness.kind] += 1
                seen["taut-c"] += c.is_tautology()
                seen["sampled"] += sampled is not None
                seen["repaired"] += under is not None and None not in under
                seen["small"] += len(c) < 7
                seen["gadget34"] += len(c) == 34
                if isinstance(res, SuperBlockingResult) and (
                        res.witness is None or res.witness.kind == "super"):
                    for key in reached:  # the scan went past its first step
                        seen[key] += 1
        assert min(seen.values()) >= 10, seen

    def test_check_past_the_cap_samples_as_the_search_does(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(11)
        answers = set()
        for i in range(16):
            nx = rng.randint(3, 6)
            matrix = Formula(
                random_clause(rng, nx, rng.randint(1, 2)) | (rng.choice((1, -1)) * (7 + j % 3),)
                for j in range(rng.randint(nx, 2 * nx))
            )
            inst = forall_exists_to_superblocking(
                QbfInstance(frozenset(range(1, nx + 1)), frozenset({7, 8, 9}), matrix))
            path = write_cnf(tmp_path / ("q%d.cnf" % i), inst.formula)
            assert _Environment(inst.clause, resolution_environment(inst.formula, inst.clause)
                                ).lattice(None) is not None
            argv = ["check", str(path), "--property", "supbc", "--clause", inst.clause.dimacs(),
                    "--ext-cap", "1", "--incomplete", "6", "--seed", str(i)]
            code = cli.run(argv)
            out = capsys.readouterr().out
            with monkeypatch.context() as m:
                searching(m)
                assert cli.run(argv) == code
                assert capsys.readouterr().out == out
            answers.add(out.split()[0])
        assert {"NOT-BLOCKED", "UNKNOWN"} <= answers, answers

    def test_the_bound_picks_the_route_of_a_wide_clause(self):
        # a 13-literal gadget clause: 377 and 91 candidates for k = 3 and 2,
        # and 8,191, past the bit lattices, with k unbounded
        inst = sat_to_setblocking(formula((1, 2), (-1, 3), (2, -3), (4, 5), (-5, 6)))
        f, c = inst.formula, inst.clause
        assert len(c) == 13
        env = _Environment(c, resolution_environment(f, c))
        for k in (3, 2):
            full, rules = env.lattice(k)
            assert full.bit_length() == count_candidate_sets(13, k) and len(rules) == len(env.env)
            assert env.kept_lattice[0] == k and env.ends is None
        assert env.lattice(None) is None and env.kept_lattice == (13, None)

    @pytest.mark.parametrize("matrix, prop, answer", COMMAND_CASES)
    def test_bit_route_commands_leave_no_cyclic_garbage(self, tmp_path, capsys,
                                                        matrix, prop, answer):
        inst = forall_exists_to_superblocking(QbfInstance({1, 2}, {3, 4, 5}, formula(*matrix)))
        path = write_cnf(tmp_path / "q.cnf", inst.formula)
        argv = ["check", str(path), "--property", prop, "--clause", inst.clause.dimacs()]
        code = cli.run(argv)
        first = capsys.readouterr()
        assert first.out.startswith(answer)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.run(argv) == code
            gc.collect()
            left = [type(x).__name__ for x in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert capsys.readouterr() == first
        assert left == []

    @pytest.mark.parametrize("matrix, prop, answer", COMMAND_CASES)
    def test_search_route_commands_leave_no_cyclic_garbage(self, tmp_path, capsys, monkeypatch,
                                                           matrix, prop, answer):
        # the search's finder holds the compiled environment: kept on the
        # environment, it would form a cycle
        searching(monkeypatch)
        self.test_bit_route_commands_leave_no_cyclic_garbage(tmp_path, capsys,
                                                             matrix, prop, answer)


def search_cases():
    """Seeded (environment, clause, tautological c) questions for the search:
    environments of one to three clauses per literal of c, each with its
    complement, literals of c and external variables, and the
    `sat2setbc` gadgets of 6-variable sources (13 literals)."""
    rng = random.Random(20170301)
    for i in range(600):
        width = rng.randint(1, 8)
        c = random_clause(rng, width + 2, width)
        env = []
        for x in c.literals:
            for _ in range(rng.randint(0, 3)):
                others = [y for y in c.literals if y != x]
                lits = [-x] + rng.sample(others, rng.randint(0, min(2, len(others))))
                lits += [rng.choice((1, -1)) * rng.randint(width + 3, width + 6)
                         for _ in range(rng.randint(0, 2))]
                env.append(Clause(lits))
        if i % 3 == 1:  # tautological environment clauses, pair outside and inside c
            lit = rng.choice(c.literals)
            env += [Clause((-lit, width + 8, -(width + 8))), Clause((-lit, lit, width + 3))]
        elif i % 3 == 2:  # a tautological c with one or two complementary pairs
            for x in rng.sample(c.literals, min(width, rng.randint(1, 2))):
                c = c | (-x,)
                if rng.random() < 0.5:  # a clause that rules out {-x}
                    env.append(Clause((x, width + 3)))
        yield list(dict.fromkeys(d for d in env if not c.isdisjoint(d.complements()))), c
    for _ in range(8):
        inst = sat_to_setblocking(random_formula(rng, 6, rng.randint(8, 24), 3))
        yield resolution_environment(inst.formula, inst.clause), inst.clause


class TestSearch:
    def test_search_matches_the_reference(self):
        # the index of the first candidate, in `candidate_sets` order, that
        # blocks c in the formula of the live environment clauses
        rng = random.Random(1703)
        seen = dict.fromkeys(("found", "none", "taut-c", "taut-env", "subset", "gadget"), 0)
        for env, c in search_cases():
            compiled = _Environment(c, env)
            for k in (None, 1, 2, 3):
                for alive in (compiled.every, rng.getrandbits(len(env))):
                    live = Formula(d for i, d in enumerate(env) if alive >> i & 1)
                    cands = candidate_sets(c, k)
                    want = next((i for i, s in enumerate(cands) if set_blocks(live, c, s)), -1)
                    got = compiled.search(alive, k)
                    assert got == want, (env, c, k, alive)
                    if got >= 0:
                        assert compiled.clause_at(got) == list(candidate_sets(c, k))[got]
                    seen["found" if got >= 0 else "none"] += 1
                    seen["taut-c"] += c.is_tautology()
                    seen["taut-env"] += any(d.is_tautology() for d in live)
                    seen["subset"] += alive != compiled.every
                    seen["gadget"] += len(c) >= 13
        assert sum(seen[key] for key in ("found", "none")) >= 3000, seen
        assert min(seen.values()) >= 60 and seen["taut-c"] >= 100 and seen["taut-env"] >= 100, seen

    def test_wide_clauses_no_set_blocks(self, tmp_path, capsys):
        # F = {(1 ... 64), (-1), ..., (-64)}: each unit rules out every
        # candidate holding its literal, so the search refutes at once what
        # the 2^64 - 1 candidates would take forever to
        n = 64
        wide = " ".join(map(str, range(1, n + 1)))
        path = tmp_path / "f.cnf"
        path.write_text("p cnf %d %d\n%s 0\n%s" % (
            n, n + 1, wide, "".join("-%d 0\n" % v for v in range(1, n + 1))))
        argv = ["check", str(path), "--clause-index", "0", "--property"]
        assert cli.run(argv + ["setbc"]) == 1
        assert capsys.readouterr().out == "NOT-BLOCKED\n"
        assert cli.run(argv + ["supbc"]) == 1
        assert capsys.readouterr().out.startswith("NOT-BLOCKED failing-tau")
        # the unit clauses have 63 external variables each: past the default
        # cap their super-blocking cell would read `cap`
        assert cli.run(["classify", str(path), "--ext-cap", str(n)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == n + 1
        assert all(set(row.split("\t")[1:]) == {"no"} for row in rows), rows
        trace = tmp_path / "t.trace"
        trace.write_text("t blockcheck 1\nd supbc %s 0 w 0\n" % wide)
        model = tmp_path / "m.txt"
        model.write_text("v 0\n")
        assert cli.run(["reconstruct", str(path), "--trace", str(trace), "--model", str(model)]) == 70
        assert capsys.readouterr().err == "error: failed to recompute a blocking set during repair\n"

    def test_no_set_under_a_refuting_assignment_of_a_wide_gadget(self):
        # the unsat2supbc gadget of a satisfiable 34-clause source: under a
        # model of the source every selector is ruled out, so no set blocks
        # its 34-literal clause
        rng = random.Random(34)
        model = [rng.choice((1, -1)) * v for v in range(1, 5)]
        source = Formula()
        while len(source) < 34:
            d = random_clause(rng, 4, rng.randint(2, 3))
            if not d.isdisjoint(model):
                source.add(d)
        inst = unsat_to_1superblocking(source)
        f, c = inst.formula, inst.clause
        assert len(c) == 34
        tau = check_super_blocked(f, c).failing_tau
        assert tau is not None and is_set_blocked(restrict(f, tau), c) is None
        assert blocking_set_under(f, c, tau.value) is None
        assert _Environment(c, resolution_environment(f, c)).lattice(None) is None
        # where the first source clause is false its selector, c's first
        # literal, is ruled out by nothing
        first = source.clauses[0]
        assert blocking_set_under(f, c, lambda v: -v in first) == Clause(c.literals[:1])


class TestDimacsRows:
    def test_each_distinct_set_is_formatted_once_and_rows_read_as_before(self, monkeypatch):
        sets = [clause(1), clause(2, -3), clause(1), clause(1), clause(2, -3), clause(-4),
                clause(1), clause(2, -3)]
        table = RestrictionTable((2, 5, 7), sets)
        want = [(tau, s.dimacs()) for tau, s in table_rows(table)]
        formatted = []
        dimacs = Clause.dimacs
        monkeypatch.setattr(Clause, "dimacs", lambda s: formatted.append(s) or dimacs(s))
        assert list(table.dimacs_rows()) == want
        assert len(formatted) == 3 and set(formatted) == {clause(1), clause(2, -3), clause(-4)}

    def test_check_and_trace_print_the_rows_as_before(self, tmp_path, capsys):
        # the unsat2ksupbc gadget of an unsatisfiable source: a table with
        # few distinct sets over many rows
        source = formula((1, 2), (1, -2), (-1, 3), (-1, -3))
        inst = unsat_to_1superblocking(source)
        res = check_super_blocked(inst.formula, inst.clause, 1)
        table = res.witness.per_tau
        assert len(set(table.sets)) < len(table) == 8
        path = write_cnf(tmp_path / "g.cnf", inst.formula)
        argv = ["check", str(path), "--property", "supbc", "--clause", inst.clause.dimacs(),
                "--k", "1"]
        assert cli.run(argv) == 0
        rows = ["tau %s set %s" % (tau, s.dimacs()) for tau, s in table_rows(table)]
        assert capsys.readouterr().out.splitlines()[1:] == rows
        entry = TraceEntry(inst.clause, "supbc", res.witness)
        text = EliminationTrace([entry]).to_text()
        assert text.splitlines()[2:] == ["wt %s %s" % (tau, s.dimacs())
                                         for tau, s in table_rows(table)]
        assert EliminationTrace.from_text(text).entries == [entry]
