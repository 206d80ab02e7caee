import random

from blockcheck import Clause, Formula, is_set_blocked
from blockcheck.blocking import check_super_blocked
from blockcheck.cnf import external_variables
from blockcheck.gen import random_formula, random_qbf
from blockcheck.oracle import eval_forall_exists, is_satisfiable
from blockcheck.reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)
from blockcheck.varelim import QbfInstance

from conftest import clause, formula


def assert_instance_valid(inst, source_vars):
    comps = inst.clause.complements()
    for d in inst.formula:
        assert any(l in comps for l in d), d
    fresh = inst.formula.variables() - source_vars
    assert set(inst.selectors) <= fresh | set(inst.selectors)
    assert all(u not in source_vars for u in inst.selectors)
    assert all(p not in source_vars for p in inst.primes.values())


class TestSatToSetblocking:
    def test_single_unit_instance(self):
        inst = sat_to_setblocking(formula((1,)))
        assert inst.selectors == (2,)
        assert inst.primes == {1: 3}
        assert inst.clause == clause(1, 2, 3)
        assert inst.formula == formula((-2, 1), (-1, -3), (-1, 2), (-3, 2))
        w = is_set_blocked(inst.formula, inst.clause)
        assert w is not None and w.blocking_set == clause(1, 2)

    def test_unsatisfiable_source(self):
        inst = sat_to_setblocking(formula((1,), (-1,)))
        assert is_set_blocked(inst.formula, inst.clause) is None

    def test_negative_literals_go_through_primes(self):
        inst = sat_to_setblocking(formula((-1, 2)))
        u = inst.selectors[0]
        assert clause(-u, inst.primes[1], 2) in inst.formula

    def test_round_trip(self):
        rng = random.Random(11220)
        flips = {True: 0, False: 0}
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 6), rng.randint(1, 7), 3)
            inst = sat_to_setblocking(f)
            sat = is_satisfiable(f)
            assert sat == (is_set_blocked(inst.formula, inst.clause) is not None)
            assert_instance_valid(inst, f.variables())
            flips[sat] += 1
        assert flips[True] > 20 and flips[False] > 20


class TestForallExistsToSuperblocking:
    def test_true_qbf(self):
        q = QbfInstance((1,), (2,), formula((1, 2), (-1, -2)))
        inst = forall_exists_to_superblocking(q)
        assert check_super_blocked(inst.formula, inst.clause).blocked

    def test_false_qbf(self):
        q = QbfInstance((1,), (), formula((1,)))
        inst = forall_exists_to_superblocking(q)
        assert not check_super_blocked(inst.formula, inst.clause).blocked

    def test_universals_become_the_external_variables(self):
        q = QbfInstance((1, 3), (2,), formula((1, 2), (3, -2)))
        inst = forall_exists_to_superblocking(q)
        assert external_variables(inst.formula, inst.clause) == {1, 3}

    def test_only_existentials_are_primed(self):
        q = QbfInstance((1,), (2,), formula((1, 2)))
        inst = forall_exists_to_superblocking(q)
        assert set(inst.primes) == {2}

    def test_round_trip(self):
        rng = random.Random(75101)
        outcomes = {True: 0, False: 0}
        for _ in range(100):
            q = random_qbf(rng, max_vars=6, max_clauses=6, max_width=3)
            inst = forall_exists_to_superblocking(q)
            truth = eval_forall_exists(q)
            assert truth == check_super_blocked(inst.formula, inst.clause, ext_cap=8).blocked
            outcomes[truth] += 1
        assert outcomes[True] > 10 and outcomes[False] > 10


class TestUnsatTo1Superblocking:
    def test_unsat_pair(self):
        inst = unsat_to_1superblocking(formula((1,), (-1,)))
        assert inst.clause == clause(2, 3)
        assert inst.formula == formula((-2, -1), (-3, 1))
        assert check_super_blocked(inst.formula, inst.clause, k=1).blocked

    def test_sat_unit(self):
        inst = unsat_to_1superblocking(formula((1,)))
        assert not check_super_blocked(inst.formula, inst.clause, k=1).blocked

    def test_k_is_irrelevant(self):
        rng = random.Random(3390)
        for _ in range(60):
            f = random_formula(rng, rng.randint(1, 5), rng.randint(1, 6), 3)
            inst = unsat_to_1superblocking(f)
            verdicts = {
                k: check_super_blocked(inst.formula, inst.clause, k=k, ext_cap=8).blocked
                for k in (1, 2, 3, None)
            }
            assert len(set(verdicts.values())) == 1

    def test_round_trip(self):
        rng = random.Random(91834)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 5), rng.randint(1, 7), 3)
            inst = unsat_to_1superblocking(f)
            blocked = check_super_blocked(inst.formula, inst.clause, k=1, ext_cap=8).blocked
            assert blocked == (not is_satisfiable(f))
            assert_instance_valid(inst, f.variables())
