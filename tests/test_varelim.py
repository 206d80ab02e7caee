import itertools
import random

import pytest

from blockcheck import (
    Clause,
    Formula,
    ParseError,
    QbfInstance,
    ResourceLimit,
    all_resolvents,
    eliminate_variable,
    eliminate_variables,
    encode_qbf,
    eval_forall_exists,
    is_satisfiable,
    is_semantically_blocked_oracle,
    literal_blocked_via_elimination,
    literal_blocks,
    parse_qdimacs,
    random_formula,
    sem_blocked_via_elimination,
    write_qdimacs,
)

from conftest import clause, formula


class TestResolvents:
    def test_single_surviving_resolvent(self, ex_varelim):
        assert all_resolvents(ex_varelim, 1) == [clause(2, 3)]

    def test_all_resolvents_tautological(self):
        f = formula((-2, -3), (2, 3))
        assert all_resolvents(f, 2) == []

    def test_absent_variable(self, ex_varelim):
        assert all_resolvents(ex_varelim, 9) == []


class TestEliminateVariable:
    def test_two_step_run_to_empty(self, ex_varelim):
        f1 = eliminate_variable(ex_varelim, 1)
        assert f1 == formula((-2, -3), (2, 3))
        assert eliminate_variable(f1, 2) == Formula()

    def test_variable_gone_from_tautology_free_input(self, ex_varelim):
        assert 1 not in eliminate_variable(ex_varelim, 1).variables()

    def test_preserves_satisfiability(self):
        rng = random.Random(20816)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 8), rng.randint(1, 10), 3)
            v = rng.randint(1, 8)
            assert is_satisfiable(f) == is_satisfiable(eliminate_variable(f, v))

    def test_growth_cap(self):
        # a variable occurring positively and negatively in many clauses
        # blows up quadratically; the cap turns that into a clean error
        big = Formula()
        for i in range(2, 60):
            big.add((1, i, 100 + i))
            big.add((-1, -i, 200 + i))
        with pytest.raises(ResourceLimit):
            eliminate_variables(big, [1], max_clauses=1000)


class TestSemBlockedViaElimination:
    def test_full_blocking_instance(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert sem_blocked_via_elimination(f, c)

    def test_not_blocked_instance(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert not sem_blocked_via_elimination(f, c)

    def test_empty_environment(self):
        assert sem_blocked_via_elimination(Formula(), clause(1))

    def test_rejects_tautologies(self, taut_env_counterexample):
        f, c, _ = taut_env_counterexample
        with pytest.raises(ValueError):
            sem_blocked_via_elimination(f, c)

    def test_guard_bypass_leaves_the_unsatisfiable_core(self, taut_env_counterexample):
        f, c, env = taut_env_counterexample
        # what the characterization would compute for the tautology: the
        # environment stripped of tautologies, with var(c) eliminated
        remnant = eliminate_variables(env, sorted(c.variables()))
        assert remnant == formula((1,), (-1,))
        # ... non-empty, yet the clause is semantically blocked
        assert is_semantically_blocked_oracle(f, c)

    def test_order_independence(self, ex_full_blocking):
        f, c = ex_full_blocking
        verdicts = {
            sem_blocked_via_elimination(f, c, order=perm)
            for perm in itertools.permutations(sorted(c.variables()))
        }
        assert verdicts == {True}


class TestLiteralBlockedViaElimination:
    def test_agrees_on_the_blocked_example(self, ex_blocked):
        f, c = ex_blocked
        assert literal_blocked_via_elimination(f, c, 2)
        assert not literal_blocked_via_elimination(f, c, 1)

    def test_full_blocking_instance_has_no_blocking_literal(self, ex_full_blocking):
        f, c = ex_full_blocking
        for lit in c:
            assert not literal_blocked_via_elimination(f, c, lit)

    def test_agrees_with_literal_blocks_on_random_instances(self):
        rng = random.Random(60313)
        checked = 0
        for _ in range(300):
            f = random_formula(rng, rng.randint(2, 6), rng.randint(1, 8), 3)
            c = random_formula(rng, 6, 1, 3).clauses[0]
            for lit in c:
                assert literal_blocked_via_elimination(f, c, lit) == literal_blocks(f, c, lit)
                checked += 1
        assert checked >= 300


class TestEncodeQbf:
    def test_full_blocking_encoding(self, ex_full_blocking):
        f, c = ex_full_blocking
        q = encode_qbf(f, c)
        assert set(q.universals) == {3}
        assert set(q.existentials) == {1, 2}
        assert len(q.matrix) == 4
        assert eval_forall_exists(q)

    def test_not_blocked_encoding_is_false(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert not eval_forall_exists(encode_qbf(f, c))

    def test_empty_environment_encoding(self):
        q = encode_qbf(Formula(), clause(1))
        assert q.universals == frozenset() and set(q.existentials) == {1}
        assert q.matrix.clauses == [clause(1)]
        assert eval_forall_exists(q)

    def test_rejects_tautologies(self):
        with pytest.raises(ValueError):
            encode_qbf(Formula(), clause(1, -1))


class TestQbfInstance:
    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            QbfInstance((1,), (1, 2), formula((1,)))

    def test_matrix_variables_must_be_quantified(self):
        with pytest.raises(ValueError):
            QbfInstance((1,), (), formula((1, 2)))


class TestQdimacs:
    def test_full_blocking_transcription(self, ex_full_blocking):
        f, c = ex_full_blocking
        text = write_qdimacs(encode_qbf(f, c))
        assert text == (
            "p cnf 3 4\n"
            "a 3 0\n"
            "e 1 2 0\n"
            "-1 2 3 0\n"
            "1 -2 0\n"
            "1 2 0\n"
            "-2 -3 0\n"
        )

    def test_existential_only(self):
        q = QbfInstance((), (1,), formula((1,)))
        assert write_qdimacs(q) == "p cnf 1 1\ne 1 0\n1 0\n"

    def test_round_trip(self, ex_full_blocking):
        f, c = ex_full_blocking
        q = encode_qbf(f, c)
        assert parse_qdimacs(write_qdimacs(q)) == q

    def test_parse_rejects_free_variables(self):
        with pytest.raises(ParseError):
            parse_qdimacs("p cnf 2 1\na 1 0\n1 2 0\n")

    def test_parse_rejects_bad_prefix(self):
        for text in (
            "p cnf 1 1\ne 1 0\na 1 0\n1 0\n",
            "p cnf 2 1\na 1 0\na 2 0\n1 2 0\n",     # repeated 'a' block
            "p cnf 2 1\na 1 0\ne 1 2 0\n1 2 0\n",   # variable in both blocks
            "p cnf 2 1\ne 1 2 1 0\n1 2 0\n",        # variable twice in one block
        ):
            with pytest.raises(ParseError):
                parse_qdimacs(text)

    @pytest.mark.parametrize("header", ["p cnf -1 -5", "pxyz cnf 1 1"])
    def test_parse_applies_the_dimacs_header_rules(self, header):
        with pytest.raises(ParseError, match="^line 1: "):
            parse_qdimacs(header + "\ne 1 0\n1 0\n")
