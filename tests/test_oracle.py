import pytest

from blockcheck import Assignment, CapExceeded, Clause, Formula, first_model
from blockcheck.cnf import resolution_environment
from blockcheck.oracle import (
    _Table,
    enumerate_models,
    eval_forall_exists,
    is_redundant,
    is_satisfiable,
    is_semantically_blocked_oracle,
    nonlocality_witness,
    satisfies,
)
from blockcheck.varelim import QbfInstance

from conftest import clause, formula


class TestSatisfies:
    def test_all_false_satisfies_the_blocked_environment(self):
        t = Assignment({1: 0, 2: 0, 3: 0})
        assert satisfies(t, formula((-1, 3), (-2, -1)))

    def test_empty_formula(self):
        assert satisfies(Assignment(), Formula())

    def test_single_negative_unit(self):
        assert not satisfies(Assignment({1: 1}), formula((-1,)))


class TestEnumeration:
    def test_models_are_total_and_exactly_the_satisfying_ones(self):
        f = formula((1, 2), (-1, -2))
        ms = enumerate_models(f)
        assert len(ms) == 2
        for m in ms:
            assert m.variables() == {1, 2}
            assert satisfies(m, f)
        assert Assignment({1: 1, 2: 0}) in ms
        assert Assignment({1: 1, 2: 1}) not in ms

    def test_explicit_universe_must_cover_formula(self):
        f = formula((1, 2))
        ms = enumerate_models(f, variables=[1, 2, 3])
        assert len(ms) == 6
        assert first_model(f, variables=[3, 2, 1]) == Assignment({1: 0, 2: 1, 3: 0})
        for enumerate_ in (enumerate_models, first_model):
            with pytest.raises(ValueError, match="^formula variables must lie inside"):
                enumerate_(f, variables=[1])

    def test_cap(self):
        f = formula(tuple(range(1, 30)))
        for enumerate_ in (enumerate_models, first_model):
            with pytest.raises(CapExceeded) as err:
                enumerate_(f, cap=24)
            assert err.value.count == 29

    def test_clause_variable_outside_the_table_is_rejected(self):
        # the formula's clauses and a clause asked for alone meet one check
        with pytest.raises(ValueError, match="^clause variable 3 outside table$"):
            _Table([1, 2], formula((1, 2), (-3,)))
        table = _Table([1, 2], formula((1, -2)))
        assert table.clause_mask(clause(1, -2)) == (0b10, 0b01)
        with pytest.raises(ValueError, match="^clause variable 4 outside table$"):
            table.clause_mask(clause(1, 4))

    def test_models_come_in_lexicographic_order(self):
        # masks count upward, so the list is sorted without a sort; the
        # universe's own order does not matter
        ms = enumerate_models(formula((1, 2), (-2, 3)), variables=[3, 2, 1])
        assert [m.to_literals() for m in ms] == [(-1, 2, 3), (1, -2, -3), (1, -2, 3), (1, 2, 3)]
        assert ms[0] == first_model(formula((1, 2), (-2, 3)))

    def test_first_model_is_lexicographically_first(self):
        # all-false first, then raise the last variable in canonical order
        assert first_model(formula((1, 2))) == Assignment({1: 0, 2: 1})
        assert first_model(formula((1,), (-2,))) == Assignment({1: 1, 2: 0})
        assert first_model(formula((1,), (-1,))) is None


class TestSatisfiability:
    def test_examples(self):
        assert is_satisfiable(formula((1, 2), (-1, -2)))
        assert not is_satisfiable(formula((1,), (-1,)))
        assert is_satisfiable(Formula())
        assert not is_satisfiable(Formula([Clause()]))


class TestRedundancy:
    def test_redundant_without_being_implied(self):
        f = formula((1, 2), (-1, -2))
        assert is_redundant(f, clause(-1, -2))

    def test_not_redundant(self):
        assert not is_redundant(formula((1,)), clause(-1))

    def test_tautologies_are_always_redundant(self):
        for f in (Formula(), formula((1,), (-1,)), formula((1, 2))):
            assert is_redundant(f, clause(2, -2))

    def test_clause_need_not_be_in_the_formula(self):
        assert is_redundant(formula((1, 2), (-1, -2)), clause(1, -2))


class TestSemanticBlocking:
    def test_full_blocking_instance(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert is_semantically_blocked_oracle(f, c)

    def test_at_instance_is_not_blocked(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert not is_semantically_blocked_oracle(f, c)

    def test_unsatisfiable_environment_blocks(self):
        # falsifying every variable of a plain clause satisfies its whole
        # environment, so only a tautology can have an unsatisfiable one
        f = formula((1,), (-1,))
        c = clause(1, -1)
        assert not is_satisfiable(Formula(resolution_environment(f, c)))
        assert is_semantically_blocked_oracle(f, c)

    def test_tautologies_are_blocked(self):
        assert is_semantically_blocked_oracle(formula((1, 2)), clause(2, -2))

    def test_empty_environment_blocks(self):
        assert is_semantically_blocked_oracle(Formula(), clause(1))

    def test_implies_redundancy(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert is_redundant(f, c)

    def test_depends_only_on_the_environment(self, ex_full_blocking):
        f, c = ex_full_blocking
        g = f.with_clause((4, 5)).with_clause((1, 6))  # no complements of c
        assert resolution_environment(g, c) == resolution_environment(f, c)
        assert is_semantically_blocked_oracle(g, c) == is_semantically_blocked_oracle(f, c)


class TestForallExists:
    def test_full_blocking_encoding_is_true(self, ex_full_blocking):
        f, c = ex_full_blocking
        matrix = Formula(resolution_environment(f, c) + [c])
        q = QbfInstance(universals=[3], existentials=[1, 2], matrix=matrix)
        assert eval_forall_exists(q)

    def test_empty_matrix(self):
        assert eval_forall_exists(QbfInstance((), (), Formula()))

    def test_empty_clause_matrix(self):
        assert not eval_forall_exists(QbfInstance((), (), Formula([Clause()])))

    def test_empty_universal_block_is_satisfiability(self):
        f = formula((1, 2), (-1, -2))
        assert eval_forall_exists(QbfInstance((), (1, 2), f)) == is_satisfiable(f)
        g = formula((1,), (-1,))
        assert eval_forall_exists(QbfInstance((), (1,), g)) == is_satisfiable(g)

    def test_universal_choice_matters(self):
        # forall x exists y: (x|y)&(-x|-y) is true; with y universal it is false
        m = formula((1, 2), (-1, -2))
        assert eval_forall_exists(QbfInstance((1,), (2,), m))
        assert not eval_forall_exists(QbfInstance((1, 2), (), m))

    def test_cap(self):
        m = Formula([tuple(range(1, 22))])
        with pytest.raises(CapExceeded):
            eval_forall_exists(QbfInstance((), tuple(range(1, 22)), m), cap=20)


class TestNonlocalityWitness:
    def test_unblocked_three_literal_clause(self, at_not_setblocked):
        f, c = at_not_setblocked
        g = nonlocality_witness(f, c)
        assert resolution_environment(g, c) == resolution_environment(f, c)
        # the stuck assignment fixes the lone external variable as a unit
        units = [d for d in g if len(d) == 1 and d.variables() == {3}]
        assert units == [clause(-3)] or units == [clause(3)]
        assert not is_redundant(g, c)

    def test_blocked_clause_has_no_witness(self):
        with pytest.raises(ValueError):
            nonlocality_witness(Formula(), clause(1))

    def test_env_only_unit_needed(self):
        # environment {(-1|3)} with c=(1): the stuck assignments set x=3 false,
        # so the witness must pin the external variable with a negative unit
        f = formula((-1, 3))
        c = clause(1)
        assert not is_semantically_blocked_oracle(f, c)
        g = nonlocality_witness(f, c)
        assert clause(-3) in g
        assert not is_redundant(g, c)
