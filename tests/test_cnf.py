import pytest

import random

from blockcheck import (
    Assignment,
    Clause,
    EliminationTrace,
    Formula,
    ParseError,
    external_variables,
    literal_key,
    parse_dimacs,
    parse_model,
    parse_qdimacs,
    random_clause,
    resolution_environment,
    resolvent,
    restrict,
    write_dimacs,
)
from blockcheck.cnf import numbered_lines, read_dimacs_body, read_literals

from conftest import clause, formula


def test_literal_key_orders_negative_before_positive():
    assert sorted([3, -1, 1, -3], key=literal_key) == [-1, 1, -3, 3]


def test_clause_sort_key_orders_by_literal_key():
    rng = random.Random(3)
    # small variable range: tautologies, prefixes and the empty clause occur
    clauses = [Clause(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
               for _ in range(300)]
    by_literal_key = sorted(clauses, key=lambda c: [literal_key(l) for l in c])
    assert sorted(clauses, key=Clause.sort_key) == by_literal_key


class TestClause:
    def test_deduplicates_and_canonicalizes(self):
        assert Clause([2, 1, 2, -1]).literals == (-1, 1, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Clause([1, 0])

    def test_set_semantics(self):
        assert clause(1, 2) == clause(2, 1)
        assert hash(clause(1, 2)) == hash(clause(2, 1))
        assert clause(1, 2) != clause(1, -2)

    def test_tautology(self):
        assert clause(1, -1, 2).is_tautology()
        assert clause(1, -1, 2, -3, 3, -4, -5).is_tautology()
        assert not clause(1, 2).is_tautology()
        assert not Clause().is_tautology()

    def test_set_operations_accept_iterables(self):
        c = clause(1, 2)
        assert c | (3,) == clause(1, 2, 3)
        assert c - (2,) == clause(1)
        assert c & (2, 3) == clause(2)
        assert clause(1).issubset(c)
        assert not clause(3).issubset(c)

    def test_variables_and_complements(self):
        assert clause(1, -2).variables() == {1, 2}
        assert clause(1, -2).complements() == frozenset({-1, 2})

    def test_dimacs_line(self):
        assert clause(2, -1).dimacs() == "-1 2 0"
        assert Clause().dimacs() == "0"


class TestFormula:
    def test_set_semantics_and_membership(self):
        f = formula((1, 2), (2, 1), (-1,))
        assert len(f) == 2
        assert clause(1, 2) in f
        assert clause(-1) in f

    def test_add_remove_discard(self):
        f = Formula()
        assert f.add((1, 2))
        assert not f.add((2, 1))
        assert f.discard(clause(1, 2))
        assert not f.discard(clause(1, 2))
        f.add((3,))
        f.remove(clause(3))
        assert len(f) == 0
        with pytest.raises(KeyError):
            f.remove(clause(3))

    def test_occurrence_lookup_matches_definition(self):
        f = formula((1, 2), (-1, 3), (2, 3), (-2,))
        for lit in (1, -1, 2, -2, 3, -3):
            expected = [c for c in f.clauses if lit in c]
            assert f.clauses_with(lit) == expected
        assert f.clauses_with_any((1, -2)) == [clause(1, 2), clause(-2)]
        assert f.check_occ_consistent()

    def test_occ_stays_consistent_under_mutation(self):
        f = formula((1, 2), (-1, 3))
        f.add((2, -3))
        f.discard(clause(1, 2))
        f.add((1, 2))
        f.add((4,))
        f.add((-4,))
        f.discard(clause(4))
        assert f.check_occ_consistent()
        assert f.seq_of(clause(-1, 3)) < f.seq_of(clause(1, 2))
        # a re-added clause goes to the end of its buckets, as in formula order
        assert f.clauses_with(2) == [clause(2, -3), clause(1, 2)]
        assert f.clauses_with_any((2, -4)) == [clause(2, -3), clause(1, 2), clause(-4)]

    def test_without_and_with_clause_do_not_mutate(self):
        f = formula((1, 2), (3,))
        g = f.without((1, 2))
        h = f.with_clause((4,))
        assert clause(1, 2) in f and clause(1, 2) not in g
        assert clause(4) in h and clause(4) not in f

    def test_variables(self):
        assert formula((1, -2), (3,)).variables() == {1, 2, 3}


def index_state(f):
    """Both indexes and the id counter, every order included."""
    return (
        list(f._seq.items()),
        [(l, list(bucket.items())) for l, bucket in f._occ.items()],
        list(f._units.items()),
        f._next,
    )


def clause_stream(seed, n=60):
    """Seeded clauses with repeats, units, tautologies and the empty clause."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.05:
            out.append(Clause())
        elif r < 0.15 and out:
            out.append(rng.choice(out))
        elif r < 0.25:
            v = rng.randint(1, 6)
            out.append(Clause([v, -v, rng.randint(1, 6)]))
        else:
            out.append(random_clause(rng, 6, rng.randint(1, 4)))
    return out


class TestFormulaIndexes:
    @pytest.mark.parametrize("seed", range(5))
    def test_bulk_build_and_copy_match_add_by_add(self, seed):
        clauses = clause_stream(seed)
        one_by_one = Formula()
        for c in clauses:
            one_by_one.add(c)
        bulk = Formula(clauses)
        assert index_state(bulk) == index_state(one_by_one)
        assert index_state(bulk.copy()) == index_state(one_by_one)
        assert bulk.check_occ_consistent()

    @pytest.mark.parametrize("seed", range(5))
    def test_copy_of_a_mutated_formula(self, seed):
        rng = random.Random(seed)
        f = Formula(clause_stream(seed))
        for c in rng.sample(f.clauses, len(f) // 3):
            f.remove(c)
        before = index_state(f)
        g = f.copy()
        assert index_state(g) == before and g.check_occ_consistent()
        # mutating the copy leaves the original as it was
        for c in g.clauses[::2]:
            g.remove(c)
        g.add((7, -8))
        g.add((9,))
        assert index_state(f) == before and f.check_occ_consistent()
        assert g.check_occ_consistent()

    def test_clause_added_to_a_copy_gets_a_fresh_id(self):
        f = formula((1, 2), (-1, 3), (4,))
        f.remove(clause(4))
        g = f.copy()
        g.add((5,))
        assert g.seq_of(clause(5)) > max(f.seq_of(c) for c in f)
        assert g.seq_of(clause(5)) >= f._next
        assert g.clauses_with_any((1, 5), units=True) == [clause(1, 2), clause(5)]

    def test_occurrences_are_the_bucket_in_insertion_order(self):
        f = formula((2, 1), (-1, 3), (1,), (1, -3))
        f.remove(clause(1))
        assert list(f.occurrences(1).items()) == [
            (clause(1, 2), f.seq_of(clause(1, 2))), (clause(1, -3), f.seq_of(clause(1, -3)))]
        assert list(f.occurrences(-1)) == f.clauses_with(-1) == [clause(-1, 3)]
        assert not f.occurrences(4) and not f.occurrences(-2)
        f.remove(clause(-1, 3))
        assert not f.occurrences(-1)

    def test_consistency_check_sees_a_stale_next_id(self):
        f = formula((1, 2), (-1, 3))
        assert f.check_occ_consistent()
        f._next = f.seq_of(clause(-1, 3))
        assert not f.check_occ_consistent()


class TestAssignment:
    def test_values_and_literal_values(self):
        t = Assignment({1: 1, 2: 0})
        assert t.value(1) == 1 and t.value(3) is None
        assert t.lit_value(-2) == 1 and t.lit_value(2) == 0
        assert t.lit_value(3) is None

    def test_from_literals_rejects_conflicts(self):
        assert Assignment.from_literals([1, -2]) == Assignment({1: 1, 2: 0})
        with pytest.raises(ValueError):
            Assignment.from_literals([1, -1])

    def test_clause_satisfaction(self):
        t = Assignment({1: 0, 2: 0})
        assert t.falsifies_clause(clause(1, 2))
        assert t.satisfies_clause(clause(-1, 3)) is True
        assert not t.satisfies_clause(clause(3,))

    def test_flip_changes_exactly_one_variable(self):
        t = Assignment({1: 1, 2: 0})
        u = t.flip(-1)
        assert u.value(1) == 0 and u.value(2) == 0
        with pytest.raises(ValueError):
            t.flip(3)

    def test_extended_never_rebinds(self):
        t = Assignment({1: 1})
        assert t.extended(2, 0).value(2) == 0
        assert t.extended(1, 1) == t
        with pytest.raises(ValueError):
            t.extended(1, 0)

    def test_restrict_and_literals(self):
        t = Assignment({1: 1, 2: 0, 3: 1})
        assert t.restrict_to([1, 3]).to_literals() == (1, 3)
        assert t.to_literals() == (1, -2, 3)

    def test_hashable(self):
        assert len({Assignment({1: 1}), Assignment({1: 1})}) == 1


class TestResolvent:
    def test_worked_example(self):
        # (-b|-x) resolved with (b|x) on -b gives (x|-x)
        assert resolvent(clause(-2, -3), clause(2, 3), -2) == clause(-3, 3)

    def test_pivot_must_occur(self):
        with pytest.raises(ValueError):
            resolvent(clause(1, 2), clause(-1,), 3)
        with pytest.raises(ValueError):
            resolvent(clause(1, 2), clause(2,), 1)


class TestEnvironment:
    def test_environment_is_the_complement_sharers(self, ex_full_blocking):
        f, c = ex_full_blocking
        env = resolution_environment(f, c)
        assert env == [clause(3, 2, -1), clause(-2, -3), clause(-2, 1)]

    def test_clause_not_in_its_own_environment_when_plain(self):
        c = clause(1, 2)
        f = formula((1, 2), (-1, 3))
        assert c not in resolution_environment(f, c)

    def test_tautology_is_in_its_own_environment(self):
        c = clause(1, -1)
        f = Formula([c, clause(2, 3)])
        assert c in resolution_environment(f, c)
        assert c not in resolution_environment(f.without(c), c)

    def test_external_variables(self, ex_full_blocking):
        f, c = ex_full_blocking
        assert external_variables(f, c) == {3}
        assert external_variables(Formula(), c) == set()


def test_restrict_removes_satisfied_clauses_only():
    f = formula((1, 2), (-3, 2), (3,))
    t = Assignment({3: 1})
    g = restrict(f, t)
    assert g.clauses == [clause(1, 2), clause(-3, 2)]


class TestDimacs:
    def test_parse_basic(self):
        f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert f.clauses == [clause(1, -2), clause(2, 3)]

    def test_parse_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 2 2\n1 2\n0 -1 0\n")
        assert f.clauses == [clause(1, 2), clause(-1)]

    def test_parse_requires_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 0\n")

    def test_lenient_mode_warns_on_count_mismatch(self):
        with pytest.warns(UserWarning):
            f = parse_dimacs("p cnf 1 2\n1 0\n")
        assert f.clauses == [clause(1)]

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    def test_strict_enforces_declared_counts(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 2\n1 0\n", strict=True)
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 1\n2 0\n", strict=True)
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 1\n1 0\n2 0\n", strict=True)

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n", strict=True)

    def test_write_and_round_trip(self):
        f = formula((2, -1), (3,))
        text = write_dimacs(f)
        assert text == "p cnf 3 2\n-1 2 0\n3 0\n"
        assert parse_dimacs(text) == f

    def test_write_empty(self):
        assert write_dimacs(Formula()) == "p cnf 0 0\n"


def general_clauses(text):
    """read_dimacs_body's clause loop with every line going through read_literals."""
    clauses, lines, pending = [], [], []
    lineno = 1
    for lineno, line in numbered_lines(text):
        if line.startswith("%"):
            break
        if line.startswith("p"):
            continue
        toks = line.split()
        start = 0
        while start is not None and start < len(toks):
            lits, start = read_literals(toks, start, lineno)
            pending.extend(lits)
            if start is not None:
                clauses.append(Clause(pending))
                lines.append(lineno)
                pending = []
    if pending:
        raise ParseError("line %d: unterminated clause at end of input" % lineno)
    return clauses, lines


def outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return "error", str(exc)


def fast_clauses(text):
    body = read_dimacs_body(text)
    return body.clauses, body.clause_lines


class TestDimacsFastPath:
    @pytest.mark.parametrize(
        "body",
        [
            "1 2 x\n",           # bad token at the end of a line
            "1 x 2 0\n",         # bad token in the middle
            "1 2 0\n3 x",        # bad token on the last line, no terminator
            "1 0 2 0\n",         # two clauses on one line
            "1 0 2\n3 0\n",     # a clause, then one continued over lines
            "1 2 -0\n-1 00\n",  # '-0' and '00' end a clause
            "+3 -1 0\n",         # an explicit plus sign
            "1 2\n3 0\n",       # a clause continued over lines
            "1\n2 0\n3 0\n",   # a line ending in 0 after a continuation
            "1 2\n0\n0\n",     # a bare 0 ends the pending clause, then is empty
            "1 2 0\n3\n",       # unterminated at end of input
            "0 0 1 0\n",         # empty clauses before a clause
            "1 1 -2 0\n2 -2 0\n",
        ],
    )
    def test_agrees_with_the_general_path(self, body):
        text = "p cnf 3 2\n" + body
        assert outcome(fast_clauses, text) == outcome(general_clauses, text)

    def test_error_texts_are_the_general_ones(self):
        assert outcome(fast_clauses, "p cnf 2 1\n1 x 0\n") == ("error", "line 2: bad literal 'x'")
        assert outcome(fast_clauses, "p cnf 2 1\n1 2\n") == (
            "error", "line 2: unterminated clause at end of input")

    def test_write_keeps_the_canonical_order(self):
        clauses = [(2, -1, 1), (-2, 1), (2, 1), (-1,), (1,), (-1, -2), (), (3, -3, -2), (-3, 2)]
        f = formula(*clauses)
        body = sorted(f, key=Clause.sort_key)
        want = "p cnf 3 9\n" + "".join(c.dimacs() + "\n" for c in body)
        assert write_dimacs(f) == want
        assert want.splitlines()[1:] == [
            "0", "-1 0", "-1 1 2 0", "-1 -2 0", "1 0", "1 -2 0", "1 2 0", "-2 -3 3 0", "2 -3 0",
        ]


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_dimacs, "p cnf 2 2\n1 2 0\n-1 x 0\n"),
        (parse_qdimacs, "p cnf 2 1\ne 1 2 0\n1 x 0\n"),
        (EliminationTrace.from_text, "t blockcheck 1\nd bc 1 0 w 1 0\nd bc 2 0 w x 0\n"),
        (parse_model, "c comment\nv 1\nv x 0\n"),
    ],
)
def test_parse_errors_name_the_line(parse, text):
    with pytest.raises(ParseError, match=r"^line 3: bad literal 'x'"):
        parse(text)
