import copy
import pickle
import random
from itertools import product

import pytest

from blockcheck import (
    Assignment,
    Clause,
    EliminationTrace,
    Formula,
    ParseError,
    parse_dimacs,
    write_dimacs,
)
from blockcheck.cnf import (
    assignment_at,
    assignment_index,
    external_variables,
    literal_key,
    numbered_lines,
    read_dimacs_body,
    read_literals,
    resolution_environment,
    resolvent,
    restrict,
    split_lines,
)
from blockcheck.engine import parse_model
from blockcheck.gen import random_clause
from blockcheck.varelim import parse_qdimacs

from conftest import clause, formula, walk_literals


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

    def test_is_a_frozenset_that_iterates_in_canonical_order(self):
        c = Clause([3, -1, 2, 1, -3])
        assert isinstance(c, frozenset)
        assert list(c) == [-1, 1, 2, -3, 3]
        assert tuple(c) == c.literals == (-1, 1, 2, -3, 3)
        assert c.dimacs() == "-1 1 2 -3 3 0"

    def test_operators_return_clauses_inherited_methods_frozensets(self):
        c = clause(3, 1)
        for got in (c | (2,), c - (3,), c & (1, 2), c | clause(-1), c - frozenset({1})):
            assert type(got) is Clause
            assert tuple(got) == tuple(sorted(got, key=literal_key))
        assert type(c.union((2,))) is frozenset
        assert type(c.difference((3,))) is frozenset

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ])
    def test_copies_keep_the_type_and_the_order(self, copier):
        c = Clause([4, -2, 2, -7])
        got = copier(c)
        assert type(got) is Clause
        assert got == c and got.literals == c.literals == (-2, 2, 4, -7)
        assert repr(got) == repr(c) == "Clause(-2 2 4 -7)"

    def test_equals_the_frozenset_of_its_literals(self):
        assert Clause([1]) == frozenset({1})
        assert hash(Clause([1, -2])) == hash(frozenset({1, -2}))
        # a formula still holds only clauses
        assert frozenset({1}) not in Formula([[1]])
        assert Clause([1]) in Formula([[1]])


class TestFormula:
    def test_set_semantics_and_membership(self):
        f = formula((1, 2), (2, 1), (-1,))
        assert len(f) == 2
        assert clause(1, 2) in f
        assert clause(-1) in f

    def test_add_and_remove(self):
        f = Formula()
        assert f.add((1, 2))
        assert not f.add((2, 1))
        f.remove(clause(1, 2))
        assert clause(1, 2) not in f
        f.add((3,))
        f.remove(clause(3))
        assert len(f) == 0
        with pytest.raises(KeyError):
            f.remove(clause(3))

    def test_occurrence_lookup_matches_definition(self):
        f = formula((1, 2), (-1, 3), (2, 3), (-2,))
        for lit in (1, -1, 2, -2, 3, -3):
            expected = [c for c in f.clauses if lit in c]
            assert list(f.occurrences(lit)) == expected
        assert f.clauses_with_any((1, -2)) == [clause(1, 2), clause(-2)]
        assert f.check_occ_consistent()

    def test_occ_stays_consistent_under_mutation(self):
        f = formula((1, 2), (-1, 3))
        f.add((2, -3))
        f.remove(clause(1, 2))
        f.add((1, 2))
        f.add((4,))
        f.add((-4,))
        f.remove(clause(4))
        assert f.check_occ_consistent()
        assert f.seq_of(clause(-1, 3)) < f.seq_of(clause(1, 2))
        # a re-added clause goes to the end of its buckets, as in formula order
        assert list(f.occurrences(2)) == [clause(2, -3), clause(1, 2)]
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
        assert list(f.occurrences(-1)) == [clause(-1, 3)]
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

    def test_from_literals_keeps_the_constructor_errors(self):
        # a conflict is reported before a 0, wherever the 0 stands
        cases = [
            ([0], "variables are positive ints, got 0"),
            ([2, 0, 0], "variables are positive ints, got 0"),
            ([0, 3, 2, -3], "conflicting literals for variable 3"),
            ([-4, 1, 4, 0], "conflicting literals for variable 4"),
        ]
        for lits, message in cases:
            with pytest.raises(ValueError, match="^%s$" % message):
                Assignment.from_literals(lits)
        a = Assignment.from_literals([3, -1, 3])
        assert a == Assignment({1: 0, 3: 1}) and hash(a) == hash(Assignment({3: 1, 1: 0}))
        assert a.items() == [(1, 0), (3, 1)]

    def test_clause_satisfaction(self):
        t = Assignment({1: 0, 2: 0})
        assert not t.satisfies_clause(clause(1, 2))
        assert t.satisfies_clause(clause(-1, 3)) is True
        assert not t.satisfies_clause(clause(3,))

    def test_to_literals(self):
        t = Assignment({1: 1, 2: 0, 3: 1})
        assert t.to_literals() == (1, -2, 3)

    def test_hashable(self):
        assert len({Assignment({1: 1}), Assignment({1: 1})}) == 1

    @pytest.mark.parametrize("n", range(7))
    def test_assignment_at_inverts_assignment_index(self, n):
        variables = [2 * i + 3 for i in range(n)]  # sorted, with gaps
        walked = [assignment_at(variables, m) for m in range(1 << n)]
        for m, a in enumerate(walked):
            assert a.variables() == set(variables)
            assert assignment_index(variables, a.value) == m
            assert assignment_index(variables, lambda v: a.value(v) == 1) == m
        # counting upward walks the assignments in lexicographic order,
        # false before true
        assert [a.to_literals() for a in walked] == [
            tuple(v if bit else -v for v, bit in zip(variables, bits))
            for bits in product((0, 1), repeat=n)
        ]


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
    """A reference for read_dimacs_body's clause loop: lines from
    `numbered_lines`, literals from the token-by-token walk."""
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
            lits, start = walk_literals(toks, start, lineno)
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


def body_clauses(text):
    """The clauses and clause lines that read_dimacs_body's one loop reads."""
    body = read_dimacs_body(text)
    return body.clauses, body.clause_lines


def literals_outcome(read, tokens, start):
    try:
        return read(tokens, start, 7)
    except ParseError as exc:
        return "error", str(exc)


# tokens that `int` reads differently from how they look: terminators other
# than the string "0", signs, underscores, an Arabic-Indic zero and three,
# bad tokens, and an int past Python's default digit limit
ODD_TOKENS = ["-0", "00", "+0", "+1", "1_0", "-1_0", "٠", "٣",
              "x", "1.5", "-", "w", "1" * 5000]


class TestReadLiterals:
    @pytest.mark.parametrize("tokens, start, want", [
        (["1", "-2", "0"], 0, ([1, -2], 3)),
        (["0"], 0, ([], 1)),
        ([], 0, ([], None)),
        (["1", "-0", "2", "0"], 0, ([1], 2)),
        (["1", "00"], 0, ([1], 2)),
        (["+0", "x", "0"], 0, ([], 1)),
        (["+1", "1_0", "0"], 0, ([1, 10], 3)),
        (["1", "٠", "2", "0"], 0, ([1], 2)),
        (["1", "x", "0"], 0, ("error", "line 7: bad literal 'x'")),
        (["1", "0", "x"], 0, ([1], 2)),
        (["1", "2"], 0, ([1, 2], None)),
        (["1", "2", "x"], 0, ("error", "line 7: bad literal 'x'")),
        (["d", "bc", "1", "0", "w", "1", "0"], 2, ([1], 4)),
        (["3", "1" * 5000, "0"], 0, ("error", "line 7: bad literal '%s'" % ("1" * 5000))),
    ])
    def test_edge_cases(self, tokens, start, want):
        assert literals_outcome(read_literals, tokens, start) == want
        assert literals_outcome(walk_literals, tokens, start) == want

    def test_random_token_lists_agree_with_the_walk(self):
        # the literals, the end index and the error text are the walk's
        rng = random.Random("read_literals against the walk")
        kinds = {"ended": 0, "ran out": 0, "error": 0}
        for _ in range(6000):
            tokens = [rng.choice(ODD_TOKENS) if rng.random() < 0.15 else str(rng.randint(-9, 9))
                      for _ in range(rng.randint(0, 12))]
            start = rng.randint(0, len(tokens))
            got = literals_outcome(read_literals, tokens, start)
            assert got == literals_outcome(walk_literals, tokens, start), (tokens, start)
            kinds["error" if got[0] == "error" else "ran out" if got[1] is None else "ended"] += 1
        assert min(kinds.values()) >= 500, kinds


class TestDimacsReader:
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
            "1 0\nc note\n\n2 0\nc 3 0\n",    # comment and blank lines between clauses
            "  1 2 0\n\t-3 0\n \t 2\t-1 0 \n",  # leading whitespace and tabs
            "1 0\n%\n2 x 0\n",            # '%' ends the clauses
            "1 0\n  %\n0\n",              # an indented '%'
            "1 c 0\n",                      # a 'c' token inside a clause line
            "1 p 0\n",                      # a 'p' token inside a clause line
            "1 2 0 c\n",                    # a comment token after the 0
            "1 2\nc trailing\n\n",          # unterminated, then a comment and a blank line
            "1 2 0\n3\n\nc end\n  \n",       # the error names line 3, the last one read
        ],
    )
    def test_agrees_with_the_reference(self, body):
        text = "p cnf 3 2\n" + body
        assert outcome(body_clauses, text) == outcome(general_clauses, text)

    def test_unterminated_clause_names_the_last_line_read(self):
        text = "c top\np cnf 3 2\n1 0\n2 3\n\nc trailing comment\n\t\n"
        assert outcome(body_clauses, text) == (
            "error", "line 4: unterminated clause at end of input")

    def test_random_mutations_agree_with_the_reference(self):
        # seeded edits of a well-formed body: the reader must give the same
        # clauses, clause lines and error text as the reference
        rng = random.Random("dimacs fast path")
        pieces = ["0", "-0", "00", "+2", "x", "c", "p", "%", "1.5", "\t", "  ", "-"]
        kinds = {"clauses": 0, "error": 0}
        for _ in range(600):
            lines = [" ".join(map(str, random_clause(rng, 5, rng.randint(1, 3)).literals + (0,)))
                     for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(lines) + 1)
                edit = rng.randrange(6)
                if edit == 0:
                    lines.insert(at, rng.choice(["", "c comment", "  c 1 0", "\t"]))
                elif at < len(lines):
                    toks = lines[at].split(" ")
                    where = rng.randrange(len(toks) + 1)
                    if edit == 1:
                        toks.insert(where, rng.choice(pieces))
                    elif edit == 2 and where < len(toks):
                        del toks[where]
                    elif edit == 3:  # join with the next line
                        toks.extend(lines.pop(at + 1).split(" ") if at + 1 < len(lines) else [])
                    elif edit == 4:  # split the line in two
                        lines.insert(at + 1, " ".join(toks[where:]))
                        toks = toks[:where]
                    else:
                        toks.insert(0, rng.choice([" ", "\t", "  \t"]))
                    lines[at] = " ".join(toks)
            # a line opening with 'p' is a header, which the reference skips
            body = "".join("1 " + l + "\n" if l.strip().startswith("p") else l + "\n" for l in lines)
            text = "c seeded\np cnf 5 3\n" + body
            got = outcome(body_clauses, text)
            assert got == outcome(general_clauses, text), text
            kinds["error" if got[0] == "error" else "clauses"] += 1
        assert min(kinds.values()) >= 60, kinds

    def test_error_texts_are_the_reference_ones(self):
        assert outcome(body_clauses, "p cnf 2 1\n1 x 0\n") == ("error", "line 2: bad literal 'x'")
        assert outcome(body_clauses, "p cnf 2 1\n1 2\n") == (
            "error", "line 2: unterminated clause at end of input")

    @pytest.mark.parametrize("parse", [parse_dimacs, parse_qdimacs])
    @pytest.mark.parametrize("data, message", [
        (b"p cnf 1 1\nc caf\xe9\n1 0\n", "line 2: byte 0xe9 is not UTF-8 text"),
        (b"p cnf 2 1\n1 \xff 0\n", "line 2: byte 0xff is not UTF-8 text"),
    ])
    def test_bytes_that_are_not_utf8_are_the_cli_error(self, parse, data, message):
        # a Latin-1 comment and a bad byte in a clause: the library reads
        # bytes by the rule the command line reads files with
        with pytest.raises(ParseError) as exc:
            parse(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parse", [parse_dimacs, parse_qdimacs])
    @pytest.mark.parametrize("brk", ["\r", "\u2028", "\r\n", "\x0c"])
    def test_a_bad_byte_names_the_line_a_bad_literal_names(self, parse, brk):
        # lines are those of split_lines: "\r" and "\r\n" end a line, a line
        # separator or form feed does not, and the byte error counts lines
        # as the literal error does
        layout = ("p cnf 1 1\n1 0" + brk + "c caf%s\n").encode()
        with pytest.raises(ParseError, match=r"^line (\d+): bad literal 'x'$") as literal:
            parse(layout.replace(b"c caf%s", b"x 0"))
        with pytest.raises(ParseError, match=r"^line (\d+): byte 0xe9 is not UTF-8 text$") as byte:
            parse(layout.replace(b"%s", b"\xe9"))
        want = "line 3" if brk in ("\r", "\r\n") else "line 2"
        assert str(byte.value).split(":")[0] == str(literal.value).split(":")[0] == want

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
        # a form feed, NEL or line separator in a comment ends no line
        (parse_dimacs, "p cnf 2 2\nc page\x0c 1 0\n-1 x 0\n"),
        (EliminationTrace.from_text, "t blockcheck 1\nc caf\x85 x 0\nd bc 2 0 w x 0\n"),
        (parse_model, "c note\u2028 v 2 0\nv 1\nv x 0\n"),
    ],
)
def test_parse_errors_name_the_line(parse, text):
    with pytest.raises(ParseError, match=r"^line 3: bad literal 'x'"):
        parse(text)


# whitespace that str.splitlines would also break a line at
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_only_newline_and_carriage_return_end_a_line():
    text = "a\r\nb\rc\nd" + "".join(NOT_LINE_BREAKS) + "e\n"
    assert split_lines(text) == ["a", "b", "c", "d" + "".join(NOT_LINE_BREAKS) + "e", ""]
    assert split_lines("") == [""]


@pytest.mark.parametrize("brk", NOT_LINE_BREAKS)
def test_a_comment_keeps_its_tail_past_other_whitespace(brk):
    # the tail of such a comment is comment text, not clauses or literals
    assert parse_dimacs("p cnf 1 1\nc see page%s 5 0\n1 0\n" % brk).clauses == [clause(1)]
    assert parse_dimacs("p cnf 1 1\nc caf%s x 0\n1 0\n" % brk).clauses == [clause(1)]
    assert parse_qdimacs("p cnf 1 1\nc caf%s x 0\ne 1 0\n1 0\n" % brk).matrix == formula((1,))
    trace = EliminationTrace.from_text("t blockcheck 1\nc caf%s x 0\nd bc 1 0 w 1 0\n" % brk)
    assert [e.clause for e in trace.entries] == [clause(1)]
    assert parse_model("c caf%s x 0\nv 1 0\n" % brk) == Assignment({1: 1})
