import random

import pytest

from blockcheck import (
    Assignment,
    BlockingWitness,
    CapExceeded,
    Clause,
    EliminationConfig,
    EliminationTrace,
    Formula,
    ParseError,
    PROPERTIES,
    ReconstructionError,
    TraceEntry,
    check_property,
    classify,
    eliminate_clauses,
    first_model,
    is_satisfiable,
    parse_model,
    random_clause,
    random_instance,
    reconstruct_model,
    write_dimacs,
    write_model,
)
from blockcheck import blocking, engine

from conftest import clause, formula


def replay(trace, original):
    """Apply the trace's removals to the original, in order."""
    g = original.copy()
    for e in trace.entries:
        assert e.clause in g, "trace removes a clause that is already gone"
        g.discard(e.clause)
    return g


def all_false(f):
    return Assignment({v: 0 for v in f.variables()})


# Every clause over {x, y} with both variables: nothing here is blocked in
# any sense (each clause meets its full complement among the others), and no
# external variables exist, so the block is inert under elimination.
def full_square(x, y):
    return [clause(x, y), clause(-x, y), clause(x, -y), clause(-x, -y)]


class TestEliminationConfig:
    def test_defaults(self):
        cfg = EliminationConfig()
        assert cfg.property == "bc"
        assert cfg.clause_order == "ascending-id"
        assert cfg.k is None

    def test_rejects_unknown_property(self):
        with pytest.raises(ValueError):
            EliminationConfig(property="blocked-ish")

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            EliminationConfig(clause_order="random")

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            EliminationConfig(rounds_cap=0)
        with pytest.raises(ValueError):
            EliminationConfig(ext_cap=-1)
        with pytest.raises(ValueError):
            EliminationConfig(k=0)

    def test_every_named_property_is_accepted(self):
        for p in PROPERTIES:
            assert EliminationConfig(property=p).property == p


class TestCheckProperty:
    def test_matches_direct_literal_check(self, ex_blocked):
        f, c = ex_blocked
        ok, w = check_property(f, c, EliminationConfig(property="bc"))
        assert ok and w.kind == "literal" and w.literal == 2

    def test_negative_verdict_has_no_witness(self, at_not_setblocked):
        f, c = at_not_setblocked
        ok, w = check_property(f, c, EliminationConfig(property="setbc"))
        assert not ok and w is None

    def test_cap_propagates(self, ex_full_blocking):
        f, c = ex_full_blocking
        with pytest.raises(CapExceeded):
            check_property(f, c, EliminationConfig(property="supbc", ext_cap=0))


class TestEliminate:
    def test_literal_blocking_cascade(self, ex_blocked):
        f, c = ex_blocked
        g, trace = eliminate_clauses(f.with_clause(c), EliminationConfig(property="bc"))
        assert len(g) == 0
        got = [(e.clause, e.witness.literal) for e in trace.entries]
        assert got == [
            (clause(-1, 3), 3),
            (clause(-2, -1), -1),
            (clause(1, 2), 1),
        ]
        assert all(e.tag == "bc" for e in trace.entries)
        assert trace.skipped == []

    def test_set_blocking_cascade(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        g, trace = eliminate_clauses(f, EliminationConfig(property="setbc"))
        assert len(g) == 0
        got = [(e.clause, e.witness.blocking_set) for e in trace.entries]
        assert got == [
            (clause(1, 2), clause(1, 2)),
            (clause(-1, 2), clause(-1)),
            (clause(1, -2), clause(1)),
        ]

    def test_super_blocking_records_restriction_table(self, ex_varelim):
        g, trace = eliminate_clauses(ex_varelim, EliminationConfig(property="supbc"))
        assert len(g) == 0
        first = trace.entries[0]
        assert first.clause == clause(1, 2)
        assert first.witness.kind == "super"
        assert first.witness.per_tau == {
            Assignment({3: 0}): clause(1, 2),
            Assignment({3: 1}): clause(1),
        }
        # the rest of the cascade collapses to plain set witnesses
        assert all(e.witness.kind == "set" for e in trace.entries[1:])

    def test_compact_mode_drops_the_table(self, ex_varelim):
        cfg = EliminationConfig(property="supbc", compact_witnesses=True)
        g, trace = eliminate_clauses(ex_varelim, cfg)
        assert len(g) == 0
        first = trace.entries[0]
        assert first.witness.kind == "super" and first.witness.per_tau is None

    def test_descending_length_checks_wide_clauses_first(self, ex_varelim):
        cfg = EliminationConfig(property="bc", clause_order="descending-length")
        _, trace = eliminate_clauses(ex_varelim, cfg)
        first = trace.entries[0]
        assert first.clause == clause(3, 2, -1)
        assert first.witness.literal == 2

    def test_rounds_cap_limits_revisits(self):
        # (x, y) is unblocked until both side clauses are gone, which takes
        # a second pass.
        f = formula((1, 2), (-1, 3), (-2, 4))
        g1, t1 = eliminate_clauses(f, EliminationConfig(property="bc", rounds_cap=1))
        assert set(g1.clauses) == {clause(1, 2)}
        assert len(t1.entries) == 2
        g2, t2 = eliminate_clauses(f, EliminationConfig(property="bc"))
        assert len(g2) == 0
        assert [e.clause for e in t2.entries[:2]] == [e.clause for e in t1.entries]

    def test_replay_reproduces_simplified(self, ex_varelim):
        for prop in ("bc", "setbc", "supbc"):
            g, trace = eliminate_clauses(ex_varelim, EliminationConfig(property=prop))
            assert replay(trace, ex_varelim) == g

    def test_trace_is_deterministic(self, ex_varelim):
        cfg = EliminationConfig(property="supbc")
        _, t1 = eliminate_clauses(ex_varelim, cfg)
        _, t2 = eliminate_clauses(ex_varelim.copy(), cfg)
        assert t1.to_text() == t2.to_text()

    def test_capped_clause_is_skipped_and_reported(self):
        f = Formula(full_square(1, 2) + full_square(3, 4) + [clause(1, 3)])
        cfg = EliminationConfig(property="supbc", ext_cap=1)
        g, trace = eliminate_clauses(f, cfg)
        assert g == f
        assert trace.entries == []
        assert len(trace.skipped) == 1
        skipped_clause, reason = trace.skipped[0]
        assert skipped_clause == clause(1, 3)
        assert reason

    def test_skip_is_cleared_once_the_cap_no_longer_binds(self):
        # (x, z) has two external variables at first, but its whole
        # environment is removable, after which the check is trivial.
        f = formula((1, 3), (-1, 2), (-3, 4))
        g, trace = eliminate_clauses(f, EliminationConfig(property="supbc", ext_cap=1))
        assert len(g) == 0
        assert trace.skipped == []
        assert trace.entries[-1].clause == clause(1, 3)

    def test_unsatisfiable_formula_stays_unsatisfiable(self):
        f = formula((1,), (-1,))
        for prop in ("bc", "setbc", "supbc"):
            g, _ = eliminate_clauses(f, EliminationConfig(property=prop))
            assert not is_satisfiable(g)


def reference_eliminate(f, cfg):
    """The elimination loop that checks every queued clause in full.

    Same batches, order and rounds as `eliminate_clauses`, but no clause is
    skipped for an unchanged environment and every check tries every
    literal; the engine must match it byte for byte.
    """
    check = engine._CHECKS[cfg.property]
    g = f.copy()
    entries, capped = [], {}
    pending = set(g.clauses)

    def order_key(c):
        if cfg.clause_order == "descending-length":
            return (-len(c), g.seq_of(c))
        return g.seq_of(c)

    rounds = 0
    while pending and rounds < cfg.rounds_cap:
        rounds += 1
        batch = sorted((c for c in pending if c in g), key=order_key)
        pending = set()
        for c in batch:
            if c not in g:
                continue
            try:
                ok, w = check(g, c, cfg)
            except CapExceeded as exc:
                capped[c] = str(exc)
                continue
            if not ok:
                continue
            g.remove(c)
            capped.pop(c, None)
            entries.append(TraceEntry(c, cfg.property, w))
            pending.update(g.clauses_with_any(c.complements()))

    still = [(c, reason) for c, reason in capped.items() if c in g]
    still.sort(key=lambda pair: g.seq_of(pair[0]))
    return g, EliminationTrace(entries, still)


def mixed_formula(rng, nvars, nclauses):
    """Widths 1-4, with tautologies and now and then the empty clause."""
    f = Formula()
    for _ in range(nclauses):
        r = rng.random()
        if r < 0.04:
            f.add(Clause())
        elif r < 0.14:
            v = rng.randint(1, nvars)
            f.add([v, -v, rng.choice((1, -1)) * rng.randint(1, nvars)])
        else:
            f.add(random_clause(rng, nvars, rng.randint(1, 4)))
    return f


def planted_3cnf(rng, nvars, nclauses):
    model = {v: rng.random() < 0.5 for v in range(1, nvars + 1)}
    f = Formula()
    while len(f) < nclauses:
        lits = list(random_clause(rng, nvars, 3))
        if not any(model[abs(l)] == (l > 0) for l in lits):
            lits[0] = -lits[0]
        f.add(lits)
    return f


def outputs(result):
    g, trace = result
    return trace.to_text(), write_dimacs(g), g.clauses, trace.skipped


class TestRecheckQueue:
    @pytest.mark.parametrize("prop", PROPERTIES)
    def test_matches_the_full_recheck_loop(self, prop):
        rng = random.Random("recheck " + prop)
        cases = [mixed_formula(rng, rng.randint(2, 8), rng.randint(1, 14)) for _ in range(25)]
        cases += [mixed_formula(rng, 16, 40) for _ in range(2)]
        removed = skipped = 0
        for f in cases:
            for order in ("ascending-id", "descending-length"):
                for rounds_cap in (1, 2, 1000):
                    for k in (None, 1, 2):
                        for ext_cap in ((1, 6) if prop == "supbc" else (16,)):
                            cfg = EliminationConfig(property=prop, clause_order=order,
                                                    rounds_cap=rounds_cap, k=k, ext_cap=ext_cap)
                            got = eliminate_clauses(f, cfg)
                            assert outputs(got) == outputs(reference_eliminate(f, cfg))
                            removed += len(got[1].entries)
                            skipped += len(got[1].skipped)
        assert removed > 0
        assert skipped > 0 or prop != "supbc"

    def test_literal_blocking_tries_fewer_literals(self, monkeypatch):
        f = planted_3cnf(random.Random(5), 300, 600)
        calls = []
        real = blocking.literal_blocks

        def counted(g, c, lit):
            calls.append(lit)
            return real(g, c, lit)

        monkeypatch.setattr(blocking, "literal_blocks", counted)
        cfg = EliminationConfig(property="bc")
        want = outputs(reference_eliminate(f, cfg))
        full = len(calls)
        calls.clear()
        got = outputs(eliminate_clauses(f, cfg))
        assert got == want
        assert want[0].count("\nd bc") > 50
        assert 0 < len(calls) < full


class TestTraceText:
    def test_known_literal_trace_text(self, ex_blocked):
        f, c = ex_blocked
        _, trace = eliminate_clauses(f.with_clause(c), EliminationConfig(property="bc"))
        assert trace.to_text() == (
            "t blockcheck 1\n"
            "d bc -1 3 0 w 3 0\n"
            "d bc -1 -2 0 w -1 0\n"
            "d bc 1 2 0 w 1 0\n"
        )

    def test_round_trip_every_witness_shape(self):
        trace = EliminationTrace(
            entries=[
                TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=2)),
                TraceEntry(clause(-1, 2), "setbc", BlockingWitness(kind="set", blocking_set=clause(-1, 2))),
                TraceEntry(
                    clause(1, -3),
                    "supbc",
                    BlockingWitness(
                        kind="super",
                        per_tau={
                            Assignment({2: 0}): clause(1),
                            Assignment({2: 1}): clause(1, -3),
                        },
                    ),
                ),
                TraceEntry(clause(4,), "supbc", BlockingWitness(kind="super", per_tau=None)),
                TraceEntry(clause(2, 3), "supbc", BlockingWitness(kind="set", blocking_set=clause(3))),
                TraceEntry(clause(1, -1), "at", None),
                TraceEntry(clause(5,), "rat", BlockingWitness(kind="literal", literal=5)),
                TraceEntry(clause(-5,), "rt", None),
            ],
            skipped=[(clause(1, 2, 3), "external variables exceed cap")],
        )
        again = EliminationTrace.from_text(trace.to_text())
        assert again.entries == trace.entries
        assert again.skipped == trace.skipped

    def test_round_trip_of_real_elimination(self, ex_varelim):
        for compact in (False, True):
            cfg = EliminationConfig(property="supbc", compact_witnesses=compact)
            _, trace = eliminate_clauses(ex_varelim, cfg)
            again = EliminationTrace.from_text(trace.to_text())
            assert again.entries == trace.entries
            assert again.to_text() == trace.to_text()

    def test_restriction_lines_follow_their_entry(self, ex_varelim):
        _, trace = eliminate_clauses(ex_varelim, EliminationConfig(property="supbc"))
        lines = trace.to_text().splitlines()
        assert lines[0] == "t blockcheck 1"
        assert lines[1] == "d supbc 1 2 0 w 0"
        assert lines[2] == "wt -3 0 1 2 0"
        assert lines[3] == "wt 3 0 1 0"

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError):
            EliminationTrace.from_text("d bc 1 2 0 w 1 0\n")
        with pytest.raises(ParseError):
            EliminationTrace.from_text("")

    def test_rejects_unknown_tag(self):
        with pytest.raises(ParseError):
            EliminationTrace.from_text("t blockcheck 1\nd qrat 1 0 w 1 0\n")

    def test_rejects_malformed_witnesses(self):
        bad = [
            "d bc 1 2 0 w 0",          # literal witness missing
            "d bc 1 2 0 w 1 2 0",      # two witness literals
            "d setbc 1 2 0 w 0",       # empty blocking set
            "d at 1 -1 0 w 2 0",       # witness where none belongs
            "d bc 1 2 0 1 0",          # no 'w' marker
            "d bc 1 2 0 w 1 0 junk",   # trailing tokens
            "d bc 1 2 w 1 0",          # unterminated clause
        ]
        for line in bad:
            with pytest.raises(ParseError):
                EliminationTrace.from_text("t blockcheck 1\n%s\n" % line)

    def test_rejects_a_repeated_restriction(self):
        text = "t blockcheck 1\nd supbc 1 2 0 w 0\nwt 3 0 1 0\nc note\nwt 3 0 1 2 0\n"
        with pytest.raises(ParseError, match=r"^line 5: second restriction line for one assignment"):
            EliminationTrace.from_text(text)

    def test_rejects_restrictions_over_different_variables(self):
        for rows in ("wt -3 0 1 0\nwt 4 0 1 0\n", "wt 4 0 1 0\nwt -3 0 1 0\n",
                     "wt -3 0 1 0\nwt 3 -4 0 1 0\n", "wt 0 1 0\nwt 3 0 1 0\n"):
            text = "t blockcheck 1\nd supbc 1 2 0 w 0\n" + rows
            with pytest.raises(ParseError, match=r"^line 4: restriction over other variables"):
                EliminationTrace.from_text(text)

    def test_rejects_orphan_restriction_line(self):
        text = "t blockcheck 1\nwt 3 0 1 0\n"
        with pytest.raises(ParseError):
            EliminationTrace.from_text(text)

    def test_comments_and_blank_lines_are_ignored(self):
        text = "c produced by hand\n\nt blockcheck 1\nc mid\nd bc 1 0 w 1 0\n"
        trace = EliminationTrace.from_text(text)
        assert trace.entries == [
            TraceEntry(clause(1), "bc", BlockingWitness(kind="literal", literal=1))
        ]


class TestReconstruct:
    def test_flip_of_the_blocking_literal(self):
        original = formula((1, 2), (-1, 3), (-2, -1))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=2))]
        )
        out = reconstruct_model(trace, original, Assignment({1: 0, 2: 0, 3: 0}))
        assert out == Assignment({1: 0, 2: 1, 3: 0})
        assert all(out.satisfies_clause(d) for d in original)

    def test_satisfied_clause_needs_no_repair(self):
        original = formula((1, 2), (-1, 3))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(-1, 3), "bc", BlockingWitness(kind="literal", literal=3))]
        )
        model = Assignment({1: 0, 2: 1, 3: 0})
        assert reconstruct_model(trace, original, model) == model

    def test_model_is_totalized_over_missing_variables(self):
        original = formula((1, 2), (-1, 3), (-2, -1))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=2))]
        )
        out = reconstruct_model(trace, original, Assignment({}))
        assert set(out.variables()) == {1, 2, 3}
        assert all(out.satisfies_clause(d) for d in original)

    def test_stored_restriction_table_drives_the_repair(self, ex_varelim):
        _, trace = eliminate_clauses(ex_varelim, EliminationConfig(property="supbc"))
        out = reconstruct_model(trace, ex_varelim, Assignment({}))
        assert all(out.satisfies_clause(d) for d in ex_varelim)

    def test_compact_trace_recomputes_the_repair(self, ex_varelim):
        cfg = EliminationConfig(property="supbc", compact_witnesses=True)
        _, trace = eliminate_clauses(ex_varelim, cfg)
        out = reconstruct_model(trace, ex_varelim, Assignment({}))
        assert all(out.satisfies_clause(d) for d in ex_varelim)

    def test_set_witness_sets_every_literal(self, setblocked_not_rat):
        f, _ = setblocked_not_rat
        _, trace = eliminate_clauses(f, EliminationConfig(property="setbc"))
        out = reconstruct_model(trace, f, Assignment({}))
        assert all(out.satisfies_clause(d) for d in f)

    def test_repairs_touch_only_removed_clause_variables(self):
        original = formula((1, 2), (-1, 3), (-2, -1), (4, 5))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=2))]
        )
        before = Assignment({1: 0, 2: 0, 3: 0, 4: 1, 5: 0})
        out = reconstruct_model(trace, original, before)
        changed = {v for v in before.variables() if out.value(v) != before.value(v)}
        assert changed <= clause(1, 2).variables()

    def test_rejects_trace_for_a_different_formula(self):
        trace = EliminationTrace(
            entries=[TraceEntry(clause(7, 8), "bc", BlockingWitness(kind="literal", literal=7))]
        )
        with pytest.raises(ReconstructionError):
            reconstruct_model(trace, formula((1, 2)), Assignment({}))

    def test_rejects_model_that_misses_the_simplified_formula(self):
        original = formula((1,))
        with pytest.raises(ReconstructionError):
            reconstruct_model(EliminationTrace(), original, Assignment({1: 0}))

    def test_rejects_falsified_clause_without_witness(self):
        original = formula((1,))
        trace = EliminationTrace(entries=[TraceEntry(clause(1), "at", None)])
        with pytest.raises(ReconstructionError):
            reconstruct_model(trace, original, Assignment({1: 0}))

    def test_rejects_restriction_table_missing_the_current_branch(self):
        original = formula((1, 2), (-1, 3))
        witness = BlockingWitness(kind="super", per_tau={Assignment({3: 1}): clause(1)})
        trace = EliminationTrace(entries=[TraceEntry(clause(1, 2), "supbc", witness)])
        with pytest.raises(ReconstructionError):
            reconstruct_model(trace, original, Assignment({1: 0, 2: 0, 3: 0}))

    def test_rejects_witness_that_does_not_repair(self):
        original = formula((1, 2), (-3,))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=-3))]
        )
        with pytest.raises(ReconstructionError):
            reconstruct_model(trace, original, Assignment({1: 0, 2: 0, 3: 0}))


class TestClassify:
    def test_empty_formula(self):
        report = classify(Formula())
        assert report.rows == ()
        assert report.to_tsv() == "clause\t" + "\t".join(PROPERTIES) + "\n"

    def test_default_covers_every_property(self, setblocked_not_rat):
        f, _ = setblocked_not_rat
        report = classify(f)
        assert report.properties == PROPERTIES
        assert [c for c, _ in report.rows] == list(f.clauses)

    def test_known_membership_row(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        report = classify(f)
        row = dict(zip(report.properties, dict(report.rows)[c]))
        expected_yes = {"setbc", "supbc"}
        for p, cell in row.items():
            assert cell == ("yes" if p in expected_yes else "no")

    def test_rows_respect_the_hierarchy(self):
        edges = [
            ("t", "at"), ("t", "bc"), ("s", "as"), ("s", "rs"),
            ("as", "at"), ("as", "ras"), ("rs", "ras"), ("ras", "rat"),
            ("bc", "abc"), ("at", "abc"), ("abc", "rat"),
            ("rt", "rat"), ("rt", "bc"), ("bc", "rt"),
            ("bc", "setbc"), ("setbc", "supbc"),
        ]
        rng = random.Random(11)
        for _ in range(25):
            f, _ = random_instance(rng, max_vars=5, max_clauses=6, max_width=3)
            for _, cells in classify(f).rows:
                row = dict(zip(PROPERTIES, cells))
                for narrow, wide in edges:
                    if row[narrow] == "yes" and row[wide] != "cap":
                        assert row[wide] == "yes"

    def test_property_subset_keeps_given_order(self, setblocked_not_rat):
        f, _ = setblocked_not_rat
        report = classify(f, properties=("supbc", "bc"))
        assert report.properties == ("supbc", "bc")
        header = report.to_tsv().splitlines()[0]
        assert header == "clause\tsupbc\tbc"

    def test_rejects_unknown_property(self):
        with pytest.raises(ValueError):
            classify(formula((1,)), properties=("bc", "nope"))

    def test_cap_shows_up_as_a_cell(self):
        f = Formula(full_square(1, 2) + full_square(3, 4) + [clause(1, 3)])
        report = classify(f, properties=("supbc",), ext_cap=1)
        assert dict(report.rows)[clause(1, 3)] == ("cap",)

    def test_tsv_shape(self, ex_setblocked):
        f, c = ex_setblocked
        lines = classify(f.with_clause(c), properties=("bc", "setbc")).to_tsv().splitlines()
        assert lines[0] == "clause\tbc\tsetbc"
        assert len(lines) == 1 + len(f) + 1
        for line in lines[1:]:
            cls, bc_cell, set_cell = line.split("\t")
            assert cls.endswith(" 0")
            assert bc_cell in ("yes", "no") and set_cell in ("yes", "no")


class TestModelText:
    def test_round_trip(self):
        a = Assignment({1: 1, 2: 0, 5: 1})
        assert parse_model(write_model(a)) == a

    def test_empty_model(self):
        assert write_model(Assignment({})) == "v 0\n"
        assert parse_model("v 0\n") == Assignment({})

    def test_multiple_value_lines(self):
        assert parse_model("v 1 -2\nv 3 0\n") == Assignment({1: 1, 2: 0, 3: 1})

    def test_comments_are_ignored(self):
        assert parse_model("c solver says\nv -4 0\n") == Assignment({4: 0})

    def test_rejects_garbage(self):
        for text in (
            "satisfiable\n",
            "v one 0\n",
            "v 1\n",              # never terminated
            "v 1 0 2\n",          # content after the terminator
            "v 1 0\nv 2 0\n",     # second model
            "v 1 -1 0\n",         # contradictory
            "",
        ):
            with pytest.raises(ParseError):
                parse_model(text)


class TestSatisfiabilityPreserved:
    @pytest.mark.parametrize("prop", ["bc", "setbc", "supbc"])
    def test_random_instances(self, prop):
        rng = random.Random(prop)  # str seeds do not depend on PYTHONHASHSEED
        sat_seen = unsat_seen = 0
        for _ in range(40):
            f, _ = random_instance(rng, max_vars=6, max_clauses=9, max_width=3)
            g, trace = eliminate_clauses(f, EliminationConfig(property=prop))
            assert replay(trace, f) == g
            if is_satisfiable(f):
                sat_seen += 1
                model = first_model(g)
                out = reconstruct_model(trace, f, model)
                assert all(out.satisfies_clause(d) for d in f)
                touched = set()
                for e in trace.entries:
                    touched |= e.clause.variables()
                base = {v: 0 for v in f.variables()}
                base.update({v: model.value(v) for v in model.variables()})
                for v in f.variables():
                    if v not in touched:
                        assert out.value(v) == base[v]
            else:
                unsat_seen += 1
                assert not is_satisfiable(g)
        assert sat_seen > 5 and unsat_seen > 5
