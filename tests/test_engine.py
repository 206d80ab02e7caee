import random
import tracemalloc

import pytest

from blockcheck import (
    Assignment,
    CapExceeded,
    Clause,
    EliminationConfig,
    EliminationTrace,
    Formula,
    PROPERTIES,
    ParseError,
    ReconstructionError,
    check_property,
    check_super_blocked,
    classify,
    eliminate_clauses,
    first_model,
    parse_dimacs,
    reconstruct_model,
    write_dimacs,
)
from blockcheck import blocking, engine
from blockcheck.blocking import BlockingWitness
from blockcheck.engine import TraceEntry, parse_model, write_model
from blockcheck.gen import random_clause, random_formula, random_instance
from blockcheck.oracle import enumerate_models, is_satisfiable
from blockcheck.reductions import unsat_to_1superblocking

from conftest import clause, formula, walk_literals


def replay(trace, original):
    """Apply the trace's removals to the original, in order."""
    g = original.copy()
    for e in trace.entries:
        assert e.clause in g, "trace removes a clause that is already gone"
        g.remove(e.clause)
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
        assert t1.skipped == [(clause(1, 2), "rounds cap 1 reached")]
        g2, t2 = eliminate_clauses(f, EliminationConfig(property="bc"))
        assert len(g2) == 0
        assert [e.clause for e in t2.entries[:2]] == [e.clause for e in t1.entries]

    def test_rounds_cap_ignores_a_clause_refuted_after_it_was_queued(self):
        # removing (1 2 -3) queues (3), which the same round refutes: the
        # run is at its fixpoint, and a second round would remove nothing
        f = formula((-3,), (1, 2, -3), (3,))
        got = eliminate_clauses(f, EliminationConfig(property="bc", rounds_cap=1))
        assert got[1].skipped == []
        assert got[1].to_text() == "t blockcheck 1\nd bc 1 2 -3 0 w 1 0\n"
        assert outputs(got) == outputs(eliminate_clauses(f, EliminationConfig(property="bc")))

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


def reference_eliminate(f, cfg, fresh=False):
    """The elimination loop that checks every queued clause in full.

    Same batches, order and rounds as `eliminate_clauses`, but no clause is
    skipped for an unchanged environment and every check tries every
    literal; the engine must match it byte for byte. A run stopped by the
    rounds cap reports every clause the last round queued, that is still in
    the formula and that was not checked after it was last queued, as
    skipped with the cap as its reason; for a property the engine asks once
    per clause (`engine._ASKED_ONCE`), one never refuted. With `fresh`,
    every check runs on a new copy of the formula state that keeps no value
    derived before.
    """
    check = engine._CHECKS[cfg.property]
    g = f.copy()
    entries, capped = [], {}
    pending = set(g.clauses)
    settled = set()  # refuted (answer no or a cap) since last queued

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
                ok, w = check(Formula(g) if fresh else g, c, cfg)
            except CapExceeded as exc:
                capped[c] = str(exc)
                settled.add(c)
                continue
            if not ok:
                settled.add(c)
                continue
            g.remove(c)
            capped.pop(c, None)
            entries.append(TraceEntry(c, cfg.property, w))
            queued = g.clauses_with_any(c.complements())
            pending.update(queued)
            if cfg.property not in engine._ASKED_ONCE:  # for those a no stays a no
                settled.difference_update(queued)

    for c in pending - settled:
        capped[c] = "rounds cap %d reached" % cfg.rounds_cap
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

    @pytest.mark.parametrize("prop", PROPERTIES)
    def test_a_rounds_cap_entry_means_the_run_was_cut_short(self, prop, monkeypatch):
        # A capped run reports a rounds-cap entry exactly when the full run
        # checks some clause after the cap; without one it is the full run.
        check = engine._CHECKS[prop]
        calls = []

        def counted(*args):
            calls.append(None)
            return check(*args)

        monkeypatch.setitem(engine._CHECKS, prop, counted)

        def run(f, rounds_cap):
            calls.clear()
            got = eliminate_clauses(f, EliminationConfig(property=prop, rounds_cap=rounds_cap))
            return got, len(calls)

        rng = random.Random("rounds cap " + prop)
        seen = set()
        for _ in range(30):
            f = mixed_formula(rng, rng.randint(2, 8), rng.randint(1, 14))
            full, full_checks = run(f, 1000)
            for rounds_cap in (1, 2):
                got, checks = run(f, rounds_cap)
                cut = any(reason.startswith("rounds cap") for _, reason in got[1].skipped)
                assert cut == (full_checks > checks), (f.clauses, rounds_cap)
                if not cut:
                    assert outputs(got) == outputs(full), (f.clauses, rounds_cap)
                seen.add(cut)
        # a property asked once per clause is at its fixpoint after one round
        assert seen == ({False} if prop in engine._ASKED_ONCE else {False, True})

    @pytest.mark.parametrize("prop", sorted(engine._ASKED_ONCE))
    def test_every_skipped_recheck_answers_no(self, prop, monkeypatch):
        # The engine asks these once per clause. After each of its runs, the
        # recheck it skipped (a refuted clause whose environment a later
        # removal changed) is run in full on the formula as it stood then,
        # and answers no.
        check = engine._CHECKS[prop]
        asked, removed = [], []

        def recorded(g, c, cfg, touched=None):
            ok, w = check(g, c, cfg)
            asked.append((c, len(removed)))
            if ok:
                removed.append(c)
            return ok, w

        monkeypatch.setitem(engine._CHECKS, prop, recorded)
        rng = random.Random("asked once " + prop)
        skipped = 0
        for _ in range(40):
            f = mixed_formula(rng, rng.randint(3, 10), rng.randint(4, 24))
            for order in ("ascending-id", "descending-length"):
                asked.clear()
                removed.clear()
                cfg = EliminationConfig(property=prop, clause_order=order)
                eliminate_clauses(f, cfg)
                assert len({c for c, _ in asked}) == len(asked)  # one check per clause
                for c, before in asked:
                    if c in removed:
                        continue
                    g = f.copy()
                    for i, d in enumerate(removed):
                        g.remove(d)
                        if i >= before and c in g.clauses_with_any(d.complements()):
                            skipped += 1
                            assert check(Formula(g), c, cfg) == (False, None), (f.clauses, c)
        assert skipped >= 100, skipped

    @pytest.mark.parametrize("prop", ["at", "as", "abc", "rat", "ras"])
    def test_kept_unit_closures_match_fresh_formulas(self, prop):
        # mostly units, so the checks' closure U of the units has many
        # donors and removals keep dropping or promoting it
        rng = random.Random("units " + prop)
        removed = kept = 0
        for _ in range(40):
            nvars = rng.randint(3, 12)
            f = Formula(random_clause(rng, nvars, rng.choice((1, 1, 1, 2, 2, 3, 4)))
                        for _ in range(rng.randint(4, 30)))
            for order in ("ascending-id", "descending-length"):
                cfg = EliminationConfig(property=prop, clause_order=order)
                got = eliminate_clauses(f, cfg)
                assert outputs(got) == outputs(reference_eliminate(f, cfg, fresh=True))
                assert got[0].check_occ_consistent()
                removed += len(got[1].entries)
                kept += len(got[0])
        assert removed > 100 and kept > 100

    def test_literal_blocking_tries_fewer_literals(self, monkeypatch):
        f = planted_3cnf(random.Random(5), 300, 600)
        tried = 0
        real = engine.is_literal_blocked

        def counted(g, c, among=None):
            # the literals the check may try: all of c, or those in `among`
            nonlocal tried
            tried += len(c) if among is None else sum(l in among for l in c)
            return real(g, c, among)

        monkeypatch.setattr(engine, "is_literal_blocked", counted)
        cfg = EliminationConfig(property="bc")
        want = outputs(reference_eliminate(f, cfg))
        full, tried = tried, 0
        got = outputs(eliminate_clauses(f, cfg))
        assert got == want
        assert want[0].count("\nd bc") > 50
        assert 0 < tried < full


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
                        per_tau=blocking.RestrictionTable((2,), [clause(1), clause(1, -3)]),
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

    def test_table_over_no_variables_is_one_row(self):
        table = blocking.RestrictionTable((), [clause(1)])
        witness = BlockingWitness(kind="super", per_tau=table)
        trace = EliminationTrace(entries=[TraceEntry(clause(1, 2), "supbc", witness)])
        text = trace.to_text()
        assert text == "t blockcheck 1\nd supbc 1 2 0 w 0\nwt 0 1 0\n"
        again = EliminationTrace.from_text(text)
        assert again.entries == trace.entries
        assert again.entries[0].witness.per_tau == {Assignment(): clause(1)}
        original = formula((1, 2))
        model = Assignment({1: 0, 2: 0})
        assert reconstruct_model(trace, original, model) == Assignment({1: 1, 2: 0})
        assert reconstruct_model(again, original, model) == Assignment({1: 1, 2: 0})

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

    def test_shuffled_restriction_rows_read_back_into_the_scan_table(self):
        rng = random.Random("shuffled wt rows")
        tables = 0
        for _ in range(200):
            source = random_formula(rng, 3, rng.randint(5, 9), 3)
            inst = unsat_to_1superblocking(source)
            w = check_super_blocked(inst.formula, inst.clause).witness
            if w is None or w.kind != "super":
                continue
            tables += 1
            trace = EliminationTrace(entries=[TraceEntry(inst.clause, "supbc", w)])
            head, entry, *rows = trace.to_text().splitlines()
            rng.shuffle(rows)
            again = EliminationTrace.from_text("\n".join([head, entry, *rows]) + "\n")
            table = again.entries[0].witness.per_tau
            assert isinstance(table, blocking.RestrictionTable)
            assert (table.variables, table.sets) == (w.per_tau.variables, w.per_tau.sets)
            assert again.to_text() == trace.to_text()
        assert tables >= 10, tables

    def test_a_short_block_over_many_variables_fails_before_a_table_is_built(self):
        row = " ".join(str(-v) for v in range(3, 43))
        text = "t blockcheck 1\nd supbc 1 2 0 w 0\nwt %s 0 1 0\n" % row
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=(
                    r"^line 2: restriction table covers 1 of 1099511627776 assignments$")):
                EliminationTrace.from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("entry, outside", [
        ("d bc 1 2 0 w 7 0", 7),
        ("d bc 1 2 0 w -1 0", -1),
    ])
    def test_rejects_a_blocking_literal_outside_the_clause(self, entry, outside):
        with pytest.raises(ParseError, match=r"^line 2: witness literal %d is not in the clause$"
                           % outside):
            EliminationTrace.from_text("t blockcheck 1\n%s\n" % entry)

    @pytest.mark.parametrize("entry, outside", [
        ("d setbc 1 2 0 w 7 0", 7),
        ("d setbc 1 2 0 w 1 -2 0", -2),
        ("d supbc 1 2 0 w 1 7 0", 7),
    ])
    def test_rejects_a_blocking_set_outside_the_clause(self, entry, outside):
        with pytest.raises(ParseError, match=r"^line 2: witness literal %d is not in the clause$"
                           % outside):
            EliminationTrace.from_text("t blockcheck 1\n%s\n" % entry)

    @pytest.mark.parametrize("rows, message", [
        ("wt -3 0 7 0\nwt 3 0 1 0\n", "line 3: witness literal 7 is not in the clause"),
        ("wt -3 0 1 0\nwt 3 0 -1 0\n", "line 4: witness literal -1 is not in the clause"),
        ("wt -3 0 1 0\nwt 3 0 0\n", "line 4: empty blocking set in restriction line"),
        ("wt 0 0\n", "line 3: empty blocking set in restriction line"),
    ])
    def test_rejects_a_restriction_set_outside_the_clause_or_empty(self, rows, message):
        text = "t blockcheck 1\nd supbc 1 2 0 w 0\n" + rows
        with pytest.raises(ParseError, match="^%s$" % message):
            EliminationTrace.from_text(text)

    @pytest.mark.parametrize("tag", ["abc", "rt", "rs", "rat", "ras"])
    def test_rejects_a_lifted_witness_outside_the_clause(self, tag):
        for wlit in (3, -1):
            text = "t blockcheck 1\nd %s 1 2 0 w %d 0\n" % (tag, wlit)
            message = r"^line 2: witness literal %d is not in the clause$" % wlit
            with pytest.raises(ParseError, match=message):
                EliminationTrace.from_text(text)

    def test_rejects_orphan_restriction_line(self):
        text = "t blockcheck 1\nwt 3 0 1 0\n"
        with pytest.raises(ParseError):
            EliminationTrace.from_text(text)

    def test_random_mutations_of_entry_lines_agree_with_the_general_path(self, monkeypatch):
        # seeded edits of real traces' 'd' lines: the reader must give the
        # same entries, or the same error text, as it does with every
        # literal list read token by token
        def read(text, literals):
            monkeypatch.setattr(engine, "read_literals", literals)
            try:
                trace = EliminationTrace.from_text(text)
            except ParseError as exc:
                return "error", str(exc)
            return trace.entries, trace.skipped

        fast = engine.read_literals
        general = walk_literals
        rng = random.Random("trace fast path")
        pieces = ["0", "-0", "00", "+1", "w", "x", "-", "1.5", "bc"]
        kinds = {"entries": 0, "error": 0}
        for _ in range(300):
            f = random_formula(rng, 5, rng.randint(4, 10), 3)
            prop = rng.choice(["bc", "setbc", "supbc", "t", "s", "abc", "rat"])
            lines = eliminate_clauses(f, EliminationConfig(property=prop))[1].to_text().splitlines()
            entry = [i for i, line in enumerate(lines) if line.startswith("d ")]
            for at in rng.sample(entry, min(len(entry), 2)):
                toks = lines[at].split()
                where = rng.randrange(2, len(toks) + 1)
                edit = rng.randrange(3)
                if edit == 0:
                    toks.insert(where, rng.choice(pieces))
                elif edit == 1 and where < len(toks):
                    del toks[where]
                else:
                    toks[where - 1:where] = [toks[where - 1]] * 2
                lines[at] = rng.choice(["", "  ", "\t"]) + " ".join(toks)
            text = "\n".join(lines) + "\n"
            got = read(text, fast)
            assert got == read(text, general), text
            kinds["error" if got[0] == "error" else "entries"] += 1
        assert min(kinds.values()) >= 50, kinds

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

    def test_compact_and_table_traces_repair_alike(self, monkeypatch):
        # A compact entry recomputes the set its table row holds: read back
        # from text, both traces repair every model of the simplified
        # formula into the same model of the original.
        recomputed = []
        under = engine.blocking_set_under

        def counting(g, c, value):
            recomputed.append(c)
            return under(g, c, value)

        monkeypatch.setattr(engine, "blocking_set_under", counting)
        rng = random.Random("compact repair")
        for _ in range(60):
            f = random_formula(rng, 6, rng.randint(6, 14), 3)
            for k in (None, 1):
                table, compact = (
                    EliminationTrace.from_text(eliminate_clauses(f, EliminationConfig(
                        property="supbc", k=k, compact_witnesses=flag))[1].to_text())
                    for flag in (False, True)
                )
                g = replay(table, f)
                for model in enumerate_models(g, f.variables()):
                    want = reconstruct_model(table, f, model)
                    assert reconstruct_model(compact, f, model) == want, (f, k, model)
        # falsified compact super entries whose set was recomputed
        assert len(recomputed) >= 100

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

    def test_rejects_an_unknown_witness_kind(self):
        # (1 2) is false under the all-false model, so its witness is read
        witness = BlockingWitness(kind="bogus")
        trace = EliminationTrace(entries=[TraceEntry(clause(1, 2), "bc", witness)])
        with pytest.raises(ReconstructionError, match="^unknown witness kind 'bogus'$"):
            reconstruct_model(trace, formula((1, 2)), Assignment({}))

    def test_rejects_a_clause_removed_twice(self):
        witness = BlockingWitness(kind="literal", literal=2)
        trace = EliminationTrace(entries=[TraceEntry(clause(1, 2), "bc", witness)] * 2)
        with pytest.raises(ReconstructionError,
                           match=r"^trace removes a clause the formula does not contain: "
                                 r"Clause\(1 2\)$"):
            reconstruct_model(trace, formula((1, 2), (-1, 3)), Assignment({}))

    def test_rejects_an_entry_the_formula_lacks(self):
        witness = BlockingWitness(kind="literal", literal=3)
        trace = EliminationTrace(entries=[
            TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=2)),
            TraceEntry(clause(-1, 3), "bc", witness),
        ])
        with pytest.raises(ReconstructionError,
                           match=r"^trace removes a clause the formula does not contain: "
                                 r"Clause\(-1 3\)$"):
            reconstruct_model(trace, formula((1, 2), (-1, 4)), Assignment({}))

    @pytest.fixture
    def recomputes(self, monkeypatch):
        """Check every recomputed compact entry's formula against the state
        `expect(trace, f)` records: f's clauses when the entry removed its
        clause. Returns expect and the list of recomputed clauses."""
        at_removal = {}
        recomputed = []
        under = engine.blocking_set_under

        def checked(g, c, value):
            assert g.check_occ_consistent() and set(g) == at_removal[c], c
            recomputed.append(c)
            return under(g, c, value)

        def expect(trace, f):
            left = set(f)
            for e in trace.entries:
                at_removal[e.clause] = set(left)
                left.remove(e.clause)

        monkeypatch.setattr(engine, "blocking_set_under", checked)
        return expect, recomputed

    def test_mixed_trace_with_compact_entries_repairs_like_the_full_one(self, recomputes):
        # bc and supbc entries in turn: a compact supbc entry recomputes its
        # set on the formula as it was when the entry removed its clause,
        # and repairs as its stored table does
        expect, recomputed = recomputes
        rng = random.Random("mixed compact repair")
        stages = [("bc", 1), ("supbc", 1), ("bc", 1000), ("supbc", 1000)]
        mixed = 0
        for _ in range(200):
            f = random_formula(rng, 6, rng.randint(8, 16), 3)
            traces = []
            for compact in (False, True):
                g, entries = f, []
                for prop, rounds in stages:
                    g, part = eliminate_clauses(g, EliminationConfig(
                        property=prop, rounds_cap=rounds, compact_witnesses=compact))
                    entries += part.entries
                traces.append(EliminationTrace.from_text(EliminationTrace(entries).to_text()))
            table, compact = traces
            tags = [e.tag for e in compact.entries]
            kinds = [e.witness.kind for e in compact.entries if e.witness is not None]
            if "super" not in kinds or "bc" not in tags[tags.index("supbc"):]:
                continue
            mixed += 1
            expect(compact, f)
            for model in enumerate_models(g, f.variables()):
                want = reconstruct_model(table, f, model)
                assert reconstruct_model(compact, f, model) == want, (f, model)
        assert mixed >= 10 and len(recomputed) >= 50, (mixed, len(recomputed))

    def test_replayed_formula_is_kept_in_step(self, recomputes):
        # ex_full_blocking twice, on disjoint variables and with each
        # super-blocked clause first, so it is removed before its
        # environment: a model falsifying both recomputes two sets, the
        # second on the formula put back in step after the first
        expect, recomputed = recomputes

        def gadget(o):
            return [(1 + o, 2 + o), (3 + o, 2 + o, -1 - o), (-2 - o, -3 - o), (-2 - o, 1 + o)]

        f = formula(*gadget(0), *gadget(3), (7, 8), (-7, 1))
        table, compact = (
            eliminate_clauses(f, EliminationConfig(property="supbc", compact_witnesses=flag))[1]
            for flag in (False, True)
        )
        assert [e.clause for e in compact.entries if e.witness.kind == "super"] == [
            clause(1, 2), clause(4, 5)]
        expect(compact, f)
        twice = 0
        for model in enumerate_models(Formula(), f.variables()):
            recomputed.clear()
            assert reconstruct_model(compact, f, model) == reconstruct_model(table, f, model)
            twice += recomputed == [clause(4, 5), clause(1, 2)]
        assert twice >= 8, twice

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
        # a table lacking a row cannot be built, nor read from a trace, so
        # repair always finds the row of the current values
        with pytest.raises(ValueError, match="one set per assignment"):
            blocking.RestrictionTable((3,), [clause(1)])
        text = "t blockcheck 1\nd supbc 1 2 0 w 0\nwt 3 0 1 0\n"
        with pytest.raises(ParseError, match=r"^line 2: restriction table covers 1 of 2 "):
            EliminationTrace.from_text(text)

    def test_rejects_witness_that_does_not_repair(self):
        original = formula((1, 2), (-3,))
        trace = EliminationTrace(
            entries=[TraceEntry(clause(1, 2), "bc", BlockingWitness(kind="literal", literal=-3))]
        )
        with pytest.raises(ReconstructionError):
            reconstruct_model(trace, original, Assignment({1: 0, 2: 0, 3: 0}))


class TestIndexBuilds:
    """A parsed formula builds its occurrence index on first use: eliminate
    builds one, for the formula it works on, and reconstruct builds none
    unless it recomputes a compact super-blocking repair."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        index = Formula._index

        def counting(self):
            if self._occ is None:
                built.append(self)
            return index(self)

        monkeypatch.setattr(Formula, "_index", counting)
        return built

    @pytest.mark.parametrize("seed", range(4))
    def test_eliminate_builds_one_and_reconstruct_none(self, builds, seed):
        text = write_dimacs(planted_3cnf(random.Random(seed), 12, 30))
        f = parse_dimacs(text)
        builds.clear()
        g, trace = eliminate_clauses(f, EliminationConfig(property="bc"))
        assert builds == [g] and f._occ is None and trace.entries
        model = first_model(g, range(1, 13))
        original = parse_dimacs(text)
        builds.clear()
        out = reconstruct_model(trace, original, model)
        assert builds == [] and original._occ is None
        assert all(out.satisfies_clause(d) for d in original)

    def test_a_compact_super_entry_builds_one(self, builds, monkeypatch):
        recomputed = []
        under = engine.blocking_set_under

        def counting(g, c, value):
            recomputed.append(c)
            return under(g, c, value)

        monkeypatch.setattr(engine, "blocking_set_under", counting)
        cfg = EliminationConfig(property="supbc", compact_witnesses=True)
        rng = random.Random("compact repair")
        repairs = 0
        for _ in range(40):
            text = write_dimacs(random_formula(rng, 6, rng.randint(6, 14), 3))
            g, trace = eliminate_clauses(parse_dimacs(text), cfg)
            for model in enumerate_models(g, range(1, 7)):
                original = parse_dimacs(text)
                builds.clear()
                recomputed.clear()
                out = reconstruct_model(trace, original, model)
                assert len(builds) == (1 if recomputed else 0)
                assert original._occ is None
                assert all(out.satisfies_clause(d) for d in original)
                repairs += bool(recomputed)
        assert repairs >= 20


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
        # as -> at and ras -> rat hold only without the empty clause, which
        # random_instance never draws (see the test above)
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

    def test_the_empty_clause_breaks_the_as_at_edge(self):
        # literal addition never fires the empty clause, so (1) saturates to
        # (1 -2), no tautology; the empty clause subsumes it all the same
        f = parse_dimacs("p cnf 2 3\n0\n1 0\n2 -1 0\n")
        row = classify(f).to_tsv().splitlines()[2]
        assert row == "1 0\tno\tyes\tno\tno\tno\tno\tyes\tno\tno\tyes\tno\tyes"
        cells = dict(zip(PROPERTIES, row.split("\t")[1:]))
        assert (cells["at"], cells["as"], cells["rat"], cells["ras"]) == ("no", "yes", "no", "yes")

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

    def test_every_cell_is_its_single_check(self):
        # a row answers the questions its cells share once; every cell must
        # still read as its own check on a fresh copy of the formula
        rng = random.Random(36)
        seen = set()
        for i in range(60):
            nvars = rng.randint(2, 7)
            f = random_formula(rng, nvars, rng.randint(1, 14), 4)
            if i % 3 == 1:
                v = rng.randint(1, nvars)
                f.add(random_clause(rng, nvars, rng.randint(1, 3)) | (v, -v))
            elif i % 3 == 2:
                f.add(Clause())
            for k in (None, 1, 2):
                for c, cells in classify(f, k=k, ext_cap=3).rows:
                    for p, cell in zip(PROPERTIES, cells):
                        cfg = EliminationConfig(property=p, k=k, ext_cap=3)
                        try:
                            want = "yes" if check_property(f.copy(), c, cfg)[0] else "no"
                        except CapExceeded:
                            want = "cap"
                        assert cell == want, (write_dimacs(f), c, p, k)
                        seen.add(cell)
        assert seen == {"yes", "no", "cap"}

    def test_the_answers_live_for_one_row(self, monkeypatch):
        f = parse_dimacs("p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n3 -1 0\n")
        classify(f)
        assert f.answers is None

        # a cell that raises mid-row leaves no answers behind
        raw, asked = engine._CHECKS["at"], []

        def at(g, c, cfg, touched=None):
            assert isinstance(g.answers, dict)
            asked.append(c)
            if len(asked) == 3:
                raise RuntimeError("third clause")
            return raw(g, c, cfg, touched)

        monkeypatch.setitem(engine._CHECKS, "at", at)
        with pytest.raises(RuntimeError):
            classify(f)
        assert asked == f.clauses[:3] and f.answers is None

        # single checks and elimination never set the slot
        slots = []

        def recording(check):
            def wrapped(g, c, cfg, touched=None):
                slots.append(g.answers)
                return check(g, c, cfg, touched)
            return wrapped

        monkeypatch.setitem(engine._CHECKS, "at", raw)
        for p in PROPERTIES:
            monkeypatch.setitem(engine._CHECKS, p, recording(engine._CHECKS[p]))
        for p in PROPERTIES:
            cfg = EliminationConfig(property=p)
            for c in f:
                check_property(f, c, cfg)
            eliminate_clauses(f, cfg)
        assert slots and all(s is None for s in slots)
        monkeypatch.undo()

        # a copy, `add` and `remove` leave the slot None
        f.answers = {}
        assert f.copy().answers is None and f.answers == {}
        f.add(clause(2, 3))
        assert f.answers is None
        f.answers = {}
        f.remove(clause(2, 3))
        assert f.answers is None

        # answers from before a removal are not read after it: (-1 2) turns
        # bc, and (-2 3) loses at, once (1) is gone
        before = classify(f)
        f.remove(clause(1))
        after = classify(f)
        assert dict(after.rows) == dict(classify(parse_dimacs(write_dimacs(f))).rows)
        assert dict(after.rows) != {c: cells for c, cells in before.rows if c in f}

    def test_a_row_keeps_no_subsumption_answer_about_a_resolvent(self, monkeypatch):
        # only `s` and `rs`'s base check share a subsumption question, S of
        # c; what `rs` asks about a resolvent is answered and not kept
        stores = []
        raw = engine._CHECKS["rs"]

        def rs(g, c, cfg, touched=None):
            verdict = raw(g, c, cfg, touched)
            stores.append((c, g.answers))
            return verdict

        monkeypatch.setitem(engine._CHECKS, "rs", rs)
        f = random_formula(random.Random(37), 5, 20, 3)
        classify(f, ("s", "rs"))
        resolvents = 0
        for c, answers in stores:
            assert [key for key in answers if key[0] == "s"] == [("s", c)]
            resolvents += sum(len(r) for key, r in answers.items() if key[0] == "r")
        assert len(stores) == len(f) and resolvents >= 20, resolvents

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
