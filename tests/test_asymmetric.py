import random

from blockcheck import (
    Clause,
    EliminationConfig,
    Formula,
    check_property,
    eliminate_clauses,
    is_literal_blocked,
    parse_dimacs,
)
from blockcheck import asymmetric
from blockcheck.asymmetric import (
    BASES,
    ala_closure,
    ala_fixpoint,
    asymmetric_blocking,
    r_lift_witness,
)
from blockcheck.blocking import check_super_blocked
from blockcheck.cnf import literal_key
from blockcheck.gen import random_clause, random_instance

from conftest import clause, formula, holds


class TestAlaFixpoint:
    def test_chain_reaches_a_tautology(self, ala_chain):
        f, c = ala_chain
        trace = ala_fixpoint(f, c)
        added = {step.literal for step in trace.added}
        assert {-3, -4, -1} <= added
        assert trace.clause.is_tautology()
        assert trace.base == c

    def test_empty_formula_adds_nothing(self):
        trace = ala_fixpoint(Formula(), clause(1))
        assert trace.added == () and trace.clause == clause(1)

    def test_each_step_is_justified(self, ala_chain):
        f, c = ala_chain
        trace = ala_fixpoint(f, c)
        current = set(c)
        for step in trace.added:
            donor = step.donor
            assert donor in f and donor != c
            assert -step.literal in donor
            assert set(donor - (-step.literal,)) <= current
            assert step.literal not in current
            current.add(step.literal)
        assert set(trace.clause) == current

    def test_saturation_continues_past_the_tautology(self):
        # (1) picks up -1 at once; a lazy fixpoint would stop there, an
        # order-independent one also collects the -2 justified by (2|-1)
        f = formula((2,), (1, -2), (-2, 2))
        trace = ala_fixpoint(f, clause(1))
        assert trace.clause.is_tautology()
        assert -2 in trace.clause or 2 in trace.clause

    def test_donor_pool_excludes_the_clause_itself(self):
        f = formula((1, 2))
        trace = ala_fixpoint(f, clause(1, 2))
        assert trace.added == ()

    def test_unit_over_a_disjoint_variable_fires_in_round_one(self):
        # (3) shares no variable with c, so no occurrence list of c holds it
        f = formula((1, 2), (-3, 4), (3,))
        trace = ala_fixpoint(f, clause(1, 2))
        assert steps(trace) == [(-3, clause(3)), (-4, clause(-3, 4))]

    def test_donor_ready_only_after_round_two_fires_in_round_three(self):
        # (1|-3|4) is looked at in round 1 through 1 but is not ready; it
        # holds no literal added in round 1, and becomes ready through the
        # -3 that round 2 adds
        f = formula((1, -3, 4), (1, 2), (-2, 3))
        trace = ala_fixpoint(f, clause(1))
        assert steps(trace) == [
            (-2, clause(1, 2)),
            (-3, clause(-2, 3)),
            (-4, clause(1, -3, 4)),
        ]
        assert steps(trace) == reference_saturate(f, clause(1), clause(1))[0]


class TestAT:
    def test_positive(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert holds("at", f, c)

    def test_empty_formula(self):
        assert not holds("at", Formula(), clause(1))

    def test_negative_on_the_setblocked_instance(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        assert not holds("at", f, c)

    def test_plain_tautology(self):
        assert holds("at", Formula(), clause(1, -1))


class TestSubsumption:
    def test_unit_subsumes(self):
        assert holds("s", formula((1,)), clause(1, 2))

    def test_self_is_excluded(self):
        assert not holds("s", formula((1, 2)), clause(1, 2))

    def test_disjoint(self):
        assert not holds("s", formula((1, 3)), clause(1, 2))

    def test_empty_clause_subsumes_every_other_clause_but_not_itself(self):
        f = formula((), (1, 2), (-3,))
        for c in (clause(1, 2), clause(-3), clause(4, 5)):
            assert holds("s", f, c) and holds("as", f, c) and holds("rs", f, c)
        assert not holds("s", f, clause())
        assert not holds("as", f, clause())
        assert not holds("rs", f, clause())


class TestASandABC:
    def test_subsumed_is_as(self):
        assert holds("as", formula((1,)), clause(1, 2))

    def test_literal_blocked_is_abc(self, ex_blocked):
        f, c = ex_blocked
        assert is_literal_blocked(f, c) is not None
        assert holds("abc", f, c)

    def test_full_blocking_instance_is_not_abc(self, ex_full_blocking):
        f, c = ex_full_blocking
        trace = ala_fixpoint(f, c)
        assert trace.added == ()
        assert not holds("abc", f, c)

    def test_abc_witness_literal(self, ex_blocked):
        f, c = ex_blocked
        assert asymmetric_blocking(f, c) == (True, 2)

    def test_at_implies_abc(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert holds("abc", f, c)

    def test_tautological_closure_needs_no_witness(self):
        # the closure of (2) is tautological, so c is implied by the rest
        # and blocked with no literal to flip; -1, a literal of the closure
        # outside c, blocks it too but could never repair c
        f = formula((1,), (1, -2), (-2,), (-1, -2), (-1, 2), (2,))
        c = clause(2)
        assert ala_closure(f, c).is_tautology()
        assert asymmetric_blocking(f, c) == (True, None)
        ok, w = check_property(f, c, EliminationConfig(property="abc"))
        assert ok and w is None

    def test_witness_rule_on_random_instances(self):
        rng = random.Random(5)
        seen = dict(literal=0, tautology=0, no=0)
        for _ in range(3000):
            f, c = random_instance(rng)
            ok, lit = asymmetric_blocking(f, c)
            closure = ala_closure(f, c)
            if not ok:
                assert lit is None and not closure.is_tautology()
                assert is_literal_blocked(f, closure) is None
                seen["no"] += 1
            elif lit is None:
                assert closure.is_tautology(), (f.clauses, c)
                seen["tautology"] += 1
            else:
                assert not closure.is_tautology()
                blocking = [l for l in c if is_literal_blocked(f, closure, (l,)) is not None]
                assert blocking and blocking[0] == lit, (f.clauses, c, lit)
                seen["literal"] += 1
        assert seen["literal"] >= 900 and seen["tautology"] >= 900, seen


class TestRLift:
    def test_rt_equals_bc_on_random_instances(self):
        rng = random.Random(41907)
        hits = 0
        for _ in range(500):
            f, c = random_instance(rng, max_vars=6, max_clauses=8, max_width=3)
            bc = is_literal_blocked(f, c) is not None
            assert holds("rt", f, c) == bc
            hits += bc
        assert hits > 20

    def test_lifted_verdicts_match_r_lift_witness(self):
        # the registry's rt, rs, rat and ras are the lifts of their bases
        rng = random.Random(52113)
        seen = dict.fromkeys(("holds", "fails"), 0)
        for _ in range(300):
            f, c = random_instance(rng, max_vars=6, max_clauses=8, max_width=3)
            for key, base in BASES.items():
                ok = r_lift_witness(base, f, c)[0]
                assert holds("r" + key, f, c) == ok, (key, f.clauses, c)
                seen["holds" if ok else "fails"] += 1
        assert min(seen.values()) >= 100, seen

    def test_rat_spec_negative(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        assert not holds("rat", f, c)

    def test_at_instance_is_rat(self, at_not_setblocked):
        f, c = at_not_setblocked
        ok, lift = r_lift_witness(BASES["at"], f, c)
        assert ok and lift is None  # the direct branch, no lift needed
        assert holds("rat", f, c)

    def test_lift_witness_literal(self):
        # (1) resolved with (-1|2) gives (1|2), subsumed by (2); not subsumed
        # directly, so the witness must name the lifting literal
        f = formula((1,), (-1, 2), (2,))
        c = clause(1)
        assert not holds("s", f, c)
        ok, lift = r_lift_witness(BASES["s"], f, c)
        assert ok and lift == 1
        assert holds("rs", f, c)

    def test_self_resolution_cannot_justify(self):
        # without removing c from the pool, c = (1) would lift itself through
        # (-1|2): the extension (1|2) is "subsumed" by c -- and wrongly so,
        # since removing (1) flips the formula from unsatisfiable to not
        f = formula((1,), (-1, 2), (-2, -1))
        c = clause(1)
        assert not holds("rs", f, c)
        assert not holds("ras", f, c)

    def test_vacuous_lift(self):
        # no clause contains the complement, so any base lifts vacuously
        assert holds("rt", formula((1, 2)), clause(3))


class TestHierarchyInstances:
    def test_at_vs_setblocking_gap(self, at_not_setblocked):
        from blockcheck import is_set_blocked

        f, c = at_not_setblocked
        assert holds("at", f, c)
        assert is_set_blocked(f, c) is None
        assert not check_super_blocked(f, c).blocked
        assert holds("rat", f, c)

    def test_setblocking_vs_at_gap(self):
        f, c = Formula(), clause(1)
        from blockcheck import is_set_blocked

        assert is_set_blocked(f, c) is not None
        assert check_super_blocked(f, c).blocked
        assert not holds("at", f, c)
        assert holds("rt", f, c)  # vacuously literal-blocked, so the lifts all hold

    def test_setblocked_not_rat_gap(self, setblocked_not_rat):
        from blockcheck import is_set_blocked

        f, c = setblocked_not_rat
        assert is_set_blocked(f, c).blocking_set == clause(1, 2)
        assert not holds("rat", f, c)


# Reference implementations: the quadratic saturation that rescans every
# donor each round, and resolvents built as clauses. The library must agree
# with them on verdicts, witnesses and the full step log.


def steps(trace):
    return [(step.literal, step.donor) for step in trace.added]


def reference_saturate(f, c, x):
    donors = [d for d in f if d != c]
    current = set(x)
    log = []
    while True:
        found = {}
        for donor in donors:
            for m in donor:
                add = -m
                if add in current or add in found:
                    continue
                if all(other in current for other in donor if other != m):
                    found[add] = donor
        if not found:
            return log, Clause(current)
        for lit in sorted(found, key=literal_key):
            log.append((lit, found[lit]))
        current.update(found)


def reference_literal_blocks(f, c, lit):
    return all((c | (d - (-lit,))).is_tautology() for d in f if -lit in d)


def reference_blocking_literal(f, c):
    return next((lit for lit in c if reference_literal_blocks(f, c, lit)), None)


REFERENCE_BASES = {
    "t": lambda f, c, x: x.is_tautology(),
    "s": lambda f, c, x: any(d.issubset(x) for d in f if d != c),
    "at": lambda f, c, x: reference_saturate(f, c, x)[1].is_tautology(),
    "as": lambda f, c, x: REFERENCE_BASES["s"](f, c, reference_saturate(f, c, x)[1]),
}


def reference_lift_witness(base, f, c):
    if base(f, c, c):
        return True, None
    for lit in c:
        if all(base(f, c, c | (d - (-lit,))) for d in f if -lit in d):
            return True, lit
    return False, None


def reference_abc(f, c):
    """(verdict, repair literal) as the engine's abc check reports them."""
    closure = reference_saturate(f, c, c)[1]
    lit = reference_blocking_literal(f, closure)
    if lit is None:
        return False, None
    return True, None if closure.is_tautology() else lit


def random_literal_clause(rng, nvars, width):
    # variables drawn with replacement: duplicates collapse (so widths 1-4
    # come out) and repeated variables of both signs make tautologies
    return Clause(rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width))


class TestAgainstReference:
    def test_random_formulas_match_the_reference(self):
        rng = random.Random(90210)
        seen = dict(inside=0, outside=0, empty=0, unit=0, tautology=0, at=0, abc=0, ras=0, not_ras=0)
        for _ in range(300):
            nvars = rng.randint(2, 6)
            f = Formula(random_literal_clause(rng, nvars, rng.randint(1, 4))
                        for _ in range(rng.randint(0, 12)))
            if rng.random() < 0.25:
                f.add(Clause())
            if f.clauses and rng.random() < 0.5:
                c = rng.choice(f.clauses)
            else:
                c = random_literal_clause(rng, nvars + 1, rng.randint(0, 4))
            seen["inside" if c in f else "outside"] += 1
            seen["empty"] += Clause() in f
            seen["unit"] += any(len(d) == 1 for d in f)
            seen["tautology"] += any(d.is_tautology() for d in f)

            ref_log, ref_closure = reference_saturate(f, c, c)
            trace = ala_fixpoint(f, c)
            assert steps(trace) == ref_log, (f.clauses, c)
            assert trace.clause == ref_closure
            assert holds("s", f, c) == REFERENCE_BASES["s"](f, c, c)
            assert holds("at", f, c) == ref_closure.is_tautology()
            assert holds("as", f, c) == REFERENCE_BASES["as"](f, c, c)
            abc = reference_abc(f, c)
            ok, w = check_property(f, c, EliminationConfig(property="abc"))
            assert (ok, None if w is None else w.literal) == abc
            assert asymmetric_blocking(f, c) == abc
            for lit in c:
                blocked = is_literal_blocked(f, c, (lit,)) is not None
                assert blocked == reference_literal_blocks(f, c, lit), (c, lit)
            for key, base in REFERENCE_BASES.items():
                got = r_lift_witness(BASES[key], f, c)
                assert got == reference_lift_witness(base, f, c), (key, f.clauses, c)
            seen["at"] += ref_closure.is_tautology()
            seen["abc"] += abc[0]
            seen["ras"] += got[0]
            seen["not_ras"] += not got[0]
        assert min(seen.values()) >= 20, seen


# The checks seed every closure with U(F without c), the closure of the empty
# clause; the formula keeps U and drops it when a clause it was derived from
# goes. Each case below is compared with the unseeded reference saturation.


def units_of(f, c=None):
    """U(f without c) as the checks see it (the test reads the internal)."""
    return asymmetric._units_without(f, c)


def assert_matches_reference(f, c):
    ref_log, ref_closure = reference_saturate(f, c, c)
    assert ala_closure(f, c) == ref_closure, (f.clauses, c)
    stopped = ala_closure(f, c, stop_at_tautology=True)
    assert set(c) <= set(stopped) <= set(ref_closure)
    assert stopped.is_tautology() == ref_closure.is_tautology()
    if not stopped.is_tautology():
        assert stopped == ref_closure
    assert holds("at", f, c) == ref_closure.is_tautology()
    assert holds("as", f, c) == REFERENCE_BASES["as"](f, c, c)
    abc = reference_abc(f, c)
    ok, w = check_property(f, c, EliminationConfig(property="abc"))
    assert (ok, None if w is None else w.literal) == abc
    assert asymmetric_blocking(f, c) == abc
    for key in ("at", "as"):
        want = reference_lift_witness(REFERENCE_BASES[key], f, c)
        assert r_lift_witness(BASES[key], f, c) == want, (key, f.clauses, c)
    assert steps(ala_fixpoint(f, c)) == ref_log
    assert f.check_occ_consistent()


class TestSeededClosure:
    def test_c_is_a_unit_donor_of_u(self):
        f = formula((1,), (-1, 2), (-2, 3), (1, -3, 4), (-4, 5))
        c = clause(1)
        assert c in units_of(f).donors
        assert units_of(f, c).lits == frozenset()
        assert_matches_reference(f, c)
        assert not holds("at", f, c)

    def test_c_is_a_non_unit_donor_of_u(self):
        f = formula((1,), (-1, 2), (-2, 3), (2, 4, 5), (-3, -4))
        c = clause(-1, 2)
        assert c in units_of(f).donors and len(c) == 2
        assert -2 in units_of(f).lits and -2 not in units_of(f, c).lits
        assert_matches_reference(f, c)
        for d in f.clauses + [clause(2, 3), clause(-5)]:
            assert_matches_reference(f, d)

    def test_complementary_units_make_u_tautological(self):
        f = formula((1,), (-1,), (2, 3), (-3, 4), (3, -4, 5))
        assert units_of(f).tautological
        for c in (clause(2, 3), clause(4, 5), clause(6), clause(-3, 4), clause(7, -7)):
            assert_matches_reference(f, c)
            assert holds("at", f, c) and holds("abc", f, c)
            assert ala_closure(f, c, stop_at_tautology=True).is_tautology()
        # c = (1) is a donor of U(F); without it U is no longer tautological
        c = clause(1)
        assert c in units_of(f).donors
        assert not units_of(f, c).tautological
        assert_matches_reference(f, c)
        assert not holds("at", f, c) and not holds("as", f, c)

    def test_formula_with_the_empty_clause(self):
        f = formula((), (1,), (-1, 2), (3, 4))
        for c in (clause(), clause(3, 4), clause(-2), clause(5), clause(1)):
            assert_matches_reference(f, c)
        assert holds("as", f, clause(5)) and not holds("as", f, clause())

    def test_lifted_resolvents(self):
        f = formula((1,), (-1, 2), (-2, 3, 4), (-3, 5), (-4, 5), (-5, 6), (-1, -6, 7))
        for c in f.clauses + [clause(-7), clause(2, -5), clause(-1, 4)]:
            assert_matches_reference(f, c)
        ok, lit = r_lift_witness(BASES["at"], f, clause(-1, 4))
        assert ok

    def test_a_kept_closure_goes_when_its_own_donor_goes(self):
        # c = (1) is a donor of U(F); U(F without c) rests on (1|-2)
        f = formula((1,), (2,), (1, -2))
        c = clause(1)
        assert holds("at", f, c)
        assert clause(1, -2) in units_of(f, c).donors
        assert clause(1, -2) not in units_of(f).donors
        f.remove(clause(1, -2))
        assert f.check_occ_consistent()
        assert not holds("at", f, c)
        assert_matches_reference(f, c)

    def test_removing_a_donor_of_only_u_keeps_the_closure_without_c(self):
        f = formula((1,), (3,), (-1, 2), (-3, -1, 4))
        c = clause(1)
        assert_matches_reference(f, c)
        kept = units_of(f, c)
        assert clause(3) in units_of(f).donors and clause(3) in kept.donors
        other = clause(-1, 2)
        assert other in units_of(f).donors and other not in kept.donors
        f.remove(other)
        assert units_of(f, c) is kept
        assert_matches_reference(f, c)

    def test_removing_c_makes_its_closure_the_formulas_own(self):
        f = formula((1,), (2,), (1, -2), (-2, 3))
        c = clause(1)
        assert_matches_reference(f, c)
        without = units_of(f, c)
        f.remove(c)
        assert units_of(f) is without
        for d in f.clauses + [c]:
            assert_matches_reference(f, d)

    def test_u_is_kept_until_one_of_its_donors_goes(self):
        f = formula((1,), (-1, 2), (3, 4), (5,))
        whole = units_of(f)
        assert clause(3, 4) not in whole.donors and clause(5) in whole.donors
        f.remove(clause(3, 4))
        assert units_of(f) is whole
        f.remove(clause(5))
        assert units_of(f) is not whole and units_of(f).lits == {-1, -2}
        assert f.check_occ_consistent()

    def test_asking_without_another_donor_replaces_the_kept_closure(self):
        f = formula((1,), (-1, 2), (3,))
        whole = units_of(f)
        first = units_of(f, clause(1))
        assert units_of(f, clause(1)) is first and first.lits == {-3}
        second = units_of(f, clause(3))
        assert units_of(f, clause(3)) is second and second.lits == {-1, -2}
        again = units_of(f, clause(1))
        assert again is not first and again.lits == first.lits
        assert units_of(f) is whole and f.check_occ_consistent()

    def test_asking_about_a_clause_outside_the_formula_returns_u(self):
        f = formula((1,), (-1, 2))
        whole = units_of(f)
        part = units_of(f, clause(1))
        assert units_of(f, clause(9)) is whole and units_of(f, clause(-1, 2, 9)) is whole
        assert units_of(f, clause(1)) is part

    def test_add_drops_both_closures(self):
        f = formula((1,), (-1, 2))
        whole = units_of(f)
        part = units_of(f, clause(1))
        f.add((3, 4))  # forces nothing: the closures are derived again all the same
        assert units_of(f) is not whole and units_of(f).lits == whole.lits
        assert units_of(f, clause(1)) is not part and units_of(f, clause(1)).lits == part.lits
        assert f.check_occ_consistent()

    def test_a_copy_shares_the_kept_closures_and_drops_them_apart(self):
        f = formula((1,), (-1, 2), (3,))
        whole = units_of(f)
        part = units_of(f, clause(1))
        g = f.copy()
        assert units_of(g) is whole and units_of(g, clause(1)) is part
        g.remove(clause(3))  # a donor of both closures
        assert units_of(g) is not whole and units_of(g, clause(1)) is not part
        assert units_of(f) is whole and units_of(f, clause(1)) is part
        assert f.check_occ_consistent() and g.check_occ_consistent()

    def test_add_after_a_cached_check(self):
        f = formula((2, 3), (-4, 5))
        c = clause(3)
        assert not holds("at", f, c)
        f.add((-2,))
        assert holds("at", f, c)
        assert_matches_reference(f, c)
        f.add((4,))
        assert units_of(f).lits == {2, -3, -4, -5}
        assert_matches_reference(f, clause(5))

    def test_a_mutated_copy(self):
        f = formula((1,), (-1, 2), (-2, 3), (3, 4), (-4,))
        for d in f.clauses:
            assert_matches_reference(f, d)
        g = f.copy()
        assert g.check_occ_consistent()
        g.remove(clause(-1, 2))
        g.add((-3, 5))
        for d in g.clauses:
            assert_matches_reference(g, d)
        for d in f.clauses:
            assert_matches_reference(f, d)

    def test_random_edits_match_the_reference(self):
        rng = random.Random("seeded closure")
        checked = dict(at=0, not_at=0, donor=0, tautological_u=0)
        for _ in range(60):
            nvars = rng.randint(3, 7)
            f = Formula(random_literal_clause(rng, nvars, rng.choice((1, 1, 2, 3)))
                        for _ in range(rng.randint(2, 12)))
            for _ in range(6):
                if f.clauses and rng.random() < 0.6:
                    f.remove(rng.choice(f.clauses))
                else:
                    f.add(random_literal_clause(rng, nvars, rng.randint(1, 3)))
                if rng.random() < 0.2:
                    f = f.copy()
                for c in f.clauses[:4] + [random_literal_clause(rng, nvars, 2)]:
                    assert_matches_reference(f, c)
                    checked["at" if holds("at", f, c) else "not_at"] += 1
                    checked["donor"] += c in units_of(f).donors
                checked["tautological_u"] += units_of(f).tautological
        assert min(checked.values()) >= 20, checked


class TestASAgainstAT:
    def test_tautological_clause_is_at_but_not_as(self):
        f = formula((1, -1))
        c = clause(1, -1)
        assert holds("at", f, c)
        assert not holds("as", f, c)
        assert_matches_reference(f, c)

    def test_as_stops_at_the_first_tautological_round(self, monkeypatch):
        # round 1 adds both 3 and -3, which answers yes; the chain that
        # (1|4) starts is never walked to its end
        f = formula((2, -3), (2, 3), (1, 4), (-4, 5), (-5, 6), (-6, 7))
        c = clause(1, 2)
        seen = []
        real = asymmetric._rounds

        def counted(*args, **kw):
            for step in real(*args, **kw):
                seen.append(set(step[1]))
                yield step

        monkeypatch.setattr(asymmetric, "_rounds", counted)
        assert holds("as", f, c)
        assert seen and not any(-7 in found for found in seen)
        assert REFERENCE_BASES["as"](f, c, c)


# U(F without c) for a donor c of a non-tautological U(F) is derived from
# U(F) by retraction: the literals resting on c go, and propagation resumes
# from the clauses holding their complements. The kept value is then one
# valid derivation, so it is compared with a fresh propagation on the closure
# (when not tautological) and the tautology flag, and its steps are checked
# one by one.


def assert_justified(f, c, units):
    """Every donor is in f, is not c, holds the complement of its literal,
    justifies a literal no donor before it did, and rests only on literals
    recorded before it."""
    before = set()
    for donor, lit in units.donors.items():
        assert donor in f and donor != c, (f.clauses, c, lit, donor)
        assert -lit in donor and lit not in before
        assert set(donor - (-lit,)) <= before, (f.clauses, c, lit, donor)
        before.add(lit)
    assert before == units.lits


def disjoint_blocks(k):
    """k variable-disjoint copies of one 9-clause block over 8 variables."""
    block = [(1,), (-1, 2), (-2, 3), (-1, -3, 4), (-4, 5, 6), (-5,), (2, 7), (-6, -7, 8), (3, -8)]
    return Formula(tuple(l + 8 * i if l > 0 else l - 8 * i for l in d) for i in range(k) for d in block)


class TestRetraction:
    def test_every_donor_matches_a_fresh_propagation(self):
        rng = random.Random("retraction")
        seen = dict(tautological=0, not_tautological=0, retracted=0)
        for _ in range(600):
            nvars = rng.randint(3, 8)
            f = Formula(random_literal_clause(rng, nvars, rng.randint(1, 4))
                        for _ in range(rng.randint(4, 16)))
            for _ in range(5):
                whole = units_of(f)
                for c in list(whole.donors):
                    kept = units_of(f, c)
                    _, ref = reference_saturate(f.without(c), c, Clause())
                    assert kept.tautological == ref.is_tautology(), (f.clauses, c)
                    if not kept.tautological:
                        assert kept.lits == set(ref), (f.clauses, c)
                    assert_justified(f, c, kept)
                    seen["tautological" if kept.tautological else "not_tautological"] += 1
                    seen["retracted"] += not whole.tautological
                assert_justified(f, None, whole)
                assert f.check_occ_consistent()
                if not f.clauses:
                    break
                f.remove(rng.choice(f.clauses))
        assert min(seen.values()) >= 1000, seen

    def test_consistency_check_sees_a_wrong_donor(self):
        f = formula((1,), (-1, 2), (-2, 3), (4, 5))
        units = units_of(f)
        assert f.check_occ_consistent()
        donors = {clause(4, 5) if lit == -3 else d: lit for d, lit in units.donors.items()}
        f.kept = f.kept._replace(whole=units._replace(donors=donors))
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_dropped_step(self):
        f = formula((1,), (-1, 2), (-2, 3))
        c = clause(-1, 2)
        kept = units_of(f, c)
        assert kept.lits == {-1} and f.check_occ_consistent()
        units = units_of(f)
        donors = dict(units.donors)
        del donors[clause(-1, 2)]  # -3 now rests on -2, which no donor justifies
        f.kept = f.kept._replace(whole=units._replace(donors=donors))
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_literal_justified_twice(self):
        # (1 -2) would justify -1 again from -2; every other check passes
        f = formula((1,), (2,), (1, -2))
        units = units_of(f)
        assert units.lits == {-1, -2} and f.check_occ_consistent()
        donors = dict(units.donors)
        donors[clause(1, -2)] = -1
        f.kept = f.kept._replace(whole=units._replace(donors=donors))
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_stale_closure(self):
        f = formula((1,), (-1, 2), (-2, 3), (4,))
        c = clause(-1, 2)
        units_of(f, c)
        g = f.with_clause((-4, 5))  # with 4 forced, (-4|5) forces 5: U(g) holds -5
        assert g.check_occ_consistent()
        # the closures kept for f, left on g as if `add` had not dropped them
        g.kept = f.kept
        assert not g.check_occ_consistent()
        g.kept = f.kept._replace(whole=None)  # only U(g without c) is stale
        assert not g.check_occ_consistent()

    def test_work_per_donor_does_not_grow_with_the_formula(self, monkeypatch):
        # k variable-disjoint copies of one block: the clauses handed to
        # propagation while deriving U(F without c), c in block 1, stay the
        # same however many other blocks there are
        counts = []
        for k in (1, 2, 4, 8):
            f = disjoint_blocks(k)
            whole = units_of(f)
            c = clause(-1, 2)
            assert c in whole.donors and not whole.tautological
            handed = []
            real = asymmetric._rounds

            def counted(f, c, current, donors, stop_at_tautology=False):
                donors = list(donors)
                handed.append(len(donors))
                return real(f, c, current, donors, stop_at_tautology)

            monkeypatch.setattr(asymmetric, "_rounds", counted)
            kept = units_of(f, c)
            monkeypatch.setattr(asymmetric, "_rounds", real)
            assert kept.lits < whole.lits
            counts.append(sum(handed))
        assert counts[0] > 0 and len(set(counts)) == 1, counts

    def test_retraction_reads_occurrences_local_to_the_donor(self, monkeypatch):
        # the same k blocks: the occurrence lists read while deriving
        # U(F without c), c in block 1, stay the same however many other
        # blocks there are, so no step scans all of U
        counts = []
        for k in (1, 2, 4, 8):
            f = disjoint_blocks(k)
            whole = units_of(f)
            c = clause(-1, 2)
            assert c in whole.donors and not whole.tautological
            read = []
            real = Formula.occurrences

            def counted(self, lit):
                bucket = real(self, lit)
                read.append(len(bucket))
                return bucket

            monkeypatch.setattr(Formula, "occurrences", counted)
            kept = units_of(f, c)
            monkeypatch.setattr(Formula, "occurrences", real)
            assert kept.lits < whole.lits
            counts.append((len(read), sum(read)))
        assert counts[0][0] > 0 and len(set(counts)) == 1, counts


# Resolution tautology is literal blocking: the engine answers rt with the
# literal-blocking check, and a tautological c with no witness.


class TestRTIsLiteralBlocking:
    def test_rt_matches_the_lifted_tautology_reference(self):
        rng = random.Random("rt")
        seen = dict(tautology=0, lifted=0, refuted=0, outside=0)
        for _ in range(400):
            nvars = rng.randint(2, 6)
            f = Formula(random_literal_clause(rng, nvars, rng.randint(1, 4))
                        for _ in range(rng.randint(0, 12)))
            if f.clauses and rng.random() < 0.5:
                c = rng.choice(f.clauses)
            else:
                c = random_literal_clause(rng, nvars + 1, rng.randint(1, 4))
            want = reference_lift_witness(REFERENCE_BASES["t"], f, c)
            ok, w = check_property(f, c, EliminationConfig(property="rt"))
            assert (ok, None if w is None else w.literal) == want, (f.clauses, c)
            assert w is None or w.kind == "literal"
            seen["tautology" if c.is_tautology() else "lifted" if ok else "refuted"] += 1
            seen["outside"] += c not in f
        assert min(seen.values()) >= 40, seen

    # Two tautologies, and clauses that become literal-blocked only once
    # others are gone, so later rounds recheck touched literals. The traces
    # are those the lifted-tautology check wrote.
    RT_FORMULA = "p cnf 4 8\n-1 -2 4 0\n1 4 0\n-2 0\n-2 2 -4 0\n2 0\n-3 -4 0\n-3 -4 4 0\n4 0\n"
    RT_TRACES = {
        "ascending-id": (
            "t blockcheck 1\n"
            "d rt -2 2 -4 0 w 0\n"
            "d rt -3 -4 0 w -3 0\n"
            "d rt -3 -4 4 0 w 0\n"
            "d rt 4 0 w 4 0\n"
            "d rt -1 -2 4 0 w 4 0\n"
            "d rt 1 4 0 w 1 0\n"
        ),
        "descending-length": (
            "t blockcheck 1\n"
            "d rt -2 2 -4 0 w 0\n"
            "d rt -3 -4 4 0 w 0\n"
            "d rt -3 -4 0 w -3 0\n"
            "d rt 4 0 w 4 0\n"
            "d rt -1 -2 4 0 w 4 0\n"
            "d rt 1 4 0 w 1 0\n"
        ),
    }

    def test_eliminate_rt_keeps_its_traces(self):
        f = parse_dimacs(self.RT_FORMULA)
        for order, want in self.RT_TRACES.items():
            cfg = EliminationConfig(property="rt", clause_order=order)
            residual, trace = eliminate_clauses(f, cfg)
            assert trace.to_text() == want, order
            assert residual.clauses == [clause(-2), clause(2)]
            _, first = eliminate_clauses(f, EliminationConfig(property="rt", clause_order=order, rounds_cap=1))
            assert len(first.entries) < len(trace.entries)


def planted_blocks(rng, blocks, tautologies=0):
    """The benchmark's classify shape: `blocks` variable-disjoint blocks of
    25 clauses over 10 variables, widths 1-4 in equal shares, each clause
    satisfied by the block's planted model (a falsified draw gets one
    literal flipped); then `tautologies` clauses of the formula gain a
    complementary pair."""
    f = Formula()
    for b in range(blocks):
        model = {v: rng.random() < 0.5 for v in range(1, 11)}
        for width in [1 + j % 4 for j in range(25)]:
            lits = list(random_clause(rng, 10, width))
            if not any(model[abs(l)] == (l > 0) for l in lits):
                lits[0] = -lits[0]
            f.add(l + 10 * b if l > 0 else l - 10 * b for l in lits)
    for d in rng.sample(f.clauses, tautologies):
        v = rng.randint(1, 10 * blocks)
        f.add(d | (v, -v))
    return f


class TestASOutsideU:
    """AS walks no occurrence list of a literal of a non-tautological
    U(F without c): no clause other than c lies inside such a U."""

    def test_as_and_ras_match_the_reference_when_u_is_not_tautological(self):
        rng = random.Random("planted")
        seen = dict(big_u=0, as_yes=0, as_no=0, ras_yes=0, ras_no=0, tautology=0)
        for _ in range(2):
            f = planted_blocks(rng, 4, tautologies=4)
            for c in f.clauses:
                units = units_of(f, c)
                assert not units.tautological
                seen["big_u"] += len(units.lits) >= 20
                seen["tautology"] += c.is_tautology()
                as_ok = holds("as", f, c)
                assert as_ok == REFERENCE_BASES["as"](f, c, c), (f.clauses, c)
                got = r_lift_witness(BASES["as"], f, c)
                ok, w = check_property(f, c, EliminationConfig(property="ras"))
                assert (ok, None if w is None else w.literal) == got
                assert got == reference_lift_witness(REFERENCE_BASES["as"], f, c), (f.clauses, c)
                seen["as_yes" if as_ok else "as_no"] += 1
                seen["ras_yes" if got[0] else "ras_no"] += 1
        assert min(seen.values()) >= 6 and seen["big_u"] >= 100, seen

    def test_as_and_ras_match_the_reference_when_u_is_tautological(self):
        # with a complementary pair of units, U stops tautological and every
        # occurrence list stays to walk; a tautological c then needs a
        # subsumer inside the full closure
        f = formula((1,), (-1,), (2, -2))
        c = clause(2, -2)
        assert units_of(f, c).tautological
        assert holds("as", f, c) and REFERENCE_BASES["as"](f, c, c)
        rng = random.Random("tautological U")
        seen = dict(as_yes=0, as_no=0, ras_yes=0, ras_no=0, tautology=0)
        for _ in range(8):
            f = planted_blocks(rng, 1, tautologies=6)
            v = rng.randint(1, 10)
            f.add((v,))
            f.add((-v,))
            for c in f.clauses + [clause(v, -v), clause(11, -11)]:
                assert units_of(f, c).tautological or c in (clause(v), clause(-v))
                seen["tautology"] += c.is_tautology()
                as_ok = holds("as", f, c)
                assert as_ok == REFERENCE_BASES["as"](f, c, c), (f.clauses, c)
                want = reference_lift_witness(REFERENCE_BASES["as"], f, c)
                assert r_lift_witness(BASES["as"], f, c) == want, (f.clauses, c)
                ok, w = check_property(f, c, EliminationConfig(property="ras"))
                assert (ok, None if w is None else w.literal) == want
                seen["as_yes" if as_ok else "as_no"] += 1
                seen["ras_yes" if want[0] else "ras_no"] += 1
        assert min(seen.values()) >= 6, seen

    def test_subsumption_reads_no_list_of_a_u_literal(self, monkeypatch):
        f = planted_blocks(random.Random("buckets"), 4, tautologies=4)
        read = []
        active = []
        real_occurrences, real_subsumed = Formula.occurrences, asymmetric._subsumed

        def occurrences(self, lit):
            if active:
                read.append(lit)
            return real_occurrences(self, lit)

        def subsumed(*args):
            active.append(True)
            try:
                return real_subsumed(*args)
            finally:
                active.pop()

        monkeypatch.setattr(Formula, "occurrences", occurrences)
        monkeypatch.setattr(asymmetric, "_subsumed", subsumed)
        walked = 0
        for c in f.clauses:
            units = units_of(f, c)
            assert not units.tautological and len(units.lits) >= 20
            for prop in ("as", "ras"):
                read.clear()
                holds(prop, f, c)
                assert not units.lits.intersection(read), (c, prop)
                walked += len(read)
        assert walked >= 100, walked
