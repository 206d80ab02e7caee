import random

from blockcheck import (
    BASES,
    Clause,
    EliminationConfig,
    Formula,
    ala_fixpoint,
    asymmetric_blocking_literal,
    check_property,
    is_ABC,
    is_AS,
    is_AT,
    is_RAS,
    is_RAT,
    is_RS,
    is_RT,
    is_literal_blocked,
    is_subsumed,
    is_super_blocked,
    literal_blocks,
    literal_key,
    r_lift,
    r_lift_witness,
    random_instance,
)

from conftest import clause, formula


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
        assert is_AT(f, c)

    def test_empty_formula(self):
        assert not is_AT(Formula(), clause(1))

    def test_negative_on_the_setblocked_instance(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        assert not is_AT(f, c)

    def test_plain_tautology(self):
        assert is_AT(Formula(), clause(1, -1))


class TestSubsumption:
    def test_unit_subsumes(self):
        assert is_subsumed(formula((1,)), clause(1, 2))

    def test_self_is_excluded(self):
        assert not is_subsumed(formula((1, 2)), clause(1, 2))

    def test_disjoint(self):
        assert not is_subsumed(formula((1, 3)), clause(1, 2))

    def test_empty_clause_subsumes_every_other_clause_but_not_itself(self):
        f = formula((), (1, 2), (-3,))
        for c in (clause(1, 2), clause(-3), clause(4, 5)):
            assert is_subsumed(f, c) and is_AS(f, c) and is_RS(f, c)
        assert not is_subsumed(f, clause())
        assert not is_AS(f, clause())
        assert not is_RS(f, clause())


class TestASandABC:
    def test_subsumed_is_as(self):
        assert is_AS(formula((1,)), clause(1, 2))

    def test_literal_blocked_is_abc(self, ex_blocked):
        f, c = ex_blocked
        assert is_literal_blocked(f, c) is not None
        assert is_ABC(f, c)

    def test_full_blocking_instance_is_not_abc(self, ex_full_blocking):
        f, c = ex_full_blocking
        trace = ala_fixpoint(f, c)
        assert trace.added == ()
        assert not is_ABC(f, c)

    def test_abc_witness_literal(self, ex_blocked):
        f, c = ex_blocked
        assert asymmetric_blocking_literal(f, c) == 2

    def test_at_implies_abc(self, at_not_setblocked):
        f, c = at_not_setblocked
        assert is_ABC(f, c)


class TestRLift:
    def test_rt_equals_bc_on_random_instances(self):
        rng = random.Random(41907)
        hits = 0
        for _ in range(500):
            f, c = random_instance(rng, max_vars=6, max_clauses=8, max_width=3)
            bc = is_literal_blocked(f, c) is not None
            assert is_RT(f, c) == bc
            hits += bc
        assert hits > 20

    def test_rat_spec_negative(self, setblocked_not_rat):
        f, c = setblocked_not_rat
        assert not is_RAT(f, c)

    def test_at_instance_is_rat(self, at_not_setblocked):
        f, c = at_not_setblocked
        ok, lift = r_lift_witness(BASES["at"], f, c)
        assert ok and lift is None  # the direct branch, no lift needed
        assert is_RAT(f, c)

    def test_lift_witness_literal(self):
        # (1) resolved with (-1|2) gives (1|2), subsumed by (2); not subsumed
        # directly, so the witness must name the lifting literal
        f = formula((1,), (-1, 2), (2,))
        c = clause(1)
        assert not is_subsumed(f, c)
        ok, lift = r_lift_witness(BASES["s"], f, c)
        assert ok and lift == 1
        assert is_RS(f, c)

    def test_self_resolution_cannot_justify(self):
        # without removing c from the pool, c = (1) would lift itself through
        # (-1|2): the extension (1|2) is "subsumed" by c -- and wrongly so,
        # since removing (1) flips the formula from unsatisfiable to not
        f = formula((1,), (-1, 2), (-2, -1))
        c = clause(1)
        assert not is_RS(f, c)
        assert not is_RAS(f, c)

    def test_vacuous_lift(self):
        # no clause contains the complement, so any base lifts vacuously
        assert r_lift(BASES["t"], formula((1, 2)), clause(3))


class TestHierarchyInstances:
    def test_at_vs_setblocking_gap(self, at_not_setblocked):
        from blockcheck import is_set_blocked

        f, c = at_not_setblocked
        assert is_AT(f, c)
        assert is_set_blocked(f, c) is None
        assert is_super_blocked(f, c) is None
        assert is_RAT(f, c)

    def test_setblocking_vs_at_gap(self):
        f, c = Formula(), clause(1)
        from blockcheck import is_set_blocked

        assert is_set_blocked(f, c) is not None
        assert is_super_blocked(f, c) is not None
        assert not is_AT(f, c)
        assert is_RT(f, c)  # vacuously literal-blocked, so the lifts all hold

    def test_setblocked_not_rat_gap(self, setblocked_not_rat):
        from blockcheck import is_set_blocked

        f, c = setblocked_not_rat
        assert is_set_blocked(f, c).blocking_set == clause(1, 2)
        assert not is_RAT(f, c)


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
            assert is_subsumed(f, c) == REFERENCE_BASES["s"](f, c, c)
            assert is_AT(f, c) == ref_closure.is_tautology()
            assert is_AS(f, c) == REFERENCE_BASES["as"](f, c, c)
            abc = reference_abc(f, c)
            assert is_ABC(f, c) == abc[0]
            ok, w = check_property(f, c, EliminationConfig(property="abc"))
            assert (ok, None if w is None else w.literal) == abc
            assert asymmetric_blocking_literal(f, c) == reference_blocking_literal(f, ref_closure)
            for lit in c:
                assert literal_blocks(f, c, lit) == reference_literal_blocks(f, c, lit), (c, lit)
            for key, base in REFERENCE_BASES.items():
                got = r_lift_witness(BASES[key], f, c)
                assert got == reference_lift_witness(base, f, c), (key, f.clauses, c)
            seen["at"] += ref_closure.is_tautology()
            seen["abc"] += abc[0]
            seen["ras"] += got[0]
            seen["not_ras"] += not got[0]
        assert min(seen.values()) >= 20, seen
