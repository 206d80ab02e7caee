import random
import tracemalloc
from typing import NamedTuple

import pytest

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
        assert ala_fixpoint(f, c).clause.is_tautology()
        assert asymmetric_blocking(f, c) == (True, None)
        ok, w = check_property(f, c, EliminationConfig(property="abc"))
        assert ok and w is None

    def test_witness_rule_on_random_instances(self):
        rng = random.Random(5)
        seen = dict(literal=0, tautology=0, no=0)
        for _ in range(3000):
            f, c = random_instance(rng)
            ok, lit = asymmetric_blocking(f, c)
            closure = ala_fixpoint(f, c).clause
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


def abc_on_the_closure_clause(f, c, blocks=None):
    """ABC as answered before the trail: the closure built as a clause and
    `is_literal_blocked` asked for c's literals on it. `blocks(d, lit, closure)`,
    when given, replaces its test of each D holding -lit."""
    closure = reference_saturate(f, c, c)[1]
    if closure.is_tautology():
        return True, None
    if blocks is None:
        w = is_literal_blocked(f, closure, c)
        return w is not None, w and w.literal
    lit = next((lit for lit in c if all(blocks(d, lit, closure) for d in f.occurrences(-lit))), None)
    return lit is not None, lit


def tautologies_never_rule_out(d, lit, closure):
    """The wrong test: "D is a tautology" in place of "D without -lit is one"."""
    return d.is_tautology() or any(-m in closure for m in d if m != -lit)


class TestABCOnTheTrail:
    def test_matches_the_closure_clause_route(self):
        rng = random.Random("abc on the trail")
        seen = dict(blocked=0, not_blocked=0, tautological=0, both=0, variant_differs=0)
        for _ in range(1500):
            nvars = rng.randint(2, 6)
            f = Formula(random_literal_clause(rng, nvars, rng.randint(1, 4))
                        for _ in range(rng.randint(0, 10)))
            if f.clauses and rng.random() < 0.5:
                c = rng.choice(f.clauses)
            else:
                c = random_literal_clause(rng, nvars + 1, rng.randint(1, 4))
            if rng.random() < 0.5:  # a D holding both l and -l, for l in c
                lit = rng.choice(c.literals)
                f.add((lit, -lit) + ((rng.choice((1, -1)) * rng.randint(1, nvars + 2),)
                                     if rng.random() < 0.7 else ()))
            want = abc_on_the_closure_clause(f, c)
            assert asymmetric_blocking(f, c) == want, (f.clauses, c)
            closure = reference_saturate(f, c, c)[1]
            seen["tautological"] += closure.is_tautology()
            seen["blocked" if want[1] is not None else "not_blocked"] += not closure.is_tautology()
            seen["both"] += not closure.is_tautology() and any(
                lit in d for lit in c for d in f.occurrences(-lit))
            seen["variant_differs"] += abc_on_the_closure_clause(f, c, tautologies_never_rule_out) != want
        assert min(seen.values()) >= 30, seen


# The checks seed every closure with U(F without c), the closure of the empty
# clause; the formula keeps U on one trail, which a removal updates in place
# and an added clause drops. Each case below is compared with the unseeded
# reference saturation.


class Units(NamedTuple):
    lits: frozenset
    tautological: bool
    donors: dict  # donor -> the literal it justifies, in derivation order


def units_of(f, c=None):
    """U(f without c) as the checks see it: a snapshot of the trail kept on
    f, turned to c (the test reads the internal)."""
    trail = asymmetric._trail(f, c)
    return Units(frozenset(trail.lits), trail.tautological, trail.derivation())


def closure_of(f, c, x, stop_at_tautology):
    """The closure of x over f without c as the checks saturate it."""
    return asymmetric._closure(f, c, x, stop_at_tautology, lambda lits, added, tautological: Clause(lits))


def stopped_closure(f, c):
    """The closure of c over f without c, stopped at its first
    complementary pair, as the yes/no checks saturate it."""
    return closure_of(f, c, c, True)


def assert_matches_reference(f, c):
    ref_log, ref_closure = reference_saturate(f, c, c)
    assert ala_fixpoint(f, c).clause == ref_closure, (f.clauses, c)
    if not units_of(f, c).tautological:
        # the seeded full closure, which AS saturates a tautology to
        assert closure_of(f, c, c, False) == ref_closure, (f.clauses, c)
    stopped = stopped_closure(f, c)
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
            assert stopped_closure(f, c).is_tautology()
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

    def test_removing_a_donor_of_u_commits_its_retraction(self):
        f = formula((1,), (3,), (-1, 2), (-3, -1, 4))
        c = clause(1)
        assert_matches_reference(f, c)
        kept = units_of(f, c)
        trail = f.kept
        other = clause(-1, 2)
        assert other in units_of(f).donors and other not in kept.donors
        f.remove(other)
        assert f.kept is trail and trail.without is None
        assert other not in trail.donors and trail.lits == {-1, -3, -4}
        assert units_of(f, c) == kept
        assert_matches_reference(f, c)

    def test_removing_c_makes_its_closure_the_formulas_own(self, monkeypatch):
        f = formula((1,), (2,), (1, -2), (-2, 3))
        c = clause(1)
        assert_matches_reference(f, c)
        without = units_of(f, c)
        trail = f.kept
        monkeypatch.setattr(asymmetric, "_rounds", None)  # the commit propagates nothing
        f.remove(c)
        monkeypatch.undo()
        assert f.kept is trail and units_of(f) == without
        assert list(trail.donors.items()) == list(without.donors.items())
        for d in f.clauses + [c]:
            assert_matches_reference(f, d)

    def test_u_is_kept_until_one_of_its_donors_goes(self):
        f = formula((1,), (-1, 2), (3, 4), (5,))
        whole = units_of(f)
        trail = f.kept
        assert clause(3, 4) not in whole.donors and clause(5) in whole.donors
        f.remove(clause(3, 4))
        assert f.kept is trail and units_of(f) == whole
        f.remove(clause(5))
        assert f.kept is trail and units_of(f).lits == {-1, -2}
        assert f.check_occ_consistent()

    def test_asking_without_another_donor_moves_the_retraction(self):
        f = formula((1,), (-1, 2), (3,))
        whole = units_of(f)
        trail = f.kept
        assert units_of(f, clause(1)).lits == {-3} and trail.without == clause(1)
        assert units_of(f, clause(3)).lits == {-1, -2} and trail.without == clause(3)
        assert units_of(f, clause(1)).lits == {-3} and trail.without == clause(1)
        assert units_of(f) == whole and trail.without is None
        assert f.kept is trail and f.check_occ_consistent()

    def test_asking_about_a_clause_outside_the_formula_returns_u(self):
        f = formula((1,), (-1, 2))
        whole = units_of(f)
        part = units_of(f, clause(1))
        assert units_of(f, clause(9)) == whole and f.kept.without is None
        assert units_of(f, clause(-1, 2, 9)) == whole
        assert units_of(f, clause(1)) == part

    def test_add_drops_the_trail(self):
        f = formula((1,), (-1, 2))
        whole = units_of(f)
        part = units_of(f, clause(1))
        f.add((3, 4))  # forces nothing: the trail is built again all the same
        assert f.kept is None
        assert units_of(f) == whole and units_of(f, clause(1)) == part
        assert f.check_occ_consistent()

    def test_a_copy_starts_without_the_trail(self):
        f = formula((1,), (-1, 2), (3,))
        whole = units_of(f)
        part = units_of(f, clause(1))
        trail = f.kept
        g = f.copy()
        assert g.kept is None
        assert units_of(g) == whole and units_of(g, clause(1)) == part
        g.remove(clause(3))  # a donor of both closures
        assert units_of(g).lits == {-1, -2} and units_of(g, clause(1)).lits == set()
        assert f.kept is trail and units_of(f) == whole and units_of(f, clause(1)) == part
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
        units_of(f)
        trail = f.kept
        assert f.check_occ_consistent()
        trail.donors = {clause(4, 5) if lit == -3 else d: lit for d, lit in trail.donors.items()}
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_dropped_step(self):
        f = formula((1,), (-1, 2), (-2, 3))
        c = clause(-1, 2)
        kept = units_of(f, c)
        assert kept.lits == {-1} and f.check_occ_consistent()
        del f.kept.donors[clause(-1, 2)]  # -3 now rests on -2, which no donor justifies
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_literal_justified_twice(self):
        # (1 -2) would justify -1 again from -2; every other check passes
        f = formula((1,), (2,), (1, -2))
        units = units_of(f)
        assert units.lits == {-1, -2} and f.check_occ_consistent()
        f.kept.donors[clause(1, -2)] = -1
        assert not f.check_occ_consistent()

    def test_consistency_check_sees_a_wrong_tautology_flag(self):
        for f in (formula((1,), (-1, 2)), formula((1,), (-1,), (2, 3))):
            for flag in ("tautological", "whole_tautological"):
                units_of(f)
                trail = f.kept
                assert f.check_occ_consistent()
                setattr(trail, flag, not getattr(trail, flag))
                assert not f.check_occ_consistent()
                f.kept = None

    def test_consistency_check_sees_a_stale_closure(self):
        f = formula((1,), (-1, 2), (-2, 3), (4,))
        c = clause(-1, 2)
        units_of(f, c)
        g = f.with_clause((-4, 5))  # with 4 forced, (-4|5) forces 5: U(g) holds -5
        assert g.check_occ_consistent()
        # f's trail, left on g as if `add` had not dropped it
        g.kept = f.kept
        assert not g.check_occ_consistent()
        # g's own U(g), with the closure f's retraction for c left
        g.kept = None
        trail = asymmetric._trail(g, c)
        assert g.check_occ_consistent()
        trail.lits, trail.gone, trail.resumed = set(f.kept.lits), dict(f.kept.gone), dict(f.kept.resumed)
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


# One trail per formula: a question turns it into U(F without c) and grows
# the closure in place, and removes what it added on the way out; a removal
# commits its retraction, and a copy gets a trail of its own.


class CutShort(Exception):
    pass


def answers(f, xs):
    """Every ALA verdict for each clause of f and each clause of `xs`, with
    every lifted resolvent as x."""
    out = []
    for c in f.clauses + xs:
        out.append((c, asymmetric_blocking(f, c), [r_lift_witness(BASES[k], f, c) for k in ("at", "as")]))
        for x in [c] + [c | (d - (-lit,)) for lit in c for d in f.occurrences(-lit)]:
            out.append((c, x, BASES["at"](f, c, x), BASES["as"](f, c, x)))
    return out


class TestTrail:
    # c = (-1|2) is a donor of U, and its closure runs down the chain from 2
    # to 6, one literal per round
    CHAIN = ((1,), (-1, 2), (2, -3), (3, -4), (4, -5), (5, -6))

    def test_a_check_cut_short_leaves_the_trail_as_it_was(self, monkeypatch):
        real = asymmetric._rounds

        def failing(*args, **kw):
            for n, step in enumerate(real(*args, **kw), 1):
                yield step
                if n == 2:
                    raise CutShort  # asked for round 3

        c = clause(-1, 2)
        xs = [clause(2, 6), clause(-6, 3)]
        for prop in ("at", "abc", "rat"):
            f = formula(*self.CHAIN)
            units = units_of(f, c)  # the trail stands retracted for c
            trail = f.kept
            assert units.lits == {-1} and not units.tautological
            monkeypatch.setattr(asymmetric, "_rounds", failing)
            with pytest.raises(CutShort):
                holds(prop, f, c)
            monkeypatch.undo()
            assert f.kept is trail and units_of(f, c) == units, prop
            assert f.check_occ_consistent()
            assert answers(f, xs) == answers(formula(*self.CHAIN), xs)

    def test_a_second_question_about_the_same_clause_derives_nothing(self, monkeypatch):
        # c = (1) is a donor of U(F) = {-1, -2, 3}; without it, (1|3) justifies
        # -1 again, so U(F without c) holds -1 and every check of c answers
        # from the trail alone
        f = formula((1,), (-1, 2), (1, 3), (-3,))
        c = clause(1)
        assert holds("at", f, c)
        trail = f.kept
        gone = trail.gone
        assert trail.without == c and gone == {-1: c, -2: clause(-1, 2)}
        calls = []
        real_rounds, real_occurrences = asymmetric._rounds, Formula.occurrences

        def rounds(*args, **kw):
            calls.append("_rounds")
            return real_rounds(*args, **kw)

        def occurrences(self, lit):
            calls.append("occurrences")
            return real_occurrences(self, lit)

        monkeypatch.setattr(asymmetric, "_rounds", rounds)
        monkeypatch.setattr(Formula, "occurrences", occurrences)
        for prop in ("at", "as", "abc", "rat", "ras"):
            assert holds(prop, f, c), prop
            assert BASES["at"](f, c, c)
            assert not calls, (prop, calls)
            assert f.kept is trail and trail.without == c and trail.gone is gone, prop
        monkeypatch.undo()
        assert f.check_occ_consistent()

    def test_a_retraction_cut_short_drops_the_trail(self, monkeypatch):
        f = disjoint_blocks(2)
        c = clause(-1, 2)
        units_of(f)

        def failing(*args, **kw):
            raise CutShort
            yield

        monkeypatch.setattr(asymmetric, "_rounds", failing)
        with pytest.raises(CutShort):
            holds("at", f, c)
        monkeypatch.undo()
        assert f.kept is None and f.check_occ_consistent()
        assert answers(f, []) == answers(disjoint_blocks(2), [])

    def test_removing_a_donor_updates_the_trail(self):
        f = formula((1,), (-1, 2), (-2, 3), (4,), (-4, 5))
        trail = asymmetric._trail(f, None)
        assert trail.lits == {-1, -2, -3, -4, -5}
        for gone, left in (((-1, 2), {-1, -4, -5}), ((4,), {-1}), ((1,), set())):
            f.remove(clause(*gone))
            assert f.kept is trail and trail.without is None, gone
            assert trail.lits == left and clause(*gone) not in trail.donors
            assert f.check_occ_consistent()
            xs = [clause(2, 5), clause(-3), clause(-5, 1)]
            assert answers(f, xs) == answers(Formula(f.clauses), xs)

    def test_removing_a_donor_only_the_retraction_fired_puts_u_back(self):
        # without c = (1), (1|3) justifies -1 again; it is no donor of U(F)
        f = formula((1,), (-1, 2), (1, 3), (-3,))
        c, d = clause(1), clause(1, 3)
        whole = units_of(f)
        assert holds("at", f, c)
        trail = f.kept
        assert d in trail.resumed and d not in trail.donors
        f.remove(d)
        assert f.kept is trail and trail.without is None and units_of(f) == whole
        assert not holds("at", f, c) and units_of(f, c).lits == {3}
        assert f.check_occ_consistent()
        assert answers(f, [clause(2)]) == answers(Formula(f.clauses), [clause(2)])

    def test_a_mutated_copy_leaves_the_original_trail(self):
        f = formula((1,), (-1, 2), (-2, 3), (4,), (2, -4, 6))
        xs = [clause(3, 5), clause(-6), clause(-2, 4)]
        before = answers(f, xs)
        whole = units_of(f)
        trail = f.kept
        for donor in ((-1, 2), (4,), (1,)):
            g = f.copy()
            units_of(g, clause(*donor))
            g.remove(clause(*donor))
            assert units_of(g) != whole and g.check_occ_consistent()
            assert f.kept is trail and units_of(f) == whole, donor
            assert answers(f, xs) == before and f.check_occ_consistent()

    def test_one_question_allocates_the_same_however_large_u_is(self):
        # k variable-disjoint blocks: U grows with k, but an AT question
        # about a clause of block 1 copies none of it
        for c, x in ((clause(-1, 2), clause(-1, 2)), (clause(2, 7), clause(2, 7)),
                     (clause(3, -8), clause(3, 7, -8))):
            peaks = []
            for k in (1, 4, 16, 64):
                f = disjoint_blocks(k)
                BASES["at"](f, c, x)  # builds and retracts the trail
                runs = []
                for _ in range(3):
                    tracemalloc.start()
                    try:
                        BASES["at"](f, c, x)
                        runs.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                peaks.append(min(runs))
            assert len(reference_saturate(disjoint_blocks(64), None, Clause())[1]) == 64 * 6
            assert max(peaks) - min(peaks) <= 256, (c, x, peaks)


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
        # only a tautological x reaches the subsumption test; AS of any
        # other x is AT of x (F holds no empty clause here)
        f = planted_blocks(random.Random("buckets"), 4, tautologies=4)
        read, active, calls, full = [], [], [], []
        real_occurrences, real_subsumed = Formula.occurrences, asymmetric._subsumed
        real_closure = asymmetric._closure

        def occurrences(self, lit):
            if active:
                read.append(lit)
            return real_occurrences(self, lit)

        def subsumed(*args):
            calls.append(args)
            active.append(True)
            try:
                return real_subsumed(*args)
            finally:
                active.pop()

        def closure(f, c, x, stop_at_tautology, answer):
            if not stop_at_tautology:
                full.append(x)
            return real_closure(f, c, x, stop_at_tautology, answer)

        monkeypatch.setattr(Formula, "occurrences", occurrences)
        monkeypatch.setattr(asymmetric, "_subsumed", subsumed)
        monkeypatch.setattr(asymmetric, "_closure", closure)
        walked = tautologies = 0
        for c in f.clauses:
            units = units_of(f, c)
            assert not units.tautological and len(units.lits) >= 20
            for prop in ("as", "ras"):
                read.clear()
                calls.clear()
                full.clear()
                holds(prop, f, c)
                assert not units.lits.intersection(read), (c, prop)
                # each subsumption test follows the full closure of a tautology
                assert len(calls) == len(full) and all(x.is_tautology() for x in full), (c, prop)
                walked += len(read)
            # c and each lifted resolvent as x
            for x in [c] + [c | (d - (-lit,)) for lit in c for d in real_occurrences(f, -lit)]:
                read.clear()
                calls.clear()
                BASES["as"](f, c, x)
                assert len(calls) == x.is_tautology(), (c, x)
                assert not units.lits.intersection(read), (c, x)
                walked += len(read)
                tautologies += x.is_tautology()
        assert walked >= 100 and tautologies >= 20, (walked, tautologies)


# Two identities the AS base states as code: a tautological U(F without c)
# answers every check yes, and AS of a clause x that is no tautology is AT
# of x, or, for a non-empty c, the empty clause in F. `random_instance`
# never draws the empty clause or complementary units, so these add them.


class TestIdentities:
    def test_random_instances_with_the_empty_clause_and_complementary_units(self):
        rng = random.Random("identities")
        seen = dict(tautological_u=0, empty=0, tautological_x=0, as_not_at=0, at_not_as=0,
                    abc=0, rat=0, ras=0, not_ras=0)
        for _ in range(400):
            f, c = random_instance(rng, max_vars=5, max_clauses=8, max_width=3)
            v = rng.randint(1, 5)
            if rng.random() < 0.3:
                f.add(Clause())
            if rng.random() < 0.3:
                f.add((v,))
                f.add((-v,))
            if rng.random() < 0.1:
                c = Clause()
            elif rng.random() < 0.2:
                c = c | (v, -v)
            for x in [c] + [c | (d - (-lit,)) for lit in c for d in f.occurrences(-lit)]:
                at, as_ = (BASES[key](f, c, x) for key in ("at", "as"))
                assert at == REFERENCE_BASES["at"](f, c, x), (f.clauses, c, x)
                assert as_ == REFERENCE_BASES["as"](f, c, x), (f.clauses, c, x)
                seen["tautological_u"] += units_of(f, c).tautological
                seen["empty"] += Clause() in f.without(c)
                seen["tautological_x"] += x.is_tautology()
                seen["as_not_at"] += as_ and not at
                seen["at_not_as"] += at and not as_
            abc = reference_abc(f, c)
            ok, w = check_property(f, c, EliminationConfig(property="abc"))
            assert (ok, None if w is None else w.literal) == abc, (f.clauses, c)
            assert asymmetric_blocking(f, c) == abc
            for key in ("at", "as"):
                want = reference_lift_witness(REFERENCE_BASES[key], f, c)
                ok, w = check_property(f, c, EliminationConfig(property="r" + key))
                assert (ok, None if w is None else w.literal) == want, (key, f.clauses, c)
                seen["r" + key] += want[0]
            seen["abc"] += abc[0]
            seen["not_ras"] += not want[0]
        assert min(seen.values()) >= 20, seen
