"""Randomized invariants over small formulas.

Everything here stays at five variables or fewer so that the brute-force
oracle can sit on the other side of each claim.
"""

import random

from hypothesis import given, settings, strategies as st

from blockcheck import (
    Assignment,
    Clause,
    EliminationConfig,
    Formula,
    QbfInstance,
    ala_fixpoint,
    check_property,
    check_super_blocked,
    eliminate_clauses,
    enumerate_models,
    external_variables,
    first_model,
    is_literal_blocked,
    is_redundant,
    is_satisfiable,
    is_set_blocked,
    parse_dimacs,
    parse_qdimacs,
    PROPERTIES,
    reconstruct_model,
    resolution_environment,
    resolvent,
    restrict,
    write_dimacs,
    write_qdimacs,
)

from conftest import sequential_closure

MAX_VAR = 5
ALL_LITS = sorted(
    (v for i in range(1, MAX_VAR + 1) for v in (i, -i)),
    key=lambda l: (abs(l), l > 0),
)


@st.composite
def clauses(draw, min_width=1, max_width=4, tautologies=True):
    if tautologies:
        lits = draw(st.lists(st.sampled_from(ALL_LITS), min_size=min_width,
                             max_size=max_width, unique=True))
        return Clause(lits)
    variables = draw(st.lists(st.integers(1, MAX_VAR), min_size=min_width,
                              max_size=max_width, unique=True))
    signs = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
    return Clause(v if s else -v for v, s in zip(variables, signs))


@st.composite
def formulas(draw, max_clauses=6, **kw):
    return Formula(draw(st.lists(clauses(**kw), max_size=max_clauses)))


@st.composite
def instances(draw):
    """A formula and a non-tautological clause, sometimes a member."""
    f = draw(formulas())
    c = draw(clauses(max_width=3, tautologies=False))
    if draw(st.booleans()):
        f = f.with_clause(c)
    return f, c


COMMON = settings(deadline=None, max_examples=80)


# The narrower property is listed first; a yes for it must be a yes for the
# wider one. `instances` draws non-tautological clauses only, and for those
# AT and AS coincide: a closure turns tautological only through a donor that
# then subsumes it. A tautological clause can be AT without being AS
# (tests/test_asymmetric.py, TestASAgainstAT).
HIERARCHY = [
    ("t", "at"), ("t", "bc"), ("s", "as"), ("s", "rs"),
    ("as", "at"), ("at", "as"), ("as", "ras"), ("rs", "ras"), ("ras", "rat"),
    ("bc", "abc"), ("at", "abc"), ("abc", "rat"),
    ("rt", "rat"), ("rt", "bc"), ("bc", "rt"),
    ("bc", "setbc"), ("setbc", "supbc"),
]


@COMMON
@given(instances())
def test_hierarchy_and_redundancy_soundness(inst):
    f, c = inst
    cfg = {p: EliminationConfig(property=p) for p in PROPERTIES}
    verdict = {p: check_property(f, c, cfg[p])[0] for p in PROPERTIES}
    for narrow, wide in HIERARCHY:
        assert not verdict[narrow] or verdict[wide], (narrow, wide, f, c)
    if any(verdict.values()):
        assert is_redundant(f, c)


@COMMON
@given(instances(), st.data())
def test_blocking_depends_only_on_the_environment(inst, data):
    f, c = inst
    harmless = [l for l in ALL_LITS if -l not in c]
    extras = data.draw(
        st.lists(
            st.lists(st.sampled_from(harmless), min_size=1, max_size=3, unique=True).map(Clause),
            max_size=3,
        )
    )
    g = f.copy()
    for d in extras:
        g.add(d)

    assert is_literal_blocked(f, c) == is_literal_blocked(g, c)
    assert is_set_blocked(f, c) == is_set_blocked(g, c)
    before = check_super_blocked(f, c)
    after = check_super_blocked(g, c)
    assert before.witness == after.witness
    assert before.failing_tau == after.failing_tau


@COMMON
@given(instances())
def test_witness_shapes(inst):
    f, c = inst
    w = is_literal_blocked(f, c)
    if w is not None:
        assert w.kind == "literal" and w.literal in c
    w = is_set_blocked(f, c)
    if w is not None:
        assert w.kind == "set"
        assert len(w.blocking_set) >= 1 and all(l in c for l in w.blocking_set)
    res = check_super_blocked(f, c)
    if res.blocked:
        assert res.failing_tau is None
        w = res.witness
        if w.kind == "super":
            ext = external_variables(f, c)
            assert len(w.per_tau) == 2 ** len(ext)
            for tau, chosen in w.per_tau.items():
                assert tau.variables() == ext
                assert len(chosen) >= 1 and all(l in c for l in chosen)
    else:
        assert res.failing_tau is not None
        assert res.failing_tau.variables() == external_variables(f, c)


@COMMON
@given(instances(), st.integers(1, 3))
def test_size_bound_is_monotone(inst, k):
    f, c = inst
    bounded = is_set_blocked(f, c, k)
    if bounded is not None:
        assert len(bounded.blocking_set) <= k
        for k2 in range(k, len(c) + 1):
            assert is_set_blocked(f, c, k2) == bounded
        assert is_set_blocked(f, c) == bounded
    unbounded = is_set_blocked(f, c)
    if unbounded is not None and len(unbounded.blocking_set) <= k:
        assert bounded == unbounded


@COMMON
@given(instances())
def test_environment_membership(inst):
    f, c = inst
    env = resolution_environment(f, c)
    comp = set(c.complements())
    for d in f:
        if d == c and not c.is_tautology():
            assert d not in env
        else:
            assert (d in env) == bool(comp & set(d))


@settings(deadline=None, max_examples=60)
@given(formulas(), st.data())
def test_restrict_is_antitone(f, data):
    universe = sorted(f.variables()) or [1]
    small = data.draw(st.dictionaries(st.sampled_from(universe), st.integers(0, 1)))
    extra = data.draw(st.dictionaries(st.sampled_from(universe), st.integers(0, 1)))
    big = dict(small)
    big.update({v: b for v, b in extra.items() if v not in small})
    narrowed = set(restrict(f, Assignment(big)).clauses)
    widened = set(restrict(f, Assignment(small)).clauses)
    assert narrowed <= widened <= set(f.clauses)


@settings(deadline=None, max_examples=60)
@given(clauses(), clauses(), st.data())
def test_resolvents_are_entailed(c1, c2, data):
    pivots = [l for l in c1 if -l in c2]
    if not pivots:
        return
    pivot = data.draw(st.sampled_from(pivots))
    r = resolvent(c1, c2, pivot)
    both = Formula([c1, c2])
    for m in enumerate_models(both, sorted(both.variables())).models:
        assert m.satisfies_clause(r)


@settings(deadline=None, max_examples=40)
@given(formulas(max_clauses=5))
def test_model_enumeration_is_total_and_exact(f):
    universe = sorted(f.variables())
    res = enumerate_models(f, universe)
    assert res.universe == tuple(universe)
    for m in res.models:
        assert m.variables() == set(universe)
    # exactness: membership in the model set is exactly satisfaction
    for bits in range(2 ** len(universe)):
        a = Assignment({v: (bits >> i) & 1 for i, v in enumerate(universe)})
        sat = all(a.satisfies_clause(d) for d in f)
        assert (a in res.models) == sat


@settings(deadline=None, max_examples=60)
@given(formulas())
def test_dimacs_round_trip(f):
    assert parse_dimacs(write_dimacs(f)) == f


@settings(deadline=None, max_examples=60)
@given(formulas(max_clauses=5), st.data())
def test_qdimacs_round_trip(f, data):
    universe = sorted(f.variables())
    flags = data.draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
    universals = frozenset(v for v, u in zip(universe, flags) if u)
    q = QbfInstance(universals, frozenset(universe) - universals, f)
    again = parse_qdimacs(write_qdimacs(q))
    assert again.universals == q.universals
    assert again.existentials == q.existentials
    assert again.matrix == q.matrix
    assert write_qdimacs(again) == write_qdimacs(q)


@settings(deadline=None, max_examples=60)
@given(instances(), st.randoms(use_true_random=False))
def test_literal_addition_is_confluent(inst, rng):
    f, c = inst
    batch = frozenset(ala_fixpoint(f, c).clause)
    priority = list(ALL_LITS)
    rng.shuffle(priority)
    assert sequential_closure(f, c, priority) == batch


@settings(deadline=None, max_examples=40)
@given(instances())
def test_elimination_preserves_satisfiability(inst):
    f, _ = inst
    for prop in ("bc", "setbc", "supbc"):
        g, trace = eliminate_clauses(f, EliminationConfig(property=prop))
        if is_satisfiable(f):
            out = reconstruct_model(trace, f, first_model(g))
            assert all(out.satisfies_clause(d) for d in f)
        else:
            assert not is_satisfiable(g)
