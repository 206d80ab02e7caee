"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one verdict line per
criterion. Every randomized section is seeded, so reruns are bit-identical.
"""

import itertools
import random
from functools import lru_cache

from blockcheck import (
    Assignment,
    Clause,
    EliminationConfig,
    Formula,
    PROPERTIES,
    check_property,
    check_super_blocked,
    eliminate_clauses,
    first_model,
    is_literal_blocked,
    is_set_blocked,
    reconstruct_model,
)
from blockcheck.asymmetric import ala_fixpoint
from blockcheck.blocking import (
    count_candidate_sets,
)
from blockcheck.cnf import resolution_environment
from blockcheck.gen import random_formula, random_instance, random_qbf
from blockcheck.oracle import (
    eval_forall_exists,
    is_redundant,
    is_satisfiable,
    is_semantically_blocked_oracle,
    nonlocality_witness,
)
from blockcheck.reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)
from blockcheck.varelim import (
    eliminate_variable,
    eliminate_variables,
    encode_qbf,
    sem_blocked_via_elimination,
)

from conftest import clause, formula, holds, sequential_closure


def report(num, label, ok, detail=""):
    line = "criterion %02d %-28s %s" % (num, label + ":", "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % (detail,)
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def main_corpus():
    """1000 seeded instances: ≤ 8 variables, ≤ 12 clauses, width ≤ 4."""
    rng = random.Random(20251108)
    return tuple(random_instance(rng) for _ in range(1000))


@lru_cache(maxsize=None)
def main_verdicts():
    cfg = {p: EliminationConfig(property=p) for p in PROPERTIES}
    out = []
    for f, c in main_corpus():
        out.append({p: check_property(f, c, cfg[p])[0] for p in PROPERTIES})
    return out


def test_criterion_01_worked_example_regressions(
    ex_blocked, ex_setblocked, ex_full_blocking, at_not_setblocked, setblocked_not_rat
):
    ok = True

    f, c = ex_blocked
    w = is_literal_blocked(f, c)
    ok &= w is not None and w.literal == 2

    f, c = ex_setblocked
    w = is_set_blocked(f, c)
    ok &= is_literal_blocked(f, c) is None
    ok &= w is not None and w.blocking_set == clause(1, 2)

    f, c = ex_full_blocking
    res = check_super_blocked(f, c)
    ok &= is_literal_blocked(f, c) is None
    ok &= is_set_blocked(f, c) is None
    ok &= res.blocked and res.witness.kind == "super"
    ok &= res.witness.per_tau == {
        Assignment({3: 1}): clause(1),
        Assignment({3: 0}): clause(1, 2),
    }

    f, c = at_not_setblocked
    ok &= holds("at", f, c)
    ok &= is_set_blocked(f, c) is None
    ok &= not check_super_blocked(f, c).blocked
    ok &= holds("rat", f, c)

    f, c = setblocked_not_rat
    ok &= is_set_blocked(f, c) is not None
    ok &= not holds("rat", f, c)

    report(1, "worked-example regressions", ok)


def test_criterion_02_variable_elimination_regression(ex_varelim, taut_env_counterexample):
    f1 = eliminate_variable(ex_varelim, 1)
    ok = f1 == formula((-2, -3), (2, 3))
    ok &= eliminate_variable(f1, 2) == Formula()

    f, c, env = taut_env_counterexample
    remnant = eliminate_variables(env, sorted(c.variables()))
    ok &= remnant == formula((1,), (-1,))
    ok &= is_semantically_blocked_oracle(f, c)

    report(2, "variable-elimination", ok)


def test_criterion_03_decider_agreement():
    disagreements = 0
    blocked = 0
    for (f, c), verdict in zip(main_corpus(), main_verdicts()):
        answers = (
            verdict["supbc"],
            is_semantically_blocked_oracle(f, c),
            sem_blocked_via_elimination(f, c),
            eval_forall_exists(encode_qbf(f, c)),
        )
        if len(set(answers)) != 1:
            disagreements += 1
        elif answers[0]:
            blocked += 1
    report(
        3, "four deciders agree", disagreements == 0,
        "1000 instances, %d blocked, %d disagreements" % (blocked, disagreements),
    )


def test_criterion_04_hierarchy(ex_setblocked, ex_full_blocking):
    violations = 0
    for verdict in main_verdicts():
        if verdict["bc"] and not verdict["setbc"]:
            violations += 1
        if verdict["setbc"] and not verdict["supbc"]:
            violations += 1
        if verdict["rt"] != verdict["bc"]:
            violations += 1

    # each inclusion is strict, witnessed by the fixed instances
    f, c = ex_setblocked
    strict = is_set_blocked(f, c) is not None and is_literal_blocked(f, c) is None
    f, c = ex_full_blocking
    strict &= check_super_blocked(f, c).blocked and is_set_blocked(f, c) is None

    report(
        4, "blocking hierarchy", violations == 0 and strict,
        "1000 instances, %d violations, strictness witnessed" % (violations,),
    )


def test_criterion_05_redundancy_soundness():
    violations = 0
    positives = 0
    for (f, c), verdict in zip(main_corpus(), main_verdicts()):
        if any(verdict.values()):
            positives += 1
            if not is_redundant(f, c):
                violations += 1
    report(
        5, "positive verdicts redundant", violations == 0,
        "%d positive instances, %d violations" % (positives, violations),
    )


def test_criterion_06_locality():
    rng = random.Random(64412)
    changed = 0
    for f, c in main_corpus()[:500]:
        harmless = [
            l for v in range(1, 11) for l in (v, -v) if -l not in c
        ]
        g = f.copy()
        for _ in range(3):
            width = rng.randint(1, 4)
            g.add(Clause(rng.sample(harmless, width)))
        same = is_literal_blocked(f, c) == is_literal_blocked(g, c)
        same &= is_set_blocked(f, c) == is_set_blocked(g, c)
        before, after = check_super_blocked(f, c), check_super_blocked(g, c)
        same &= before.witness == after.witness and before.failing_tau == after.failing_tau
        if not same:
            changed += 1
    report(6, "verdicts are local", changed == 0, "500 instances, %d changed" % (changed,))


def test_criterion_07_nonlocality_witness():
    bad = 0
    tried = 0
    for f, c in main_corpus():
        if tried == 200:
            break
        if is_semantically_blocked_oracle(f, c):
            continue
        tried += 1
        fprime = nonlocality_witness(f, c)
        env_ok = set(resolution_environment(fprime, c)) == set(resolution_environment(f, c))
        if not env_ok or is_redundant(fprime, c):
            bad += 1
    report(
        7, "non-blocked is non-local", tried == 200 and bad == 0,
        "%d witnesses checked, %d defective" % (tried, bad),
    )


def test_criterion_08_reduction_round_trips():
    rng = random.Random(88231)
    bad = 0

    sat_hits = unsat_hits = 0
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 6), rng.randint(1, 7), 3)
        inst = sat_to_setblocking(f)
        got = is_set_blocked(inst.formula, inst.clause) is not None
        want = is_satisfiable(f)
        if got != want:
            bad += 1
        sat_hits += want
        unsat_hits += not want

    true_hits = false_hits = 0
    for _ in range(100):
        q = random_qbf(rng, max_vars=6, max_clauses=6, max_width=3)
        inst = forall_exists_to_superblocking(q)
        got = check_super_blocked(inst.formula, inst.clause).blocked
        want = eval_forall_exists(q)
        if got != want:
            bad += 1
        true_hits += want
        false_hits += not want

    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 5), rng.randint(1, 6), 3)
        inst = unsat_to_1superblocking(f)
        one = check_super_blocked(inst.formula, inst.clause, 1).blocked
        if one != (not is_satisfiable(f)):
            bad += 1
        for k in (2, 3):
            if check_super_blocked(inst.formula, inst.clause, k).blocked != one:
                bad += 1

    assert min(sat_hits, unsat_hits, true_hits, false_hits) > 5
    report(8, "reduction round-trips", bad == 0, "600 instances, %d mismatches" % (bad,))


def test_criterion_09_end_to_end_elimination():
    failures = 0
    for prop in ("bc", "setbc", "supbc"):
        rng = random.Random(prop)
        sat_done = 0
        unsat_done = 0
        hard_unsat = [
            formula((1,), (-1,)),
            formula((1, 2), (1, -2), (-1, 2), (-1, -2)),
            formula((1,), (-1, 2), (-2,)),
        ]
        while sat_done < 500:
            f = random_formula(rng, rng.randint(1, 8), rng.randint(1, 12), 4)
            g, trace = eliminate_clauses(f, EliminationConfig(property=prop))
            if is_satisfiable(f):
                sat_done += 1
                out = reconstruct_model(trace, f, first_model(g))
                if not all(out.satisfies_clause(d) for d in f):
                    failures += 1
            else:
                unsat_done += 1
                if is_satisfiable(g):
                    failures += 1
        for f in hard_unsat:
            g, _ = eliminate_clauses(f, EliminationConfig(property=prop))
            unsat_done += 1
            if is_satisfiable(g):
                failures += 1
        assert unsat_done >= 3
    report(9, "eliminate/solve/reconstruct", failures == 0,
           "500 satisfiable per property, %d failures" % (failures,))


def test_criterion_10_candidate_count(at_not_setblocked):
    ok = True
    for n in range(3, 13):
        total = n ** 3 + 5 * n
        ok &= total % 6 == 0
        ok &= count_candidate_sets(n, 3) == total // 6

    f, c = at_not_setblocked
    stats = {}
    ok &= is_set_blocked(f, c, None, stats) is None
    ok &= stats["candidates"] == count_candidate_sets(len(c), len(c)) == 7

    square = formula((1, 2), (-1, 2), (1, -2), (-1, -2))
    stats = {}
    ok &= is_set_blocked(square, clause(1, 2), None, stats) is None
    ok &= stats["candidates"] == count_candidate_sets(2, 2) == 3

    report(10, "candidate-set count", ok)


def test_criterion_11_order_independence():
    rng = random.Random(40824)
    varelim_bad = 0
    for _ in range(100):
        f, c = random_instance(rng, max_vars=6, max_clauses=8, max_width=4)
        answers = {
            sem_blocked_via_elimination(f, c, order=perm)
            for perm in itertools.permutations(sorted(c.variables()))
        }
        if len(answers) != 1:
            varelim_bad += 1

    all_lits = [l for v in range(1, 7) for l in (v, -v)]
    ala_bad = 0
    for _ in range(100):
        f, c = random_instance(rng, max_vars=6, max_clauses=8, max_width=3)
        closure = frozenset(ala_fixpoint(f, c).clause)
        added = sorted(closure - frozenset(c), key=lambda l: (abs(l), l > 0))
        if len(added) <= 4:
            orders = list(itertools.permutations(added))
        else:
            orders = []
            for _ in range(40):
                perm = added[:]
                rng.shuffle(perm)
                orders.append(tuple(perm))
        for perm in orders:
            priority = list(perm) + [l for l in all_lits if l not in perm]
            if sequential_closure(f, c, priority) != closure:
                ala_bad += 1
                break

    report(
        11, "order independence", varelim_bad == 0 and ala_bad == 0,
        "100+100 instances, %d+%d order-dependent" % (varelim_bad, ala_bad),
    )
