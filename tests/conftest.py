"""Shared fixtures: the worked instances the regression suites pin down.

Variable numbering used throughout (chosen once so witness literals and
failing assignments are stable): a=1, b=2, and the "external" variable x
takes the next free id in each instance.
"""

import pytest

from blockcheck import Clause, EliminationConfig, Formula, ParseError, check_property


def clause(*lits):
    return Clause(lits)


def formula(*clauses):
    return Formula(clauses)


def holds(prop, f, c):
    """The verdict of property `prop` for clause c in f, as `check` reports it."""
    return check_property(f, c, EliminationConfig(property=prop))[0]


def table_rows(table):
    """(assignment as zero-terminated DIMACS literals, set) per row of a
    restriction table, in table order. It is built from the table's own
    assignments and sets, and formats each assignment from its literals,
    so the rows the library prints (`dimacs_rows`) are checked against a
    formatting of their own."""
    return [(" ".join(map(str, tau.to_literals() + (0,))), s) for tau, s in zip(table, table.sets)]


def walk_literals(tokens, start, lineno):
    """The token-by-token literal reader, kept as the reference for
    `cnf.read_literals`: one `int` per token, up to the first that reads 0."""
    lits = []
    for i in range(start, len(tokens)):
        try:
            lit = int(tokens[i])
        except ValueError:
            raise ParseError("line %d: bad literal %r" % (lineno, tokens[i])) from None
        if lit == 0:
            return lits, i + 1
        lits.append(lit)
    return lits, None


@pytest.fixture
def ex_blocked():
    """(a|b) is blocked by b: the only resolvent upon b is a tautology."""
    f = formula((-1, 3), (-2, -1))
    return f, clause(1, 2)


@pytest.fixture
def ex_setblocked():
    """(a|b) is set-blocked by {a,b} but not literal-blocked."""
    f = formula((-1, 2), (-2, 1))
    return f, clause(1, 2)


@pytest.fixture
def ex_full_blocking():
    """(a|b) is super-blocked but not set-blocked; x=3 is external."""
    env = [clause(3, 2, -1), clause(-2, -3), clause(-2, 1)]
    c = clause(1, 2)
    return Formula(env + [c]), c


@pytest.fixture
def ex_varelim():
    """Same clauses as ex_full_blocking, packaged for the elimination tests."""
    return formula((1, 2), (3, 2, -1), (-2, -3), (-2, 1))


@pytest.fixture
def at_not_setblocked():
    """(a|b|c) is an asymmetric tautology yet blocked by no set: c=4, x=3."""
    f = formula((-1, 3), (-2, 3), (-4, 3), (1, 2))
    return f, clause(1, 2, 4)


@pytest.fixture
def setblocked_not_rat():
    """(a|b) is set-blocked by {a,b} but no literal lifts it."""
    c = clause(1, 2)
    f = formula((1, 2), (-1, 2), (1, -2))
    return f, c


@pytest.fixture
def taut_env_counterexample():
    """(b|-b) whose environment eliminates to {(a),(-a)}, not to nothing."""
    env = [clause(1, -2), clause(-1, -2), clause(2, 1), clause(2, -1)]
    c = clause(2, -2)
    return Formula(env + [c]), c, Formula(env)


@pytest.fixture
def ala_chain():
    """(a|b) picks up -c and -d and finally -a, ending in a tautology."""
    f = formula((1, 2), (2, 3), (-3, 4), (1, -3, -4))
    return f, clause(1, 2)


def sequential_closure(f, c, priority):
    """Reference literal-addition saturation committing one literal at a time.

    The library adds a whole round per pass; confluence says the closure
    cannot depend on commit order, so any one-at-a-time schedule must land
    on the same literal set. `priority` breaks ties among candidates.
    """
    pool = [d for d in f if d != c]
    cur = set(c)
    rank = {lit: i for i, lit in enumerate(priority)}
    while True:
        cands = set()
        for d in pool:
            for m in d:
                lit = -m
                if lit not in cur and set(d) - {m} <= cur:
                    cands.add(lit)
        if not cands:
            return frozenset(cur)
        cur.add(min(cands, key=rank.__getitem__))
