"""Ground-truth semantics by exhaustive enumeration.

Everything in this module is deliberately brute force: assignments are
walked as bit masks, satisfiability means "some mask satisfies every
clause", and the semantic-blocking check literally tries every rescue.
The deciders elsewhere in the package are judged against these verdicts,
so this code favours being obviously correct over being fast, and every
entry point takes a variable cap so a careless call fails loudly instead
of running for hours.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .cnf import Assignment, Clause, Formula, as_clause, assignment_at, resolution_environment
from .errors import CapExceeded

DEFAULT_CAP = 24


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise CapExceeded(
            "enumeration over %d variables exceeds cap %d" % (count, cap),
            count=count,
            cap=cap,
        )


class _Table:
    """Bit-mask evaluator over a fixed variable universe.

    A mask is an assignment to the sorted universe by its index
    (`cnf.assignment_index`; `cnf.assignment_at` turns it back into an
    assignment), so counting masks upward walks the assignments in
    lexicographic order.
    """

    def __init__(self, variables: Iterable[int], f: Formula):
        self.vars = sorted(set(variables))
        self.n = len(self.vars)
        self._bit = {v: self.n - 1 - i for i, v in enumerate(self.vars)}
        self._masks = [self.clause_mask(d) for d in f]

    def var_mask(self, variables: Iterable[int]) -> int:
        m = 0
        for v in variables:
            m |= 1 << self._bit[v]
        return m

    def clause_mask(self, c: Clause) -> tuple[int, int]:
        pos = neg = 0
        for lit in c:
            b = self._bit.get(abs(lit))
            if b is None:
                raise ValueError("clause variable %d outside table" % abs(lit))
            if lit > 0:
                pos |= 1 << b
            else:
                neg |= 1 << b
        return pos, neg

    def satisfied(self, m: int) -> bool:
        hidden = ~m & ((1 << self.n) - 1)
        return all((pos & m) or (neg & hidden) for pos, neg in self._masks)


def _submasks(bits: int) -> Iterator[int]:
    """All subsets of the set bits, the full mask first, ending with 0."""
    s = bits
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & bits


def satisfies(t: Assignment, f: Formula) -> bool:
    """True iff every clause of f has a literal made true by t."""
    return all(t.satisfies_clause(d) for d in f)


def _model_table(f: Formula, variables: "Iterable[int] | None", cap: int) -> _Table:
    """The table over f's enumeration universe: var(f) by default, or an
    explicit universe that must cover it; capped."""
    universe = f.variables() if variables is None else set(variables)
    if not f.variables() <= universe:
        raise ValueError("formula variables must lie inside the enumeration universe")
    _check_cap(len(universe), cap)
    return _Table(universe, f)


def enumerate_models(
    f: Formula,
    variables: "Iterable[int] | None" = None,
    cap: int = DEFAULT_CAP,
) -> list[Assignment]:
    """Every total assignment over the universe that satisfies f, in
    lexicographic order.

    The universe defaults to var(f); an explicit one must cover it, and can
    widen it (each free variable then doubles the model count).
    """
    table = _model_table(f, variables, cap)
    return [assignment_at(table.vars, m) for m in range(1 << table.n) if table.satisfied(m)]


def first_model(
    f: Formula,
    variables: "Iterable[int] | None" = None,
    cap: int = DEFAULT_CAP,
) -> Assignment | None:
    """The lexicographically first model of f, or None."""
    table = _model_table(f, variables, cap)
    for m in range(1 << table.n):
        if table.satisfied(m):
            return assignment_at(table.vars, m)
    return None


def is_satisfiable(f: Formula, cap: int = DEFAULT_CAP) -> bool:
    return first_model(f, None, cap) is not None


def is_redundant(f: Formula, c: "Clause | Iterable[int]", cap: int = DEFAULT_CAP) -> bool:
    """True iff adding c to f \\ {c} does not change satisfiability."""
    c = as_clause(c)
    base = f.without(c)
    return is_satisfiable(base, cap) == is_satisfiable(base.with_clause(c), cap)


def _semantic_core(
    f: Formula,
    c: Clause,
    cap: int,
) -> tuple[bool, Assignment | None]:
    """Decide semantic blocking; on failure also return a stuck assignment.

    A clause is semantically blocked when every total assignment over the
    variables of its environment and itself that satisfies the environment
    can be repaired, by changing only variables of the clause, into one
    satisfying environment and clause together. The stuck assignment is the
    first (lexicographically) that admits no repair.
    """
    env = Formula(resolution_environment(f, c))
    universe = sorted(set(env.variables()) | set(c.variables()))
    _check_cap(len(universe), cap)
    table = _Table(universe, env)
    cpos, cneg = table.clause_mask(c)
    cbits = table.var_mask(c.variables())
    full = (1 << table.n) - 1
    for m in range(1 << table.n):
        if not table.satisfied(m):
            continue
        frame = m & ~cbits
        for sub in _submasks(cbits):
            m2 = frame | sub
            if ((cpos & m2) or (cneg & (~m2 & full))) and table.satisfied(m2):
                break
        else:
            return False, assignment_at(table.vars, m)
    return True, None


def is_semantically_blocked_oracle(
    f: Formula,
    c: "Clause | Iterable[int]",
    cap: int = DEFAULT_CAP,
) -> bool:
    return _semantic_core(f, as_clause(c), cap)[0]


def nonlocality_witness(
    f: Formula,
    c: "Clause | Iterable[int]",
    cap: int = DEFAULT_CAP,
) -> Formula:
    """A same-environment formula in which c is genuinely not redundant.

    Requires c not semantically blocked in f. The result keeps the whole
    environment of c, adds c, and pins every variable outside c to its value
    under a stuck assignment with unit clauses. The units touch no variable
    of c, so the environment of c is unchanged; and because the pinned
    assignment admits no repair, the extension is unsatisfiable while the
    formula without c stays satisfiable.
    """
    c = as_clause(c)
    blocked, stuck = _semantic_core(f, c, cap)
    if blocked:
        raise ValueError("clause is semantically blocked; no witness exists")
    assert stuck is not None
    out = Formula(resolution_environment(f, c))
    out.add(c)
    cvars = c.variables()
    for v, val in stuck.items():
        if v not in cvars:
            out.add(Clause([v if val else -v]))
    return out


def eval_forall_exists(instance, cap: int = DEFAULT_CAP) -> bool:
    """Evaluate a two-block prefix ∀G ∃L over a CNF matrix by enumeration."""
    universals = sorted(instance.universals)
    existentials = sorted(instance.existentials)
    matrix: Formula = instance.matrix
    _check_cap(len(universals) + len(existentials), cap)
    table = _Table(list(universals) + list(existentials), matrix)
    ubits = table.var_mask(universals)
    ebits = table.var_mask(existentials)
    for u in _submasks(ubits):
        if not any(table.satisfied(u | e) for e in _submasks(ebits)):
            return False
    return True
