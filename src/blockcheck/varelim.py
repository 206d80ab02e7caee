"""Variable elimination and the quantified encodings built on it.

Eliminating x replaces the clauses mentioning x by all non-tautological
resolvents between the x-side and the not-x-side. Two characterizations live
here: a non-tautological clause is semantically blocked exactly when
eliminating all of its variables from (tautology-free environment + clause)
leaves nothing, and a literal blocks it exactly when every resolvent upon
that literal is tautological. Both are guarded against tautological input,
where they are simply not equivalent to the definitions. The same instance
data can instead be emitted as a forall-exists formula in QDIMACS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cnf import (
    Clause,
    Formula,
    as_clause,
    external_variables,
    read_dimacs_body,
    read_literals,
    resolution_environment,
    resolvent,
)
from .errors import ParseError, ResourceLimit


def all_resolvents(f: Formula, var: int) -> list[Clause]:
    """Every non-tautological resolvent upon var, in formula-order pairs."""
    out = []
    for d1 in f.clauses_with(var):
        for d2 in f.clauses_with(-var):
            r = resolvent(d1, d2, var)
            if not r.is_tautology():
                out.append(r)
    return out


def eliminate_variable(f: Formula, var: int) -> Formula:
    """Replace all clauses on var by their non-tautological resolvents."""
    out = Formula(c for c in f if var not in c.variables())
    for r in sorted(all_resolvents(f, var), key=Clause.sort_key):
        out.add(r)
    return out


def eliminate_variables(
    f: Formula,
    variables: Sequence[int],
    max_clauses: int = 100_000,
) -> Formula:
    """Eliminate the given variables in order, bailing out on clause blow-up."""
    out = f
    for var in variables:
        out = eliminate_variable(out, var)
        if len(out) > max_clauses:
            raise ResourceLimit(
                "elimination grew to %d clauses (limit %d)" % (len(out), max_clauses)
            )
    return out


def _require_not_tautology(c: Clause) -> None:
    if c.is_tautology():
        raise ValueError(
            "elimination characterizations apply to non-tautological clauses only"
        )


def sem_blocked_via_elimination(
    f: Formula,
    c: "Clause | Iterable[int]",
    order: Sequence[int] | None = None,
    max_clauses: int = 100_000,
) -> bool:
    """Decide semantic blocking of a non-tautological clause by elimination.

    Build the tautology-free resolution environment of c plus c itself, then
    eliminate every variable of c: the clause is semantically blocked iff no
    clause survives. The result does not depend on the elimination order;
    `order` (a permutation of c's variables) only changes the intermediate
    formulas.
    """
    c = as_clause(c)
    _require_not_tautology(c)
    cvars = sorted(c.variables())
    if order is None:
        order = cvars
    else:
        order = [int(v) for v in order]
        if sorted(order) != cvars:
            raise ValueError("order must be a permutation of the clause's variables")
    core = Formula(d for d in resolution_environment(f, c) if not d.is_tautology())
    core.add(c)
    return len(eliminate_variables(core, order, max_clauses)) == 0


def literal_blocked_via_elimination(f: Formula, c: "Clause | Iterable[int]", lit: int) -> bool:
    """True iff every resolvent of the non-tautological c upon lit is tautological.

    Partners are taken as they come: filtering tautological partners first
    would change the answer (a partner tautological through the pivot pair
    resolves to c minus nothing gained, and legitimately blocks nothing).
    """
    c = as_clause(c)
    _require_not_tautology(c)
    if lit not in c:
        raise ValueError("literal %d does not occur in the clause" % lit)
    return all(resolvent(c, d, lit).is_tautology() for d in f.clauses_with(-lit))


@dataclass(frozen=True)
class QbfInstance:
    """A forall-exists formula: universal block, existential block, CNF matrix."""

    universals: frozenset[int]
    existentials: frozenset[int]
    matrix: Formula

    def __post_init__(self):
        object.__setattr__(self, "universals", frozenset(int(v) for v in self.universals))
        object.__setattr__(self, "existentials", frozenset(int(v) for v in self.existentials))
        if any(v < 1 for v in self.universals | self.existentials):
            raise ValueError("malformed prefix: variables are positive ints")
        overlap = self.universals & self.existentials
        if overlap:
            raise ValueError(
                "malformed prefix: variables %s quantified twice" % sorted(overlap)
            )
        free = self.matrix.variables() - self.universals - self.existentials
        if free:
            raise ValueError("malformed prefix: matrix variables %s unquantified" % sorted(free))


def encode_qbf(f: Formula, c: "Clause | Iterable[int]") -> QbfInstance:
    """Encode blocking of a non-tautological c as a forall-exists instance.

    Universals are the external variables of c's environment, existentials
    are c's own variables, and the matrix is environment + c. The instance is
    true iff c is semantically blocked in f.
    """
    c = as_clause(c)
    _require_not_tautology(c)
    matrix = Formula(resolution_environment(f, c))
    matrix.add(c)
    return QbfInstance(
        universals=frozenset(external_variables(f, c)),
        existentials=c.variables(),
        matrix=matrix,
    )


def write_qdimacs(q: QbfInstance) -> str:
    """Serialize as QDIMACS: header, 'a' line, 'e' line, canonical clauses."""
    body = sorted(q.matrix, key=Clause.sort_key)
    max_var = max(
        (v for group in (q.universals, q.existentials) for v in group),
        default=0,
    )
    lines = ["p cnf %d %d" % (max_var, len(body))]
    if q.universals:
        lines.append("a %s 0" % " ".join(str(v) for v in sorted(q.universals)))
    if q.existentials:
        lines.append("e %s 0" % " ".join(str(v) for v in sorted(q.existentials)))
    lines.extend(c.dimacs() for c in body)
    return "\n".join(lines) + "\n"


def parse_qdimacs(source: "str | bytes", strict: bool = False) -> QbfInstance:
    """Parse QDIMACS with a single optional 'a' block then a single optional 'e' block.

    Header, clauses and count checks follow the DIMACS rules of parse_dimacs;
    this adds only the quantifier prefix. The matrix may not mention
    unquantified variables.
    """
    blocks: dict[str, list[int]] = {}
    in_matrix = False

    def prefix(lineno: int, toks: list[str]) -> bool:
        nonlocal in_matrix
        kind = toks[0]
        if kind not in ("a", "e"):
            in_matrix = True
            return False
        if in_matrix:
            raise ParseError("line %d: quantifier line after matrix clauses" % lineno)
        if kind in blocks or "e" in blocks:
            raise ParseError("line %d: misplaced or repeated %r block" % (lineno, kind))
        variables, end = read_literals(toks, 1, lineno)
        if end != len(toks):
            raise ParseError("line %d: unterminated quantifier line" % lineno)
        quantified = {v for block in blocks.values() for v in block}
        for var in variables:
            if var < 1:
                raise ParseError("line %d: bad quantified variable %d" % (lineno, var))
            if var in quantified:
                raise ParseError("line %d: variable %d quantified twice" % (lineno, var))
            quantified.add(var)
        blocks[kind] = variables
        return True

    body = read_dimacs_body(source, prefix)
    universals = blocks.get("a", [])
    existentials = blocks.get("e", [])
    bound = set(universals) | set(existentials)
    for c, lineno in zip(body.clauses, body.clause_lines):
        free = c.variables() - bound
        if free:
            raise ParseError("line %d: free matrix variables %s" % (lineno, sorted(free)))
    body.check_counts(
        max((abs(l) for c in body.clauses for l in c), default=max(bound, default=0)),
        strict,
    )
    return QbfInstance(frozenset(universals), frozenset(existentials), Formula(body.clauses))
