"""CNF core: signed-integer literals, clauses, formulas, assignments, DIMACS text.

Literals are nonzero Python ints in the DIMACS convention: variable v appears
as v (positive) or -v (negative), and -l is the complement of l. The canonical
literal order is by variable id, with the negative literal before the positive
one; clauses iterate in that order so every search and witness in the package
is deterministic.
"""

from __future__ import annotations

import warnings
from operator import itemgetter, neg
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError


def literal_key(lit: int) -> tuple[int, bool]:
    """Canonical sort key for literals: by variable, negative before positive."""
    return (abs(lit), lit > 0)


class Clause:
    """A duplicate-free set of literals.

    Construction deduplicates; iteration is in canonical order. Clauses are
    immutable, hashable, and compare by literal set. The empty clause is
    representable (and is never a tautology).
    """

    __slots__ = ("_lits", "_canon")

    def __init__(self, literals: Iterable[int] = ()):
        lits = frozenset(map(int, literals))
        if 0 in lits:
            raise ValueError("0 is not a literal")
        self._lits = lits
        # a stable sort by variable keeps the negative literal (the smaller
        # int) first, which is the canonical order
        self._canon = tuple(sorted(sorted(lits), key=abs))

    @property
    def literals(self) -> tuple[int, ...]:
        return self._canon

    def __iter__(self) -> Iterator[int]:
        return iter(self._canon)

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self._lits

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Clause):
            return self._lits == other._lits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._lits)

    def __or__(self, other: "Clause | Iterable[int]") -> "Clause":
        return Clause(self._lits | _litset(other))

    def __sub__(self, other: "Clause | Iterable[int]") -> "Clause":
        return Clause(self._lits - _litset(other))

    def __and__(self, other: "Clause | Iterable[int]") -> "Clause":
        return Clause(self._lits & _litset(other))

    def issubset(self, other: "Clause") -> bool:
        return self._lits <= other._lits

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, self._lits))

    def complements(self) -> frozenset[int]:
        """The set of complements of this clause's literals."""
        return frozenset(map(neg, self._lits))

    def is_tautology(self) -> bool:
        return not self._lits.isdisjoint(map(neg, self._lits))

    def dimacs(self) -> str:
        """The clause as a zero-terminated DIMACS token string, e.g. '1 -2 0'."""
        return " ".join(map(str, self._canon + (0,)))

    def sort_key(self) -> list[int]:
        """Canonical clause order as plain ints: literal l ranks 2*|l| + (l > 0),
        the same order as `literal_key` on each literal."""
        return [2 * abs(l) + (l > 0) for l in self._canon]

    def __repr__(self) -> str:
        return "Clause(%s)" % " ".join(str(l) for l in self._canon)


def as_clause(c: "Clause | Iterable[int]") -> Clause:
    return c if isinstance(c, Clause) else Clause(c)


def _litset(x: "Clause | Iterable[int]") -> frozenset[int]:
    if isinstance(x, Clause):
        return x._lits
    return frozenset(map(int, x))


# shared by every formula for a literal that occurs nowhere
_NO_OCCURRENCES: Mapping = MappingProxyType({})


class Formula:
    """A set of clauses with an occurrence index (literal -> clauses).

    Duplicate clauses collapse. Iteration order is insertion order, which is
    file order for parsed formulas; determinism everywhere else in the package
    leans on it. Equality is set equality and ignores order.

    The occurrence buckets and the unit-clause index map each clause to its
    insertion id. `add` always appends with a fresh, larger id, so a bucket
    lists its clauses in formula order without sorting, and a union of
    buckets sorts on the stored ids without hashing a clause again.
    """

    __slots__ = ("_seq", "_occ", "_units", "_next")

    def __init__(self, clauses: Iterable["Clause | Iterable[int]"] = ()):
        # the indexes `add` would build, clause by clause, in one loop
        seq: dict[Clause, int] = {}
        occ: dict[int, dict[Clause, int]] = {}
        units: dict[Clause, int] = {}
        n = 0
        for c in clauses:
            c = as_clause(c)
            if seq.setdefault(c, n) != n:
                continue  # a duplicate keeps its first id
            for l in c._canon:
                bucket = occ.get(l)
                if bucket is None:
                    occ[l] = {c: n}
                else:
                    bucket[c] = n
            if len(c._lits) == 1:
                units[c] = n
            n += 1
        self._seq = seq
        self._occ = occ
        self._units = units
        self._next = n

    def add(self, clause: "Clause | Iterable[int]") -> bool:
        """Add a clause; returns False if it was already present."""
        clause = as_clause(clause)
        if clause in self._seq:
            return False
        seq = self._seq[clause] = self._next
        self._next += 1
        for l in clause:
            self._occ.setdefault(l, {})[clause] = seq
        if len(clause) == 1:
            self._units[clause] = seq
        return True

    def remove(self, clause: "Clause | Iterable[int]") -> None:
        clause = as_clause(clause)
        del self._seq[clause]
        for l in clause:
            bucket = self._occ[l]
            del bucket[clause]
            if not bucket:
                del self._occ[l]
        self._units.pop(clause, None)

    def discard(self, clause: "Clause | Iterable[int]") -> bool:
        clause = as_clause(clause)
        if clause in self._seq:
            self.remove(clause)
            return True
        return False

    def __contains__(self, clause: object) -> bool:
        if isinstance(clause, Clause):
            return clause in self._seq
        return False

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._seq)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Formula):
            return self._seq.keys() == other._seq.keys()
        return NotImplemented

    def __repr__(self) -> str:
        return "Formula(%d clauses, %d vars)" % (len(self), len(self.variables()))

    @property
    def clauses(self) -> list[Clause]:
        return list(self._seq)

    def seq_of(self, clause: Clause) -> int:
        """Stable insertion id of a clause, usable as a deterministic sort key."""
        return self._seq[clause]

    def variables(self) -> set[int]:
        return {abs(l) for l in self._occ}

    def occurrences(self, lit: int) -> Mapping[Clause, int]:
        """The clauses containing the literal, each mapped to its insertion id,
        in insertion order.

        This is the live index bucket, not a copy: callers only read it, and
        must not hold it across a change to the formula.
        """
        return self._occ.get(lit, _NO_OCCURRENCES)

    def clauses_with(self, lit: int) -> list[Clause]:
        """All clauses containing the literal, in insertion order."""
        return list(self._occ.get(lit, ()))

    def clauses_with_any(self, lits: Iterable[int], units: bool = False) -> list[Clause]:
        """All clauses containing at least one of the literals, in insertion order.

        With units, every unit clause is included as well.
        """
        hit: dict[Clause, int] = dict(self._units) if units else {}
        for l in lits:
            bucket = self._occ.get(l)
            if bucket:
                hit.update(bucket)
        return [c for c, _ in sorted(hit.items(), key=itemgetter(1))]

    def copy(self) -> "Formula":
        """An independent copy that keeps every insertion id and bucket order."""
        out = Formula.__new__(Formula)
        out._seq = dict(self._seq)
        out._occ = {l: dict(bucket) for l, bucket in self._occ.items()}
        out._units = dict(self._units)
        out._next = self._next
        return out

    def clauses_except(self, clause: Clause) -> list[Clause]:
        """All clauses other than `clause`, in insertion order."""
        rest = dict(self._seq)
        rest.pop(clause, None)
        return list(rest)

    def without(self, clause: "Clause | Iterable[int]") -> "Formula":
        return Formula(self.clauses_except(as_clause(clause)))

    def with_clause(self, clause: "Clause | Iterable[int]") -> "Formula":
        out = self.copy()
        out.add(clause)
        return out

    def check_occ_consistent(self) -> bool:
        """Verification mode: recompute both indexes, bucket order included, and compare.

        Also checks that ids rise in formula order and that the next id
        exceeds every stored one, so a later `add` keeps buckets sorted.
        """
        want: dict[int, list[tuple[Clause, int]]] = {}
        for c, seq in self._seq.items():
            for l in c:
                want.setdefault(l, []).append((c, seq))
        have = {l: list(bucket.items()) for l, bucket in self._occ.items()}
        units = [(c, seq) for c, seq in self._seq.items() if len(c) == 1]
        ids = list(self._seq.values())
        rising = all(a < b for a, b in zip(ids, ids[1:] + [self._next]))
        return want == have and units == list(self._units.items()) and rising


class Assignment:
    """A partial truth assignment, mapping variables to 0/1.

    Immutable: all updates return new assignments. Hashable, so assignments
    can key the per-assignment witness maps of the super-blocking checker.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: "Mapping[int, int] | Assignment" = ()):
        if isinstance(mapping, Assignment):
            self._map = dict(mapping._map)
        else:
            self._map = {}
            for var, val in dict(mapping).items():
                var = int(var)
                val = int(val)
                if var < 1:
                    raise ValueError("variables are positive ints, got %r" % var)
                if val not in (0, 1):
                    raise ValueError("truth values are 0 or 1, got %r" % val)
                self._map[var] = val
        self._hash: int | None = None

    @classmethod
    def from_literals(cls, lits: Iterable[int]) -> "Assignment":
        """Build an assignment from signed literals (v true, -v false)."""
        out = {}
        for l in lits:
            var = abs(int(l))
            val = 1 if l > 0 else 0
            if out.get(var, val) != val:
                raise ValueError("conflicting literals for variable %d" % var)
            out[var] = val
        return cls(out)

    def value(self, var: int) -> int | None:
        return self._map.get(var)

    def lit_value(self, lit: int) -> int | None:
        v = self._map.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else 1 - v

    def satisfies_clause(self, clause: "Clause | Iterable[int]") -> bool:
        return any(self.lit_value(l) == 1 for l in as_clause(clause))

    def falsifies_clause(self, clause: "Clause | Iterable[int]") -> bool:
        return all(self.lit_value(l) == 0 for l in as_clause(clause))

    def variables(self) -> set[int]:
        return set(self._map)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._map.items())

    def is_total_over(self, variables: Iterable[int]) -> bool:
        return all(v in self._map for v in variables)

    def flip(self, lit: int) -> "Assignment":
        """Toggle the value of var(lit); the variable must be assigned."""
        var = abs(lit)
        if var not in self._map:
            raise ValueError("cannot flip unassigned variable %d" % var)
        out = dict(self._map)
        out[var] = 1 - out[var]
        return Assignment(out)

    def extended(self, var: int, val: int) -> "Assignment":
        """Bind one more variable; rebinding to a different value is an error."""
        old = self._map.get(var)
        if old is not None and old != int(val):
            raise ValueError("variable %d is already bound" % var)
        out = dict(self._map)
        out[var] = int(val)
        return Assignment(out)

    def restrict_to(self, variables: Iterable[int]) -> "Assignment":
        keep = set(variables)
        return Assignment({v: b for v, b in self._map.items() if v in keep})

    def to_literals(self) -> tuple[int, ...]:
        """The assignment as sorted signed literals."""
        return tuple(v if b else -v for v, b in sorted(self._map.items()))

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._map == other._map
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        return "Assignment(%s)" % " ".join(str(l) for l in self.to_literals())


def resolvent(c: "Clause | Iterable[int]", d: "Clause | Iterable[int]", pivot: int) -> Clause:
    """The resolvent of c and d upon `pivot`: (c minus pivot) joined with (d minus its complement).

    c must contain the pivot literal and d its complement.
    """
    c = as_clause(c)
    d = as_clause(d)
    if pivot not in c:
        raise ValueError("pivot %d not in first clause" % pivot)
    if -pivot not in d:
        raise ValueError("complement of pivot %d not in second clause" % pivot)
    return (c - (pivot,)) | (d - (-pivot,))


def resolution_environment(f: Formula, c: "Clause | Iterable[int]") -> list[Clause]:
    """All clauses of f that contain a literal whose complement is in c.

    These are exactly the clauses c can be resolved with. c itself qualifies
    only when it is a tautology and a member of f. Returned in formula order.
    """
    c = as_clause(c)
    return f.clauses_with_any(c.complements())


def external_variables(f: Formula, c: "Clause | Iterable[int]") -> set[int]:
    """Variables of the resolution environment that do not occur in c."""
    c = as_clause(c)
    out: set[int] = set()
    for d in resolution_environment(f, c):
        out.update(d.variables())
    return out - c.variables()


def restrict(f: Formula, assignment: Assignment) -> Formula:
    """f with every clause satisfied by the assignment removed.

    Falsified literals stay in place; only whole clauses disappear, so the
    result shrinks monotonically as the assignment grows.
    """
    return Formula(c for c in f if not assignment.satisfies_clause(c))


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is not blank or a 'c' comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line


def read_literals(tokens: Sequence[str], start: int, lineno: int) -> tuple[list[int], int | None]:
    """Read a zero-terminated literal list from tokens[start:].

    Returns the literals and the index just past the 0, or None in its place
    when the tokens ran out first; the caller decides whether the list may
    continue on the next line. Every literal-list format of the package is
    read here, so a bad token is always reported with its line.
    """
    lits: list[int] = []
    for i in range(start, len(tokens)):
        try:
            lit = int(tokens[i])
        except ValueError:
            raise ParseError("line %d: bad literal %r" % (lineno, tokens[i])) from None
        if lit == 0:
            return lits, i + 1
        lits.append(lit)
    return lits, None


class DimacsBody(NamedTuple):
    """The header and clauses of a DIMACS text, with the lines they came from."""

    header_line: int
    declared_vars: int
    declared_clauses: int
    clauses: list[Clause]
    clause_lines: list[int]

    def check_counts(self, max_var: int, strict: bool) -> None:
        """Compare the header counts with the content: warn, or raise under strict."""
        problems = []
        if max_var > self.declared_vars:
            problems.append("declared %d variables but found id %d" % (self.declared_vars, max_var))
        parsed = len(self.clauses)
        if parsed != self.declared_clauses:
            problems.append("declared %d clauses, parsed %d" % (self.declared_clauses, parsed))
        for msg in problems:
            msg = "line %d: %s" % (self.header_line, msg)
            if strict:
                raise ParseError(msg)
            warnings.warn(msg, stacklevel=3)


def read_dimacs_body(
    source: "str | bytes",
    prefix: "Callable[[int, list[str]], bool] | None" = None,
) -> DimacsBody:
    """Read a 'p cnf V C' header, then clauses up to an optional '%' end marker.

    A clause may span lines. `prefix(lineno, tokens)` is offered every line
    after the header and returns True for lines it consumed itself (the
    QDIMACS quantifier lines); all other lines are clause data. Errors that
    belong to no single line name the last line read.
    """
    text = source.decode("utf-8", errors="replace") if isinstance(source, bytes) else source
    header: "tuple[int, int, int] | None" = None
    clauses: list[Clause] = []
    clause_lines: list[int] = []
    pending: list[int] = []
    lineno = 1
    for lineno, line in numbered_lines(text):
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header is not None:
                raise ParseError("line %d: duplicate header line" % lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError("line %d: malformed header: %r" % (lineno, line))
            try:
                header = (lineno, int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("line %d: malformed header: %r" % (lineno, line)) from None
            if header[1] < 0 or header[2] < 0:
                raise ParseError("line %d: negative counts in header: %r" % (lineno, line))
            continue
        if header is None:
            raise ParseError("line %d: clause data before header: %r" % (lineno, line))
        toks = line.split()
        if prefix is not None and prefix(lineno, toks):
            continue
        if not pending:
            # fast path: a line holding exactly one zero-terminated clause;
            # any other line, bad tokens included, goes the general way
            try:
                lits = list(map(int, toks))
            except ValueError:
                lits = []
            if lits and lits[-1] == 0 and lits.count(0) == 1:
                lits.pop()
                clauses.append(Clause(lits))
                clause_lines.append(lineno)
                continue
        start: "int | None" = 0
        while start is not None and start < len(toks):
            lits, start = read_literals(toks, start, lineno)
            pending.extend(lits)
            if start is not None:
                clauses.append(Clause(pending))
                clause_lines.append(lineno)
                pending = []
    if pending:
        raise ParseError("line %d: unterminated clause at end of input" % lineno)
    if header is None:
        raise ParseError("line %d: missing header" % lineno)
    return DimacsBody(*header, clauses, clause_lines)


def parse_dimacs(source: "str | bytes", strict: bool = False) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Duplicate literals within a clause and duplicate clauses across the file
    collapse silently (set semantics). Tautologies are kept. Comment lines,
    blank lines, and a trailing '%' end marker are ignored. A mismatch between
    the declared header counts and the actual content warns by default and
    raises ParseError under strict=True. Hard errors regardless of strictness:
    missing/malformed header, non-integer tokens, an unterminated final clause.
    Every ParseError message starts with the line it concerns.
    """
    body = read_dimacs_body(source)
    body.check_counts(_max_variable(body.clauses), strict)
    return Formula(body.clauses)


def _max_variable(clauses: Iterable[Clause]) -> int:
    """The largest variable id in the clauses, 0 if there is none."""
    # a canonical clause ends with its largest variable
    return max((abs(c._canon[-1]) for c in clauses if c._canon), default=0)


def write_dimacs(f: Formula) -> str:
    """Serialize a formula as DIMACS CNF with canonically ordered clauses."""
    body = sorted(f, key=Clause.sort_key)
    lines = ["p cnf %d %d" % (_max_variable(body), len(body))]
    lines.extend(c.dimacs() for c in body)
    return "\n".join(lines) + "\n"
