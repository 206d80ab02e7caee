"""CNF core: signed-integer literals, clauses, formulas, assignments, DIMACS text.

Literals are nonzero Python ints in the DIMACS convention: variable v appears
as v (positive) or -v (negative), and -l is the complement of l. The canonical
literal order is by variable id, with the negative literal before the positive
one; clauses iterate in that order so every search and witness in the package
is deterministic.

A `Clause` is a frozenset of int literals that iterates in canonical order.
Its operators `|`, `-` and `&` return a `Clause`; the inherited methods
(`union`, `difference`, `intersection`, ...) return a plain frozenset. Hash
and equality are frozenset's, so a `Clause` equals the frozenset of its
literals; a `Formula` still holds and finds only `Clause` objects. Set
operations take a `Clause` as the receiver (`clause.isdisjoint(s)`, not
`s.isdisjoint(clause)`), because CPython's fast path for a set argument
needs an exact set or frozenset, and any other argument is walked through
the Python-level `Clause.__iter__`.

A `Formula` builds its occurrence index on first use. `parse_dimacs` reads
plain int clause data in one bulk pass and other text with `read_dimacs_body`,
the walk that every DIMACS ParseError and count warning comes from.
"""

from __future__ import annotations

import re
import warnings
from operator import itemgetter, neg
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, KeysView, Mapping, NamedTuple, Sequence

from .errors import ParseError


def literal_key(lit: int) -> tuple[int, bool]:
    """Canonical sort key for literals: by variable, negative before positive."""
    return (abs(lit), lit > 0)


# a Clause's own members, before it has its canonical order
_frozenset_iter = frozenset.__iter__


def _canonical(cls: type, lits: list[int]) -> "Clause":
    """The `cls` (a Clause) of the int literals in `lits`, a fresh list that
    the caller gives up: it becomes the canonical order. `Clause()` and the
    DIMACS bulk reader both build clauses here."""
    self = frozenset.__new__(cls, lits)
    if len(self) != len(lits):  # duplicates: order the members instead
        lits = list(_frozenset_iter(self))
    # a stable sort by variable keeps the negative literal (the smaller
    # int) first, which is the canonical order; 0 would sort first
    lits.sort()
    lits.sort(key=abs)
    if lits and not lits[0]:
        raise ValueError("0 is not a literal")
    self._canon = tuple(lits)
    self._taut = not self.isdisjoint(map(neg, lits))
    return self


class Clause(frozenset):
    """A duplicate-free set of literals, iterated in canonical order.

    Construction deduplicates and rejects 0. The operators `|`, `-` and `&`
    take any iterable of literals and return a Clause; everything else,
    equality with a plain frozenset included, is frozenset's (see the module
    docstring). The empty clause is representable (and is never a
    tautology).

    `_canon` holds the literals in canonical order and `_taut` whether the
    clause is a tautology; only `_canonical` sets them, once per clause.
    """

    __slots__ = ("_canon", "_taut")

    def __new__(cls, literals: Iterable[int] = ()):
        return _canonical(cls, list(map(int, literals)))

    @property
    def literals(self) -> tuple[int, ...]:
        return self._canon

    def __iter__(self) -> Iterator[int]:
        return iter(self._canon)

    def __or__(self, other: Iterable[int]) -> "Clause":
        return Clause(self.union(other))

    def __sub__(self, other: Iterable[int]) -> "Clause":
        return Clause(self.difference(other))

    def __and__(self, other: Iterable[int]) -> "Clause":
        return Clause(self.intersection(other))

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, self._canon))

    def complements(self) -> frozenset[int]:
        """The set of complements of this clause's literals."""
        return frozenset(map(neg, self._canon))

    def is_tautology(self) -> bool:
        return self._taut

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


# shared by every formula for a literal that occurs nowhere
_NO_OCCURRENCES: Mapping = MappingProxyType({})


class Formula:
    """A set of clauses with an occurrence index (literal -> clauses).

    Duplicate clauses collapse. Iteration order is insertion order, which is
    file order for parsed formulas; determinism everywhere else in the package
    leans on it. Equality is set equality and ignores order.

    The constructor numbers its clauses 0, 1, ... and `add` gives a new
    clause the next, larger id; the occurrence buckets and the unit-clause
    index map each clause to its id, so a bucket lists its clauses in formula
    order without sorting, and a union of buckets sorts on the stored ids
    without hashing a clause again. Both indexes are None until the first
    lookup builds them (`_index`); `add` and `remove` keep them only once
    built, and a copy of an unindexed formula is unindexed.

    Two slots hold what other modules derive from the formula, or None; the
    formula only maintains them. `kept` holds a mutable value that belongs
    to this formula alone, so `copy` leaves it out: `add` sets it to None,
    `remove(D)` replaces it with `kept.removed(self, D)`, and
    `check_occ_consistent` asks `kept.holds(self)`. `compiled` holds an
    immutable value that depends on one clause's resolution environment:
    `copy` shares it, `add` and `remove` set it to None, and
    `check_occ_consistent` asks `compiled.holds(self)`. `answers` holds a
    dict only while `engine.classify` works on one row: classify puts a
    fresh one there before the row's cells and None back after them, also
    when a cell raises, and the checks answer a question they asked before
    in that row from it. `copy`, `add` and `remove` leave it None.
    """

    __slots__ = ("_seq", "_occ", "_units", "_next", "kept", "compiled", "answers")

    def __init__(self, clauses: Iterable["Clause | Iterable[int]"] = ()):
        seq = dict.fromkeys(map(as_clause, clauses))  # a duplicate keeps its first place
        self._seq: dict[Clause, int] = dict(zip(seq, range(len(seq))))
        self._next = len(seq)
        self._occ: "dict[int, dict[Clause, int]] | None" = None
        self._units: "dict[Clause, int] | None" = None
        self.kept = None
        self.compiled = None
        self.answers = None

    def _index(self) -> dict[int, dict[Clause, int]]:
        """The occurrence index, built with the unit index if it is None."""
        if self._occ is None:
            self._occ, self._units = {}, {}
            self._put(self._seq.items())
        return self._occ

    def _put(self, items: Iterable[tuple[Clause, int]]) -> None:
        """Enter (clause, id) pairs, ids rising, into both indexes."""
        occ, units = self._occ, self._units
        for c, n in items:
            for l in c._canon:
                bucket = occ.get(l)
                if bucket is None:
                    occ[l] = {c: n}
                else:
                    bucket[c] = n
            if len(c) == 1:
                units[c] = n

    def add(self, clause: "Clause | Iterable[int]") -> bool:
        """Add a clause; returns False if it was already present."""
        c = as_clause(clause)
        if c in self._seq:
            return False
        n = self._next
        self._seq[c] = n
        if self._occ is not None:
            self._put(((c, n),))
        self._next = n + 1
        self.kept = self.compiled = self.answers = None
        return True

    def remove(self, clause: "Clause | Iterable[int]") -> None:
        clause = as_clause(clause)
        del self._seq[clause]
        occ = self._occ
        if occ is not None:
            for l in clause._canon:
                bucket = occ[l]
                del bucket[clause]
                if not bucket:
                    del occ[l]
            self._units.pop(clause, None)
        self.compiled = self.answers = None
        kept, self.kept = self.kept, None  # a commit cut short leaves the slot empty
        if kept is not None:
            self.kept = kept.removed(self, clause)

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
        occ = self._occ
        return set(map(abs, frozenset().union(*self._seq) if occ is None else occ))

    def occurrences(self, lit: int) -> Mapping[Clause, int]:
        """The clauses containing the literal, each mapped to its insertion id,
        in insertion order.

        This is the live index bucket, not a copy: callers only read it, and
        must not hold it across a change to the formula.
        """
        occ = self._occ
        if occ is None:
            occ = self._index()
        return occ.get(lit, _NO_OCCURRENCES)

    def unit_clauses(self) -> KeysView[Clause]:
        """The unit clauses in insertion order: a live view, not a copy, held
        like `occurrences`."""
        self._index()
        return self._units.keys()

    def clauses_with_any(self, lits: Iterable[int], units: bool = False) -> list[Clause]:
        """All clauses containing at least one of the literals, in insertion order.

        With units, every unit clause is included as well.
        """
        occ = self._index()
        hit: dict[Clause, int] = dict(self._units) if units else {}
        for l in lits:
            bucket = occ.get(l)
            if bucket:
                hit.update(bucket)
        return [c for c, _ in sorted(hit.items(), key=itemgetter(1))]

    def copy(self) -> "Formula":
        """An independent copy, ids and bucket order kept; unindexed if this is."""
        out = Formula.__new__(Formula)
        out._seq = dict(self._seq)
        out._next = self._next
        out.kept = out.answers = None
        out.compiled = self.compiled
        occ = self._occ
        out._occ = None if occ is None else {l: dict(bucket) for l, bucket in occ.items()}
        out._units = None if occ is None else dict(self._units)
        return out

    def without(self, clause: "Clause | Iterable[int]") -> "Formula":
        """All clauses other than `clause`, in insertion order."""
        rest = dict(self._seq)
        rest.pop(as_clause(clause), None)
        return Formula(rest)

    def with_clause(self, clause: "Clause | Iterable[int]") -> "Formula":
        out = self.copy()
        out.add(clause)
        return out

    def check_occ_consistent(self) -> bool:
        """Verification mode: recompute both indexes, bucket order included, and compare.

        Also checks that ids rise in formula order and that the next id
        exceeds every stored one, so a later `add` keeps buckets sorted, and
        that the kept and compiled values, if any, hold for the formula
        (`kept.holds`, `compiled.holds`).
        """
        want: dict[int, list[tuple[Clause, int]]] = {}
        for c, seq in self._seq.items():
            for l in c:
                want.setdefault(l, []).append((c, seq))
        have = {l: list(bucket.items()) for l, bucket in self._index().items()}
        units = [(c, seq) for c, seq in self._seq.items() if len(c) == 1]
        ids = list(self._seq.values())
        rising = all(a < b for a, b in zip(ids, ids[1:] + [self._next]))
        fresh = (self.kept is None or self.kept.holds(self)) and (
            self.compiled is None or self.compiled.holds(self)
        )
        return want == have and units == list(self._units.items()) and rising and fresh


class Assignment:
    """A partial truth assignment, mapping variables to 0/1.

    Immutable: nothing changes it once it is built. It compares and hashes
    by its (variable, value) pairs.
    """

    __slots__ = ("_map",)

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

    @classmethod
    def from_literals(cls, lits: Iterable[int]) -> "Assignment":
        """Build an assignment from signed literals (v true, -v false), each read once."""
        out: dict[int, int] = {}
        for l in map(int, lits):
            val = 1 if l > 0 else 0
            if out.setdefault(abs(l), val) != val:
                raise ValueError("conflicting literals for variable %d" % abs(l))
        if 0 in out:
            raise ValueError("variables are positive ints, got 0")
        self = cls.__new__(cls)
        self._map = out
        return self

    def value(self, var: int) -> int | None:
        return self._map.get(var)

    def lit_value(self, lit: int) -> int | None:
        v = self._map.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else 1 - v

    def satisfies_clause(self, clause: "Clause | Iterable[int]") -> bool:
        return any(self.lit_value(l) == 1 for l in as_clause(clause))

    def variables(self) -> set[int]:
        return set(self._map)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._map.items())

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
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        return "Assignment(%s)" % " ".join(str(l) for l in self.to_literals())


def assignment_index(variables: Iterable[int], value: Callable[[int], int]) -> int:
    """The index of the assignment `value` (0 or 1, or a bool) gives the sorted
    `variables`: the smallest variable is the highest bit. Counting indexes
    upward walks the assignments in lexicographic order, false before true,
    which keeps first models, first failing assignments and restriction
    tables reproducible across the package."""
    m = 0
    for v in variables:
        m = (m << 1) | value(v)
    return m


def assignment_at(variables: Sequence[int], m: int) -> Assignment:
    """The assignment to the sorted `variables` with index m: the inverse of
    `assignment_index`."""
    top = len(variables) - 1
    return Assignment({v: (m >> (top - i)) & 1 for i, v in enumerate(variables)})


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


def split_lines(text: str) -> list[str]:
    """The lines of a text, broken at "\\n", "\\r\\n" and "\\r" only.

    This is the package's one line rule: every reader numbers lines by it.
    A form feed, NEL or Unicode line separator is whitespace inside a line,
    so one in a comment leaves the rest of the comment a comment.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is not blank or a 'c'
    comment; lines are those of `split_lines`."""
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line


def read_literals(tokens: Sequence[str], start: int, lineno: int) -> tuple[list[int], int | None]:
    """Read a zero-terminated literal list from tokens[start:].

    Returns the literals and the index just past the 0, or None in its place
    when the tokens ran out first; the caller decides whether the list may
    continue on the next line. Every reader of literal tokens (DIMACS,
    QDIMACS, traces, models, `--clause`) reports a bad one through the
    walk below, so always with its line. The one reader that does not call
    this function, `_read_in_bulk` for plain DIMACS clause data, takes only
    text that `read_dimacs_body` reads the same way, and leaves the rest,
    errors included, to it.

    Ints up to a "0" token are read with one `index` and one `map(int)`;
    anything else (a bad token, "-0", "00" or "+0" as the terminator, no
    terminator) is walked token by token, so results and errors are the walk's.
    """
    try:
        end = tokens.index("0", start)
        lits = list(map(int, tokens[start:end]))
    except ValueError:
        pass
    else:
        if 0 not in lits:
            return lits, end + 1
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


class DimacsBody(NamedTuple):
    """The header and clauses of a DIMACS text, with the lines they came from
    (None from the bulk reader of `parse_dimacs`, which has no use for them)."""

    header_line: int
    declared_vars: int
    declared_clauses: int
    clauses: list[Clause]
    clause_lines: "list[int] | None"

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


def decode_text(data: bytes) -> str:
    """The UTF-8 text of an input; a byte that is not UTF-8 raises ParseError
    naming its line. Every reader of `bytes` input decodes through here.
    Lines are counted by `split_lines`, as the readers count them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = len(split_lines(data[:at].decode("utf-8")))
        raise ParseError("line %d: byte 0x%02x is not UTF-8 text" % (line, data[at])) from exc


def read_dimacs_body(
    source: "str | bytes",
    prefix: "Callable[[int, list[str]], bool] | None" = None,
) -> DimacsBody:
    """Read a 'p cnf V C' header, then clauses up to an optional '%' end marker.

    Lines are those of `split_lines`, and each is split into tokens once.
    Blank lines and lines whose first token starts with 'c' are skipped; a
    first token starting with '%' ends the input and one starting with 'p'
    is the header. Any other line before the header is an error. After it,
    `prefix(lineno, tokens)` is offered every such line and returns True for
    lines it consumed itself (the QDIMACS quantifier lines); all other lines
    are clause data, and a clause may span lines. Errors that belong to no
    single line name the last line read that was not blank or a comment.
    `bytes` must be UTF-8 text (see `decode_text`).
    """
    text = decode_text(source) if isinstance(source, bytes) else source
    header: "tuple[int, int, int] | None" = None
    clauses: list[Clause] = []
    clause_lines: list[int] = []
    pending: list[int] = []
    lineno = 1
    for i, raw in enumerate(split_lines(text), 1):
        toks = raw.split()
        first = toks[0][0] if toks else "c"  # a blank line is skipped like a comment
        if first == "c":
            continue
        lineno = i
        if first == "%":
            break
        if first == "p":
            if header is not None:
                raise ParseError("line %d: duplicate header line" % lineno)
            if len(toks) != 4 or toks[0] != "p" or toks[1] != "cnf":
                raise ParseError("line %d: malformed header: %r" % (lineno, raw.strip()))
            try:
                header = (lineno, int(toks[2]), int(toks[3]))
            except ValueError:
                raise ParseError("line %d: malformed header: %r" % (lineno, raw.strip())) from None
            if header[1] < 0 or header[2] < 0:
                raise ParseError("line %d: negative counts in header: %r" % (lineno, raw.strip()))
            continue
        if header is None:
            raise ParseError("line %d: clause data before header: %r" % (lineno, raw.strip()))
        if prefix is not None and prefix(lineno, toks):
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


def _read_in_bulk(text: str) -> "DimacsBody | None":
    """`read_dimacs_body(text)` by one split, one `map(int)` and a cut at each
    0 after the header's line (the first not blank or a comment, read by the
    walk); None unless those are ints ending in a 0. Exact: every line the
    walk does not read as clause data opens with a token starting with 'c',
    '%' or 'p', which `int` rejects, and both read tokens with `int`."""
    at = 0
    for end in re.finditer(r"\r\n?|\n", text):  # the line ends of `split_lines`
        toks = text[at:end.start()].split()
        at = end.end()
        if toks and toks[0][0] != "c":
            break
    else:
        return None  # no line end after the header: nothing to read in bulk
    try:
        lits = list(map(int, text[at:].split()))
    except ValueError:
        return None
    if not lits or lits[-1]:
        return None
    head = read_dimacs_body(text[:at])
    clauses, start = [], 0
    while start < len(lits):
        end = lits.index(0, start)
        clauses.append(_canonical(Clause, lits[start:end]))
        start = end + 1
    return head._replace(clauses=clauses, clause_lines=None)


def parse_dimacs(source: "str | bytes", strict: bool = False) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Duplicate literals within a clause and duplicate clauses across the file
    collapse silently (set semantics). Tautologies are kept. Comment lines,
    blank lines, and a trailing '%' end marker are ignored. A mismatch between
    the declared header counts and the actual content warns by default and
    raises ParseError under strict=True. Hard errors regardless of strictness:
    missing/malformed header, non-integer tokens, an unterminated final clause.
    Every ParseError message starts with the line it concerns; `bytes` input
    that is not UTF-8 text is a ParseError too (see `decode_text`).

    Clause data of plain ints ending in a 0 is read in bulk (`_read_in_bulk`),
    other text by `read_dimacs_body`; the formula is returned unindexed.
    """
    text = decode_text(source) if isinstance(source, bytes) else source
    body = _read_in_bulk(text) or read_dimacs_body(text)
    # a clause's canonical order ends with its largest variable
    body.check_counts(max((abs(c._canon[-1]) for c in body.clauses if c), default=0), strict)
    return Formula(body.clauses)


def write_dimacs(f: Formula) -> str:
    """Serialize a formula as DIMACS CNF with canonically ordered clauses."""
    body = sorted(f, key=Clause.sort_key)
    lines = ["p cnf %d %d" % (max(f.variables(), default=0), len(body))]
    lines.extend(map(Clause.dimacs, body))
    return "\n".join(lines) + "\n"
