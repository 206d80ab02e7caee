"""Command-line front end.

One subcommand per job: check (one property, one clause), classify (full
matrix), eliminate (fixpoint removal + trace), reconstruct (model repair),
encode-qbf, solve-brute, gen-reduction, gen-random.

Exit codes are part of the contract: verdict commands exit 0 on a positive
verdict (blocked / redundant / satisfiable), 1 on a negative one, and 2
when a cap prevented a complete answer. 64 flags a usage problem, 65 a
malformed input file, 66 an input file that could not be read, 70 a cap or
resource limit hit somewhere a verdict exit would be misleading, and 74 an
output file that could not be written. Verdict lines are single
lines with a fixed token order, so scripts can split on whitespace.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache
from random import Random

from .blocking import EXT_CAP, check_super_blocked, is_set_blocked
from .cnf import Clause, Formula, decode_text, parse_dimacs, read_literals, write_dimacs
from .engine import (
    ORDERS,
    PROPERTIES,
    EliminationConfig,
    EliminationTrace,
    check_property,
    classify,
    eliminate_clauses,
    parse_model,
    reconstruct_model,
    write_model,
)
from .errors import CapExceeded, ParseError, ReconstructionError, ResourceLimit
from .gen import random_formula
from .oracle import DEFAULT_CAP, first_model, is_redundant, is_semantically_blocked_oracle
from .reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)
from .varelim import encode_qbf, parse_qdimacs, sem_blocked_via_elimination, write_qdimacs

CHECKABLE = PROPERTIES + ("varelim", "sem-oracle", "redundant-oracle")

# properties whose verdict reads BLOCKED / NOT-BLOCKED; the rest read REDUNDANT
_BLOCKING = ("bc", "setbc", "supbc", "varelim", "sem-oracle")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _InputError(Exception):
    """An input file could not be read (exit 66)."""


class _OutputError(Exception):
    """An output file could not be written (exit 74)."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        where = "standard input" if path == "-" else path
        raise _InputError("cannot read %s: %s" % (where, exc.strerror or exc)) from exc
    return decode_text(data)


def _write_out(path: "str | None", text: str) -> None:
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        where = "standard output" if path in (None, "-") else path
        raise _OutputError("cannot write %s: %s" % (where, exc.strerror or exc)) from exc


def _load_formula(path: str, strict: bool) -> Formula:
    return parse_dimacs(_read_text(path), strict=strict)


def _parse_clause_arg(text: str) -> Clause:
    toks = text.split()
    try:
        lits, end = read_literals(toks, 0, 1)
    except ParseError as exc:
        raise _UsageError("--clause %r: %s" % (text, exc)) from exc
    if end not in (None, len(toks)):
        raise _UsageError("literal 0 may only terminate --clause")
    return Clause(lits)


def _pick_clause(ns, f: Formula) -> Clause:
    if (ns.clause is None) == (ns.clause_index is None):
        raise _UsageError("exactly one of --clause / --clause-index is required")
    if ns.clause is not None:
        return _parse_clause_arg(ns.clause)
    clauses = f.clauses
    if not 0 <= ns.clause_index < len(clauses):
        raise _UsageError(
            "--clause-index out of range (formula has %d clauses)" % (len(clauses),)
        )
    return clauses[ns.clause_index]


def _refuse_tautology(ns, c: Clause, command: str) -> None:
    """The elimination characterization (`varelim`, `encode-qbf`) applies
    to non-tautological clauses only."""
    if c.is_tautology():
        flag = "--clause" if ns.clause is not None else "--clause-index"
        raise _UsageError("%s names a tautology; %s takes non-tautological clauses only" % (flag, command))


def _lits(values) -> str:
    """Each value after a blank, so a line ending in an empty list ends at
    its last word."""
    return "".join(" %d" % v for v in values)


def _int_at_least(low: int, word: str):
    """An argparse type: an int of at least `low`, else "must be <word>"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be " + word)
        return value

    return parse


_positive = _int_at_least(1, "positive")
_non_negative = _int_at_least(0, "non-negative")


def _decide(ns, f: Formula, c: Clause):
    """(verdict, witness, failing restriction) for the property asked.

    Raises CapExceeded when an enumeration would pass its cap.
    """
    prop = ns.property
    if prop == "varelim":
        _refuse_tautology(ns, c, "--property varelim")
        return sem_blocked_via_elimination(f, c), None, None
    if prop == "sem-oracle":
        return is_semantically_blocked_oracle(f, c, ns.cap), None, None
    if prop == "redundant-oracle":
        return is_redundant(f, c, ns.cap), None, None
    # setbc and supbc call the deciders by these module names, which the
    # benchmark's tracer wraps; supbc also needs the failing restriction
    if prop == "setbc":
        w = is_set_blocked(f, c, ns.k)
        return w is not None, w, None
    if prop == "supbc":
        sample = None if ns.incomplete is None else (Random(ns.seed), ns.incomplete)
        res = check_super_blocked(f, c, ns.k, ns.ext_cap, sample)
        return res.blocked, res.witness, res.failing_tau
    ok, w = check_property(f, c, EliminationConfig(property=prop, k=ns.k, ext_cap=ns.ext_cap))
    return ok, w, None


def _positive_answer(word: str, w) -> str:
    if w is None:
        return word
    if w.kind == "literal":
        return "%s witness-literal %d" % (word, w.literal)
    if w.kind == "set":
        return "%s witness-set%s" % (word, _lits(w.blocking_set))
    lines = ["%s witness-per-tau %d" % (word, len(w.per_tau))]
    lines.extend("tau %s set %s" % (tau, s.dimacs()) for tau, s in w.per_tau.rows())
    return "\n".join(lines)


def _cmd_check(ns) -> int:
    f = _load_formula(ns.path, ns.strict)
    c = _pick_clause(ns, f)
    word = "BLOCKED" if ns.property in _BLOCKING else "REDUNDANT"
    try:
        ok, w, tau = _decide(ns, f, c)
    except CapExceeded as exc:
        if ns.property == "supbc" and ns.incomplete is not None:
            # every sample was taken, and none refuted
            print("UNKNOWN sampled %d" % (ns.incomplete,))
        else:
            print("UNKNOWN cap-exceeded %d" % (exc.count,))
        return 2
    if ok:
        print(_positive_answer(word, w))
        return 0
    print("NOT-" + word + ("" if tau is None else " failing-tau" + _lits(tau.to_literals())))
    return 1


def _cmd_classify(ns) -> int:
    f = _load_formula(ns.path, ns.strict)
    props = None
    if ns.property:
        props = []
        for chunk in ns.property:
            props.extend(p for p in chunk.split(",") if p)
        if not props:
            raise _UsageError("--property names no property")
        for i, p in enumerate(props):
            if p not in PROPERTIES:
                raise _UsageError("unknown property %r" % (p,))
            if p in props[:i]:
                raise _UsageError("--property names %r twice" % (p,))
    report = classify(f, props, k=ns.k, ext_cap=ns.ext_cap)
    _write_out(ns.out, report.to_tsv())
    return 0


def _cmd_eliminate(ns) -> int:
    f = _load_formula(ns.path, ns.strict)
    cfg = EliminationConfig(
        property=ns.property,
        k=ns.k,
        ext_cap=ns.ext_cap,
        clause_order=ns.order,
        rounds_cap=ns.rounds,
        compact_witnesses=ns.compact,
    )
    simplified, trace = eliminate_clauses(f, cfg)
    _write_out(ns.out, write_dimacs(simplified))
    if ns.trace:
        _write_out(ns.trace, trace.to_text())
    return 0


def _cmd_reconstruct(ns) -> int:
    original = _load_formula(ns.path, ns.strict)
    trace = EliminationTrace.from_text(_read_text(ns.trace))
    model = parse_model(_read_text(ns.model))
    repaired = reconstruct_model(trace, original, model)
    _write_out(ns.out, write_model(repaired))
    return 0


def _cmd_encode_qbf(ns) -> int:
    f = _load_formula(ns.path, ns.strict)
    c = _pick_clause(ns, f)
    _refuse_tautology(ns, c, "encode-qbf")
    _write_out(ns.out, write_qdimacs(encode_qbf(f, c)))
    return 0


def _cmd_solve_brute(ns) -> int:
    f = _load_formula(ns.path, ns.strict)
    model = first_model(f, cap=ns.cap)
    if model is None:
        print("UNSAT")
        return 1
    print("SAT")
    _write_out(ns.out, write_model(model))
    return 0


def _cmd_gen_reduction(ns) -> int:
    if ns.out == "-" and ns.clause_out is None:
        raise _UsageError("--out - needs --clause-out: there is no <out>.clause beside stdout")
    if ns.kind == "qbf2supbc":
        q = parse_qdimacs(_read_text(ns.path), strict=ns.strict)
        inst = forall_exists_to_superblocking(q)
    elif ns.kind == "sat2setbc":
        inst = sat_to_setblocking(_load_formula(ns.path, ns.strict))
    else:
        inst = unsat_to_1superblocking(_load_formula(ns.path, ns.strict))
    comments = ["c reduction %s" % (ns.kind,)]
    comments.append("c map selectors%s" % (_lits(inst.selectors),))
    for v in sorted(inst.primes):
        comments.append("c map prime %d %d" % (v, inst.primes[v]))
    _write_out(ns.out, "".join(line + "\n" for line in comments) + write_dimacs(inst.formula))
    clause_out = ns.clause_out or (ns.out + ".clause")
    _write_out(clause_out, inst.clause.dimacs() + "\n")
    return 0


def _cmd_gen_random(ns) -> int:
    f = random_formula(Random(ns.seed), ns.vars, ns.clauses, ns.width)
    _write_out(ns.out, "c seed %d\n" % (ns.seed,) + write_dimacs(f))
    return 0


@cache
def _build_parser() -> _Parser:
    # Built once per process: parsing leaves the tree untouched, and a fresh
    # tree per call costs milliseconds and leaves its cyclic links to the
    # garbage collector.
    top = _Parser(prog="blockcheck", description="local redundancy checks for CNF clauses")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def clause_opts(p):
        p.add_argument("--clause", help='clause under test as literals, e.g. "1 2 0"')
        p.add_argument("--clause-index", type=int, help="0-based index into the input formula")

    p = sub.add_parser("check", help="decide one property for one clause")
    p.add_argument("path", help="DIMACS file, or - for stdin")
    p.add_argument("--property", required=True, choices=CHECKABLE)
    clause_opts(p)
    p.add_argument("--k", type=_positive, help="bound on blocking-set size")
    p.add_argument("--ext-cap", type=_non_negative, default=EXT_CAP)
    p.add_argument("--cap", type=_non_negative, default=DEFAULT_CAP, help="oracle variable cap")
    p.add_argument("--incomplete", type=_positive, metavar="N",
                   help="past the cap, sample N restrictions instead (supbc only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="property matrix for every clause")
    p.add_argument("path")
    p.add_argument("--property", action="append",
                   help="property to include (repeatable, comma-separable); default all")
    p.add_argument("--k", type=_positive)
    p.add_argument("--ext-cap", type=_non_negative, default=EXT_CAP)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eliminate", help="remove redundant clauses to fixpoint")
    p.add_argument("path")
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--k", type=_positive)
    p.add_argument("--ext-cap", type=_non_negative, default=EXT_CAP)
    p.add_argument("--order", choices=ORDERS, default=EliminationConfig.clause_order)
    p.add_argument("--rounds", type=_positive, default=EliminationConfig.rounds_cap)
    p.add_argument("--compact", action="store_true",
                   help="store super-blocking witnesses compactly (recompute at repair)")
    p.add_argument("--out")
    p.add_argument("--trace", help="write the removal trace to this file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("reconstruct", help="repair a model of the simplified formula")
    p.add_argument("path", help="the original DIMACS file")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("encode-qbf", help="two-block QBF equivalent to semantic blocking")
    p.add_argument("path")
    clause_opts(p)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_encode_qbf)

    p = sub.add_parser("solve-brute", help="brute-force satisfiability")
    p.add_argument("path")
    p.add_argument("--cap", type=_non_negative, default=DEFAULT_CAP)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_solve_brute)

    p = sub.add_parser("gen-reduction", help="build a blocking instance from a source problem")
    p.add_argument("kind", choices=("sat2setbc", "qbf2supbc", "unsat2ksupbc"))
    p.add_argument("path", help="DIMACS (QDIMACS for qbf2supbc)")
    p.add_argument("--out", required=True)
    p.add_argument("--clause-out", help="sidecar file for the clause (default: <out>.clause)")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_gen_reduction)

    p = sub.add_parser("gen-random", help="seeded random CNF")
    p.add_argument("--vars", type=_positive, default=8)
    p.add_argument("--clauses", type=_non_negative, default=12)
    p.add_argument("--width", type=_positive, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_random)

    return top


# (exception class, exit code); the first row the exception is an instance
# of gives the code. ParseError is a ValueError, so it comes first.
_EXITS: tuple[tuple[type[Exception], int], ...] = (
    (_UsageError, 64),
    (ParseError, 65),
    (_InputError, 66),
    (_OutputError, 74),
    (CapExceeded, 70),
    (ResourceLimit, 70),
    (ReconstructionError, 70),
    (ValueError, 64),
)


def run(argv: "list[str] | None" = None) -> int:
    # A command's data holds no reference cycles (tests/test_cli.py checks it), so
    # the cyclic collector would only walk its large heap; the caller's state comes back.
    was = gc.isenabled()
    gc.disable()
    try:
        ns = _build_parser().parse_args(argv)
        return ns.func(ns)
    except tuple(cls for cls, _ in _EXITS) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return next(code for cls, code in _EXITS if isinstance(exc, cls))
    finally:
        if was:
            gc.enable()


def main() -> None:
    sys.exit(run())
