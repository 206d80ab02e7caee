"""Command-line front end.

One subcommand per job: check (one property, one clause), classify (full
matrix), eliminate (fixpoint removal + trace), reconstruct (model repair),
encode-qbf, solve-brute, gen-reduction, gen-random.

Exit codes are part of the contract: verdict commands exit 0 on a positive
verdict (blocked / redundant / satisfiable), 1 on a negative one, and 2
when a cap prevented a complete answer. 64 flags a usage problem, 65 a
malformed input file, 66 a missing file, and 70 a cap or resource limit
hit somewhere a verdict exit would be misleading. Verdict lines are single
lines with a fixed token order, so scripts can split on whitespace.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from random import Random

from .blocking import (
    check_super_blocked,
    is_literal_blocked,
    is_set_blocked,
    sample_super_blocked,
)
from .cnf import Clause, Formula, parse_dimacs, read_literals, write_dimacs
from .engine import (
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
from .oracle import first_model, is_redundant, is_semantically_blocked_oracle
from .reductions import (
    forall_exists_to_superblocking,
    sat_to_setblocking,
    unsat_to_1superblocking,
)
from .varelim import encode_qbf, parse_qdimacs, sem_blocked_via_elimination, write_qdimacs

CHECKABLE = PROPERTIES + ("varelim", "sem-oracle", "redundant-oracle")

_REDUNDANCY_TAGS = ("t", "s", "at", "as", "abc", "rt", "rs", "rat", "ras")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            "line %d: byte 0x%02x is not UTF-8 text" % (line, data[exc.start])
        ) from exc


def _write_out(path: "str | None", text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _check_cap_arg(ns) -> None:
    if ns.cap < 0:
        raise _UsageError("--cap must be non-negative")


def _lits(values) -> str:
    return " ".join(str(v) for v in values)


def _cmd_check(ns) -> int:
    prop = ns.property
    cfg = None
    if prop in PROPERTIES:
        cfg = EliminationConfig(property=prop, k=ns.k, ext_cap=ns.ext_cap)
    if ns.incomplete is not None and ns.incomplete < 1:
        raise _UsageError("--incomplete must be positive")
    _check_cap_arg(ns)
    f = _load_formula(ns.path, ns.strict)
    c = _pick_clause(ns, f)

    if prop == "bc":
        w = is_literal_blocked(f, c)
        if w is not None:
            print("BLOCKED witness-literal %d" % (w.literal,))
            return 0
        print("NOT-BLOCKED")
        return 1

    if prop == "setbc":
        w = is_set_blocked(f, c, cfg.k)
        if w is not None:
            print("BLOCKED witness-set %s" % (_lits(w.blocking_set),))
            return 0
        print("NOT-BLOCKED")
        return 1

    if prop == "supbc":
        try:
            res = check_super_blocked(f, c, cfg.k, cfg.ext_cap)
        except CapExceeded as exc:
            if ns.incomplete:
                scan = sample_super_blocked(f, c, Random(ns.seed), ns.incomplete, cfg.k)
                if scan.refuted:
                    print("NOT-BLOCKED failing-tau %s" % (_lits(scan.failing_tau.to_literals()),))
                    return 1
                print("UNKNOWN sampled %d" % (scan.samples,))
                return 2
            print("UNKNOWN cap-exceeded %d" % (exc.count,))
            return 2
        if res.blocked:
            w = res.witness
            if w.kind == "set":
                print("BLOCKED witness-set %s" % (_lits(w.blocking_set),))
                return 0
            print("BLOCKED witness-per-tau %d" % (len(w.per_tau),))
            for tau in sorted(w.per_tau, key=lambda a: a.to_literals()):
                tl = _lits(tau.to_literals())
                print("tau %s set %s" % (tl + " 0" if tl else "0", w.per_tau[tau].dimacs()))
            return 0
        print("NOT-BLOCKED failing-tau %s" % (_lits(res.failing_tau.to_literals()),))
        return 1

    if prop == "varelim":
        if sem_blocked_via_elimination(f, c):
            print("BLOCKED")
            return 0
        print("NOT-BLOCKED")
        return 1

    if prop == "sem-oracle":
        try:
            blocked = is_semantically_blocked_oracle(f, c, ns.cap)
        except CapExceeded as exc:
            print("UNKNOWN cap-exceeded %d" % (exc.count,))
            return 2
        print("BLOCKED" if blocked else "NOT-BLOCKED")
        return 0 if blocked else 1

    if prop == "redundant-oracle":
        try:
            verdict = is_redundant(f, c, ns.cap)
        except CapExceeded as exc:
            print("UNKNOWN cap-exceeded %d" % (exc.count,))
            return 2
        print("REDUNDANT" if verdict else "NOT-REDUNDANT")
        return 0 if verdict else 1

    # remaining redundancy-style properties run through the engine registry
    try:
        ok, w = check_property(f, c, cfg)
    except CapExceeded as exc:
        print("UNKNOWN cap-exceeded %d" % (exc.count,))
        return 2
    if ok:
        if w is not None and w.kind == "literal":
            print("REDUNDANT witness-literal %d" % (w.literal,))
        else:
            print("REDUNDANT")
        return 0
    print("NOT-REDUNDANT")
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
    _write_out(ns.out, write_qdimacs(encode_qbf(f, c)))
    return 0


def _cmd_solve_brute(ns) -> int:
    _check_cap_arg(ns)
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
    comments.append("c map selectors %s" % (_lits(inst.selectors),))
    for v in sorted(inst.primes):
        comments.append("c map prime %d %d" % (v, inst.primes[v]))
    _write_out(ns.out, "".join(line + "\n" for line in comments) + write_dimacs(inst.formula))
    clause_out = ns.clause_out or (ns.out + ".clause")
    _write_out(clause_out, inst.clause.dimacs() + "\n")
    return 0


def _cmd_gen_random(ns) -> int:
    if ns.vars < 1:
        raise _UsageError("--vars must be positive")
    if ns.width < 1:
        raise _UsageError("--width must be positive")
    if ns.clauses < 0:
        raise _UsageError("--clauses must be non-negative")
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
    p.add_argument("--k", type=int, help="bound on blocking-set size")
    p.add_argument("--ext-cap", type=int, default=16)
    p.add_argument("--cap", type=int, default=24, help="oracle variable cap")
    p.add_argument("--incomplete", type=int, metavar="N",
                   help="past the cap, sample N restrictions instead (supbc only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="property matrix for every clause")
    p.add_argument("path")
    p.add_argument("--property", action="append",
                   help="property to include (repeatable, comma-separable); default all")
    p.add_argument("--k", type=int)
    p.add_argument("--ext-cap", type=int, default=16)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eliminate", help="remove redundant clauses to fixpoint")
    p.add_argument("path")
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--k", type=int)
    p.add_argument("--ext-cap", type=int, default=16)
    p.add_argument("--order", choices=("ascending-id", "descending-length"),
                   default="ascending-id")
    p.add_argument("--rounds", type=int, default=1000)
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
    p.add_argument("--cap", type=int, default=24)
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
    p.add_argument("--vars", type=int, default=8)
    p.add_argument("--clauses", type=int, default=12)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_random)

    return top


def run(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except _UsageError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 64
    except ParseError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 65
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 66
    except (CapExceeded, ResourceLimit, ReconstructionError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 70
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 64


def main() -> None:
    sys.exit(run())
