import gc
import inspect
import io
import os
import pkgutil
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import blockcheck
from blockcheck import (
    CapExceeded,
    EliminationConfig,
    EliminationTrace,
    check_super_blocked,
    eliminate_clauses,
    first_model,
    is_literal_blocked,
    is_set_blocked,
    parse_dimacs,
    reconstruct_model,
    write_dimacs,
)
from blockcheck import cli
from blockcheck.asymmetric import (
    BASES,
    ala_fixpoint,
    asymmetric_blocking,
    r_lift_witness,
)
from blockcheck.blocking import (
    EXT_CAP,
    BlockingWitness,
    RestrictionTable,
    SuperBlockingResult,
)
from blockcheck.cli import run
from blockcheck.gen import random_formula, random_instance, random_qbf
from blockcheck.oracle import (
    DEFAULT_CAP,
    eval_forall_exists,
    is_redundant,
    is_satisfiable,
    is_semantically_blocked_oracle,
)
from blockcheck.reductions import forall_exists_to_superblocking, unsat_to_1superblocking
from blockcheck.varelim import MAX_CLAUSES, eliminate_variables, sem_blocked_via_elimination

from conftest import clause, formula, holds

BLOCKED_3 = "p cnf 3 3\n-1 3 0\n-2 -1 0\n1 2 0\n"
SETBLOCKED = "p cnf 2 2\n-1 2 0\n-2 1 0\n"
FULL_BLOCKING = "p cnf 3 4\n3 2 -1 0\n-2 -3 0\n-2 1 0\n1 2 0\n"
AT_INSTANCE = "p cnf 4 4\n-1 3 0\n-2 3 0\n-4 3 0\n1 2 0\n"

# Two inert squares over disjoint variable pairs plus a bridging clause:
# nothing is removable, and the bridge sees two external variables.
CAPPED = (
    "p cnf 4 9\n"
    "1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
    "3 4 0\n-3 4 0\n3 -4 0\n-3 -4 0\n"
    "1 3 0\n"
)

# The square keeps (x, y) unblocked under every restriction, while the two
# tails give it external variables.
REFUTABLE = "p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n-1 3 0\n-2 4 0\n"

# FULL_BLOCKING with one more environment clause over a fresh variable; the
# last clause stays super-blocked but now sees two external variables.
FULL_BLOCKING_WIDE = "p cnf 5 5\n3 2 -1 0\n-2 -3 0\n-2 1 0\n-2 -3 5 0\n1 2 0\n"

THREE_SQUARE = "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n"

# The saturation closure of the last clause, (2), is tautological: abc holds
# and needs no repair literal.
ABC_TAUTOLOGY = "p cnf 2 6\n1 0\n1 -2 0\n-2 0\n-1 -2 0\n-1 2 0\n2 0\n"

# Two tautologies, (1 4 -5 5) and (-2 -3 -5 5), beside clauses that supbc
# removes only through a restriction table; what is left is satisfiable.
WITH_TAUTOLOGIES = (
    "p cnf 5 12\n-1 2 3 0\n1 0\n1 4 0\n1 4 -5 5 0\n-2 -3 -5 0\n-2 -3 -5 5 0\n"
    "-2 4 0\n2 0\n-3 -4 0\n-3 4 0\n3 5 0\n4 -5 0\n"
)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheckVerdicts:
    def test_literal_blocked(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", BLOCKED_3)
        assert run(["check", path, "--property", "bc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED witness-literal 2\n"

    def test_literal_not_blocked(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", SETBLOCKED)
        assert run(["check", path, "--property", "bc", "--clause", "1 2 0"]) == 1
        assert capsys.readouterr().out == "NOT-BLOCKED\n"

    def test_set_blocked_witness(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", SETBLOCKED)
        assert run(["check", path, "--property", "setbc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED witness-set 1 2\n"

    def test_set_blocked_refused(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", AT_INSTANCE)
        assert run(["check", path, "--property", "setbc", "--clause", "1 2 4 0"]) == 1
        assert capsys.readouterr().out == "NOT-BLOCKED\n"

    def test_super_blocked_prints_the_restriction_table(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["check", path, "--property", "supbc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == (
            "BLOCKED witness-per-tau 2\n"
            "tau -3 0 set 1 2 0\n"
            "tau 3 0 set 1 0\n"
        )

    def test_super_blocked_reports_the_failing_restriction(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", AT_INSTANCE)
        assert run(["check", path, "--property", "supbc", "--clause", "1 2 4 0"]) == 1
        assert capsys.readouterr().out == "NOT-BLOCKED failing-tau -3\n"

    def test_abc_with_a_tautological_closure_prints_a_bare_verdict(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", ABC_TAUTOLOGY)
        assert run(["check", path, "--property", "abc", "--clause", "2 0"]) == 0
        assert capsys.readouterr().out == "REDUNDANT\n"

    def test_clause_index_selects_from_the_file(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["check", path, "--property", "supbc", "--clause-index", "3"]) == 0
        assert capsys.readouterr().out.startswith("BLOCKED witness-per-tau 2\n")

    def test_cap_yields_unknown(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", CAPPED)
        rc = run(["check", path, "--property", "supbc", "--clause", "1 3 0", "--ext-cap", "1"])
        assert rc == 2
        assert capsys.readouterr().out == "UNKNOWN cap-exceeded 2\n"

    def test_set_blocked_outright_is_answered_past_the_cap(self, tmp_path, capsys):
        # {1} blocks (1 2) in the whole formula, whatever the three
        # external variables are set to
        path = put(tmp_path, "f.cnf", "p cnf 5 3\n-1 -2 3 0\n-1 -2 4 0\n-1 -2 5 0\n")
        rc = run(["check", path, "--property", "supbc", "--clause", "1 2 0", "--ext-cap", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "BLOCKED witness-set 1\n"

    def test_incomplete_sampling_cannot_refute_a_blocked_clause(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING_WIDE)
        rc = run(["check", path, "--property", "supbc", "--clause", "1 2 0",
                  "--ext-cap", "1", "--incomplete", "3"])
        assert rc == 2
        assert capsys.readouterr().out == "UNKNOWN sampled 3\n"
        # under the default cap the scan decides it, one row per restriction
        assert run(["check", path, "--property", "supbc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out.startswith("BLOCKED witness-per-tau 4\n")

    def test_incomplete_sampling_refutes_when_a_restriction_fails(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", REFUTABLE)
        args = ["check", path, "--property", "supbc", "--clause", "1 2 0",
                "--ext-cap", "1", "--incomplete", "4", "--seed", "5"]
        assert run(args) == 1
        first = capsys.readouterr().out
        assert first.startswith("NOT-BLOCKED failing-tau ")
        assert run(args) == 1
        assert capsys.readouterr().out == first  # seeded, so reproducible

    def test_variable_elimination_check(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["check", path, "--property", "varelim", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED\n"
        path = put(tmp_path, "g.cnf", AT_INSTANCE)
        assert run(["check", path, "--property", "varelim", "--clause", "1 2 4 0"]) == 1
        assert capsys.readouterr().out == "NOT-BLOCKED\n"

    def test_semantic_oracle_check(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["check", path, "--property", "sem-oracle", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED\n"

    def test_redundancy_oracle_check(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", AT_INSTANCE)
        assert run(["check", path, "--property", "redundant-oracle", "--clause", "1 2 4 0"]) == 0
        assert capsys.readouterr().out == "REDUNDANT\n"
        assert run(["check", path, "--property", "redundant-oracle", "--clause", "-3 0"]) == 1
        assert capsys.readouterr().out == "NOT-REDUNDANT\n"

    def test_redundancy_properties_report_lift_witnesses(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", BLOCKED_3)
        assert run(["check", path, "--property", "rt", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "REDUNDANT witness-literal 2\n"
        path = put(tmp_path, "g.cnf", AT_INSTANCE)
        assert run(["check", path, "--property", "at", "--clause", "1 2 4 0"]) == 0
        assert capsys.readouterr().out == "REDUNDANT\n"
        assert run(["check", path, "--property", "s", "--clause", "3 0"]) == 1
        assert capsys.readouterr().out == "NOT-REDUNDANT\n"

    def test_asymmetric_checks_on_a_clause_outside_the_file(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", AT_INSTANCE)
        f = parse_dimacs(AT_INSTANCE)
        cases = [
            ("1 2 4 0", {"at": "REDUNDANT", "as": "REDUNDANT", "abc": "REDUNDANT"}),
            ("-3 0", {"at": "NOT-REDUNDANT", "as": "NOT-REDUNDANT", "abc": "NOT-REDUNDANT"}),
            ("2 5 0", {"at": "NOT-REDUNDANT", "as": "NOT-REDUNDANT",
                       "abc": "REDUNDANT witness-literal 2"}),
        ]
        for text, want in cases:
            c = clause(*map(int, text.split()[:-1]))
            assert c not in f
            library = {prop: holds(prop, f, c) for prop in want}
            for prop, line in want.items():
                rc = run(["check", path, "--property", prop, "--clause", text])
                assert capsys.readouterr().out == line + "\n", (text, prop)
                assert rc == (0 if library[prop] else 1), (text, prop)
        # the same literals as a clause of the file: c never subsumes itself
        assert run(["check", path, "--property", "as", "--clause", "1 2 0"]) == 1
        assert capsys.readouterr().out == "NOT-REDUNDANT\n"

    def test_reads_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(BLOCKED_3.encode())))
        assert run(["check", "-", "--property", "bc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED witness-literal 2\n"


class TestClassifyCommand:
    def test_matrix_to_stdout(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", THREE_SQUARE)
        assert run(["classify", path, "--property", "bc,setbc", "--property", "supbc"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "clause\tbc\tsetbc\tsupbc"
        assert out[1] == "1 2 0\tno\tyes\tyes"
        assert out[2] == "-1 2 0\tyes\tyes\tyes"
        assert out[3] == "1 -2 0\tyes\tyes\tyes"
        assert len(out) == 4

    def test_matrix_to_file_and_parallel_determinism(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        out1 = str(tmp_path / "m1.tsv")
        out2 = str(tmp_path / "m2.tsv")
        assert run(["classify", path, "--out", out1]) == 0
        assert run(["classify", path, "--out", out2]) == 0
        text = (tmp_path / "m1.tsv").read_text()
        assert text == (tmp_path / "m2.tsv").read_text()
        assert text.splitlines()[0].startswith("clause\tt\ts\tbc\t")
        assert len(text.splitlines()) == 5

    def test_abc_with_a_tautological_closure_reads_yes(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", ABC_TAUTOLOGY)
        assert run(["classify", path, "--property", "abc"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2 0\tyes"

    def test_unknown_property_is_a_usage_error(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", SETBLOCKED)
        assert run(["classify", path, "--property", "bc,qbf"]) == 64
        assert capsys.readouterr().err.startswith("error:")


class TestEliminateAndReconstruct:
    def test_round_trip_through_files(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", BLOCKED_3)
        simp = str(tmp_path / "simp.cnf")
        tracef = str(tmp_path / "steps.trace")
        rc = run(["eliminate", src, "--property", "bc", "--out", simp, "--trace", tracef])
        assert rc == 0
        assert (tmp_path / "simp.cnf").read_text() == "p cnf 0 0\n"
        assert (tmp_path / "steps.trace").read_text() == (
            "t blockcheck 1\n"
            "d bc -1 3 0 w 3 0\n"
            "d bc -1 -2 0 w -1 0\n"
            "d bc 1 2 0 w 1 0\n"
        )
        model = put(tmp_path, "m.txt", "v 0\n")
        out = str(tmp_path / "repaired.txt")
        rc = run(["reconstruct", src, "--trace", tracef, "--model", model, "--out", out])
        assert rc == 0
        assert (tmp_path / "repaired.txt").read_text() == "v 1 -2 3 0\n"

    def test_eliminate_respects_order_and_rounds(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", "p cnf 4 3\n1 2 0\n-1 3 0\n-2 4 0\n")
        tracef = tmp_path / "steps.trace"
        rc = run(["eliminate", src, "--property", "bc", "--rounds", "1", "--trace", str(tracef)])
        assert rc == 0
        assert capsys.readouterr().out == "p cnf 2 1\n1 2 0\n"
        assert tracef.read_text().splitlines()[-1] == "x 1 2 0 rounds cap 1 reached"
        rc = run(["eliminate", src, "--property", "bc"])
        assert rc == 0
        assert capsys.readouterr().out == "p cnf 0 0\n"

    def test_compact_trace_still_reconstructs(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", FULL_BLOCKING)
        tracef = str(tmp_path / "steps.trace")
        rc = run(["eliminate", src, "--property", "supbc", "--compact",
                  "--out", str(tmp_path / "simp.cnf"), "--trace", tracef])
        assert rc == 0
        assert "wt " not in (tmp_path / "steps.trace").read_text()
        model = put(tmp_path, "m.txt", "v 0\n")
        rc = run(["reconstruct", src, "--trace", tracef, "--model", model])
        assert rc == 0
        lits = capsys.readouterr().out.split()
        assert lits[0] == "v" and lits[-1] == "0"
        a = {abs(int(t)): int(t) > 0 for t in lits[1:-1]}
        f = parse_dimacs(FULL_BLOCKING)
        assert all(any(a[abs(l)] == (l > 0) for l in c) for c in f)

    @pytest.mark.parametrize("prop", ["setbc", "supbc"])
    @pytest.mark.parametrize("compact", [[], ["--compact"]])
    def test_tautologies_are_eliminated_and_reconstructed(self, tmp_path, capsys, prop, compact):
        src = put(tmp_path, "f.cnf", WITH_TAUTOLOGIES)
        simp, tracef, model = (str(tmp_path / n) for n in ("simp.cnf", "steps.trace", "m.txt"))
        rc = run(["eliminate", src, "--property", prop, *compact, "--out", simp, "--trace", tracef])
        assert rc == 0
        removed = set()
        for line in (tmp_path / "steps.trace").read_text().splitlines():
            if line.startswith("d "):
                toks = line.split()[2:]
                removed.add(clause(*map(int, toks[:toks.index("0")])))
        assert {clause(1, 4, -5, 5), clause(-2, -3, -5, 5)} <= removed
        assert run(["solve-brute", simp, "--out", model]) == 0
        capsys.readouterr()
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 0
        lits = capsys.readouterr().out.split()
        assert lits[0] == "v" and lits[-1] == "0"
        a = {abs(int(t)): int(t) > 0 for t in lits[1:-1]}
        assert all(any(a[abs(l)] == (l > 0) for l in c) for c in parse_dimacs(WITH_TAUTOLOGIES))

    def test_reconstruct_mismatched_trace_fails(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", BLOCKED_3)
        tracef = put(tmp_path, "bad.trace", "t blockcheck 1\nd bc 9 0 w 9 0\n")
        model = put(tmp_path, "m.txt", "v 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 70
        assert capsys.readouterr().err.startswith("error:")

    def test_reconstruct_restriction_on_unknown_variable_fails(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
        tracef = put(tmp_path, "bad.trace",
                     "t blockcheck 1\nd supbc 1 2 0 w 0\nwt -9 0 1 0\nwt 9 0 1 0\n")
        model = put(tmp_path, "m.txt", "v -1 -2 -3 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 70
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("cnf, entry, model, message", [
        # (1 2) is no supbc clause here: repair finds no blocking set to flip
        ("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n", "d supbc 1 2 0 w 0", "v -1 -2 0",
         "failed to recompute a blocking set during repair"),
        # flipping 1 satisfies (1) and falsifies (-1): the formula is unsatisfiable
        ("p cnf 1 2\n1 0\n-1 0\n", "d bc 1 0 w 1 0", "v -1 0",
         "reconstructed assignment does not satisfy the original formula"),
    ])
    def test_reconstruct_of_a_wrong_trace_exits_70(self, tmp_path, capsys, cnf, entry, model, message):
        src = put(tmp_path, "f.cnf", cnf)
        tracef = put(tmp_path, "bad.trace", "t blockcheck 1\n%s\n" % entry)
        modelf = put(tmp_path, "m.txt", model + "\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", modelf]) == 70
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("rows", [
        "wt 3 0 1 0\nwt 3 0 1 2 0\n",     # the same assignment twice
        "wt -3 0 1 0\nwt 3 -1 0 1 0\n",   # different variable sets, either order
        "wt 3 -1 0 1 0\nwt -3 0 1 0\n",
    ])
    def test_reconstruct_rejects_inconsistent_restriction_rows(self, tmp_path, capsys, rows):
        src = put(tmp_path, "f.cnf", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
        tracef = put(tmp_path, "bad.trace", "t blockcheck 1\nd supbc 1 2 0 w 0\n" + rows)
        model = put(tmp_path, "m.txt", "v -1 -2 -3 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 65
        assert capsys.readouterr().err.startswith("error: line 4: ")

    @pytest.mark.parametrize("model", ["v 0\n", "v 1 -2 3 0\n"])
    def test_reconstruct_rejects_a_witness_outside_its_clause(self, tmp_path, capsys, model):
        # under the second model repair never reads the witness; the trace
        # is rejected all the same, before the model is read
        src = put(tmp_path, "f.cnf", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
        modelf = put(tmp_path, "m.txt", model)
        for entry in ("d bc 1 2 0 w 7 0", "d setbc 1 2 0 w 7 0"):
            tracef = put(tmp_path, "bad.trace", "t blockcheck 1\n%s\n" % entry)
            assert run(["reconstruct", src, "--trace", tracef, "--model", modelf]) == 65
            assert capsys.readouterr().err == "error: line 2: witness literal 7 is not in the clause\n"

    def test_reconstruct_rejects_malformed_trace(self, tmp_path, capsys):
        src = put(tmp_path, "f.cnf", BLOCKED_3)
        tracef = put(tmp_path, "bad.trace", "not a trace\n")
        model = put(tmp_path, "m.txt", "v 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 65


# -- super-blocking tables: one row order from scan to text ------------------


def reference_rows(per_tau, rng):
    """(τ, set) texts of a table as a plain dict sorted by τ's literals.

    The dict is filled in a shuffled order, so nothing but the sort orders it.
    """
    items = list(per_tau.items())
    rng.shuffle(items)
    plain = dict(items)
    rows = []
    for tau in sorted(plain, key=lambda a: a.to_literals()):
        tl = " ".join(str(l) for l in tau.to_literals())
        rows.append((tl + " 0" if tl else "0", plain[tau].dimacs()))
    return rows


def reference_trace_text(trace, rng):
    lines = ["t blockcheck 1"]
    for e in trace.entries:
        w = e.witness
        if w is None or w.kind == "super":
            wpart = "0"
        elif w.kind == "literal":
            wpart = "%d 0" % (w.literal,)
        else:
            wpart = w.blocking_set.dimacs()
        lines.append("d %s %s w %s" % (e.tag, e.clause.dimacs(), wpart))
        if w is not None and w.kind == "super" and w.per_tau is not None:
            lines.extend("wt %s %s" % row for row in reference_rows(w.per_tau, rng))
    lines.extend(("x %s %s" % (c.dimacs(), reason)).rstrip() for c, reason in trace.skipped)
    return "\n".join(lines) + "\n"


def gadget_corpus(rng, count):
    """unsat2ksupbc gadgets, half from unsatisfiable sources (so blocked by
    a table), and qbf2supbc gadgets."""
    unsat = 0
    while unsat < count:
        source = random_formula(rng, 3, rng.randint(5, 9), 3)
        unsat += not is_satisfiable(source)
        yield unsat_to_1superblocking(source)
        yield forall_exists_to_superblocking(random_qbf(rng, max_vars=6, max_clauses=8))


def elimination_corpus(rng):
    yield from (inst.formula for inst in gadget_corpus(rng, 6))
    for _ in range(16):
        yield random_formula(rng, 6, 10, 3)
        yield random_formula(rng, 10, 20, 4)


class TestRestrictionTableWriters:
    def test_check_prints_the_reference_rows(self, tmp_path, capsys):
        rng = random.Random("check rows")
        tables = 0
        for inst in gadget_corpus(rng, 12):
            path = put(tmp_path, "g.cnf", write_dimacs(inst.formula))
            argv = ["check", path, "--property", "supbc", "--clause", inst.clause.dimacs()]
            res = check_super_blocked(inst.formula, inst.clause)
            w = res.witness
            if w is None:
                want = " ".join(["NOT-BLOCKED failing-tau", *map(str, res.failing_tau.to_literals())]) + "\n"
            elif w.kind == "set":
                want = "BLOCKED witness-set %s\n" % " ".join(map(str, w.blocking_set))
            else:
                tables += 1
                want = "BLOCKED witness-per-tau %d\n" % len(w.per_tau) + "".join(
                    "tau %s set %s\n" % row for row in reference_rows(w.per_tau, rng))
            assert run(argv) == (1 if w is None else 0)
            assert capsys.readouterr().out == want
        assert tables >= 10

    def test_check_prints_a_table_over_no_variables(self, tmp_path, capsys, monkeypatch):
        table = RestrictionTable((), [clause(1, 2)])
        result = SuperBlockingResult(BlockingWitness(kind="super", per_tau=table), None)
        monkeypatch.setattr(cli, "check_super_blocked", lambda *args: result)
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["check", path, "--property", "supbc", "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == "BLOCKED witness-per-tau 1\ntau 0 set 1 2 0\n"

    def test_eliminate_writes_the_reference_trace(self, tmp_path, capsys):
        rng = random.Random("trace rows")
        tables = repaired = 0
        for f in elimination_corpus(rng):
            src = put(tmp_path, "f.cnf", write_dimacs(f))
            tracef = str(tmp_path / "steps.trace")
            rc = run(["eliminate", src, "--property", "supbc",
                      "--out", str(tmp_path / "simp.cnf"), "--trace", tracef])
            assert rc == 0
            g, trace = eliminate_clauses(parse_dimacs(write_dimacs(f)),
                                         EliminationConfig(property="supbc"))
            text = (tmp_path / "steps.trace").read_text()
            assert text == trace.to_text() == reference_trace_text(trace, rng)
            supers = [e for e in trace.entries
                      if e.witness is not None and e.witness.kind == "super"]
            tables += len(supers)
            model = first_model(g)
            if supers and model is not None:
                repaired += 1
                again = EliminationTrace.from_text(text)
                assert again.entries == trace.entries
                assert reconstruct_model(trace, f, model) == reconstruct_model(again, f, model)
        assert tables >= 15 and repaired >= 5, (tables, repaired)

    def test_rows_do_not_depend_on_the_hash_seed(self, tmp_path):
        def prints_a_table(inst):
            w = check_super_blocked(inst.formula, inst.clause).witness
            return w is not None and w.kind == "super"

        inst = next(filter(prints_a_table, gadget_corpus(random.Random("hash seed"), 12)))
        gadget = put(tmp_path, "g.cnf", write_dimacs(inst.formula))
        wide = put(tmp_path, "w.cnf", write_dimacs(random_formula(random.Random("wide"), 8, 20, 4)))
        package_root = str(Path(blockcheck.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
            tracef = tmp_path / ("steps%s.trace" % seed)
            check = subprocess.run(
                [sys.executable, "-m", "blockcheck", "check", gadget, "--property", "supbc",
                 "--clause", inst.clause.dimacs()], capture_output=True, env=env)
            elim = subprocess.run(
                [sys.executable, "-m", "blockcheck", "eliminate", wide, "--property", "supbc",
                 "--trace", str(tracef)], capture_output=True, env=env)
            assert check.returncode == 0 and elim.returncode == 0, (check.stderr, elim.stderr)
            outputs.append((check.stdout, elim.stdout, tracef.read_bytes()))
        assert b"\ntau " in outputs[0][0] and b"\nwt " in outputs[0][2]
        assert outputs[0] == outputs[1]


class TestOtherCommands:
    def test_encode_qbf_matches_library_output(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        assert run(["encode-qbf", path, "--clause", "1 2 0"]) == 0
        assert capsys.readouterr().out == (
            "p cnf 3 4\n"
            "a 3 0\n"
            "e 1 2 0\n"
            "-1 2 3 0\n"
            "1 -2 0\n"
            "1 2 0\n"
            "-2 -3 0\n"
        )

    def test_solve_brute(self, tmp_path, capsys):
        sat = put(tmp_path, "sat.cnf", "p cnf 2 1\n1 2 0\n")
        assert run(["solve-brute", sat]) == 0
        assert capsys.readouterr().out == "SAT\nv -1 2 0\n"
        unsat = put(tmp_path, "unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        assert run(["solve-brute", unsat]) == 1
        assert capsys.readouterr().out == "UNSAT\n"

    def test_solve_brute_cap(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", "p cnf 4 1\n1 2 3 4 0\n")
        assert run(["solve-brute", path, "--cap", "2"]) == 70
        assert capsys.readouterr().err.startswith("error:")

    def test_gen_reduction_sat2setbc(self, tmp_path):
        src = put(tmp_path, "src.cnf", "p cnf 2 2\n1 0\n-1 2 0\n")
        out = str(tmp_path / "inst.cnf")
        assert run(["gen-reduction", "sat2setbc", src, "--out", out]) == 0
        text = (tmp_path / "inst.cnf").read_text()
        assert text.startswith("c reduction sat2setbc\nc map selectors ")
        assert "c map prime " in text
        f = parse_dimacs(text)
        c = parse_dimacs("p cnf 9 1\n" + (tmp_path / "inst.cnf.clause").read_text()).clauses[0]
        assert is_set_blocked(f, c) is not None  # the source was satisfiable

    def test_gen_reduction_unsat2ksupbc(self, tmp_path):
        src = put(tmp_path, "src.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        out = str(tmp_path / "inst.cnf")
        side = str(tmp_path / "inst.clause")
        assert run(["gen-reduction", "unsat2ksupbc", src, "--out", out, "--clause-out", side]) == 0
        f = parse_dimacs((tmp_path / "inst.cnf").read_text())
        c_lits = [int(t) for t in (tmp_path / "inst.clause").read_text().split()[:-1]]
        assert check_super_blocked(f, c_lits, k=1).blocked

    def test_gen_reduction_qbf2supbc(self, tmp_path):
        src = put(tmp_path, "src.qdimacs", "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
        out = str(tmp_path / "inst.cnf")
        assert run(["gen-reduction", "qbf2supbc", src, "--out", out]) == 0
        f = parse_dimacs((tmp_path / "inst.cnf").read_text())
        c_lits = [int(t) for t in (tmp_path / "inst.cnf.clause").read_text().split()[:-1]]
        assert check_super_blocked(f, c_lits).blocked  # the source QBF is true

    def test_gen_reduction_to_stdout_needs_clause_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = put(tmp_path, "src.cnf", "p cnf 2 2\n1 0\n-1 2 0\n")
        assert run(["gen-reduction", "sat2setbc", src, "--out", "-"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--clause-out" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["src.cnf"]
        side = str(tmp_path / "inst.clause")
        assert run(["gen-reduction", "sat2setbc", src, "--out", "-", "--clause-out", side]) == 0
        assert capsys.readouterr().out.startswith("c reduction sat2setbc\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.clause", "src.cnf"]

    def test_gen_random_is_seeded(self, tmp_path):
        a = str(tmp_path / "a.cnf")
        b = str(tmp_path / "b.cnf")
        c = str(tmp_path / "c.cnf")
        assert run(["gen-random", "--seed", "7", "--out", a]) == 0
        assert run(["gen-random", "--seed", "7", "--out", b]) == 0
        assert run(["gen-random", "--seed", "8", "--out", c]) == 0
        ta = (tmp_path / "a.cnf").read_text()
        assert ta == (tmp_path / "b.cnf").read_text()
        assert ta != (tmp_path / "c.cnf").read_text()
        assert ta.splitlines()[0] == "c seed 7"
        f = parse_dimacs(ta)
        assert len(f) == 12 and max(f.variables()) <= 8

    def test_gen_random_sizes(self, tmp_path):
        out = str(tmp_path / "t.cnf")
        assert run(["gen-random", "--vars", "3", "--clauses", "5", "--width", "2",
                    "--seed", "1", "--out", out]) == 0
        f = parse_dimacs((tmp_path / "t.cnf").read_text())
        assert 1 <= len(f) <= 5  # duplicate draws collapse
        assert all(len(c) <= 2 for c in f)
        assert f.variables() <= {1, 2, 3}


class TestParserReuse:
    """`run` builds its argparse tree once per process and reuses it."""

    @staticmethod
    def _outputs(argvs, capsys, fresh):
        got = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            got.append((code, capsys.readouterr().out))
        return got

    def test_back_to_back_calls_match_fresh_runs(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING)
        argvs = [
            ["classify", path, "--property", "bc"],
            ["classify", path],
            ["check", path, "--property", "supbc", "--clause", "1 2 0", "--k", "1"],
            ["check", path, "--property", "supbc", "--clause", "1 2 0"],
        ]
        fresh = self._outputs(argvs, capsys, fresh=True)
        assert fresh[0][1] != fresh[1][1] and fresh[2][0] == 1 and fresh[3][0] == 0
        assert self._outputs(argvs, capsys, fresh=False) == fresh
        assert self._outputs(argvs[::-1], capsys, fresh=False) == fresh[::-1]


# One run per subcommand and per error exit; "{name}" stands for the path
# `command_files` gives that name.
COMMANDS = {
    "check-bc": (1, ["check", "{wide}", "--property", "bc", "--clause", "1 2 0"]),
    "check-setbc": (1, ["check", "{wide}", "--property", "setbc", "--clause", "1 2 0"]),
    "check-supbc": (0, ["check", "{wide}", "--property", "supbc", "--clause", "1 2 0"]),
    "check-supbc-empty-tau": (1, ["check", "{unit}", "--property", "supbc", "--clause", "1 0"]),
    "check-supbc-capped": (2, ["check", "{capped}", "--property", "supbc", "--clause", "1 3 0",
                               "--ext-cap", "1"]),
    "check-at": (0, ["check", "{at}", "--property", "at", "--clause", "1 2 4 0"]),
    "check-varelim": (0, ["check", "{wide}", "--property", "varelim", "--clause", "1 2 0"]),
    "classify": (0, ["classify", "{wide}"]),
    "eliminate-bc": (0, ["eliminate", "{taut}", "--property", "bc", "--out", "{out}",
                         "--trace", "{out}.trace"]),
    "eliminate-supbc": (0, ["eliminate", "{taut}", "--property", "supbc", "--out", "{out}",
                            "--trace", "{out}.trace"]),
    "eliminate-supbc-compact": (0, ["eliminate", "{taut}", "--property", "supbc", "--compact",
                                    "--out", "{out}", "--trace", "{out}.trace"]),
    "reconstruct-tables": (0, ["reconstruct", "{taut}", "--trace", "{tables}",
                               "--model", "{model}"]),
    "reconstruct-compact": (0, ["reconstruct", "{taut}", "--trace", "{compact}",
                                "--model", "{model}"]),
    "encode-qbf": (0, ["encode-qbf", "{wide}", "--clause", "1 2 0"]),
    "solve-brute": (0, ["solve-brute", "{wide}"]),
    "gen-reduction": (0, ["gen-reduction", "sat2setbc", "{wide}", "--out", "{out}"]),
    "gen-reduction-no-clauses": (0, ["gen-reduction", "unsat2ksupbc", "{empty}", "--out", "{out}"]),
    "gen-random": (0, ["gen-random", "--seed", "3", "--out", "{out}"]),
    "usage-64": (64, ["check", "{wide}", "--property", "nosuch", "--clause", "1 0"]),
    "malformed-65": (65, ["check", "{bad}", "--property", "bc", "--clause", "1 0"]),
    "unreadable-66": (66, ["check", "{missing}", "--property", "bc", "--clause", "1 0"]),
    "cap-70": (70, ["solve-brute", "{wide}", "--cap", "2"]),
    "unwritable-74": (74, ["gen-random", "--out", "{missing}"]),
}


def command_files(tmp_path):
    """The paths COMMANDS reads, with both kinds of `supbc` trace of
    WITH_TAUTOLOGIES and a model of its residual already written."""
    files = {
        "wide": put(tmp_path, "wide.cnf", FULL_BLOCKING_WIDE),
        "at": put(tmp_path, "at.cnf", AT_INSTANCE),
        "capped": put(tmp_path, "capped.cnf", CAPPED),
        "taut": put(tmp_path, "taut.cnf", WITH_TAUTOLOGIES),
        "unit": put(tmp_path, "unit.cnf", "p cnf 1 1\n-1 0\n"),
        "empty": put(tmp_path, "empty.cnf", "p cnf 0 0\n"),
        "bad": put(tmp_path, "bad.cnf", "p cnf nonsense\n1 0\n"),
        "missing": str(tmp_path / "no" / "such.cnf"),
        "out": str(tmp_path / "out.cnf"),
    }
    files.update((name, str(tmp_path / name)) for name in ("tables", "compact", "model"))
    simp = str(tmp_path / "simp.cnf")
    for name, extra in (("tables", []), ("compact", ["--compact"])):
        argv = ["eliminate", files["taut"], "--property", "supbc", *extra, "--trace", files[name]]
        assert run(argv + ["--out", simp]) == 0
    assert run(["solve-brute", simp, "--out", files["model"]]) == 0
    assert "\nwt " in (tmp_path / "tables").read_text()
    assert "\nwt " not in (tmp_path / "compact").read_text()
    return files


class TestCollector:
    """`run` switches the cyclic collector off for one command: what a command
    builds holds no reference cycle, and the caller's state comes back."""

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_warm_command_leaves_no_cyclic_garbage(self, tmp_path, capsys, name):
        code, argv = COMMANDS[name]
        argv = [a.format(**command_files(tmp_path)) for a in argv]
        capsys.readouterr()
        assert run(argv) == code
        first = capsys.readouterr()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv) == code
            gc.collect()
            left = [type(x).__name__ for x in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert capsys.readouterr() == first
        assert left == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_run_puts_back_the_callers_collector_state(self, tmp_path, monkeypatch, enabled):
        files = command_files(tmp_path)
        codes = set()
        (gc.enable if enabled else gc.disable)()
        try:
            for code, argv in COMMANDS.values():
                assert run([a.format(**files) for a in argv]) == code
                assert gc.isenabled() is enabled, argv
                codes.add(code)

            def boom(ns):
                raise RuntimeError("boom")

            # an exception no exit code covers leaves run the same way
            monkeypatch.setattr(cli, "_cmd_gen_random", boom)
            cli._build_parser.cache_clear()
            with pytest.raises(RuntimeError, match="boom"):
                run(["gen-random"])
            assert gc.isenabled() is enabled
        finally:
            cli._build_parser.cache_clear()
            gc.enable()
        assert codes == {0, 1, 2, 64, 65, 66, 70, 74}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_no_line_written_ends_in_a_blank(tmp_path, capsys, name):
    code, argv = COMMANDS[name]
    files = command_files(tmp_path)
    capsys.readouterr()
    assert run([a.format(**files) for a in argv]) == code
    texts = {"stdout": capsys.readouterr().out}
    texts.update((path.name, path.read_text()) for path in tmp_path.iterdir() if path.is_file())
    for where, text in texts.items():
        for line in text.split("\n"):
            assert line == line.rstrip(), (where, line)


def test_flag_defaults_are_the_library_defaults():
    parse = cli._build_parser().parse_args
    for argv in (["check", "f", "--property", "bc"], ["classify", "f"],
                 ["eliminate", "f", "--property", "bc"]):
        assert parse(argv).ext_cap == EXT_CAP, argv
    for argv in (["check", "f", "--property", "bc"], ["solve-brute", "f"]):
        assert parse(argv).cap == DEFAULT_CAP, argv
    assert parse(["eliminate", "f", "--property", "bc"]).rounds == (
        EliminationConfig().rounds_cap
    )
    assert parse(["eliminate", "f", "--property", "bc"]).order == (
        EliminationConfig().clause_order
    )
    # and the library reads the one default of each cap too
    assert EliminationConfig().ext_cap == EXT_CAP
    for fn in (check_super_blocked, blockcheck.classify):
        assert inspect.signature(fn).parameters["ext_cap"].default == EXT_CAP, fn
    assert inspect.signature(eval_forall_exists).parameters["cap"].default == DEFAULT_CAP
    for fn in (eliminate_variables, sem_blocked_via_elimination):
        assert inspect.signature(fn).parameters["max_clauses"].default == MAX_CLAUSES, fn


def _library_check(f, c, prop, k=None, ext_cap=16, cap=24, incomplete=None, seed=0):
    """(exit code, stdout) that `check` owes, built from library calls alone."""
    word = "BLOCKED" if prop in ("bc", "setbc", "supbc", "varelim", "sem-oracle") else "REDUNDANT"

    def lits(values):
        return " ".join(str(v) for v in values)

    def yes(detail=""):
        return 0, word + detail + "\n"

    def no(tau=None):
        tail = "" if tau is None else " " + lits(("failing-tau", *tau.to_literals()))
        return 1, "NOT-%s%s\n" % (word, tail)

    def literal(lit):
        return yes() if lit is None else yes(" witness-literal %d" % lit)

    try:
        if prop == "bc":
            w = is_literal_blocked(f, c)
            return no() if w is None else literal(w.literal)
        if prop == "setbc":
            w = is_set_blocked(f, c, k)
            return no() if w is None else yes(" witness-set " + lits(w.blocking_set))
        if prop == "supbc":
            sample = None if incomplete is None else (random.Random(seed), incomplete)
            try:
                res = check_super_blocked(f, c, k, ext_cap, sample)
            except CapExceeded:
                if incomplete is None:
                    raise
                return 2, "UNKNOWN sampled %d\n" % incomplete
            w = res.witness
            if w is None:
                return no(res.failing_tau)
            if w.kind == "set":
                return yes(" witness-set " + lits(w.blocking_set))
            rows = sorted((tau.to_literals(), s) for tau, s in w.per_tau.items())
            return yes(" witness-per-tau %d\n" % len(rows) + "\n".join(
                "tau %s set %s" % (lits(t + (0,)), s.dimacs()) for t, s in rows))
        verdict = {
            "varelim": lambda: sem_blocked_via_elimination(f, c),
            "sem-oracle": lambda: is_semantically_blocked_oracle(f, c, cap),
            "redundant-oracle": lambda: is_redundant(f, c, cap),
            "t": c.is_tautology,
            "s": lambda: holds("s", f, c),
            "at": lambda: holds("at", f, c),
            "as": lambda: holds("as", f, c),
        }
        if prop in verdict:
            return yes() if verdict[prop]() else no()
        if prop == "abc":
            # a tautological closure needs no witness literal
            if ala_fixpoint(f, c).clause.is_tautology():
                return yes()
            ok, lit = asymmetric_blocking(f, c)
            return literal(lit) if ok else no()
        ok, lit = r_lift_witness(BASES[prop[1:]], f, c)
        return literal(lit) if ok else no()
    except CapExceeded as exc:
        return 2, "UNKNOWN cap-exceeded %d\n" % exc.count


class TestCheckMatchesLibrary:
    """Every `check` answer, for every property, against the library's own."""

    FLAG_SETS = (
        ((), {}),
        (("--k", "1"), {"k": 1}),
        (("--ext-cap", "1"), {"ext_cap": 1}),
        (("--cap", "3"), {"cap": 3}),
        (("--ext-cap", "1", "--incomplete", "3", "--seed", "2"),
         {"ext_cap": 1, "incomplete": 3, "seed": 2}),
    )

    @staticmethod
    def _questions():
        rng = random.Random(11)
        questions = [random_instance(rng) for _ in range(60)]
        for i in range(16):
            # small sources keep the gadget's oracle questions cheap
            source = random_instance(random.Random(300 + i), max_vars=3, max_clauses=8)[0]
            g = unsat_to_1superblocking(source)
            questions.append((g.formula, g.clause))
            g = forall_exists_to_superblocking(random_qbf(random.Random(400 + i)))
            questions.append((g.formula, g.clause))
        return questions

    def test_every_property_and_flag_set(self, tmp_path, capsys):
        kinds = Counter()
        for i, (f, c) in enumerate(self._questions()):
            path = put(tmp_path, "q%d.cnf" % i, write_dimacs(f))
            for prop in cli.CHECKABLE:
                for flags, kwargs in self.FLAG_SETS:
                    argv = ["check", path, "--property", prop, "--clause", c.dimacs(), *flags]
                    code = run(argv)
                    got = capsys.readouterr()
                    want = _library_check(f, c, prop, **kwargs)
                    assert (code, got.out) == want, argv
                    assert got.err == ""
                    head = got.out.split("\n")[0].split()
                    kind = " ".join(head[:2])
                    if kind == "UNKNOWN cap-exceeded":
                        kind += " oracle" if prop.endswith("oracle") else " scan"
                    kinds[kind] += 1
        for kind in ("BLOCKED witness-literal", "BLOCKED witness-set", "BLOCKED witness-per-tau",
                     "NOT-BLOCKED failing-tau", "UNKNOWN cap-exceeded scan",
                     "UNKNOWN cap-exceeded oracle", "UNKNOWN sampled", "REDUNDANT"):
            assert kinds[kind] >= 20, (kind, kinds)
        assert kinds["REDUNDANT witness-literal"] >= 20, kinds


class TestExitCodes:
    def test_usage_errors(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", BLOCKED_3)
        cases = [
            ["check", path, "--property", "bc"],                                  # no clause
            ["check", path, "--property", "bc", "--clause", "1 0", "--clause-index", "0"],
            ["check", path, "--property", "bc", "--clause", "1 x 0"],
            ["check", path, "--property", "bc", "--clause", "1 0 2"],
            ["encode-qbf", path, "--clause", "1 x 0"],
            ["check", path, "--property", "bc", "--clause-index", "9"],
            ["check", path, "--property", "nosuch", "--clause", "1 0"],
            ["eliminate", path, "--property", "bc", "--rounds", "0"],
            ["check", path, "--property", "setbc", "--clause", "1 2 0", "--k", "0"],
            ["check", path, "--property", "supbc", "--clause", "1 2 0", "--ext-cap", "-1"],
            ["check", path, "--property", "supbc", "--clause", "1 2 0", "--incomplete", "0"],
        ]
        for argv in cases:
            assert run(argv) == 64, argv
            assert capsys.readouterr().err.startswith("error:")
        # these used to leak Python's internal messages or write a malformed
        # table; the message must name the flag at fault
        flagged = [
            (["gen-random", "--vars", "0"], "--vars"),
            (["gen-random", "--width", "0"], "--width"),
            (["gen-random", "--clauses", "-2"], "--clauses"),
            (["classify", path, "--property", ","], "--property"),
            (["classify", path, "--property", "at,at"], "--property"),
            (["classify", path, "--property", "at", "--property", "bc,at"], "--property"),
            (["check", path, "--property", "sem-oracle", "--clause", "1 2 0", "--cap", "-1"],
             "--cap"),
            (["solve-brute", path, "--cap", "-1"], "--cap"),
            (["classify", path, "--k", "0"], "--k"),
            (["classify", path, "--ext-cap", "-1"], "--ext-cap"),
            (["eliminate", path, "--property", "bc", "--k", "0"], "--k"),
            (["eliminate", path, "--property", "bc", "--ext-cap", "-1"], "--ext-cap"),
        ]
        # the ranges hold for the properties that never read these flags too
        for prop in ("sem-oracle", "varelim", "redundant-oracle"):
            for flag, value in (("--k", "0"), ("--ext-cap", "-1")):
                flagged.append(
                    (["check", path, "--property", prop, "--clause", "1 2 0", flag, value], flag))
        for argv, flag in flagged:
            assert run(argv) == 64, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and flag in captured.err, argv
        # a value that is no integer keeps argparse's own message
        assert run(["classify", path, "--k", "abc"]) == 64
        assert capsys.readouterr().err == "error: argument --k: invalid int value: 'abc'\n"

    def test_malformed_input_file(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", "p cnf nonsense\n1 0\n")
        assert run(["check", path, "--property", "bc", "--clause", "1 0"]) == 65

    def test_non_utf8_input_is_malformed_and_names_the_line(self, tmp_path, capsys, monkeypatch):
        bad = b"p cnf 2 1\n1 \xff 0\n"
        path = tmp_path / "bad.cnf"
        path.write_bytes(bad)
        assert run(["check", str(path), "--property", "bc", "--clause", "1 0"]) == 65
        assert capsys.readouterr().err.startswith("error: line 2:")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad)))
        assert run(["check", "-", "--property", "bc", "--clause", "1 0"]) == 65
        assert capsys.readouterr().err.startswith("error: line 2:")
        src = put(tmp_path, "f.cnf", BLOCKED_3)
        tracef = put(tmp_path, "steps.trace", "t blockcheck 1\n")
        model = tmp_path / "m.txt"
        model.write_bytes(b"v 1 -2\nv \xff 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", str(model)]) == 65
        assert capsys.readouterr().err.startswith("error: line 2:")

    def test_strict_mode_enforces_the_header(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", "p cnf 3 1\n-1 3 0\n-2 -1 0\n")
        with pytest.warns(UserWarning):
            assert run(["check", path, "--property", "bc", "--clause", "3 0"]) == 0
        capsys.readouterr()
        rc = run(["check", path, "--property", "bc", "--clause", "3 0", "--strict"])
        assert rc == 65

    def test_missing_file(self, capsys):
        assert run(["check", "/no/such/file.cnf", "--property", "bc", "--clause", "1 0"]) == 66
        assert capsys.readouterr().err.startswith("error:")

    def test_unreadable_input_exits_66(self, tmp_path, monkeypatch, capsys):
        path = put(tmp_path, "f.cnf", BLOCKED_3)

        def denied(file, mode="r", *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert run(["check", path, "--property", "bc", "--clause", "1 0"]) == 66
        assert capsys.readouterr().err == "error: cannot read %s: Permission denied\n" % path
        assert run(["classify", path]) == 66

    @pytest.mark.parametrize("error", [
        OSError(28, "No space left on device"),
        PermissionError(13, "Permission denied"),
    ])
    def test_unwritable_output_exits_74(self, tmp_path, monkeypatch, capsys, error):
        path = put(tmp_path, "f.cnf", BLOCKED_3)
        real_open = open

        def failing(file, mode="r", *args, **kwargs):
            if "w" not in mode:
                return real_open(file, mode, *args, **kwargs)
            raise error

        monkeypatch.setattr(cli, "open", failing, raising=False)
        out = str(tmp_path / "out.cnf")
        assert run(["gen-random", "--out", out]) == 74
        assert capsys.readouterr().err == "error: cannot write %s: %s\n" % (out, error.strerror)
        assert run(["eliminate", path, "--property", "bc", "--out", out]) == 74
        assert run(["classify", path, "--out", out]) == 74
        # stdout is not a file this command opens
        assert run(["classify", path]) == 0
        capsys.readouterr()

    def test_tautological_clause_argument(self, tmp_path, capsys, monkeypatch):
        # the elimination characterization takes no tautology; the command
        # line refuses one as a usage error before the library sees it
        path = put(tmp_path, "f.cnf", "p cnf 3 4\n-1 3 0\n-2 -1 0\n1 2 0\n2 -2 0\n")
        monkeypatch.setattr(cli, "sem_blocked_via_elimination", None)
        monkeypatch.setattr(cli, "encode_qbf", None)
        for argv, command in (
            (["check", path, "--property", "varelim"], "--property varelim"),
            (["encode-qbf", path], "encode-qbf"),
        ):
            for flag, value in (("--clause", "1 -1 0"), ("--clause-index", "3")):
                assert run(argv + [flag, value]) == 64, (argv, flag)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    "error: %s names a tautology; %s takes non-tautological clauses only\n"
                    % (flag, command))


# -- reader error texts: every malformed input ends in one stderr line -------

READER_CNF = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"
READER_TRACE = "t blockcheck 1\nd bc 1 2 0 w 1 0\n"
READER_MODEL = "v 1 -2 3 0\n"
T = "t blockcheck 1\n"
S = T + "d supbc 1 2 0 w 0\n"
NO_ROW_OF_40 = S + "wt " + " ".join(str(-v) for v in range(3, 43)) + " 0 1 0\n"

# (reader, input text, exit code, stderr line after "error: "). The input is
# a DIMACS file for `check` (also with --strict), a QDIMACS file for
# `gen-reduction qbf2supbc`, a trace or a model for `reconstruct` (the other
# two inputs being READER_CNF with READER_TRACE or READER_MODEL), or the
# text of `check --clause`.
READER_ERRORS = [
    ("dimacs", "", 65, "line 1: missing header"),
    ("dimacs", "1 0\n", 65, "line 1: clause data before header: '1 0'"),
    ("dimacs", "c only a comment\n\n", 65, "line 1: missing header"),
    ("dimacs", "p cnf 2\n", 65, "line 1: malformed header: 'p cnf 2'"),
    ("dimacs", "p cnf a 1\n", 65, "line 1: malformed header: 'p cnf a 1'"),
    ("dimacs", "p dnf 2 1\n", 65, "line 1: malformed header: 'p dnf 2 1'"),
    ("dimacs", "p cnf -1 1\n", 65, "line 1: negative counts in header: 'p cnf -1 1'"),
    ("dimacs", "p cnf 2 1\np cnf 2 1\n1 0\n", 65, "line 2: duplicate header line"),
    ("dimacs", "p cnf 2 2\n1 2 0\n-1 x 0\n", 65, "line 3: bad literal 'x'"),
    ("dimacs", "p cnf 2 1\n1 1.5 0\n", 65, "line 2: bad literal '1.5'"),
    ("dimacs", "p cnf 2 2\n1 2 0 x\n", 65, "line 2: bad literal 'x'"),
    ("dimacs", "p cnf 2 1\n1 2\n", 65, "line 2: unterminated clause at end of input"),
    ("dimacs", "p cnf 2 1\n1 2\nc trailing\n\n", 65, "line 2: unterminated clause at end of input"),
    ("dimacs", "p cnf 2 1\n1 -\n2 0\n", 65, "line 2: bad literal '-'"),
    ("dimacs", "p cnf 2 1\n1 2 0\n3 4 0\n1 2 3 0 4\n", 65,
     "line 4: unterminated clause at end of input"),
    ("strict", "p cnf 1 1\n1 0\n2 0\n", 65, "line 1: declared 1 variables but found id 2"),
    ("strict", "p cnf 2 2\n1 0\n", 65, "line 1: declared 2 clauses, parsed 1"),
    ("qdimacs", "p cnf 2 1\ne 1 x 0\n1 2 0\n", 65, "line 2: bad literal 'x'"),
    ("qdimacs", "p cnf 2 1\na 1\ne 2 0\n1 2 0\n", 65, "line 2: unterminated quantifier line"),
    ("qdimacs", "p cnf 2 1\na 1 0 2\ne 2 0\n1 2 0\n", 65, "line 2: unterminated quantifier line"),
    ("qdimacs", "p cnf 2 1\na 1 0\n1 2 0\ne 2 0\n", 65,
     "line 4: quantifier line after matrix clauses"),
    ("qdimacs", "p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n", 65, "line 3: misplaced or repeated 'a' block"),
    ("qdimacs", "p cnf 2 1\na -1 0\ne 2 0\n1 2 0\n", 65, "line 2: bad quantified variable -1"),
    ("qdimacs", "p cnf 2 1\na 1 0\ne 1 0\n1 2 0\n", 65, "line 3: variable 1 quantified twice"),
    ("qdimacs", "p cnf 2 1\na 1 0\n1 2 0\n", 65, "line 3: free matrix variables [2]"),
    ("qdimacs", "a 1 0\np cnf 2 1\n", 65, "line 1: clause data before header: 'a 1 0'"),
    ("qdimacs", "p cnf 2 1\na 1 0\nc 1 0\ne 1 0\n1 2 0\n", 65,
     "line 4: variable 1 quantified twice"),
    ("qdimacs", "p cnf 2 1\na 1 0\n\te 2\n1 2 0\n", 65, "line 3: unterminated quantifier line"),
    ("trace", "", 65, "line 1: empty trace"),
    ("trace", "t blockcheck 2\n", 65, "line 1: unrecognized trace header: 't blockcheck 2'"),
    ("trace", "d bc 1 2 0 w 1 0\n", 65,
     "line 1: unrecognized trace header: 'd bc 1 2 0 w 1 0'"),
    ("trace", T + "d\n", 65, "line 2: truncated trace line: 'd'"),
    ("trace", T + "d qrat 1 0 w 1 0\n", 65, "line 2: unknown property tag 'qrat'"),
    ("trace", T + "d bc 1 2 0 1 0\n", 65, "line 2: missing witness section: 'd bc 1 2 0 1 0'"),
    ("trace", T + "d bc 1 2 0 w 1 0 junk\n", 65,
     "line 2: trailing tokens on trace line: 'd bc 1 2 0 w 1 0 junk'"),
    ("trace", T + "d bc 1 2 w 1 0\n", 65, "line 2: bad literal 'w'"),
    ("trace", T + "d bc 1 2 0 w 1\n", 65, "line 2: unterminated literal list"),
    ("trace", T + "d bc 1 2 0 w 0\n", 65, "line 2: literal-blocking entry needs one witness"),
    ("trace", T + "d bc 1 2 0 w 1 2 0\n", 65, "line 2: literal-blocking entry needs one witness"),
    ("trace", T + "d setbc 1 2 0 w 0\n", 65, "line 2: set-blocking entry without a witness"),
    ("trace", T + "d at 1 -1 0 w 1 0\n", 65, "line 2: unexpected witness for 'at'"),
    ("trace", T + "d rat 1 2 0 w 1 2 0\n", 65, "line 2: at most one witness literal allowed"),
    ("trace", T + "q 1 0\n", 65, "line 2: unrecognized trace line: 'q 1 0'"),
    ("trace", T + "x 1 2\n", 65, "line 2: unterminated literal list"),
    ("trace", T + "wt 3 0 1 0\n", 65, "line 2: restriction line outside a supbc entry"),
    ("trace", S + "wt 3 -3 0 1 0\nwt -3 0 1 0\n", 65,
     "line 3: conflicting literals for variable 3"),
    ("trace", S + "wt 3 0 1 0 2\n", 65, "line 3: trailing tokens on trace line: 'wt 3 0 1 0 2'"),
    ("trace", S + "wt 3 0 1\n", 65, "line 3: unterminated literal list"),
    ("trace", S + "wt -3 0 1 0\nc note\nwt -3 0 2 0\n", 65,
     "line 5: second restriction line for one assignment"),
    ("trace", S + "wt -3 0 1 0\nwt 4 0 1 0\n", 65,
     "line 4: restriction over other variables than the first"),
    ("trace", T + "d bc 1 2 0 w 7 0\n", 65, "line 2: witness literal 7 is not in the clause"),
    ("trace", T + "d setbc 1 2 0 w 7 0\n", 65, "line 2: witness literal 7 is not in the clause"),
    ("trace", T + "d supbc 1 2 0 w 1 7 0\n", 65, "line 2: witness literal 7 is not in the clause"),
    ("trace", T + "d rat 1 2 0 w -1 0\n", 65, "line 2: witness literal -1 is not in the clause"),
    ("trace", T + "d abc 1 2 0 w 3 0\n", 65, "line 2: witness literal 3 is not in the clause"),
    ("trace", S + "wt -3 0 1 0\nwt 3 0 7 0\n", 65,
     "line 4: witness literal 7 is not in the clause"),
    ("trace", S + "wt -3 0 0\nwt 3 0 1 0\n", 65, "line 3: empty blocking set in restriction line"),
    ("trace", S + "wt -3 0 1 0\n", 65, "line 2: restriction table covers 1 of 2 assignments"),
    ("trace", NO_ROW_OF_40, 65, "line 2: restriction table covers 1 of 1099511627776 assignments"),
    ("trace", S + "wt -3 -4 0 1 0\nwt 3 4 0 2 0\nd bc 1 2 0 w 1 0\n", 65,
     "line 2: restriction table covers 2 of 4 assignments"),
    ("model", "", 65, "line 1: model not zero-terminated"),
    ("model", "v 1 x 0\n", 65, "line 1: bad literal 'x'"),
    ("model", "c note\nv 1\nv x 0\n", 65, "line 3: bad literal 'x'"),
    ("model", "v 1 2\n", 65, "line 1: model not zero-terminated"),
    ("model", "v 1 0\nv 2 0\n", 65, "line 2: content after model terminator: 'v 2 0'"),
    ("model", "v 1 0 2\n", 65, "line 1: content after model terminator: 'v 1 0 2'"),
    ("model", "x 1 0\n", 65, "line 1: unrecognized model line: 'x 1 0'"),
    ("model", "v 1 -1 0\n", 65, "line 1: conflicting literals for variable 1"),
    ("clause", "1 x 0", 64, "--clause '1 x 0': line 1: bad literal 'x'"),
    ("clause", "1 0 2", 64, "literal 0 may only terminate --clause"),
    ("clause", "1 -0 2", 64, "literal 0 may only terminate --clause"),
    ("clause", "1 2 00 x", 64, "literal 0 may only terminate --clause"),
]


def reader_argv(tmp_path, reader, text):
    """The command line that feeds `text` to one reader."""
    if reader == "clause":
        return ["check", put(tmp_path, "f.cnf", READER_CNF), "--property", "bc", "--clause", text]
    path = put(tmp_path, "input", text)
    if reader in ("dimacs", "strict"):
        argv = ["check", path, "--property", "bc", "--clause", "1 0"]
        return argv + ["--strict"] if reader == "strict" else argv
    if reader == "qdimacs":
        out = str(tmp_path / "out.cnf")
        return ["gen-reduction", "qbf2supbc", path, "--out", out, "--clause-out", out + ".clause"]
    src = put(tmp_path, "f.cnf", READER_CNF)
    if reader == "trace":
        return ["reconstruct", src, "--trace", path, "--model", put(tmp_path, "m", READER_MODEL)]
    return ["reconstruct", src, "--trace", put(tmp_path, "t", READER_TRACE), "--model", path]


class TestReaderErrorTexts:
    @pytest.mark.parametrize("reader, text, code, message", READER_ERRORS)
    def test_exit_code_and_stderr_line(self, tmp_path, capsys, reader, text, code, message):
        assert run(reader_argv(tmp_path, reader, text)) == code
        assert capsys.readouterr().err == ("error: %s\n" % message if message else "")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GEN_ARGS = ["gen-random", "--seed", "3", "--vars", "4", "--clauses", "2"]


def run_declared_script(target, args):
    """Run a `module:attr` console-script target the way pip's wrapper does,
    importing `blockcheck` from wherever this test process imported it."""
    module, _, attr = target.partition(":")
    code = "import sys; sys.argv[0] = 'blockcheck'; from %s import %s; sys.exit(%s())" % (
        module, attr, attr)
    package_root = str(Path(blockcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_console_script_is_installed():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "blockcheck" in scripts
    target = scripts["blockcheck"]
    assert callable(pkgutil.resolve_name(target))

    proc = run_declared_script(target, GEN_ARGS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "c seed 3"

    # The exit code must come through the entry point, not just run().
    proc = run_declared_script(
        target, ["check", "/no/such/file.cnf", "--property", "bc", "--clause", "1 0"])
    assert proc.returncode == 66
    assert proc.stderr.startswith("error:")


def test_module_runs_from_the_checkout():
    package_root = str(Path(blockcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "blockcheck", "gen-random", "--seed", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "c seed 3"


@pytest.mark.skipif(shutil.which("blockcheck") is None,
                    reason="blockcheck is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run([shutil.which("blockcheck"), *GEN_ARGS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "c seed 3"
