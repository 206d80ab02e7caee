import gc
import io
import os
import pkgutil
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blockcheck
from blockcheck import (
    is_ABC,
    is_AS,
    is_AT,
    is_satisfiable,
    is_set_blocked,
    is_super_blocked,
    parse_dimacs,
    EliminationConfig,
    EliminationTrace,
    check_super_blocked,
    eliminate_clauses,
    first_model,
    reconstruct_model,
    write_dimacs,
)
from blockcheck import cli
from blockcheck.blocking import BlockingWitness, RestrictionTable, SuperBlockingResult
from blockcheck.cli import run
from blockcheck.gen import random_formula, random_qbf
from blockcheck.reductions import forall_exists_to_superblocking, unsat_to_1superblocking

from conftest import clause, formula

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
            library = {"at": is_AT(f, c), "as": is_AS(f, c), "abc": is_ABC(f, c)}
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
        rc = run(["eliminate", src, "--property", "bc", "--rounds", "1"])
        assert rc == 0
        assert capsys.readouterr().out == "p cnf 2 1\n1 2 0\n"
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
        tracef = put(tmp_path, "bad.trace", "t blockcheck 1\nd supbc 1 2 0 w 0\nwt 9 0 1 0\n")
        model = put(tmp_path, "m.txt", "v -1 -2 -3 0\n")
        assert run(["reconstruct", src, "--trace", tracef, "--model", model]) == 70
        assert capsys.readouterr().err.startswith("error:")

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
                tau = " ".join(map(str, res.failing_tau.to_literals()))
                want = "NOT-BLOCKED failing-tau %s\n" % tau
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
        assert is_super_blocked(f, c_lits, k=1) is not None

    def test_gen_reduction_qbf2supbc(self, tmp_path):
        src = put(tmp_path, "src.qdimacs", "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
        out = str(tmp_path / "inst.cnf")
        assert run(["gen-reduction", "qbf2supbc", src, "--out", out]) == 0
        f = parse_dimacs((tmp_path / "inst.cnf").read_text())
        c_lits = [int(t) for t in (tmp_path / "inst.cnf.clause").read_text().split()[:-1]]
        assert is_super_blocked(f, c_lits) is not None  # the source QBF is true

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

    def test_warm_check_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", FULL_BLOCKING_WIDE)
        argv = ["check", path, "--property", "supbc", "--clause", "1 2 0"]
        assert run(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv) == 0
            gc.collect()
            left = [type(x).__name__ for x in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert capsys.readouterr().out.count("witness-per-tau 4") == 2
        assert left == []


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
        ]
        for argv, flag in flagged:
            assert run(argv) == 64, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and flag in captured.err, argv

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

    def test_tautological_clause_argument(self, tmp_path, capsys):
        path = put(tmp_path, "f.cnf", BLOCKED_3)
        rc = run(["check", path, "--property", "varelim", "--clause", "1 -1 0"])
        assert rc == 64  # the elimination characterization rejects tautologies
        assert capsys.readouterr().err.startswith("error:")


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
