"""Tests of the benchmark itself: failure accounting, smoke runs, seeding.

    python3 -m unittest discover -s perfbench -t perfbench

Each tampering runner below wraps the real CLI and corrupts one kind of
output; the tally must count the operation as failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from blockcheck import oracle  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


class _Workdir(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.work = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def tally(self, workload: str, runner, rounds: int = 1) -> bench.Tally:
        ops, _ = workloads.SETUPS[workload](3, self.work, TINY)
        tally = bench.Tally()
        for _ in range(rounds):
            for i, op in enumerate(ops):
                tally.attempt(i, op, runner)
        return tally


class FailureAccounting(_Workdir):
    def test_untampered_runs_pass(self):
        for workload in workloads.SETUPS:
            tally = self.tally(workload, workloads.run_cli)
            self.assertEqual(tally.failed, 0, (workload, tally.errors))
            self.assertGreater(tally.attempted, 0)

    def test_flipped_verdict_fails(self):
        def flip(argv):
            code, out, t = workloads.run_cli(argv)
            if out.startswith("BLOCKED"):
                return 1, "NOT-BLOCKED\n", t
            if out.startswith("NOT-BLOCKED"):
                return 0, "BLOCKED\n", t
            return code, out, t

        tally = self.tally("supbc-gadgets", flip)
        self.assertGreater(tally.failed, 0)
        self.assertIn("truth is", " ".join(tally.errors))

    def test_falsifying_model_fails(self):
        def spoil(argv):
            code, out, t = workloads.run_cli(argv)
            if argv[0] == "reconstruct":
                first = workloads.read_cnf(Path(argv[1]).read_text())[0]
                model = workloads.read_model(Path(argv[-1]).read_text())
                for lit in first:
                    model[abs(lit)] = lit < 0
                lits = " ".join(str(v if val else -v) for v, val in sorted(model.items()))
                Path(argv[-1]).write_text("v %s 0\n" % lits)
            return code, out, t

        tally = self.tally("bce-3cnf", spoil)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertIn("falsifies", tally.errors[0])

    def test_hierarchy_breaking_row_fails(self):
        bc = workloads.PROPERTIES.index("bc") + 1
        setbc = workloads.PROPERTIES.index("setbc") + 1

        def break_row(argv):
            code, out, t = workloads.run_cli(argv)
            if argv[0] == "classify":
                tsv = Path(argv[-1])
                lines = tsv.read_text().splitlines()
                cells = lines[1].split("\t")
                cells[bc], cells[setbc] = "yes", "no"
                lines[1] = "\t".join(cells)
                tsv.write_text("\n".join(lines) + "\n")
            return code, out, t

        tally = self.tally("classify-mixed", break_row)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertIn("bc=yes but setbc=no", tally.errors[0])

    def test_non_subset_residual_fails(self):
        def grow(argv):
            code, out, t = workloads.run_cli(argv)
            if argv[0] == "eliminate":
                residual = Path(argv[argv.index("--out") + 1])
                residual.write_text(residual.read_text() + "1 -1 999999 0\n")
            return code, out, t

        tally = self.tally("bce-3cnf", grow)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertIn("not a subset", tally.errors[0])

    def test_uncaught_exception_counts_and_run_continues(self):
        calls = []

        def crash(argv):
            calls.append(argv[0])
            if argv[0] == "reconstruct":
                raise KeyError(12345)
            return workloads.run_cli(argv)

        tally = self.tally("bce-3cnf", crash, rounds=2)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        self.assertEqual(calls.count("eliminate"), 2)
        self.assertIn("uncaught KeyError", tally.errors[0])

    def test_changed_output_between_rounds_fails(self):
        seen = set()

        def drift(argv):
            code, out, t = workloads.run_cli(argv)
            key = tuple(map(str, argv))
            if key in seen:
                out += "changed\n"
            seen.add(key)
            return code, out, t

        tally = self.tally("supbc-gadgets", drift, rounds=2)
        self.assertEqual(tally.failed, tally.attempted // 2)
        self.assertIn("differs from the first round", tally.errors[0])


class SmokeRuns(_Workdir):
    def test_every_workload_end_to_end_and_traced(self):
        for workload in workloads.SETUPS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, info = bench.measure(workload, 5, 0.0, trace, self.work, scale=TINY)
                    self.assertTrue(result["correct"], info["errors"])
                    self.assertEqual(result["failed"], 0)
                    names = tuple(result["metrics"])
                    self.assertEqual(names, tracing.PER_LAYER if trace else tuple(bench.END_TO_END))
                    for name in ("seed", "python", "nproc", "commit", "samples",
                                 "input_digest", "output_digest"):
                        self.assertIn(name, info)

    def test_cap_group_answers_unknown(self):
        result, _ = bench.measure("supbc-gadgets", 5, 0.0, False, self.work, scale=TINY)
        self.assertLess(result["metrics"]["decided_frac"]["value"], 1.0)

    def test_bce_trace_has_no_ala_spans(self):
        result, info = bench.measure("bce-3cnf", 5, 0.0, True, self.work, scale=TINY)
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        for name, value in metrics.items():
            if name.startswith("asymmetric.") and name.endswith("_s"):
                self.assertEqual(value, 0, name)
        self.assertEqual(info["top_spans"][1][0], "engine.eliminate")

    def test_second_seed_gives_other_inputs_same_metrics(self):
        for workload in workloads.SETUPS:
            with self.subTest(workload=workload):
                runs = [bench.measure(workload, seed, 0.0, False, self.work, scale=TINY)
                        for seed in (1, 2)]
                (r1, i1), (r2, i2) = runs
                self.assertNotEqual(i1["input_digest"], i2["input_digest"])
                self.assertEqual(list(r1["metrics"]), list(r2["metrics"]))


class BenchmarkJson(unittest.TestCase):
    def test_lists_the_metrics_the_runs_print(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(bench.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.SETUPS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], bench.END_TO_END[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], bench._unit(m["name"]))


class Evaluators(unittest.TestCase):
    def test_forall_exists_matches_oracle(self):
        rng = Random(11)
        for _ in range(60):
            nx = rng.randint(1, 6)
            q = workloads._random_forall_exists(rng, nx, rng.randint(1, 3), nx + rng.randint(0, 5))
            self.assertEqual(
                workloads.forall_exists_true(q.universals, q.existentials, q.matrix),
                oracle.eval_forall_exists(q),
            )


if __name__ == "__main__":
    unittest.main()
