"""One benchmark run: set-up, timed rounds, correctness tally, metrics.

`measure` is what `run.py` calls; the tests call it directly at tiny sizes.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path

from blockcheck.cnf import parse_dimacs
from tracing import PER_LAYER, Tracer, probes
from workloads import SETUPS, Outcome, _digest, run_cli

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# The calibration loop's time at the reference CPU speed. A measured
# interval t is reported as t * CAL_REF_S / (the loop's time around t).
CAL_REF_S = 0.0025

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "decided_frac": "frac",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """The fastest of three runs of one fixed pure-Python loop.

    The loop does integer and set operations and allocates no object the
    garbage collector tracks, so its time follows the CPU's speed and not
    the size of the process's heap. The fastest of three drops the odd
    interruption and keeps the speed the CPU is running at.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, seen = 0, set()
        for i in range(20000):
            acc = (acc * 31 + i) & 0xFFFF
            seen.add(acc & 1023)
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Scales measured intervals to the reference CPU speed.

    The host's speed drifts by up to half from one minute to the next, and
    the same fixed loop shows the drift. So each interval is multiplied by
    CAL_REF_S over the loop's mean time just before and just after it.
    """

    def __init__(self):
        self._last = calibrate()
        self.loops = [self._last]

    def factor(self) -> float:
        """The scale for whatever was measured since the previous call."""
        now = calibrate()
        scale = CAL_REF_S / ((self._last + now) / 2)
        self._last = now
        self.loops.append(now)
        return scale


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.decided = 0
        self.units = 0
        self.digests: "dict[int, str]" = {}

    def attempt(self, index: int, op, runner):
        """Run one operation; any exception counts as a failure, never aborts."""
        self.attempted += 1
        try:
            outcome = op(runner)
        except Exception as exc:  # a CLI defect must not end the run
            outcome = Outcome(None, "uncaught %s: %s" % (type(exc).__name__, exc), "", 0)
        if outcome.error is None:
            first = self.digests.setdefault(index, outcome.digest)
            if first != outcome.digest:
                outcome.error = "output differs from the first round's"
        if outcome.error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("op %d: %s" % (index, outcome.error))
        self.decided += outcome.decided
        self.units += outcome.units
        return outcome


def set_up(workload: str, seed: int, work: Path, scale: float, clock: Clock):
    """Run set-up SETUP_REPEATS times; the inputs must come out identical.

    Returns the operations, the input files, the raw and the scaled set-up
    times and the inputs' digest.
    """
    raw, scaled, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, paths = SETUPS[workload](seed, work, scale)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * clock.factor())
        digests.add(_digest(*(p.read_bytes() for p in paths)))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic for seed %d" % seed)
    return ops, paths, raw, scaled, digests.pop()


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, scale: float = 1.0):
    """One benchmark run; returns (result, info) as printed by main."""
    clock = Clock()
    ops, paths, setup_raw, setup_times, input_digest = set_up(workload, seed, work, scale, clock)
    tally = Tally()
    # latencies and round times at reference speed; raw ones for the info line
    latencies, raw_latencies, rounds = [], [], []
    traced_rounds, layer_rounds, top_spans = [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or (trace and not traced_rounds) or time.perf_counter() < deadline:
        if trace and len(rounds) > len(traced_rounds):
            tracer = Tracer()

            def runner(argv, _t=tracer):
                with _t.span("cli.run"):
                    return run_cli(argv)

            with tracer.installed():
                outcomes = [tally.attempt(i, op, runner) for i, op in enumerate(ops)]
            factor = clock.factor()
            traced_rounds.append(factor * sum(o.seconds for o in outcomes if o.seconds is not None))
            layer_rounds.append(tracer.metrics(factor))
            top_spans = tracer.top_spans()
        else:
            spent = 0.0
            for i, op in enumerate(ops):
                outcome = tally.attempt(i, op, run_cli)
                if outcome.seconds is None:  # the CLI raised: no time to report
                    continue
                raw_latencies.append(outcome.seconds)
                latencies.append(outcome.seconds * clock.factor())
                spent += latencies[-1]
            rounds.append(spent)

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": _commit(),
        "samples": {"setup_s": len(setup_times), "rounds": len(rounds),
                    "op_p50_ms": len(latencies), "op_p90_ms": len(latencies)},
        "calibration_ms": 1e3 * statistics.median(clock.loops),
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "op_p50_ms": 1e3 * statistics.median(raw_latencies or [0.0]),
            "op_p90_ms": 1e3 * percentile(raw_latencies or [0.0], 90),
        },
        "input_digest": input_digest,
        "output_digest": _digest_all(tally.digests),
        "errors": tally.errors,
    }
    if trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        formulas = [parse_dimacs(p.read_text()) for p in paths]
        clock.factor()
        probed = probes(formulas, with_ala=workload == "classify-mixed")
        factor = clock.factor()
        probed["blocking.bc_check_us"] *= factor
        probed["asymmetric.ala_s"] *= factor
        metrics.update(probed)
        metrics["trace_overhead_frac"] = (
            statistics.median(traced_rounds) / statistics.median(rounds) - 1)
        info["samples"]["traced_rounds"] = len(traced_rounds)
        info["top_spans"] = [[n, round(t, 6), round(s, 6)] for n, t, s in top_spans[:12]]
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1e3 * statistics.median(latencies or [0.0]),
            "op_p90_ms": 1e3 * percentile(latencies or [0.0], 90),
            "decided_frac": tally.decided / max(tally.units, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def _digest_all(digests: "dict[int, str]") -> str:
    return _digest(*(digests[i] for i in sorted(digests)))


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
