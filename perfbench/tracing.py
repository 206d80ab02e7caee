"""Spans and counters recorded around calls into blockcheck's layers.

Nothing in the package is changed on disk: while a traced round runs, the
tracer replaces the names through which one layer calls another (for
example `cli.eliminate_clauses` or `engine._CHECKS["supbc"]`) with wrappers
that record a span, and puts the originals back afterwards. A span is a
name, a start, an end and the index of the span that was open when it
started. Counters are read at the same boundaries, from return values,
exceptions and the public `stats=` argument of `is_set_blocked`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from blockcheck import asymmetric, blocking, cli, engine
from blockcheck.errors import CapExceeded

# The layer each classify/eliminate property check belongs to.
CHECK_LAYER = {
    "t": "cnf",
    "bc": "blocking", "setbc": "blocking", "supbc": "blocking",
    "s": "asymmetric", "at": "asymmetric", "as": "asymmetric", "abc": "asymmetric",
    "rt": "asymmetric", "rs": "asymmetric", "rat": "asymmetric", "ras": "asymmetric",
}

# name -> span whose summed duration it reports
SPAN_TIMES = {
    "cnf.parse_s": "cnf.parse",
    "cnf.write_s": "cnf.write",
    "engine.eliminate_s": "engine.eliminate",
    "engine.trace_write_s": "engine.trace_write",
    "engine.trace_read_s": "engine.trace_read",
    "engine.reconstruct_s": "engine.reconstruct",
    "engine.classify_s": "engine.classify",
    "blocking.setbc_fast_s": "blocking.is_set_blocked",
    **{"%s.%s_s" % (layer, p): "%s.%s" % (layer, p) for p, layer in CHECK_LAYER.items()},
}

# name -> span whose self time (duration its child spans leave uncovered)
# it reports
SELF_TIMES = {
    "cli.overhead_s": "cli.run",
    "engine.classify_self_s": "engine.classify",
    "blocking.scan_s": "blocking.check_super_blocked",
}

COUNTS = (
    "cnf.clauses_in", "cnf.clauses_out",
    "engine.removed", "engine.skipped", "engine.trace_bytes", "engine.repairs",
    "blocking.candidates", "blocking.ext_vars", "blocking.per_tau_rows", "blocking.cap_skips",
    *("%s.%s_%s" % (layer, p, v) for p, layer in CHECK_LAYER.items() for v in ("yes", "no", "cap")),
)

PROBES = ("blocking.bc_check_us", "asymmetric.ala_s", "asymmetric.ala_added")

PER_LAYER = (*SPAN_TIMES, *SELF_TIMES, *COUNTS, *PROBES, "trace_overhead_frac")


class Tracer:
    """In-memory spans and counters for one traced round."""

    def __init__(self):
        self.spans: "list[list]" = []
        self.counts: Counter = Counter()
        self._open: "list[int]" = []
        self._patches: "list[tuple]" = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, after=None, failed=None, call=None):
        """Record a span named `name` around every call of owner.attr.

        `after(result, args)` and `failed(exc)` update counters; `call`
        replaces the plain call of the original (used to pass `stats=`).
        Works on module and class attributes and on dict entries.
        """
        is_dict = isinstance(owner, dict)
        raw = owner[attr] if is_dict else vars(owner)[attr]
        original = getattr(owner, attr) if isinstance(raw, classmethod) else raw
        invoke = call or (lambda fn, args, kwargs: fn(*args, **kwargs))

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = invoke(original, args, kwargs)
                except Exception as exc:
                    if failed is not None:
                        failed(exc)
                    raise
            if after is not None:
                after(result, args)
            return result

        if isinstance(raw, classmethod):
            new = classmethod(lambda cls, *args, **kwargs: traced(*args, **kwargs))
        else:
            new = traced
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, is_dict))

    def restore(self) -> None:
        for owner, attr, raw, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def installed(self):
        """Instrument every layer boundary for the duration of the block."""
        count = self.counts
        try:
            self.wrap(cli, "parse_dimacs", "cnf.parse",
                      after=lambda f, a: count.update({"cnf.clauses_in": len(f)}))
            self.wrap(cli, "write_dimacs", "cnf.write",
                      after=lambda _, a: count.update({"cnf.clauses_out": len(a[0])}))
            self.wrap(cli, "eliminate_clauses", "engine.eliminate", after=self._eliminated)
            self.wrap(engine.EliminationTrace, "to_text", "engine.trace_write",
                      after=lambda text, a: count.update({"engine.trace_bytes": len(text.encode())}))
            self.wrap(engine.EliminationTrace, "from_text", "engine.trace_read")
            self.wrap(cli, "reconstruct_model", "engine.reconstruct", after=self._repaired)
            self.wrap(cli, "classify", "engine.classify")
            for p, layer in CHECK_LAYER.items():
                self.wrap(engine._CHECKS, p, "%s.%s" % (layer, p),
                          after=self._cell("%s.%s" % (layer, p)),
                          failed=self._cap("%s.%s" % (layer, p)))
            for owner in (cli, blocking):
                self.wrap(owner, "check_super_blocked", "blocking.check_super_blocked",
                          after=self._scanned, failed=self._scan_refused)
            for owner in (cli, engine, blocking):
                self.wrap(owner, "is_set_blocked", "blocking.is_set_blocked", call=self._with_stats)
            yield self
        finally:
            self.restore()

    def _eliminated(self, result, args) -> None:
        trace = result[1]
        self.counts.update({"engine.removed": len(trace.entries),
                            "engine.skipped": len(trace.skipped)})

    def _repaired(self, repaired, args) -> None:
        # variables whose value differs from the model reconstruct was given
        given = args[2]
        changed = sum(repaired.value(v) != (given.value(v) or 0) for v in repaired.variables())
        self.counts["engine.repairs"] += changed

    def _cell(self, key):
        def after(result, args):
            self.counts[key + ("_yes" if result[0] else "_no")] += 1
        return after

    def _cap(self, key):
        def failed(exc):
            if isinstance(exc, CapExceeded):
                self.counts[key + "_cap"] += 1
        return failed

    def _scanned(self, result, args) -> None:
        w = result.witness
        if w is not None and w.kind == "super":
            self.counts["blocking.per_tau_rows"] += len(w.per_tau)
            self.counts["blocking.ext_vars"] += len(next(iter(w.per_tau)).variables())
        elif result.failing_tau is not None:
            self.counts["blocking.ext_vars"] += len(result.failing_tau)

    def _scan_refused(self, exc) -> None:
        if isinstance(exc, CapExceeded):
            self.counts["blocking.cap_skips"] += 1
            self.counts["blocking.ext_vars"] += exc.count

    def _with_stats(self, fn, args, kwargs):
        if len(args) >= 4 or "stats" in kwargs:
            return fn(*args, **kwargs)
        stats: "dict[str, int]" = {}
        try:
            return fn(*args, stats=stats, **kwargs)
        finally:
            self.counts["blocking.candidates"] += stats.get("candidates", 0)

    def _times(self) -> "tuple[Counter, Counter]":
        """Summed duration and summed self time per span name."""
        covered: Counter = Counter()
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
        return total, own

    def metrics(self, scale: float = 1.0) -> "dict[str, float]":
        """Span times (multiplied by scale), self times and counters of this round."""
        total, own = self._times()
        out = {k: scale * total[span] for k, span in SPAN_TIMES.items()}
        out.update({k: scale * own[span] for k, span in SELF_TIMES.items()})
        out.update({k: self.counts[k] for k in COUNTS})
        return out

    def top_spans(self) -> "list[tuple[str, float, float]]":
        """(name, total seconds, self seconds) per span name, largest first."""
        total, own = self._times()
        return sorted(((n, total[n], own[n]) for n in total), key=lambda r: -r[1])


def probes(formulas, with_ala: bool) -> "dict[str, float]":
    """Per-clause probes of the literal-blocking check and ALA saturation.

    `blocking.bc_check_us` is the mean cost of one `is_literal_blocked`
    call over every clause. ALA is quadratic, so its probe runs only where
    the workload's operations run ALA themselves.
    """
    calls, spent = 0, 0.0
    ala_s, added = 0.0, 0
    for f in formulas:
        clauses = f.clauses
        start = time.perf_counter()
        for c in clauses:
            blocking.is_literal_blocked(f, c)
        spent += time.perf_counter() - start
        calls += len(clauses)
        if with_ala:
            start = time.perf_counter()
            for c in clauses:
                added += len(asymmetric.ala_fixpoint(f, c).added)
            ala_s += time.perf_counter() - start
    return {
        "blocking.bc_check_us": 1e6 * spent / max(calls, 1),
        "asymmetric.ala_s": ala_s,
        "asymmetric.ala_added": added,
    }
