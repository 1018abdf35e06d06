"""Timing, checking and reporting of one workload run.

Every timed step starts after gc.collect(), so each starts from the same
heap state.  The machine's speed drifts: a fixed interpreter-bound kernel
took from 7.0 to 17 ms within a minute on the 2-vCPU virtual machine the
benchmark was built on.  So the kernel is timed after every timed step, and each
step's time is reported at the reference speed, as measured seconds times
REFERENCE_KERNEL_S over the mean of the kernel's timings just before and
just after the step.  The result file keeps unscaled figures too.
"""

from __future__ import annotations

import gc
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from ontorewrite import chase, emit

import checks
import tracing
import workloads

REFERENCE_KERNEL_S = 0.0125


def _kernel() -> float:
    # Tuples, dicts, string formatting and a sort: the kind of work the
    # rewriter does, with no call into the program.
    t0 = perf_counter()
    counts, rows = {}, []
    for i in range(10000):
        key = (i % 97, "v%d" % (i % 31), (i * 7) % 13)
        counts[key] = counts.get(key, 0) + 1
        rows.append(key)
    rows.sort()
    set(rows[::3])
    return perf_counter() - t0


class SpeedGauge:
    def __init__(self):
        self._last = _kernel()
        self.kernel_s = []

    def scale(self) -> float:
        """The factor to the reference speed for what ran since the last
        call, from the kernel timed then and now."""
        now = _kernel()
        self.kernel_s.append(now)
        factor = REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        return factor


@dataclass
class OpRun:
    op: workloads.Op
    ucq: list
    answers: set
    rewrite_s: float  # at the reference speed, like answer_s
    answer_s: float
    rewrite_unscaled_s: float


def run_round(w, gauge: SpeedGauge, tracer=None):
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("bench.setup"):
        ctx, db = workloads.set_up(w)
    gauge.scale()
    out = []
    for op in w.ops:
        gc.collect()
        with span("bench.rewrite"):
            t0 = perf_counter()
            ucq = workloads.compile_query(op, ctx)
            t1 = perf_counter()
        rewrite_scale = gauge.scale()
        gc.collect()
        with span("bench.answer"):
            t2 = perf_counter()
            answers = chase.evaluate_ucq(ucq, db)
            t3 = perf_counter()
        out.append(OpRun(op, ucq, answers, (t1 - t0) * rewrite_scale,
                         (t3 - t2) * gauge.scale(), t1 - t0))
    return out


class Verifier:
    """Checks each operation's output.  A check runs once per distinct
    output of an operation; repeats of the same output share its verdict."""

    def __init__(self):
        self._verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.faults = set()

    def verdict(self, r: OpRun) -> bool:
        key = (r.op.label, emit.serialize_ucq(r.ucq), frozenset(r.answers))
        if key not in self._verdicts:
            self._verdicts[key] = r.op.check(r.ucq, r.answers)
        gap = self._verdicts[key]
        self.attempted += 1
        if gap is None:
            return True
        self.failed += 1
        if r.op.known_fault is not None:
            self.faults.add(f"{r.op.label}: {r.op.known_fault}: {gap}")
        elif len(self.unexpected) < 5:
            self.unexpected.append(f"{r.op.label}: {gap}")
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_seconds(w, gauge):
    samples = []
    for _ in range(w.setup_reps):
        gc.collect()
        t0 = perf_counter()
        workloads.set_up(w)
        dt = perf_counter() - t0
        samples.append(dt * gauge.scale())
    return samples


def run_untraced(w, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed.  The per-query medians are
    medians over rounds of the round's mean time per query: a round's
    queries differ in cost by up to a factor of five, and the median of such
    a mixture falls between its clusters, where it is least steady."""
    gauge = SpeedGauge()
    verifier = Verifier()
    setup = _setup_seconds(w, gauge)
    rewrite_ms, answer_ms, unscaled_ms = [], [], []
    by_op = {op.label: [] for op in w.ops}
    busy_s, ok, rounds = 0.0, 0, 0
    disjuncts = joins = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        kept = []
        for r in run_round(w, gauge):
            busy_s += r.rewrite_s + r.answer_s
            if verifier.verdict(r):
                kept.append(r)
                by_op[r.op.label].append(r.rewrite_s * 1000)
        if kept:
            rewrite_ms.append(statistics.mean(r.rewrite_s for r in kept) * 1000)
            answer_ms.append(statistics.mean(r.answer_s for r in kept) * 1000)
            unscaled_ms.append(
                statistics.mean(r.rewrite_unscaled_s for r in kept) * 1000)
        if rounds == 0:
            disjuncts = sum(len(r.ucq) for r in kept)
            joins = sum(emit.count_joins_total(r.ucq) for r in kept)
        ok += len(kept)
        rounds += 1
    metrics = {
        "setup_s": statistics.median(setup),
        "rewrite_ms_p50": statistics.median(rewrite_ms),
        "answer_ms_p50": statistics.median(answer_ms),
        "queries_per_s": ok / busy_s,
        "ucq_disjuncts": disjuncts,
        "ucq_joins": joins,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rounds": rounds,
        "setup_samples": len(setup),
        "rewrite_ms_p50_unscaled": statistics.median(unscaled_ms),
        "kernel_ms_p50": statistics.median(gauge.kernel_s) * 1000,
        "rewrite_ms_p50_by_op": {label: statistics.median(v)
                                 for label, v in by_op.items() if v},
    }
    return _result(verifier, metrics, detail)


def run_traced(w) -> tuple:
    """The same round untraced, traced, and untraced again, then SQL
    emission of each rewriting sqlite3 can take, traced too.  Returns the
    result and the span file's content."""
    gauge = SpeedGauge()
    verifier = Verifier()
    plain = run_round(w, gauge)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = gauge.scale()
        traced = run_round(w, gauge, tracer)
        for r in traced:
            if 0 < len(r.ucq) <= checks.SQLITE_MAX_DISJUNCTS:
                sql = emit.to_sql(r.ucq, w.sqlite.mapping)
                with tracer.span("emit.sqlite"):
                    w.sqlite.run(sql, boolean=not r.ucq[0].head_args)
        after = gauge.scale()
    finally:
        tracer.uninstall()
    plain_again = run_round(w, gauge)
    for r in plain + traced + plain_again:
        verifier.verdict(r)

    def busy(rs):
        return sum(r.rewrite_s + r.answer_s for r in rs)
    overhead = 2 * busy(traced) / (busy(plain) + busy(plain_again))
    scale = (before + after) / 2
    metrics = tracing.layer_metrics(tracer, scale, overhead)
    table = tracing.span_table(tracer.spans)
    total_self = sum(row[2] for row in table.values()) or 1.0
    spans = {
        "workload": w.name,
        "time_unit": "s, perf_counter, unscaled",
        "columns": ["name", "start", "end", "parent"],
        "spans": tracer.spans,
        "layers": {name: {"calls": row[0], "total_ms": row[1] * scale * 1000,
                          "self_ms": row[2] * scale * 1000,
                          "self_share": row[2] / total_self}
                   for name, row in sorted(table.items())},
    }
    return _result(verifier, metrics, {"scale": scale}), spans


def _result(verifier: Verifier, metrics: dict, detail: dict) -> dict:
    return {
        "correct": not verifier.unexpected,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
        "detail": dict(detail, known_faults=sorted(verifier.faults),
                       unexpected=verifier.unexpected),
    }
