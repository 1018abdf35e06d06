"""Spans and counts for the traced run.

The tracer wraps the layers' public functions where their callers look
them up (module attributes and one method), records a span per call (name,
start, end, parent) and counts at the same boundaries, and restores every
binding afterwards.  The program's source is left as it is.
"""

from __future__ import annotations

import importlib
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import prod
from time import perf_counter

from ontorewrite import (chase, emit, model, normalize, parallel, parser,
                         rewriter, subsume)

# The package's `eliminate` attribute is the function, not the module.
eliminate = importlib.import_module("ontorewrite.eliminate")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.contexts = []  # every RewriterContext built while tracing
        self.elim_contexts = []  # and every EliminationContext
        self._local = threading.local()
        self._lock = threading.Lock()  # pool workers record spans and counts too
        self._shared_parent = None  # parent of spans opened in pool workers
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._shared_parent
        record = [name, perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = perf_counter()
            stack.pop()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                with tracer._lock:
                    after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        c = self.counts
        w = self.wrap

        def on_context(args, ctx):
            self.contexts.append(ctx)

        def on_elim_context(args, ec):
            self.elim_contexts.append(ec)

        def on_reduce(args, out):
            c["eliminate.atoms_removed"] += len(args[0].body) - len(out.body)

        def on_xrewrite(args, result):
            m = result.metrics
            c["rewriter.explored"] += m.explored
            c["rewriter.generated"] += m.generated
            c["rewriter.factorized"] += m.factorized
            c["subsume.pruned"] += sum(1 for e in result.state.entries if e.pruned)

        def on_admit(args, entry):
            c["rewriter.admit_new"] += entry is not None

        def on_unfold(args, out):
            c["parallel.unfold_products"] += prod(len(u) for u in args[0])
            c["parallel.unfold_kept"] += len(out)

        def on_prune(args, out):
            c["subsume.pruned"] += len(args[0]) - len(out)

        def on_evaluate(args, out):
            c["chase.answers"] += len(out)

        def on_sql(args, sql):
            c["emit.sql_bytes"] += len(sql.encode())

        w(parser, "parse_ontology", "parser.parse")
        w(parser, "parse_query", "parser.parse")
        w(normalize, "normalize_tgds", "normalize.normalize_tgds")
        w(rewriter, "RewriterContext", "rewriter.context", on_context)
        w(rewriter, "EliminationContext", "eliminate.context", on_elim_context)
        w(eliminate, "build_cover_graph", "graphs.build_cover_graph")
        w(rewriter, "affected_positions", "graphs.affected_positions")
        for owner in (rewriter, parallel):
            w(owner, "reduce_query", "eliminate.reduce_query", on_reduce)
            w(owner, "mgu", "model.mgu")
        w(rewriter, "xrewrite", "rewriter.xrewrite", on_xrewrite)
        w(parallel, "xrewrite", "rewriter.xrewrite", on_xrewrite)
        w(rewriter, "applicable", "rewriter.applicable")
        w(rewriter, "factorizable", "rewriter.factorizable")
        w(rewriter, "rewrite_step", "rewriter.rewrite_step")
        w(rewriter, "factorize_step", "rewriter.factorize_step")
        w(rewriter.RewriteState, "admit", "rewriter.admit", on_admit)
        for owner in (rewriter, subsume, model):
            w(owner, "canonical_rename", "model.canonical_rename")
        w(subsume, "find_homomorphism", "model.find_homomorphism")
        w(subsume, "subsumes", "subsume.subsumes")
        w(subsume, "prune_ucq", "subsume.prune_ucq", on_prune)
        w(subsume, "prune_tail_state", "subsume.prune_tail_state")
        w(parallel, "decompose", "parallel.decompose")
        w(parallel, "unfold", "parallel.unfold", on_unfold)
        w(chase, "evaluate_ucq", "chase.evaluate_ucq", on_evaluate)
        w(emit, "to_sql", "emit.to_sql", on_sql)
        self._wrap_parallel()

    def _wrap_parallel(self):
        # Spans opened in the thread pool's workers hang under the
        # xrewrite_parallel call that started them.
        original = parallel.xrewrite_parallel
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span("parallel.xrewrite_parallel") as index:
                tracer._shared_parent = index
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._shared_parent = None
            tracer.counts["parallel.components"] += result.metrics.components
            return result

        parallel.xrewrite_parallel = wrapper
        self._patches.append((parallel, "xrewrite_parallel", original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reading the spans.


def _covered(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def span_table(spans):
    """Per span name: calls, total seconds and self seconds, where self time
    is the duration minus the part of it the span's children cover."""
    children = defaultdict(list)
    for name, s, e, parent in spans:
        if parent is not None:
            children[parent].append((s, e))
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, s, e, parent) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += e - s
        row[2] += (e - s) - _covered(children.get(i, ()), s, e)
    return dict(table)


def stage_seconds(spans, parent_name, child_name) -> float:
    """Summed over the spans named parent_name: the time from the first
    start to the last end of their child_name children."""
    bounds = {}
    for name, s, e, parent in spans:
        if name == child_name and parent is not None \
                and spans[parent][0] == parent_name:
            lo, hi = bounds.get(parent, (s, e))
            bounds[parent] = (min(lo, s), max(hi, e))
    return sum(hi - lo for lo, hi in bounds.values())


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale: float, overhead_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json.  Times are scaled to the
    reference speed like the end-to-end ones; a layer that did not run
    reads 0, and so does a ratio whose base is 0."""
    table = span_table(tracer.spans)
    c = tracer.counts

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return table.get(name, (0, 0.0, 0.0))[1] * scale * 1000

    def cache_ratio(caches):
        hits = sum(cache.hits for cache in caches)
        return _ratio(hits, hits + sum(cache.misses for cache in caches))

    generated = c["rewriter.generated"]
    renames = calls("model.canonical_rename")
    values = {
        "parser.parse_ms": ms("parser.parse"),
        "normalize.normalize_ms": ms("normalize.normalize_tgds"),
        "eliminate.context_ms": ms("eliminate.context"),
        "eliminate.reduce_calls": calls("eliminate.reduce_query"),
        "eliminate.reduce_ms": ms("eliminate.reduce_query"),
        "eliminate.atoms_removed": c["eliminate.atoms_removed"],
        "rewriter.explored": c["rewriter.explored"],
        "rewriter.generated": generated,
        "rewriter.factorized": c["rewriter.factorized"],
        "rewriter.applicable_calls": calls("rewriter.applicable"),
        "rewriter.applicable_ms": ms("rewriter.applicable"),
        "rewriter.rewrite_step_ms": ms("rewriter.rewrite_step"),
        "rewriter.factorize_step_ms": ms("rewriter.factorize_step"),
        "rewriter.admit_calls": calls("rewriter.admit"),
        "rewriter.admit_ms": ms("rewriter.admit"),
        "rewriter.admit_new_ratio": _ratio(c["rewriter.admit_new"],
                                           calls("rewriter.admit")),
        "rewriter.us_per_generated": _ratio(ms("rewriter.xrewrite") * 1000,
                                            generated),
        "model.canonical_rename_calls": renames,
        "model.canonical_rename_ms": ms("model.canonical_rename"),
        "model.canonical_rename_us_per_call": _ratio(
            ms("model.canonical_rename") * 1000, renames),
        "model.mgu_calls": calls("model.mgu"),
        "model.mgu_ms": ms("model.mgu"),
        "model.homomorphism_calls": calls("model.find_homomorphism"),
        "model.homomorphism_ms": ms("model.find_homomorphism"),
        "cache.mgu_hit_ratio": cache_ratio(
            [ctx.mgu_cache for ctx in tracer.contexts]),
        "cache.rename_hit_ratio": cache_ratio(
            [ctx.rename_cache for ctx in tracer.contexts]),
        "cache.elim_hit_ratio": cache_ratio(
            [ec.cache for ec in tracer.elim_contexts]),
        "parallel.components": c["parallel.components"],
        "parallel.decompose_ms": ms("parallel.decompose"),
        "parallel.component_rewrite_ms": stage_seconds(
            tracer.spans, "parallel.xrewrite_parallel",
            "rewriter.xrewrite") * scale * 1000,
        "parallel.unfold_ms": ms("parallel.unfold"),
        "parallel.unfold_products": c["parallel.unfold_products"],
        "parallel.unfold_kept_ratio": _ratio(c["parallel.unfold_kept"],
                                             c["parallel.unfold_products"]),
        "subsume.subsumes_calls": calls("subsume.subsumes"),
        "subsume.subsumes_ms": ms("subsume.subsumes"),
        "subsume.pruned": c["subsume.pruned"],
        "chase.evaluate_ms": ms("chase.evaluate_ucq"),
        "chase.answers": c["chase.answers"],
        "emit.to_sql_ms": ms("emit.to_sql"),
        "emit.sql_bytes": c["emit.sql_bytes"],
        "emit.sqlite_ms": ms("emit.sqlite"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
