"""The benchmark's traced run wraps the program's functions by name; renaming
one, or no longer calling it where the tracer wraps it, fails here."""

import importlib.util
import json
from pathlib import Path

from ontorewrite import chase, normalize, parallel, parser, rewriter
from ontorewrite.rewriter import RewriteOptions

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_compile_and_answer_reports_every_per_layer_metric():
    tracing = _load_tracing()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        doc = parser.parse_ontology(
            "p_1(X) -> p_0(X).  p_2(X) -> p_0(X).  p_2(X) -> q_0(X).")
        # the query is its own core and no atom covers another, but
        # p() :- p_2(A1), p_2(A2), e(B, B) subsumes three of the six
        # disjuncts
        q = parser.parse_query("p() :- p_0(A1), q_0(A2), e(B, B).",
                               dict(doc.arities))
        tgds, _, aux = normalize.normalize_tgds(doc.tgds)
        ctx = rewriter.RewriterContext(tgds, aux, doc.arities)
        result = parallel.xrewrite_parallel(q, ctx,
                                            RewriteOptions(subsumption="tail"))
        answers = chase.evaluate_ucq(result.queries,
                                     parser.parse_ontology("p_2(a). e(b, b).").facts)
        metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert answers == {()}
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert len(metrics) == len(bench["per_layer"])
    for name in ("parser.parse_ms", "model.homomorphism_calls",
                 "subsume.subsumes_calls", "subsume.pruned",
                 "parallel.components", "chase.answers",
                 "model.canonical_rename_calls", "model.mgu_calls"):
        assert metrics[name] > 0, name
    # the tracer put every binding back
    assert parallel.xrewrite_parallel.__module__ == "ontorewrite.parallel"


def test_traced_financial_compile_admits_every_step():
    # Steps keyed before they are built still pass through admit, duplicates
    # too, so the traced admission counts stay one per step plus the query.
    from conftest import FINANCIAL, FINANCIAL_QUERY
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        doc = parser.parse_ontology(FINANCIAL)
        q = parser.parse_query(FINANCIAL_QUERY, dict(doc.arities))
        tgds, _, aux = normalize.normalize_tgds(doc.tgds)
        ctx = rewriter.RewriterContext(tgds, aux, doc.arities)
        rewriter.xrewrite(q, ctx, RewriteOptions(elimination=False))
        metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert metrics["rewriter.generated"] == 222
    assert metrics["rewriter.admit_calls"] == metrics["rewriter.generated"] + 1
    assert metrics["model.mgu_calls"] == 0
