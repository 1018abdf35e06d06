import random

from ontorewrite.model import atom, make_query, var
from ontorewrite.parallel import decompose, unfold, xrewrite_parallel
from ontorewrite.rewriter import RewriteOptions, xrewrite

from conftest import canon_set, pipeline, query

A, B, C = var("A"), var("B"), var("C")


def test_decompose_financial_four_components(financial):
    doc, tgds, ctx, q = financial
    dec = decompose(q, ctx)
    preds = [[a.pred for a in comp] for comp in dec.components]
    assert preds == [["finInstrument"], ["stockPortfolio", "company"],
                     ["listComponent"], ["finIndex"]]
    heads = [(cq.head_pred, tuple(t.name for t in cq.head_args))
             for cq in dec.component_queries]
    assert [h[1] for h in heads] == [("A",), ("A", "B"), ("A", "C"), ("C",)]
    recon_args = [tuple(t.name for t in a.args) for a in dec.reconciliation.body]
    assert recon_args == [("A",), ("A", "B"), ("A", "C"), ("C",)]


def test_decompose_without_existentials_is_atomic():
    doc, tgds, ctx = pipeline("r(X,Y) -> s(X,Y).")
    q = query("p(A) :- r(A,B), s(B,C), r(C,A).", doc)
    dec = decompose(q, ctx)
    assert dec.size == 3


def test_decompose_affected_join_single_component():
    doc, tgds, ctx = pipeline("r(X) -> s(X,Y).")
    q = query("p() :- s(A,B), s(C,B).", doc)
    dec = decompose(q, ctx)
    assert dec.size == 1


def test_decompose_optimal_no_component_splits():
    doc, tgds, ctx, q = pipeline_financial()
    dec = decompose(q, ctx)
    # the two-atom component cannot be split: B occurs only at affected
    # positions and spans both atoms
    comp = dec.components[1]
    assert len(comp) == 2
    shared = set(comp[0].args) & set(comp[1].args)
    assert any(t.name == "B" for t in shared)


def pipeline_financial():
    from conftest import FINANCIAL, FINANCIAL_QUERY
    doc, tgds, ctx = pipeline(FINANCIAL)
    return doc, tgds, ctx, query(FINANCIAL_QUERY, doc)


def test_unfold_singleton_product():
    doc, tgds, ctx = pipeline("r(X,Y) -> s(X,Y).")
    q = query("p(A,B) :- r(A,B), s(B,C).", doc)
    dec = decompose(q, ctx)
    singletons = [[cq] for cq in dec.component_queries]
    out = unfold(singletons, dec.reconciliation, ctx)
    assert canon_set(out) == canon_set([q])


def test_unfold_product_count_disjoint_components():
    p1, p2 = "cmp_1", "cmp_2"
    recon = make_query("p", [A, B], [atom(p1, A), atom(p2, B)])
    u1 = [make_query(p1, [A], [atom("r", A)]),
          make_query(p1, [A], [atom("s", A)])]
    u2 = [make_query(p2, [B], [atom("t", B)]),
          make_query(p2, [B], [atom("u", B)]),
          make_query(p2, [B], [atom("v", B)])]
    out = unfold([u1, u2], recon)
    assert len(out) == 6


def test_unfold_preserves_cross_component_joins(financial):
    doc, tgds, ctx, q = financial
    res = xrewrite_parallel(q, ctx, RewriteOptions(elimination=True))
    assert canon_set(res.queries) == canon_set(
        [query("p(A,B,C) :- stockPortfolio(B,A,D), listComponent(A,C).", doc),
         query("p(A,B,C) :- listComponent(A,C), hasStock(A,B).", doc)])


def test_parallel_equals_sequential_financial(financial):
    doc, tgds, ctx, q = financial
    for elim in (False, True):
        seq = xrewrite(q, ctx, RewriteOptions(elimination=elim))
        par = xrewrite_parallel(q, ctx, RewriteOptions(elimination=elim))
        assert canon_set(seq.queries) == canon_set(par.queries)
        assert par.metrics.components == (4 if not elim else 2)


def test_parallel_single_component_matches_sequential():
    doc, tgds, ctx = pipeline("r(X) -> s(X,Y).")
    q = query("p() :- s(A,B), s(C,B).", doc)
    seq = xrewrite(q, ctx)
    par = xrewrite_parallel(q, ctx)
    assert canon_set(seq.queries) == canon_set(par.queries)
    assert par.metrics.components == 1


def test_parallel_atomic_components_size_product():
    # m independent atomic components, each with k rewritings -> k^m outputs
    doc, tgds, ctx = pipeline("q_1(X) -> p_1(X).  q_2(X) -> p_2(X).")
    q = query("p(A,B) :- p_1(A), p_2(B).", doc)
    par = xrewrite_parallel(q, ctx)
    assert par.metrics.components == 2
    assert len(par.queries) == 4


def test_parallel_equivalence_random():
    from conftest import (random_linear_rules, random_query, random_sticky_rules,
                          rules_context)
    rng = random.Random(31)
    for i in range(30):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng)
        options = RewriteOptions(elimination=False, budget=50000)
        seq = xrewrite(q, ctx, options)
        par = xrewrite_parallel(q, ctx, options)
        assert canon_set(seq.queries) == canon_set(par.queries), (rules, q)


def test_parallel_financial_without_elimination():
    doc, tgds, ctx, q = pipeline_financial()
    res = xrewrite_parallel(q, ctx, RewriteOptions(elimination=False))
    assert len(res.queries) == 60
    assert len(canon_set(res.queries)) == 60
    assert res.metrics.components == 4
    # without idec, unfold consumed the component rewritings as they came
    assert res.component_ucqs == [r.queries for r in res.component_results]
    assert canon_set(unfold(res.component_ucqs,
                            res.decomposition.reconciliation)) == \
        canon_set(res.queries)
