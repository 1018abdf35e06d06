import random

import pytest

import ontorewrite as ow
from ontorewrite.chase import evaluate_ucq
from ontorewrite.model import atom, const, make_query, var
from ontorewrite.rewriter import SUBSUMPTION_MODES, RewriteOptions, xrewrite
from ontorewrite.parallel import xrewrite_parallel
from ontorewrite.subsume import is_subsumption_minimal, prune_ucq, subsumes

from conftest import canon_set, pipeline, query

A, B, C, E, F = (var(n) for n in "ABCEF")


def test_subsumes_incomplete_rewritings_pair():
    q1 = make_query("p", [B, C], [atom("hasCollaborator", A, B, C)])
    q2 = make_query("p", [B, C], [atom("hasCollaborator", A, B, C),
                                  atom("hasCollaborator", A, E, F)])
    assert subsumes(q1, q2)
    # the pair is semantically equivalent, so subsumption holds both ways;
    # pruning must keep exactly one of them
    assert subsumes(q2, q1)
    assert prune_ucq([q2, q1]) == [q1]


def test_subsumes_is_reflexive():
    q = make_query("p", [A], [atom("r", A, B)])
    assert subsumes(q, q)


def test_subsumes_via_collapsing_homomorphism():
    q1 = make_query("p", [], [atom("p_1", A), atom("p_1", B)])
    q2 = make_query("p", [], [atom("p_1", A), atom("p_2", B)])
    assert subsumes(q1, q2)
    # brute-force confirmation over candidate maps
    found = False
    for ta in q2.body:
        for tb in q2.body:
            h = {A: ta.args[0], B: tb.args[0]}
            img = {ow.apply(h, x) for x in q1.body}
            if img <= set(q2.body):
                found = True
    assert found


def _tail(queries, ctx=None, state=None):
    return prune_ucq(queries)


def test_prune_keeps_subsumer_drops_subsumed():
    q1 = make_query("p", [B, C], [atom("hasCollaborator", A, B, C)])
    q2 = make_query("p", [B, C], [atom("hasCollaborator", A, B, C),
                                  atom("hasCollaborator", A, E, F)])
    pruned = prune_ucq([q2, q1])
    assert pruned == [q1]


def test_prune_minimal_input_unchanged():
    q1 = make_query("p", [A], [atom("r", A)])
    q2 = make_query("p", [A], [atom("s", A)])
    assert prune_ucq([q1, q2]) == [q1, q2]


def test_tail_shrinks_boolean_size_law_rewriting():
    doc, tgds, ctx = pipeline("p_1(X) -> p_0(X).  p_2(X) -> p_0(X).")
    q = query("p() :- p_0(A), p_0(B).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    # brute-force subsumption relation confirms redundancy exists
    redundant = any(subsumes(x, y)
                    for x in res.queries for y in res.queries if x != y)
    assert redundant
    pruned = prune_ucq(res.queries)
    assert len(pruned) < len(res.queries)
    assert is_subsumption_minimal(pruned)


def test_tail_through_query_graph_state():
    doc, tgds, ctx = pipeline("p_1(X) -> p_0(X).  p_2(X) -> p_0(X).")
    q = query("p() :- p_0(A), p_0(B).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False,
                                          subsumption="tail"))
    assert is_subsumption_minimal(res.queries)
    # the input query subsumes p_1(A), p_0(B), the only parent of
    # p_1(A), p_1(B); pruning the finished rewriting still keeps the latter
    assert evaluate_ucq(res.queries, [atom("p_1", const("a"))]) == {()}
    pruned = [e for e in res.state.entries if e.pruned]
    assert pruned and all(e.label == "r" and e.explored for e in pruned)


def test_idec_coincides_with_tail_on_non_decomposable_query():
    doc, tgds, ctx = pipeline("r(X) -> s(X,Y).")
    q = query("p() :- s(A,B), s(C,B).", doc)  # one component
    tail = xrewrite_parallel(q, ctx, RewriteOptions(subsumption="tail"))
    idec = xrewrite_parallel(q, ctx, RewriteOptions(subsumption="idec"))
    assert canon_set(tail.queries) == canon_set(idec.queries)


def test_every_mode_answers_through_a_subsumed_chain():
    doc, tgds, ctx = pipeline("""
        r_1(X) -> r_0(X).
        r_2(X) -> r_1(X).
        r_3(X) -> r_2(X).
    """)
    q = query("p() :- r_0(A), r_0(B).", doc)
    db = [atom("r_3", const("a"))]
    for mode in SUBSUMPTION_MODES:
        for rewrite in (xrewrite, xrewrite_parallel):
            res = rewrite(q, ctx, RewriteOptions(elimination=False,
                                                 subsumption=mode))
            assert evaluate_ucq(res.queries, db) == {()}, (mode, rewrite)


def test_unknown_subsumption_mode_is_rejected():
    with pytest.raises(ValueError, match="subsumption mode 'tial'"):
        RewriteOptions(subsumption="tial")


def test_all_modes_preserve_answers_on_random_databases():
    from conftest import (random_database, random_linear_rules, random_query,
                          rules_context)
    rng = random.Random(71)
    for _ in range(100):
        rules = random_linear_rules(rng, max_rules=4)
        ctx = rules_context(rules)
        q = random_query(rng)
        dbs = [random_database(rng) for _ in range(4)]
        reference = None
        for mode in SUBSUMPTION_MODES:
            for rewrite in (xrewrite, xrewrite_parallel):
                res = rewrite(q, ctx, RewriteOptions(
                    elimination=False, subsumption=mode, budget=50000))
                answers = [evaluate_ucq(res.queries, db) for db in dbs]
                if reference is None:
                    reference = answers
                else:
                    assert answers == reference, (rules, q, dbs, mode, rewrite)
