import itertools
import random

import pytest

from ontorewrite.chase import evaluate_ucq
from ontorewrite.model import atom, const, make_query, subst_atoms, var
from ontorewrite.rewriter import SUBSUMPTION_MODES, RewriteOptions, xrewrite
from ontorewrite.parallel import xrewrite_parallel
from ontorewrite.subsume import prune_ucq, subsumes

from conftest import canon_set, is_subsumption_minimal, pipeline, query

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
            img = set(subst_atoms(h, q1.body))
            if img <= set(q2.body):
                found = True
    assert found


def _brute_subsumes(q1, q2):
    """Whether some map of q1's variables onto q2's terms sends q1's head to
    q2's head and q1's body into q2's body, trying every map."""
    if q1.head_pred != q2.head_pred or len(q1.head_args) != len(q2.head_args):
        return False
    variables = sorted(q1.variables())
    body2 = set(q2.body)
    for image in itertools.product(sorted(q2.terms()), repeat=len(variables)):
        h = dict(zip(variables, image))
        if [h.get(t, t) for t in q1.head_args] == list(q2.head_args) \
                and set(subst_atoms(h, q1.body)) <= body2:
            return True
    return False


def test_subsumes_agrees_with_brute_force_on_random_pairs():
    from conftest import random_query
    rng = random.Random(77)
    verdicts = []
    for _ in range(400):
        q1 = random_query(rng, max_atoms=3)
        if rng.random() < 0.5:
            q2 = random_query(rng, max_atoms=4)
        else:  # a specialisation of q1, so that it is often subsumed
            h = {v: rng.choice(sorted(q1.variables()) + [const("a")])
                 for v in q1.variables() if rng.random() < 0.4}
            extra = random_query(rng, max_atoms=2).body
            q2 = make_query("q", [h.get(t, t) for t in q1.head_args],
                            subst_atoms(h, q1.body) + extra)
        got = subsumes(q1, q2)
        assert got == _brute_subsumes(q1, q2), (q1, q2)
        verdicts.append(got)
    assert 100 < sum(verdicts) < 300


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
    # the query is its own core, but p_0(A) rewrites to p_1(A), and
    # p() :- p_1(A), p_1(B) subsumes the other two disjuncts
    doc, tgds, ctx = pipeline("p_1(X) -> p_0(X).  p_2(X) -> p_0(X).")
    q = query("p() :- p_0(A), p_1(B).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    assert res.metrics.core_removed == 0 and len(res.queries) == 3
    # brute-force subsumption relation confirms redundancy exists
    redundant = any(subsumes(x, y)
                    for x in res.queries for y in res.queries if x != y)
    assert redundant
    pruned = prune_ucq(res.queries)
    assert len(pruned) < len(res.queries)
    assert is_subsumption_minimal(pruned)


def test_tail_through_query_graph_state():
    # the example of the subsume module: the query is its own core
    doc, tgds, ctx = pipeline("stockPortfolio(X,Y,Z) -> company(X,V,W).  "
                              "company(X,Y,Z) -> legalPerson(X).")
    q = query("p(B) :- legalPerson(B), company(B, Y, Z).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False,
                                          subsumption="tail"))
    pruned = prune_ucq(res.queries)
    assert is_subsumption_minimal(pruned)
    # p(B) :- company(B, Y, Z), company(B, Y2, Z2) subsumes
    # p(B) :- stockPortfolio(B, Y, Z), company(B, Y2, Z2), the only parent of
    # p(B) :- stockPortfolio(B, Y, Z), stockPortfolio(B, Y2, Z2); pruning the
    # finished rewriting still keeps the latter
    a, b, c = (const(n) for n in "abc")
    assert evaluate_ucq(pruned, [atom("stockPortfolio", a, b, c)]) == {(a,)}
    unpruned = xrewrite(q, ctx, RewriteOptions(elimination=False)).queries
    assert len(pruned) < len(unpruned)
    # xrewrite leaves the pruning to its caller, whatever the mode
    assert res.queries == unpruned
    assert res.metrics.explored == len(res.state.entries)


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
    """Every mode on both paths gives the same answers on mixed linear and
    sticky suites, half of the queries Boolean.  Linear suites alone seldom
    reach a pruning fault: pruning inside the rewriting loop, which drops
    queries whose descendants no survivor subsumes, passes 200 linear
    suites but fails this mix within its first 40."""
    from conftest import (random_database, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(71)
    for _ in range(600):
        rules = (random_sticky_rules(rng, max_rules=4) if rng.random() < 0.5
                 else random_linear_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng)
        if rng.random() < 0.5:
            q = q._replace(head_args=())
        dbs = [random_database(rng) for _ in range(5)]
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


def test_sequential_pruning_compares_only_the_output_queries(monkeypatch):
    # The financial query explores ~1,300 queries, most of them carrying an
    # auxiliary normalization predicate, for 60 output disjuncts; pruning
    # compares the 60, not every explored query.
    from conftest import FINANCIAL, FINANCIAL_QUERY
    from ontorewrite import subsume
    doc, tgds, ctx = pipeline(FINANCIAL)
    q = query(FINANCIAL_QUERY, doc)
    unpruned = xrewrite(q, ctx, RewriteOptions(elimination=False)).queries
    calls = 0
    search = subsume.find_homomorphism

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(subsume, "find_homomorphism", counting)
    pruned = prune_ucq(xrewrite(q, ctx, RewriteOptions(
        elimination=False, subsumption="tail")).queries)
    n = len(unpruned)
    assert n == 60
    assert 0 < calls <= n * (n - 1)
    assert pruned == prune_ucq(unpruned)
    # xrewrite reads no subsumption mode: its output is the same under all
    for mode in SUBSUMPTION_MODES:
        assert xrewrite(q, ctx, RewriteOptions(
            elimination=False, subsumption=mode)).queries == unpruned, mode


def test_complete_rewriting_keeps_what_pruning_inside_the_loop_would_lose():
    # A breadth-first loop that drops every query subsumed by one it kept
    # loses the second query below: the kept company(B,E,F), company(B,Y,Z)
    # subsumes the only query the derivation passes through, by mapping
    # both company atoms onto its one, and a single-piece step rewrites one
    # company atom at a time.  König et al. restore completeness with
    # aggregated single-piece unifiers; until the loop has them, it must
    # keep every query.
    doc, tgds, ctx = pipeline("stockPortfolio(X,Y,Z) -> company(X,V,W).\n"
                              "company(X,Y,Z) -> legalPerson(X).")
    q = query("p(B) :- company(B,E,F), legalPerson(B).", doc)
    kept = query("p(B) :- company(B,E,F), company(B,Y,Z).", doc)
    passed = query("p(B) :- stockPortfolio(B,Y,Z), company(B,Y2,Z2).", doc)
    needed = query("p(B) :- stockPortfolio(B,Y,Z), stockPortfolio(B,Y2,Z2).",
                   doc)
    assert subsumes(kept, passed)
    for mode in ("none", "tail"):
        res = xrewrite(q, ctx, RewriteOptions(elimination=False,
                                              subsumption=mode))
        assert canon_set([needed]) <= canon_set(res.queries), mode
    entries = canon_set(e.query for e in res.state.entries)
    assert canon_set([kept, passed]) <= entries
