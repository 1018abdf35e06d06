import itertools
import random

import pytest

import ontorewrite as ow
from ontorewrite.model import TGD, Atom, atom, const, make_query, var
from ontorewrite.rewriter import (BudgetExhaustedError, RewriteOptions,
                                  _enumerate_factorizable, _existential_free,
                                  applicable, factorizable, factorize_step,
                                  rewrite_step, xrewrite)

from conftest import canon_set, pipeline, query

A, B, C, X, Y = (var(n) for n in "ABCXY")
a, cc, db = const("a"), const("c"), const("db")

COLLAB = "project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X)."


def test_applicable_rewriting_step_example():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B) :- hasCollaborator(A, db, B).", doc)
    assert applicable(tgds[0], (q.body[0],), q)


def test_applicable_blocks_constant_at_existential_position():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B) :- hasCollaborator(c, db, B).", doc)
    assert not applicable(tgds[0], (q.body[0],), q)


def test_applicable_blocks_shared_variable_at_existential_position():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B) :- hasCollaborator(B, db, B).", doc)
    assert not applicable(tgds[0], (q.body[0],), q)


def test_applicable_renames_the_rule_apart_from_the_query():
    # the rule's X renamed by ^0 would be the query's X^0, which the
    # constant b binds, and then clash with the head's a
    doc, tgds, ctx = pipeline("p(X) -> s(X, a).")
    q = query("q() :- s(b, X^0).", doc)
    assert applicable(tgds[0], (q.body[0],), q)


def test_rewrite_step_unifies_exactly_when_applicable_random():
    # The loop screens the existential position, then lets rewrite_step
    # unify; together they must decide what applicable decides.
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(7)
    outcomes = {"resolved": 0, "screened": 0, "no_unifier": 0}
    for i in range(400):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, pool=QUERY_POOL)
        preferred = frozenset(q.variables())
        for tgd in ctx.tgds:
            for a in q.body:
                S = (a,)
                out = rewrite_step(q, S, tgd, 1, preferred, ctx)
                if not _existential_free(tgd, S, q.shared_variables()):
                    assert not applicable(tgd, S, q)
                    outcomes["screened"] += out is not None
                    continue
                assert applicable(tgd, S, q) == (out is not None), (tgd, a, q)
                outcomes["resolved" if out is not None else "no_unifier"] += 1
    assert all(outcomes.values()), outcomes


def test_factorizable_verdicts():
    doc, tgds, ctx = pipeline("s(X), r(X,Y) -> t(X,Y,Z).")
    sigma = tgds[0]
    q1 = make_query("p", [A], [atom("t", a, A, C), atom("t", B, a, C)])
    q2 = make_query("p", [A], [atom("s", C), atom("t", A, B, C),
                               atom("t", A, var("E"), C)])
    q3 = make_query("p", [A], [atom("t", A, B, C), atom("t", A, C, C)])
    assert factorizable((q1.body[0], q1.body[1]), sigma, q1)
    assert not factorizable((q2.body[1], q2.body[2]), sigma, q2)
    assert not factorizable((q3.body[0], q3.body[1]), sigma, q3)


def _power_set_factorizable(q, tgd):
    """The reference: every subset of the atoms matching the rule head, by
    size and then by position, that `factorizable` accepts."""
    if tgd.existential_position() is None:
        return []
    group = [at for at in q.body if at.pred == tgd.head.pred
             and len(at.args) == len(tgd.head.args)]
    return [S for size in range(2, len(group) + 1)
            for S in itertools.combinations(group, size)
            if factorizable(S, tgd, q)]


def test_factorization_candidates_equal_the_power_set_filter():
    Z, V, W = var("Z"), var("V"), var("W")
    rules = [TGD((atom("r", X),), atom("s", X, Y)),           # epos 2
             TGD((atom("r", X),), atom("s", Y, X)),           # epos 1
             TGD((atom("r", X, Z),), atom("s", X, Y, Z)),     # epos 2 of 3
             TGD((atom("r", X, Y),), atom("s", X, Y))]        # no existential
    rng = random.Random(606)
    accepted = 0
    for _ in range(400):
        tgd = rng.choice(rules)
        arity = len(tgd.head.args)
        epos = tgd.existential_position() or 1
        body = []
        for _ in range(rng.randint(2, 7)):
            if rng.random() < 0.2:  # may hold a shared variable elsewhere
                body.append(atom("u", rng.choice([A, V, W])))
                continue
            args = [rng.choice([A, B, C, a]) for _ in range(arity)]
            if rng.random() < 0.1:
                args = args[:1]  # the wrong arity
            elif rng.random() < 0.8:  # bias towards a shared variable
                args[epos - 1] = rng.choice([V, V, W, a])
            body.append(Atom("s", tuple(args)))
        q = make_query("q", [], body)
        expected = _power_set_factorizable(q, tgd)
        got = [S for S in _enumerate_factorizable(q, tgd)
               if factorizable(S, tgd, q)]
        assert got == expected, (q, tgd)
        accepted += len(expected)
    assert accepted > 100


def test_factorization_candidates_are_one_set_per_variable():
    tgd = TGD((atom("r", X),), atom("s", X, Y))
    body = [atom("s", var(f"A{i}"), B) for i in range(22)]
    q = make_query("q", [], body)
    assert _enumerate_factorizable(q, tgd) == [tuple(body)]
    assert factorizable(tuple(body), tgd, q)


def test_rewrite_step_collab_example():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B) :- hasCollaborator(A, db, B).", doc)
    out = rewrite_step(q, (q.body[0],), tgds[0], 1, frozenset(q.variables()))
    assert out == query("p(B) :- project(B), inArea(B, db).", doc)


def test_rewrite_step_incomplete_rewritings_example():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B,C) :- hasCollaborator(A,B,C).", doc)
    out = rewrite_step(q, (q.body[0],), tgds[0], 1, frozenset(q.variables()))
    assert out == query("p(B,C) :- project(C), inArea(C,B).", doc)


def test_rewrite_step_hand_applied_mgu():
    doc, tgds, ctx = pipeline("r(X) -> s(X,Y).")
    q = query("p(A) :- s(A,B), t(A).", doc)
    out = rewrite_step(q, (q.body[0],), tgds[0], 1, frozenset(q.variables()))
    assert canon_set([out]) == canon_set([query("p(A) :- r(A), t(A).", doc)])


def test_factorize_step_collapses_collaborator_pair():
    doc, tgds, ctx = pipeline(COLLAB)
    q = make_query("p", [B, C],
                   [atom("hasCollaborator", A, B, C),
                    atom("hasCollaborator", A, var("E"), var("F"))])
    out = factorize_step(q, tuple(q.body), frozenset(q.variables()))
    assert out == make_query("p", [B, C], [atom("hasCollaborator", A, B, C)])


def test_factorize_step_instantiates_head():
    doc, tgds, ctx = pipeline("s(X), r(X,Y) -> t(X,Y,Z).")
    q = make_query("p", [A], [atom("t", a, A, C), atom("t", B, a, C)])
    out = factorize_step(q, tuple(q.body), frozenset(q.variables()))
    assert out == make_query("p", [a], [atom("t", a, a, C)])


def test_factorize_step_removes_duplicates():
    q = make_query("p", [A], [atom("r", A, B), atom("r", A, B)])
    # make_query dedups; construct the duplicate pair directly
    assert len(q.body) == 1


def test_xrewrite_collab_final_ucq():
    doc, tgds, ctx = pipeline(COLLAB)
    q = query("p(B) :- hasCollaborator(A, db, B).", doc)
    res = xrewrite(q, ctx)
    expected = canon_set([q, query("p(B) :- project(B), inArea(B, db).", doc)])
    assert canon_set(res.queries) == expected


def test_xrewrite_unsound_examples_rejected():
    doc, tgds, ctx = pipeline(COLLAB)
    bad = query("p(B) :- project(B), inArea(B, db).", doc)
    for text in ("p(B) :- hasCollaborator(c, db, B).",
                 "p(B) :- hasCollaborator(B, db, B)."):
        q = query(text, doc)
        res = xrewrite(q, ctx)
        assert canon_set(res.queries) == canon_set([q])
        assert ow.canonical_rename(bad) not in canon_set(res.queries)


def test_xrewrite_incomplete_rewritings_example():
    doc, tgds, ctx = pipeline(COLLAB + "\nhasCollaborator(X,Y,Z) -> collaborator(X).")
    q = query("p(B,C) :- hasCollaborator(A,B,C), collaborator(A).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    needed = query("p(B,C) :- project(C), inArea(C,B).", doc)
    assert ow.canonical_rename(needed) in canon_set(res.queries)
    assert res.metrics.factorized >= 1


def test_xrewrite_size_law_nine():
    doc, tgds, ctx = pipeline("p_1(X) -> p_0(X).  p_2(X) -> p_0(X).")
    q = query("p(A,B) :- p_0(A), p_0(B).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    assert len(res.queries) == 9


def test_xrewrite_drops_auxiliary_disjuncts():
    doc, tgds, ctx = pipeline("s(X,Y) -> p(Y,Z,W).")
    q = query("p0(A) :- p(A,B,C).", doc)
    res = xrewrite(q, ctx)
    for out in res.queries:
        assert all(not at.pred.startswith("aux") for at in out.body)
    assert canon_set(res.queries) == canon_set(
        [q, query("p0(A) :- s(X,A).", doc)])


def test_xrewrite_dedup_no_two_queries_share_canonical_form():
    doc, tgds, ctx = pipeline(COLLAB + "\nhasCollaborator(X,Y,Z) -> collaborator(X).")
    q = query("p(B,C) :- hasCollaborator(A,B,C), collaborator(A).", doc)
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    forms = [ow.canonical_rename(x) for x in res.queries]
    assert len(forms) == len(set(forms))


def test_xrewrite_deterministic_across_runs():
    from conftest import FINANCIAL, FINANCIAL_QUERY
    doc1, tgds1, ctx1 = pipeline(FINANCIAL)
    doc2, tgds2, ctx2 = pipeline(FINANCIAL)
    q1 = query(FINANCIAL_QUERY, doc1)
    q2 = query(FINANCIAL_QUERY, doc2)
    r1 = xrewrite(q1, ctx1, RewriteOptions(elimination=False))
    r2 = xrewrite(q2, ctx2, RewriteOptions(elimination=False))
    assert r1.queries == r2.queries
    assert r1.metrics.explored == r2.metrics.explored
    assert r1.metrics.generated == r2.metrics.generated


def test_xrewrite_budget_exhaustion():
    from conftest import FINANCIAL, FINANCIAL_QUERY
    doc, tgds, ctx = pipeline(FINANCIAL)
    q = query(FINANCIAL_QUERY, doc)
    with pytest.raises(BudgetExhaustedError):
        xrewrite(q, ctx, RewriteOptions(elimination=False, budget=5))


def test_linear_bound_on_produced_queries():
    from conftest import random_linear_rules, random_query, rules_context
    rng = random.Random(5)
    for _ in range(20):
        rules = random_linear_rules(rng)
        ctx = rules_context(rules)
        q = random_query(rng)
        # without elimination every produced query is a renaming of an entry
        res = xrewrite(q, ctx, RewriteOptions(elimination=False))
        for entry in res.state.entries:
            assert len(entry.query.body) <= len(q.body)


def test_every_admitted_query_is_explored_random():
    # The loop runs until its queue is empty, and a budget stop raises, so
    # a finished rewriting has explored every query it admitted.
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(13)
    for i in range(60):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, pool=QUERY_POOL)
        for elimination in (None, False):
            for mode in ("none", "tail"):
                res = xrewrite(q, ctx, RewriteOptions(
                    elimination=elimination, subsumption=mode, budget=20000))
                assert res.metrics.explored == len(res.state.entries), (rules, q)
                assert not res.state.queue


def test_sticky_freshness_of_produced_queries():
    from conftest import random_sticky_rules, random_query, rules_context
    rng = random.Random(11)
    for _ in range(15):
        rules = random_sticky_rules(rng, max_rules=4)
        ctx = rules_context(rules)
        q = random_query(rng)
        res = xrewrite(q, ctx, RewriteOptions(elimination=False,
                                              budget=20000))
        original = q.variables()
        for entry in res.state.entries:
            occ = entry.query.occurrences()
            for t, n in occ.items():
                if t.kind == 1 and t not in original:
                    assert n == 1, (q, entry.query, t)
