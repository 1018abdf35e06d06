import itertools
import random

import pytest

from ontorewrite.eliminate import (EliminationContext, cover_sets, covers,
                                   eliminate, reduce_query, shared_terms)
from ontorewrite.model import (atom, const, make_query, renaming_key,
                               subst_atom, var)
from ontorewrite.normalize import is_linear, normalize_tgds
from ontorewrite.parser import parse_ontology, parse_query

from conftest import FINANCIAL, FINANCIAL_QUERY

A, B, C, X, Y = (var(n) for n in "ABCXY")
c = const("c")

ELIM_EXAMPLE = """
t(X,Y) -> r(X,Y,Z).
r(X,Y,Z) -> s(Y,W,X).
s(X,Y,Z) -> t(Z,X).
t(X,Y) -> s(X,Y,Y).
"""


def _ctx(text):
    doc = parse_ontology(text)
    tgds, _, _ = normalize_tgds(doc.tgds)
    return doc, EliminationContext(tgds, doc.arities)


def test_shared_terms_example():
    q = make_query("p", [A], [atom("r", A, B, c)])
    assert shared_terms(q, q.body[0]) == {A, c}


def test_shared_terms_boolean_query():
    q = make_query("p", [], [atom("r", X)])
    assert shared_terms(q, q.body[0]) == set()


def test_shared_terms_join_variable():
    q = make_query("p", [], [atom("r", X, Y), atom("s", Y)])
    assert shared_terms(q, q.body[1]) == {Y}


def test_cover_sets_query_elimination_example():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B).", dict(doc.arities))
    a, b, cc = q.body
    cs = cover_sets(q, ec)
    assert cs[a] == {b}
    assert cs[b] == {a}
    assert cs[cc] == {a, b}


def test_covers_financial_stock_portfolio_implies_fin_instrument():
    doc, ec = _ctx(FINANCIAL)
    q = parse_query(FINANCIAL_QUERY, dict(doc.arities))
    fin_instrument, stock_portfolio = q.body[0], q.body[1]
    assert covers(stock_portfolio, fin_instrument, q, ec)
    assert not covers(fin_instrument, stock_portfolio, q, ec)


def test_atom_never_covers_itself():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B).", dict(doc.arities))
    assert not covers(q.body[0], q.body[0], q, ec)


def test_eliminate_both_strategies():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B).", dict(doc.arities))
    a, b, cc = q.body
    assert eliminate(q, [a, b, cc], ec) == {a, cc}
    assert eliminate(q, [b, a, cc], ec) == {b, cc}


def test_eliminate_nothing_when_cover_sets_empty():
    doc, ec = _ctx("t(X,Y) -> r(X,Y,Z).")
    q = parse_query("p(A) :- t(A,B), s(A).", dict(doc.arities))
    assert eliminate(q, list(q.body), ec) == set()


def test_eliminate_rejects_non_permutation():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C).", dict(doc.arities))
    with pytest.raises(ValueError):
        eliminate(q, [q.body[0]], ec)


def test_reduce_financial_query():
    doc, ec = _ctx(FINANCIAL)
    q = parse_query(FINANCIAL_QUERY, dict(doc.arities))
    reduced = reduce_query(q, ec)
    assert {a.pred for a in reduced.body} == {"stockPortfolio", "listComponent"}
    assert reduced.head_args == q.head_args


def test_reduce_minimal_query_unchanged():
    doc, ec = _ctx(FINANCIAL)
    q = parse_query("p(A,B) :- hasStock(A,B).", dict(doc.arities))
    assert reduce_query(q, ec) == q


def test_reduce_example_to_single_atom():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B).", dict(doc.arities))
    assert len(reduce_query(q, ec).body) == 1


def test_monotone_shrinkage_and_cache():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B).", dict(doc.arities))
    r1 = reduce_query(q, ec)
    r2 = reduce_query(q, ec)
    assert r1 == r2
    assert len(r1.body) <= len(q.body)


def test_rejects_non_linear_rules():
    doc = parse_ontology("r(X,Y), s(Y) -> t(X).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    with pytest.raises(ValueError):
        EliminationContext(tgds, doc.arities)


def test_strategy_invariance_exhaustive_small():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B), t(B,C).",
                    dict(doc.arities))
    sizes = {len(eliminate(q, list(p), ec))
             for p in itertools.permutations(q.body)}
    assert len(sizes) == 1


def test_reduction_is_invariant_under_renaming_and_body_order():
    """Deduplication keys each reduced query by its renaming key, so
    reducing a query and a copy with renamed variables and a shuffled body
    must give queries of equal renaming key."""
    from conftest import random_linear_rules, random_query
    rng = random.Random(5)
    checked = shrunk = 0
    while checked < 400:
        rules = random_linear_rules(rng, max_rules=4)
        tgds, _, _ = normalize_tgds(rules)
        if not is_linear(tgds):
            continue
        ec = EliminationContext(tgds)
        for _ in range(8):
            q = random_query(rng, max_atoms=5)
            if len(q.body) < 2:
                continue
            names = [f"V{i}" for i in range(len(q.variables()))]
            rng.shuffle(names)
            sub = {v: var(n) for v, n in
                   zip(sorted(q.variables(), key=lambda t: t.name), names)}
            body = [subst_atom(sub, a) for a in q.body]
            rng.shuffle(body)
            copy = make_query(q.head_pred,
                              (sub.get(t, t) for t in q.head_args), body)
            reduced = reduce_query(q, ec)
            assert (renaming_key(reduced)
                    == renaming_key(reduce_query(copy, ec))), (q, copy)
            checked += 1
            shrunk += len(reduced.body) < len(q.body)
    assert shrunk > 0


def test_elimination_safety_against_chase_oracle():
    from conftest import random_database, random_linear_rules, random_query
    from ontorewrite.chase import certain_answers
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        rules = random_linear_rules(rng, max_rules=4)
        tgds, _, _ = normalize_tgds(rules)
        if not is_linear(tgds):
            continue
        arities = {}
        for r in rules:
            for at in r.body + r.head:
                arities.setdefault(at.pred, len(at.args))
        ec = EliminationContext(tgds, arities)
        q = random_query(rng)
        reduced = reduce_query(q, ec)
        db = random_database(rng)
        full, _ = certain_answers(q, db, tgds, 300)
        less, _ = certain_answers(reduced, db, tgds, 300)
        assert full == less, (q, reduced, db)
        checked += 1
