import importlib
import itertools
import random

import pytest

from ontorewrite.eliminate import (EliminationContext, cover_sets, covers,
                                   eliminate, reduce_query, shared_terms)
from ontorewrite.model import (VAR, atom, connected_components, const,
                               make_query, renaming_key, subst_atom, var)
from ontorewrite.normalize import is_linear, normalize_tgds
from ontorewrite.parser import parse_ontology, parse_query

from conftest import (FINANCIAL, FINANCIAL_QUERY, LOOPING, ROTATION, SHAPES,
                      copies_body)

A, B, C, X, Y = (var(n) for n in "ABCXY")
c = const("c")

ELIM_EXAMPLE = """
t(X,Y) -> r(X,Y,Z).
r(X,Y,Z) -> s(Y,W,X).
s(X,Y,Z) -> t(Z,X).
t(X,Y) -> s(X,Y,Y).
"""


# p(T,S,U,V) covers q(T,A,B,S) under ROTATION through r1 r1 r2: S needs
# both rotations, although T's positions p[1] p[1] p[1] repeat a cycle
ROTATION_QUERY = "q0(T,S) :- p(T,S,U,V), q(T,A,B,S)."


def _ctx(text):
    doc = parse_ontology(text)
    tgds, _, _ = normalize_tgds(doc.tgds)
    return doc, EliminationContext(tgds)


def _covers(a, b, q, ec):
    """Whether a covers b with respect to q."""
    return covers(a, b, shared_terms(q.shared_variables(), b), ec)


def test_shared_terms_example():
    q = make_query("p", [A], [atom("r", A, B, c)])
    assert shared_terms(q.shared_variables(), q.body[0]) == {A, c}


def test_shared_terms_boolean_query():
    q = make_query("p", [], [atom("r", X)])
    assert shared_terms(q.shared_variables(), q.body[0]) == set()


def test_shared_terms_join_variable():
    q = make_query("p", [], [atom("r", X, Y), atom("s", Y)])
    assert shared_terms(q.shared_variables(), q.body[1]) == {Y}


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
    assert _covers(stock_portfolio, fin_instrument, q, ec)
    assert not _covers(fin_instrument, stock_portfolio, q, ec)


def test_covers_through_a_repeated_rotation():
    from conftest import pipeline
    from ontorewrite.chase import certain_answers, evaluate_ucq
    from ontorewrite.rewriter import RewriteOptions, xrewrite
    doc, ec = _ctx(ROTATION)
    q = parse_query(ROTATION_QUERY, dict(doc.arities))
    p_atom, q_atom = q.body
    assert _covers(p_atom, q_atom, q, ec)
    assert reduce_query(q, ec).body == (p_atom,)
    doc, tgds, ctx = pipeline(ROTATION)
    ucq = xrewrite(q, ctx, RewriteOptions(elimination=True)).queries
    assert len(ucq) == 3
    db = parse_ontology("p(a,b,c,d).").facts
    expected, saturated = certain_answers(q, db, tgds)
    assert saturated and expected
    assert evaluate_ucq(ucq, db) == expected


def test_context_on_looping_rules_is_immediate():
    import time
    doc = parse_ontology(LOOPING)
    tgds, _, _ = normalize_tgds(doc.tgds)
    start = time.perf_counter()
    ec = EliminationContext(tgds)
    assert time.perf_counter() - start < 0.5
    q = parse_query("q0(A) :- p4(A,A,A), p1(A).", dict(doc.arities))
    assert not _covers(q.body[1], q.body[0], q, ec)


def test_atom_never_covers_itself():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B).", dict(doc.arities))
    assert not _covers(q.body[0], q.body[0], q, ec)


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
    # s(X, Y) shares no term, so only reaching s decides: r(X) -> s(X, Y)
    # lets p(Z) cover it, and without that rule s is unreachable
    boolean = "q() :- s(X, Y), p(Z)."
    doc, ec = _ctx("p(X) -> r(X).")
    q = parse_query(boolean, {"s": 2, **doc.arities})
    assert eliminate(q, list(q.body), ec) == set()
    doc, ec = _ctx("p(X) -> r(X).  r(X) -> s(X, Y).")
    q = parse_query(boolean, dict(doc.arities))
    assert reduce_query(q, ec) == parse_query("q() :- p(Z).", dict(doc.arities))


def test_eliminate_stops_at_the_first_covering_atom(monkeypatch):
    # finInstrument(A) is covered by both stockPortfolio and listComponent;
    # the scan stops at the first, so each successful search eliminates
    eliminate_mod = importlib.import_module("ontorewrite.eliminate")
    doc, ec = _ctx(FINANCIAL)
    q = parse_query(FINANCIAL_QUERY, dict(doc.arities))
    fin_instrument, stock_portfolio, _, list_component, _ = q.body
    assert {stock_portfolio, list_component} <= cover_sets(q, ec)[fin_instrument]
    found = []
    search = eliminate_mod.covers

    def counted(a, b, tb, ctx):
        covered = search(a, b, tb, ctx)
        found.append(covered)
        return covered

    monkeypatch.setattr(eliminate_mod, "covers", counted)
    removed = eliminate(q, list(q.body), ec)
    assert fin_instrument in removed and len(removed) == 3
    assert sum(found) == len(removed)


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
        EliminationContext(tgds)


def test_strategy_invariance_exhaustive_small():
    doc, ec = _ctx(ELIM_EXAMPLE)
    q = parse_query("p(A) :- t(A,B), r(A,B,C), s(A,B,B), t(B,C).",
                    dict(doc.arities))
    sizes = {len(eliminate(q, list(p), ec))
             for p in itertools.permutations(q.body)}
    assert len(sizes) == 1


# e-atoms cover p and r on their ends, and p and s cover each other, so
# which of p(X) and s(X) goes depends on the elimination strategy
GROUPED_RULES = """
e(X, Y) -> p(X).
e(X, Y) -> r(Y).
p(X) -> s(X).
s(X) -> p(X).
"""


def _reduces_alike(q, ec, rng) -> bool:
    """Asserts that q and a copy with renamed variables and a shuffled body
    reduce to queries of equal renaming key; whether q shrank."""
    names = [f"V{i}" for i in range(len(q.variables()))]
    rng.shuffle(names)
    sub = {v: var(n) for v, n in
           zip(sorted(q.variables(), key=lambda t: t.name), names)}
    body = [subst_atom(sub, a) for a in q.body]
    rng.shuffle(body)
    copy = make_query(q.head_pred, (sub.get(t, t) for t in q.head_args), body)
    reduced = reduce_query(q, ec)
    assert renaming_key(reduced) == renaming_key(reduce_query(copy, ec)), (
        q, copy)
    return len(reduced.body) < len(q.body)


def _grouped_query(rng):
    """One to three disjoint copies of SHAPES as e-atoms, maybe each with p
    on its first node, beside lone atoms on the head variable, a node of
    the first copy."""
    shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 3))]
    extra = [("p", (0,))] if rng.random() < 0.5 else []
    head = var(f"X{rng.choice(sorted(set().union(*shapes[0])))}_0")
    lone = [atom(pred, head) for pred in ("p", "r", "s") if rng.random() < 0.6]
    return make_query("h", [head], copies_body(shapes, extra) + lone)


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
            checked += 1
            shrunk += _reduces_alike(q, ec, rng)
    assert shrunk > 0
    # a group of linked atoms beside other groups: the canonical order
    # places whole groups, and elimination follows it
    ec = EliminationContext(normalize_tgds(
        parse_ontology(GROUPED_RULES).tgds)[0])
    grouped = grouped_shrunk = 0
    for _ in range(300):
        q = _grouped_query(rng)
        sizes = [len(g) for g in connected_components(
            q.body, lambda t: t.kind == VAR and t not in q.head_args)]
        if max(sizes) > 1 and len(sizes) > 1:
            grouped += 1
            grouped_shrunk += _reduces_alike(q, ec, rng)
    assert grouped > 250
    assert grouped_shrunk > 200


def _reduction_keeps_answers(rules, q, db) -> bool:
    """False when the normalized rules are not linear; otherwise asserts
    that q and its reduction have the same certain answers over db."""
    from ontorewrite.chase import certain_answers
    tgds, _, _ = normalize_tgds(rules)
    if not is_linear(tgds):
        return False
    ec = EliminationContext(tgds)
    reduced = reduce_query(q, ec)
    full, _ = certain_answers(q, db, tgds, 300)
    less, _ = certain_answers(reduced, db, tgds, 300)
    assert full == less, (q, reduced, db)
    return True


def _arities(rules) -> dict:
    arities = {}
    for r in rules:
        for at in r.body + r.head:
            arities.setdefault(at.pred, len(at.args))
    return arities


def test_elimination_safety_against_chase_oracle():
    from conftest import random_database, random_linear_rules, random_query
    rng = random.Random(99)
    for text, query in ((ROTATION, ROTATION_QUERY),
                        (LOOPING, "q0(A) :- p1(A), p4(B,A,C).")):
        rules = parse_ontology(text).tgds
        pool = sorted(_arities(rules).items())
        q = parse_query(query, _arities(rules))
        for _ in range(20):
            db = random_database(rng, pool=pool)
            assert _reduction_keeps_answers(rules, q, db)
            assert _reduction_keeps_answers(
                rules, random_query(rng, max_atoms=4, pool=pool), db)
    checked = 0
    while checked < 300:
        rules = random_linear_rules(rng, max_rules=4)
        checked += _reduction_keeps_answers(rules, random_query(rng),
                                            random_database(rng))
