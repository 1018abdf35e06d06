import os
import random
import subprocess
import sys

import pytest

from ontorewrite.model import (VAR, Atom, Term, atom, canonical_rename, const,
                               make_query, mgu, renaming_key, subst_atom,
                               subst_query, var)
from ontorewrite.parallel import decompose, unfold, xrewrite_parallel
from ontorewrite.rewriter import BudgetExhaustedError, RewriteOptions, xrewrite
from ontorewrite.subsume import prune_ucq

from conftest import FINANCIAL, SHAPES, canon_set, pipeline, query

A, B, C = var("A"), var("B"), var("C")


def test_decompose_financial_four_components(financial):
    doc, tgds, ctx, q = financial
    dec = decompose(q, ctx)
    preds = [[a.pred for a in cq.body] for cq in dec.component_queries]
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
    assert len(dec.component_queries) == 3


def test_decompose_affected_join_single_component():
    doc, tgds, ctx = pipeline("r(X) -> s(X,Y).")
    q = query("p() :- s(A,B), s(C,B).", doc)
    dec = decompose(q, ctx)
    assert len(dec.component_queries) == 1


def test_decompose_keeps_a_variable_at_every_position_of_one_existential():
    # B sits at both positions of the repeated W, which the affected
    # positions seed at once: one component, which resolves as one piece
    from ontorewrite.chase import certain_answers, evaluate_ucq
    doc, tgds, ctx = pipeline("p3(Z, Z) -> p2(W, W).  p3(a, a).")
    q = query("q() :- p2(D, B), p2(B, C).", doc)
    assert len(decompose(q, ctx).component_queries) == 1
    options = RewriteOptions(elimination=False)
    seq = xrewrite(q, ctx, options).queries
    assert canonical_rename(query("q() :- p3(Z, Z).", doc)) in canon_set(seq)
    answers, saturated = certain_answers(q, doc.facts, doc.tgds, 10)
    assert saturated and answers == {()}
    for queries in (seq, xrewrite_parallel(q, ctx, options).queries):
        assert evaluate_ucq(queries, doc.facts) == answers
        assert canon_set(queries) == canon_set(seq)


def test_decompose_optimal_no_component_splits():
    doc, tgds, ctx, q = pipeline_financial()
    dec = decompose(q, ctx)
    # the two-atom component cannot be split: B occurs only at affected
    # positions and spans both atoms
    comp = dec.component_queries[1].body
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
    out = unfold(singletons, dec.reconciliation)
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


def test_the_result_unfolds_on_its_first_read_only(monkeypatch):
    """xrewrite_parallel returns the folded rewriting: its `queries` unfold
    it, and prune it under `tail`, on the first read, and not again;
    `metrics.unfold_time` reads 0.0 until then."""
    from ontorewrite import parallel, subsume
    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parallel, "unfold", recording("unfold", unfold))
    monkeypatch.setattr(subsume, "prune_ucq",
                        recording("prune", subsume.prune_ucq))
    doc, tgds, ctx = pipeline("q_1(X) -> p_1(X).  q_2(X) -> p_2(X).")
    q = query("p(A,B) :- p_1(A), p_2(B).", doc)
    for mode, on_read in (("none", ["unfold"]), ("tail", ["unfold", "prune"]),
                          ("idec", ["unfold"])):
        res = xrewrite_parallel(q, ctx, RewriteOptions(subsumption=mode))
        before = ["prune", "prune"] if mode == "idec" else []
        assert calls == before, mode
        assert res.metrics.unfold_time == 0.0, mode
        first = res.queries
        assert calls == before + on_read, mode
        assert res.queries is first and len(first) == 4, mode
        assert calls == before + on_read, mode
        calls.clear()


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
    assert res.component_ucqs == [
        xrewrite(cq, ctx, RewriteOptions(elimination=False)).queries
        for cq in res.decomposition.component_queries]
    assert canon_set(unfold(res.component_ucqs,
                            res.decomposition.reconciliation)) == \
        canon_set(res.queries)


# -- unfold by position against the recursive unfold it replaced -------------

def _reference_unfold(component_rewritings, reconciliation):
    """The recursive unfold kept as the reference: at every level it rebuilds
    the partial query, finds the reconciliation atom by its predicate and
    prefers the partial query's variables.  It deduplicates by
    canonical_rename, not by the renaming key `unfold` uses."""
    slots = []
    for slot, disjuncts in enumerate(component_rewritings):
        standardized = []
        for d in disjuncts:
            sub = {v: Term(VAR, f"{v.name}~{slot}") for v in d.variables()}
            standardized.append(subst_query(sub, d))
        slots.append([(Atom(d.head_pred, d.head_args), d.body)
                      for d in standardized])
    results, seen = [], set()

    def expand(slot, query):
        if slot == len(slots):
            canon = canonical_rename(query)
            if canon not in seen:
                seen.add(canon)
                results.append(query)
            return
        comp_pred = reconciliation.body[slot].pred
        target = next(a for a in query.body if a.pred == comp_pred)
        preferred = frozenset(query.variables())
        for head_atom, body in slots[slot]:
            gamma = mgu((target, head_atom), preferred=preferred)
            if gamma is None:
                continue
            rest = [subst_atom(gamma, a) for a in query.body if a is not target]
            rest.extend(subst_atom(gamma, a) for a in body)
            expand(slot + 1,
                   make_query(query.head_pred,
                              (gamma.get(t, t) for t in query.head_args), rest))

    expand(0, reconciliation)
    return results


def _assert_unfold_matches_reference(component_ucqs, reconciliation):
    got = unfold(component_ucqs, reconciliation)
    assert repr(got) == repr(_reference_unfold(component_ucqs, reconciliation))
    return got


def test_unfold_matches_reference_on_random_suites():
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(88)
    for i in range(80):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, max_atoms=4, pool=QUERY_POOL if i % 2 else None)
        for mode in ("none", "idec"):
            res = xrewrite_parallel(q, ctx, RewriteOptions(
                elimination=False, subsumption=mode, budget=20000))
            _assert_unfold_matches_reference(
                res.component_ucqs, res.decomposition.reconciliation)


def _folded(q, ctx, options=None):
    """The component rewritings and the reconciliation of q as it stands:
    what `xrewrite_parallel` unfolds, but decomposed from q itself, not from
    its core, so that the Boolean size law keeps its redundant copies."""
    options = options or RewriteOptions()
    dec = decompose(q, ctx)
    ucqs = [xrewrite(cq, ctx, options).queries
            for cq in dec.component_queries]
    if options.subsumption in ("idec", "irew"):
        ucqs = [prune_ucq(u) for u in ucqs]
    return ucqs, dec.reconciliation


def test_unfold_matches_reference_on_the_size_law():
    doc, tgds, ctx = pipeline(
        "p_1(X) -> p_0(X).  p_2(X) -> p_0(X).  p_3(X) -> p_0(X).")
    atoms = ", ".join(f"p_0(A{i})" for i in range(1, 5))
    # 4^4 products; the Boolean ones are 35 multisets modulo renaming
    for text, size in ((f"p(A1, A2, A3, A4) :- e(B, B), {atoms}.", 256),
                       (f"p(A1, A2, A3, A4) :- {atoms}, e(B, B).", 256),
                       (f"p() :- e(B, B), {atoms}.", 35)):
        out = _assert_unfold_matches_reference(*_folded(query(text, doc), ctx))
        assert len(out) == size


def test_unfold_unifies_each_component_disjunct_once(monkeypatch):
    """Unfolding the n=6 size law unifies each of its 25 component disjuncts
    once, whatever the body order, and no product calls `mgu`: no component
    head binds a reconciliation variable, so there are no bindings to
    merge."""
    from ontorewrite import parallel
    doc, tgds, ctx = pipeline(
        "p_1(X) -> p_0(X).  p_2(X) -> p_0(X).  p_3(X) -> p_0(X).")
    atoms = ", ".join(f"p_0(A{i})" for i in range(1, 7))
    head_args = ", ".join(f"A{i}" for i in range(1, 7))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mgu(*args, **kwargs)

    monkeypatch.setattr(parallel, "mgu", counting)
    for body in (f"e(B, B), {atoms}", f"{atoms}, e(B, B)"):
        for head, size in ((f"p({head_args})", 4 ** 6), ("p()", 84)):
            for mode in ("none", "idec"):
                folded = _folded(query(f"{head} :- {body}.", doc), ctx,
                                 RewriteOptions(subsumption=mode))
                calls.clear()
                out = unfold(*folded)
                assert len(calls) == 25
                assert len(out) == size


def _fallback_keys(monkeypatch):
    """The queries `unfold` keys with `renaming_key` from now on: the
    products it does not key from its parts' group keys."""
    from ontorewrite import parallel
    keyed = []

    def counting(q):
        keyed.append(q)
        return renaming_key(q)

    monkeypatch.setattr(parallel, "renaming_key", counting)
    return keyed


def test_unfold_keys_by_renaming_key_when_slots_share_a_non_head_variable(
        monkeypatch):
    # C joins two listComponent slots outside the head, so no product is
    # keyed from the components' group keys
    doc, tgds, ctx = pipeline(FINANCIAL)
    q = query("p(A,B) :- listComponent(A,C), listComponent(B,C), "
              "finInstrument(A).", doc)
    res = xrewrite_parallel(q, ctx, RewriteOptions(elimination=False))
    recon = res.decomposition.reconciliation
    assert [a.args[-1] for a in recon.body[:2]] == [var("C")] * 2
    fallback = _fallback_keys(monkeypatch)
    out = _assert_unfold_matches_reference(res.component_ucqs, recon)
    assert [len(u) for u in res.component_ucqs] == [1, 1, 5]
    assert len(out) == len(fallback) == 5


def test_unfold_keys_from_group_keys_when_a_disjunct_joins_its_own_atoms(
        monkeypatch):
    # Y joins r and s inside one disjunct, into a group of two atoms; the
    # slots still share only head variables, so no product falls back
    X, Y = var("X"), var("Y")
    recon = make_query("p", [A, B], [atom("c_1", A), atom("c_2", B)])
    u1 = [make_query("c_1", [X], [atom("r", X, Y), atom("s", Y)]),
          make_query("c_1", [X], [atom("t", X, Y)])]
    u2 = [make_query("c_2", [X], [atom("u", X)]),
          make_query("c_2", [X], [atom("r", X, Y), atom("s", Y)])]
    fallback = _fallback_keys(monkeypatch)
    out = _assert_unfold_matches_reference([u1, u2], recon)
    assert len(out) == 4
    assert fallback == []


def _self_joining_disjunct(rng, pred, head):
    """A component disjunct `pred(head) :- ...`: one copy of a small e-graph
    whose nodes are head variables or variables of its own, which join its
    atoms, maybe with an atom over the first head variable, so that slots
    may contribute the same atom."""
    shape = rng.choice(SHAPES)
    node = [rng.choice(head) if head and rng.random() < 0.3
            else var(f"Y{i}") for i in range(3)]
    body = [atom("e", node[i], node[j]) for i, j in shape]
    if head and rng.random() < 0.3:
        body.append(atom("s", head[0]))
    return make_query(pred, head, body)


def test_unfold_matches_reference_on_self_joining_disjuncts(monkeypatch):
    # disjuncts whose own variables join their atoms into groups: where no
    # part binds and the reconciliation's variables are all head variables,
    # products are keyed from the parts' group keys, and slots of nullary
    # components repeat products modulo renaming; a repeated variable in a
    # component head, or a Boolean reconciliation, falls back
    rng = random.Random(11)
    X, Y = var("X"), var("Y")
    fallback = _fallback_keys(monkeypatch)
    products = deduplicated = 0
    for _ in range(300):
        recon_body, ucqs = [], []
        for i in range(1, rng.randint(2, 3) + 1):
            args = rng.sample([A, B], rng.randint(0, 2))
            recon_body.append(Atom(f"c_{i}", tuple(args)))
            head = [X, Y][:len(args)]
            ucq = [_self_joining_disjunct(rng, f"c_{i}", head)
                   for _ in range(rng.randint(1, 3))]
            if head and rng.random() < 0.1:
                ucq.append(make_query(f"c_{i}", [X] * len(head),
                                      [atom("e", X, X)]))
            ucqs.append(ucq)
        recon_vars = {t for a in recon_body for t in a.args}
        head = sorted(recon_vars, key=lambda t: t.name)
        if head and rng.random() < 0.2:
            head = head[:-1]
        out = _assert_unfold_matches_reference(
            ucqs, make_query("p", head, recon_body))
        count = 1
        for u in ucqs:
            count *= len(u)
        products += count
        deduplicated += count - len(out)
    assert products > 2000
    assert products - len(fallback) > 1500
    assert len(fallback) > 100
    assert deduplicated > 250


def test_unfold_drops_an_atom_that_two_slots_contribute(monkeypatch):
    # s(B) or t(B) comes from both slots in three of the four products;
    # once it is dropped, two of them repeat the first
    X, Y = var("X"), var("Y")
    recon = make_query("p", [A, B], [atom("c_1", A, B), atom("c_2", B)])
    u1 = [make_query("c_1", [X, Y], [atom("r", X, Y), atom("s", Y)]),
          make_query("c_1", [X, Y], [atom("r", X, Y), atom("s", Y),
                                     atom("t", Y)])]
    u2 = [make_query("c_2", [Y], [atom("t", Y)]),
          make_query("c_2", [Y], [atom("s", Y)])]
    fallback = _fallback_keys(monkeypatch)
    out = _assert_unfold_matches_reference([u1, u2], recon)
    assert fallback == []
    assert out == [
        make_query("p", [A, B], [atom("r", A, B), atom("s", B), atom("t", B)]),
        make_query("p", [A, B], [atom("r", A, B), atom("s", B)])]


def test_unfold_prunes_products_whose_head_constants_clash(monkeypatch):
    a, b = const("a"), const("b")
    X, Y = var("X"), var("Y")
    recon = make_query("p", [A, B], [atom("c_1", A, B), atom("c_2", B),
                                     atom("c_3", A)])
    u1 = [make_query("c_1", [a, X], [atom("r", X)]),
          make_query("c_1", [X, X], [atom("s", X)]),
          make_query("c_1", [X, b], [atom("t", X, Y)])]
    u2 = [make_query("c_2", [a], [atom("u", a)]),
          make_query("c_2", [b], [atom("v", b)]),
          make_query("c_2", [X], [atom("w", X, Y)])]
    u3 = [make_query("c_3", [b], [atom("x", b)]),
          make_query("c_3", [Y], [atom("y", Y)])]
    fallback = _fallback_keys(monkeypatch)
    out = _assert_unfold_matches_reference([u1, u2, u3], recon)
    # 18 products; the clashing constants drop 6 of them; every slot-1
    # disjunct binds a head variable, so every product is keyed as built
    assert len(out) == 12
    assert len(fallback) == 12
    assert make_query("p", [b, b], [atom("s", b), atom("v", b),
                                    atom("x", b)]) in out


def test_unfold_chains_a_repeated_head_variable_to_a_later_constant():
    # slot 1 equates A and B, slot 2 binds B to a, so A is a through the
    # chain; slot 3's b clashes with that only through the chain
    a, b = const("a"), const("b")
    X, Y = var("X"), var("Y")
    recon = make_query("p", [A, B], [atom("c_1", A, B), atom("c_2", B),
                                     atom("c_3", A)])
    u1 = [make_query("c_1", [X, X], [atom("r", X)]),
          make_query("c_1", [X, Y], [atom("r", X, Y)])]
    u2 = [make_query("c_2", [a], [atom("s", a)])]
    u3 = [make_query("c_3", [b], [atom("t", b)]),
          make_query("c_3", [X], [atom("t", X)])]
    out = _assert_unfold_matches_reference([u1, u2, u3], recon)
    assert out == [
        make_query("p", [a, a], [atom("r", a), atom("s", a), atom("t", a)]),
        make_query("p", [b, a], [atom("r", b, a), atom("s", a), atom("t", b)]),
        make_query("p", [A, a], [atom("r", A, a), atom("s", a), atom("t", A)])]


def test_unfold_merges_bindings_of_two_variables_in_a_third_slot():
    # slots 1 and 2 bind C and D apart; slot 3 equates C and D, so that all
    # four variables meet, and a constant there reaches both head variables
    a = const("a")
    C, D, X, Y = var("C"), var("D"), var("X"), var("Y")
    recon = make_query("p", [A, B], [atom("c_1", A, C), atom("c_2", B, D),
                                     atom("c_3", C, D)])
    u1 = [make_query("c_1", [X, X], [atom("r", X)])]
    u2 = [make_query("c_2", [X, X], [atom("s", X)]),
          make_query("c_2", [X, Y], [atom("s", X, Y)])]
    u3 = [make_query("c_3", [X, X], [atom("t", X)]),
          make_query("c_3", [X, Y], [atom("t", X, Y)]),
          make_query("c_3", [a, a], [atom("u", a)])]
    out = _assert_unfold_matches_reference([u1, u2, u3], recon)
    assert out[0] == make_query("p", [A, A], [atom("r", A), atom("s", A),
                                              atom("t", A)])
    assert make_query("p", [a, a], [atom("r", a), atom("s", a),
                                    atom("u", a)]) in out
    assert len(out) == 6


def test_renaming_a_query_variable_like_a_renamed_one_keeps_the_rewriting():
    """A query variable named like a rule variable renamed by a step (`X^1`)
    or like a component variable standardized apart (`B~0`) captures
    neither: renaming a non-head variable so keeps the rewriting, modulo
    renaming, on both paths."""
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    names = ([f"{v}^{n}" for v in "XYZVW" for n in (1, 2, 3)]
             + [f"{v}~{n}" for v in "ABCD" for n in (0, 1, 2)])
    rng = random.Random(5)
    renamed_queries = 0
    for i in range(400):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, max_atoms=4, pool=QUERY_POOL if i % 2 else None)
        free = sorted(q.variables() - set(q.head_args), key=lambda t: t.name)
        if not free:
            continue
        renamed = subst_query({rng.choice(free): var(rng.choice(names))}, q)
        renamed_queries += 1
        for rewrite in (xrewrite, xrewrite_parallel):
            options = RewriteOptions(elimination=None if i % 4 < 2 else False,
                                     budget=20000)
            before = rewrite(q, ctx, options).queries
            after = rewrite(renamed, ctx, options).queries
            assert len(before) == len(after), (rules, renamed)
            assert canon_set(before) == canon_set(after), (rules, renamed)
    assert renamed_queries > 300


# -- budget and elimination decision -----------------------------------------

def test_budget_bounds_all_components_together():
    doc, tgds, ctx = pipeline(
        "p_1(X) -> p_0(X).  p_2(X) -> p_0(X).  p_3(X) -> p_0(X).")
    q = query("p(A, B) :- p_0(A), p_0(B).", doc)
    # two components of three steps each, then 4 x 4 products
    with pytest.raises(BudgetExhaustedError, match="step budget of 5$"):
        xrewrite_parallel(q, ctx, RewriteOptions(budget=5))
    for budget in (6, 21):
        res = xrewrite_parallel(q, ctx, RewriteOptions(budget=budget))
        assert res.metrics.components == 2
        assert res.metrics.generated == 6
        with pytest.raises(BudgetExhaustedError,
                           match=f"16 products exceeds the {budget - 6} "):
            res.queries
    res = xrewrite_parallel(q, ctx, RewriteOptions(budget=22))
    assert len(res.queries) == 16


def test_elimination_on_non_linear_rules_fails_alike_on_both_paths():
    doc, tgds, ctx = pipeline("r(X), s(X) -> t(X).")
    q = query("p(A) :- t(A).", doc)
    messages = []
    for rewrite in (xrewrite, xrewrite_parallel):
        with pytest.raises(ValueError) as err:
            rewrite(q, ctx, RewriteOptions(elimination=True))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "linear" in messages[0]


# -- hash-seed independence --------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from conftest import (QUERY_POOL, random_linear_rules, random_query,
                      random_sticky_rules, rules_context)
from ontorewrite.emit import to_datalog
from ontorewrite.parallel import xrewrite_parallel
from ontorewrite.rewriter import RewriteOptions
rng = random.Random(12)
h = hashlib.sha256()
for i in range(60):
    rules = (random_linear_rules(rng) if i % 2 == 0
             else random_sticky_rules(rng, max_rules=4))
    q = random_query(rng, max_atoms=4, pool=QUERY_POOL if i % 2 else None)
    for elimination in (None, False):
        res = xrewrite_parallel(q, rules_context(rules), RewriteOptions(
            elimination=elimination, budget=20000))
        h.update(repr(res.queries).encode())
        h.update(to_datalog(res.component_ucqs,
                            res.decomposition.reconciliation).encode())
print(h.hexdigest())
"""


def test_decomposed_rewritings_do_not_depend_on_the_hash_seed():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, tests_dir, src_dir],
            env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
