import itertools
import random
from collections import deque

import pytest

import ontorewrite as ow
from ontorewrite import chase
from ontorewrite.eliminate import reduce_query
from ontorewrite.model import (TGD, VAR, Atom, ConjunctiveQuery, apart_index,
                               atom, const, core, make_query, mgu,
                               renaming_key, var)
from ontorewrite import rewriter
from ontorewrite.rewriter import (BudgetExhaustedError, RewriteOptions,
                                  _bind_head, _pieces, _RuleFacts, applicable,
                                  factorizable, factorize_step, rewrite_step,
                                  xrewrite)
from ontorewrite.subsume import subsumes

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
    # The loop resolves each single piece with rewrite_step; for one atom
    # the two must decide together what applicable decides.
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(7)
    outcomes = {"resolved": 0, "no_piece": 0, "no_unifier": 0}
    for i in range(400):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, pool=QUERY_POOL)
        preferred = frozenset(q.variables())
        for tgd in ctx.tgds:
            pieces = _pieces(q, tgd, tgd.existential_positions(),
                             q.occurrences())
            for a in q.body:
                S = (a,)
                out = rewrite_step(q, S, tgd, 1, preferred)
                resolved = S in pieces and out is not None
                assert applicable(tgd, S, q) == resolved, (tgd, a, q)
                if S not in pieces:
                    outcomes["no_piece"] += a.pred == tgd.head.pred
                else:
                    outcomes["resolved" if resolved else "no_unifier"] += 1
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
    # a repeated existential: C may fill both of W's positions, not X's
    doc, tgds, ctx = pipeline("r(X) -> t(X,W,W).")
    q4 = make_query("p", [], [atom("t", A, C, C), atom("t", B, C, C)])
    q5 = make_query("p", [], [atom("t", C, C, C), atom("t", B, C, C)])
    assert factorizable(q4.body, tgds[0], q4)
    assert not factorizable(q5.body, tgds[0], q5)


def _is_piece(S, q, tgd, head):
    """Whether S plus the renamed rule head `head` unifies and the class of
    each of the head's existentials under that unifier holds no constant,
    no head variable of q, no other head variable of the rule and no
    variable of an atom of q outside S (a piece unifier's condition)."""
    theta = mgu(tuple(S) + (head,))
    if theta is None:
        return False
    outside = {t for a in q.body if a not in S for t in a.args}
    terms = {t for a in S for t in a.args} | set(head.args)
    for epos in tgd.existential_positions():
        z = head.args[epos - 1]
        root = theta.get(z, z)
        forbidden = outside | set(q.head_args) | (set(head.args) - {z})
        if any(theta.get(t, t) == root and (t.kind != VAR or t in forbidden)
               for t in terms):
            return False
    return True


def _brute_force_pieces(q, tgd):
    """The reference: the minimal subsets S of the atoms matching the rule
    head that are pieces by `_is_piece`, in body order."""
    head = tgd.rename(apart_index(q.variables(), "^")).head
    group = [at for at in q.body if at.pred == tgd.head.pred
             and len(at.args) == len(tgd.head.args)]
    found = []
    for size in range(1, len(group) + 1):
        for S in itertools.combinations(group, size):
            if (not any(set(P) < set(S) for P in found)
                    and _is_piece(S, q, tgd, head)):
                found.append(S)
    return sorted(found, key=lambda S: q.body.index(S[0]))


def _resolvable_pieces(q, tgd):
    """The pieces `_pieces` gives that `rewrite_step` resolves."""
    preferred = frozenset(q.variables())
    return [S for S in _pieces(q, tgd, tgd.existential_positions(),
                               q.occurrences())
            if rewrite_step(q, S, tgd, apart_index(preferred, "^"),
                            preferred) is not None]


def test_pieces_equal_the_brute_force_reference():
    Z, V, W = var("Z"), var("V"), var("W")
    rules = [TGD((atom("r", X),), atom("s", X, Y)),           # epos 2
             TGD((atom("r", X),), atom("s", Y, X)),           # epos 1
             TGD((atom("r", X, Z),), atom("s", X, Y, Z)),     # epos 2 of 3
             TGD((atom("r", X, Y),), atom("s", X, Y)),        # no existential
             TGD((atom("r", X),), atom("s", X, V, W)),        # epos 2 and 3
             TGD((atom("r", X),), atom("s", V, X, W)),        # epos 1 and 3
             TGD((atom("r", X),), atom("s", X, X, V))]        # epos 3
    rng = random.Random(606)
    multi = 0
    for _ in range(500):
        tgd = rng.choice(rules)
        arity = len(tgd.head.args)
        positions = tgd.existential_positions() or (1,)
        body = []
        for _ in range(rng.randint(2, 7)):
            if rng.random() < 0.2:  # may hold a shared variable elsewhere
                body.append(atom("u", rng.choice([A, V, W])))
                continue
            args = [rng.choice([A, B, C, a]) for _ in range(arity)]
            if rng.random() < 0.1:
                args = args[:1]  # the wrong arity
            else:  # bias towards a shared variable
                for epos in positions:
                    if rng.random() < 0.8:
                        args[epos - 1] = rng.choice([V, V, W, a])
            body.append(Atom("s", tuple(args)))
        # Boolean, and with V in the head, which leaves no piece on V
        heads = [[], [V]] if any(V in at.args for at in body) else [[]]
        for head in heads:
            q = make_query("q", head, body)
            expected = _brute_force_pieces(q, tgd)
            assert _resolvable_pieces(q, tgd) == expected, (q, tgd)
            multi += sum(len(S) > 1 for S in expected)
    assert multi > 100


def test_pieces_are_one_set_per_variable():
    tgd = TGD((atom("r", X),), atom("s", X, Y))
    body = [atom("s", var(f"A{i}"), B) for i in range(22)]
    q = make_query("q", [], body)
    assert _resolvable_pieces(q, tgd) == [tuple(body)]
    head = tgd.rename(apart_index(q.variables(), "^")).head
    assert _is_piece(tuple(body), q, tgd, head)
    # a piece is closed: leaving out any holder of B breaks it
    assert not any(_is_piece(tuple(body[:i] + body[i + 1:]), q, tgd, head)
                   for i in range(len(body)))


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


def _both_paths(q, a, tgd, step, preferred):
    """The str of the general step and of the direct one on the piece (a,)."""
    general = rewrite_step(q, (a,), tgd, step, preferred)
    direct = _bind_head(q, a, tgd, step, preferred,
                        _RuleFacts.of(tgd).body_only)
    return str(general), str(direct)


def test_bind_head_equals_the_general_step_random():
    # Every query a rewriting admits, against every rule with a head of
    # distinct variables and every atom matching its head, at a step past
    # every step the rewriting took and at ten times it, with the loop's
    # preferred variables and with none: the variables earlier steps
    # introduced (V^k) make the renamed head's variables represent their
    # classes in many of them.
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(2703)
    checked = renamed = 0
    for i in range(1200):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        ctx = rules_context(rules)
        q = random_query(rng, pool=QUERY_POOL)
        res = xrewrite(q, ctx, RewriteOptions(elimination=False, budget=2000))
        first_step = max(1, apart_index(q.variables(), "^"))
        for entry in res.state.entries[:40]:
            cur = entry.query
            step = max(first_step + res.metrics.generated,
                       apart_index(cur.variables(), "^"))
            for tgd, facts in zip(ctx.tgds, ctx.rule_facts):
                if not facts.plain_head:
                    continue
                for at in cur.body:
                    if (at.pred, len(at.args)) != (tgd.head.pred,
                                                   len(tgd.head.args)):
                        continue
                    for st, preferred in itertools.product(
                            (step, 10 * step),
                            (frozenset(q.variables()), frozenset())):
                        general, direct = _both_paths(cur, at, tgd, st,
                                                      preferred)
                        assert direct == general, (cur, at, tgd, st)
                        checked += 1
                        renamed += any(
                            t.kind == VAR and t not in preferred
                            and f"{h.name}^{st}" < t.name
                            for h, t in zip(tgd.head.args, at.args))
    assert checked > 5000 and renamed > 300, (checked, renamed)


def test_bind_head_renames_a_variable_that_sorts_after_the_head_variable():
    # mgu represents {X^5, X^12} by X^12, which sorts first, so X^5 becomes
    # X^12 in the rest of the body too
    tgd = TGD((atom("r", X, Y),), atom("s", X, Y))
    x5 = var("X^5")
    q = make_query("q", [A], [atom("s", x5, A), atom("t", x5)])
    general, direct = _both_paths(q, q.body[0], tgd, 12, frozenset([A]))
    assert direct == general == "q(A) :- t(X^12), r(X^12, A)."
    # a preferred variable represents its class whatever its name
    general, direct = _both_paths(q, q.body[0], tgd, 12, frozenset([A, x5]))
    assert direct == general == "q(A) :- t(X^5), r(X^5, A)."
    # with no variable preferred, a head variable is renamed too
    q = make_query("q", [x5], [atom("s", x5, A), atom("t", A)])
    general, direct = _both_paths(q, q.body[0], tgd, 12, frozenset())
    assert direct == general == "q(X^12) :- t(A), r(X^12, A)."


def test_bind_head_binds_a_constant_of_the_piece():
    tgd = TGD((atom("r", X, Y), atom("u", Y, var("Z"))), atom("s", X, Y))
    q = make_query("q", [B], [atom("s", a, B), atom("t", B)])
    general, direct = _both_paths(q, q.body[0], tgd, 3, frozenset([B]))
    assert direct == general == "q(B) :- t(B), r(a, B), u(B, Z^3)."


def test_bind_head_one_variable_at_two_head_positions():
    tgd = TGD((atom("r", X, Y),), atom("s", X, Y))
    z7 = var("Z^7")
    q = make_query("q", [], [atom("s", z7, z7), atom("t", z7)])
    # the class {Z^7, X^12, Y^12} is represented by X^12
    general, direct = _both_paths(q, q.body[0], tgd, 12, frozenset())
    assert direct == general == "q() :- t(X^12), r(X^12, X^12)."
    general, direct = _both_paths(q, q.body[0], tgd, 12, frozenset([z7]))
    assert direct == general == "q() :- t(Z^7), r(Z^7, Z^7)."


def test_bind_head_at_the_existential_position():
    tgd = TGD((atom("r", X),), atom("s", X, Y))
    for held in (B, var("Y^9")):  # sorts before and after Y^10
        q = make_query("q", [A], [atom("s", A, held), atom("t", A)])
        for preferred in (frozenset([A]), frozenset([A, held])):
            general, direct = _both_paths(q, q.body[0], tgd, 10, preferred)
            assert direct == general == "q(A) :- t(A), r(A)."


@pytest.mark.parametrize("text", ["r(X) -> s(X, a).", "r(X) -> s(X, X).",
                                  "r(X, Y) -> s(X, Y)."])
def test_only_heads_of_distinct_variables_bind_directly(text, monkeypatch):
    # a head holding a constant or a repeated variable takes the general
    # path, rename + mgu; a plain head never does
    doc, tgds, ctx = pipeline(text)
    plain = text.startswith("r(X, Y)")
    assert ctx.rule_facts[0].plain_head == plain
    calls = []

    def counting(*args):
        calls.append(args)
        return rewrite_step(*args)

    monkeypatch.setattr(rewriter, "rewrite_step", counting)
    unifications = _count_mgu(monkeypatch)
    q = make_query("q", [], [atom("s", A, B), atom("t", B)])
    res = xrewrite(q, ctx, RewriteOptions(elimination=False))
    assert res.metrics.generated == 1
    assert len(calls) == (0 if plain else 1)
    assert len(unifications) == len(calls)


def _count_mgu(monkeypatch):
    """The calls of `mgu` that the rewriter makes from now on."""
    calls = []

    def counting(*args):
        calls.append(args)
        return mgu(*args)

    monkeypatch.setattr(rewriter, "mgu", counting)
    return calls


def test_rules_for_visits_the_rules_of_the_body_predicates_in_order():
    doc, tgds, ctx = pipeline("a(X) -> b(X).  c(X) -> d(X).  e(X) -> b(X).  "
                              "f(X) -> d(X).")
    assert ctx.rules_by_head == {"b": [0, 2], "d": [1, 3]}
    assert ctx.rules_for({"d", "b", "z"}) == [0, 1, 2, 3]
    assert ctx.rules_for({"d"}) == [1, 3]
    assert ctx.rules_for(()) == []


def test_xrewrite_financial_counters(monkeypatch):
    # the paper's query, sequential without elimination: every step binds
    # the head directly, so no step runs mgu
    from conftest import FINANCIAL, FINANCIAL_QUERY
    doc, tgds, ctx = pipeline(FINANCIAL)
    unifications = _count_mgu(monkeypatch)
    res = xrewrite(query(FINANCIAL_QUERY, doc), ctx,
                   RewriteOptions(elimination=False))
    assert (res.metrics.explored, res.metrics.generated,
            len(res.queries)) == (60, 222, 60)
    assert unifications == []


def test_financial_rewriting_admits_no_auxiliary_query():
    # the financial rules are in normal form: no auxiliary predicate, so
    # the loop admits only queries of the output
    from conftest import FINANCIAL, FINANCIAL_QUERY
    doc, tgds, ctx = pipeline(FINANCIAL)
    res = xrewrite(query(FINANCIAL_QUERY, doc), ctx,
                   RewriteOptions(elimination=False))
    assert not ctx.aux_preds
    assert not any(at.pred.startswith("aux#") for e in res.state.entries
                   for at in e.query.body)
    assert [e.query for e in res.state.entries] == res.queries


def test_random_single_atom_heads_admit_no_auxiliary_query():
    # every rule of the random linear and sticky suites has one head atom,
    # repeated existentials included: none is split, so the loop admits
    # only queries of the output
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    rng = random.Random(5)
    repeated = 0
    for i in range(400):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng))
        ctx = rules_context(rules)
        q = random_query(rng, pool=QUERY_POOL)
        res = xrewrite(q, ctx, RewriteOptions(elimination=False, budget=5000))
        assert not ctx.aux_preds, rules
        assert not any(at.pred.startswith("aux#") for e in res.state.entries
                       for at in e.query.body), (rules, q)
        assert [e.query for e in res.state.entries] == res.queries
        repeated += any(r.head[0].args.count(z) > 1 for r in rules
                        for z in r.existential_vars())
    assert repeated > 100, repeated


def test_pieces_over_two_existentials():
    # s(A, V, W) and s(B, V, W2) link through V; W and W2 are private, so
    # the two are one piece; s(C, W3, a) holds a constant at Z's position
    Z, V, W = var("Z"), var("V"), var("W")
    tgd = TGD((atom("r", X),), atom("s", X, Y, Z))
    W2, W3 = var("W2"), var("W3")
    q = make_query("q", [A], [atom("s", A, V, W), atom("s", B, V, W2),
                              atom("s", C, W3, a)])
    assert _resolvable_pieces(q, tgd) == [q.body[:2]]
    out = rewrite_step(q, q.body[:2], tgd, 1, frozenset(q.variables()))
    assert str(out) == "q(A) :- s(C, W3, a), r(A)."
    # V at both existential positions of one atom merges Y and Z: no piece
    q2 = make_query("q", [], [atom("s", A, V, V)])
    assert _resolvable_pieces(q2, tgd) == []


PIECE_33 = ("r(X0, X1) -> s(X0, X1, Y).  s(X0, X1, X2) -> c(X2).  "
            "w(X0, X1) -> t(X0, X1).  k(X0, X1, X2) -> s(X0, X1, X2).")


def test_elimination_before_the_core_lets_the_core_fold_more():
    # Elimination drops c(V), which s(B, A, V) covers; only then does
    # s(B, A, V) fold onto s(B, V, V).  Taking the core first keeps both
    # c(V) and s(B, V, V), and the rewriting has 6 disjuncts.
    from conftest import random_database
    from ontorewrite.parallel import xrewrite_parallel
    doc, tgds, ctx = pipeline(PIECE_33)
    q = query("q() :- c(V), s(B, A, V), s(B, V, V).", doc)
    rng = random.Random(33)
    dbs = [random_database(rng, max_facts=12, pool=_schema(doc.tgds))
           for _ in range(60)]
    answered = 0
    for rewrite in (xrewrite, xrewrite_parallel):
        res = rewrite(q, ctx)
        assert len(res.queries) <= 4 and res.metrics.core_removed == 1
        for db in dbs:
            # the chase oracle that `ontorewrite eval` runs
            answers, saturated = chase.certain_answers(q, db, doc.tgds, 1000)
            assert saturated
            assert chase.evaluate_ucq(res.queries, db) == answers, db
            answered += bool(answers)
    assert answered > 10


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
    assert res.metrics.factorized == 1


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
    # the last of its 222 steps, a duplicate keyed without being built,
    # still counts against the budget
    with pytest.raises(BudgetExhaustedError):
        xrewrite(q, ctx, RewriteOptions(elimination=False, budget=221))
    res = xrewrite(q, ctx, RewriteOptions(elimination=False, budget=222))
    assert res.metrics.generated == 222


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


def _reference_xrewrite(q, ctx, elimination=None):
    """The loop before single pieces, kept as the reference: one-atom
    rewriting steps, then factorization of the atoms sharing a variable at
    an existential position, with queries labelled r or f by the step that
    made them; a rewriting step that reaches an f query relabels it r, and
    the output is the r queries free of auxiliary predicates.  Like
    `xrewrite`, it rewrites the core of q, reduced first under elimination."""
    elim = ctx.elimination_for(elimination)
    q = core(reduce_query(q, elim) if elim else q)
    preferred = frozenset(q.variables())
    first_step = max(1, apart_index(preferred, "^"))
    found = {}  # renaming key -> [query, label]
    queue = deque()
    generated = 0

    def admit(out, label):
        if elim:
            out = reduce_query(out, elim)
        key = renaming_key(out)
        if key in found:
            if label == "r":
                found[key][1] = "r"
            return
        found[key] = [out, label]
        queue.append(out)

    admit(q, "r")
    while queue:
        cur = queue.popleft()
        shared = cur.shared_variables()
        for tgd in ctx.tgds:
            positions = tgd.existential_positions()
            matching = [at for at in cur.body if at.pred == tgd.head.pred
                        and len(at.args) == len(tgd.head.args)]
            for at in matching:
                if any(at.args[i - 1].kind != VAR or at.args[i - 1] in shared
                       for i in positions):
                    continue
                out = rewrite_step(cur, (at,), tgd, first_step + generated,
                                   preferred)
                if out is not None:
                    generated += 1
                    admit(out, "r")
            by_var = {}
            for at in matching:
                for i in positions:
                    if (at.args[i - 1].kind == VAR
                            and at.args[i - 1] not in cur.head_args):
                        by_var.setdefault((at.args[i - 1], i), []).append(at)
            for S in sorted((tuple(S) for S in by_var.values() if len(S) > 1),
                            key=len):
                if factorizable(S, tgd, cur):
                    admit(factorize_step(cur, S, preferred), "f")
    return [out for out, label in found.values()
            if label == "r" and not ctx.mentions_aux(out)]


def _keyed(queries):
    """The queries by renaming key, none sharing one."""
    keyed = {renaming_key(x): x for x in queries}
    assert len(keyed) == len(queries)
    return keyed


def _schema(rules):
    return sorted({(at.pred, len(at.args)) for r in rules
                   for at in r.body + r.head})


def _load_bench_inputs():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_xrewrite_outputs_the_reference_rewritings_of_the_paper_queries():
    # The financial queries of the benchmark (three timed, two more of the
    # answer workload) and the collaborator query: the same rewritings
    # modulo renaming, and the same answers on random databases.  The
    # reference factorizes on the financial queries without elimination,
    # but only the collaborator query has a piece of two atoms that resolves.
    from conftest import random_database
    inputs = _load_bench_inputs()
    cases = [(inputs.FINANCIAL, text) for text in
             inputs.FINANCIAL_QUERIES + inputs.ANSWER_QUERIES[1:]]
    cases.append((COLLAB + "\nhasCollaborator(X,Y,Z) -> collaborator(X).",
                  "p(B,C) :- hasCollaborator(A,B,C), collaborator(A)."))
    rng = random.Random(26)
    multi = 0
    for ontology, text in cases:
        doc, tgds, ctx = pipeline(ontology)
        q = query(text, doc)
        pool = _schema(doc.tgds)
        dbs = [random_database(rng, max_facts=12, pool=pool) for _ in range(5)]
        for elimination in (None, False):
            res = xrewrite(q, ctx, RewriteOptions(elimination=elimination))
            ref = _reference_xrewrite(q, ctx, elimination)
            assert _keyed(res.queries).keys() == _keyed(ref).keys(), text
            for db in dbs:
                assert (chase.evaluate_ucq(res.queries, db)
                        == chase.evaluate_ucq(ref, db))
            multi += res.metrics.factorized > 0
    assert multi == 2


def test_xrewrite_is_equivalent_to_the_reference_loop_on_pieces():
    # Each UCQ contains the other: every disjunct of one is subsumed by a
    # disjunct of the other, so both have the same answers on every
    # database.  The sets differ by renaming key where the reference keeps
    # a query it factorized and then rewrote elsewhere (q() :- k(a, a, V)
    # beside q() :- k(a, a, V), k(a, A, V)).
    from conftest import random_database, random_piece_case, rules_context
    rng = random.Random(2027)
    multi = differ = 0
    for _ in range(70):
        rules, q = random_piece_case(rng)
        ctx = rules_context(rules)
        pool = _schema(rules)
        dbs = [random_database(rng, max_facts=12, pool=pool) for _ in range(3)]
        for elimination in (None, False):
            res = xrewrite(q, ctx, RewriteOptions(elimination=elimination))
            ref = _reference_xrewrite(q, ctx, elimination)
            new, old = _keyed(res.queries), _keyed(ref)
            for mine, other in ((new, old), (old, new)):
                for key, d in mine.items():
                    assert key in other or any(
                        subsumes(e, d) for e in other.values()), (rules, q, d)
            for db in dbs:
                assert (chase.evaluate_ucq(res.queries, db)
                        == chase.evaluate_ucq(ref, db))
            multi += res.metrics.factorized > 0
            differ += new.keys() != old.keys()
    assert multi >= 50
    assert differ > 0


# ---------------------------------------------------------------------------
# Keys derived before building: a step from a parent whose body is private
# is keyed from the parent's atom keys, and its query is built only when
# that key is new.


def _build_then_key_xrewrite(q, ctx, elimination):
    """The loop that builds every step's query and then keys it, kept as
    the reference: (the admitted queries' str in order, their parents,
    explored, generated, factorized).  Like `xrewrite`, it rewrites the
    core of q, reduced first under elimination."""
    elim = ctx.elimination_for(elimination)
    q = core(reduce_query(q, elim) if elim else q)
    preferred = frozenset(q.variables())
    first_step = max(1, apart_index(preferred, "^"))
    queries, parents, index, queue = [], [], {}, deque()
    generated = factorized = explored = 0

    def admit(out, parent):
        key = renaming_key(out)
        node = index.setdefault(key, len(queries))
        if node == len(queries):
            queries.append(out)
            parents.append(set())
            queue.append(node)
        if parent is not None and parent != node:
            parents[node].add(parent)

    admit(q, None)
    while queue:
        node = queue.popleft()
        cur = queries[node]
        occ = cur.occurrences()
        for k in ctx.rules_for({at.pred for at in cur.body}):
            tgd, facts = ctx.tgds[k], ctx.rule_facts[k]
            for S in _pieces(cur, tgd, facts.epos, occ):
                step = first_step + generated
                if len(S) == 1 and facts.plain_head:
                    out = _bind_head(cur, S[0], tgd, step, preferred,
                                     facts.body_only)
                else:
                    out = rewrite_step(cur, S, tgd, step, preferred)
                if out is None:
                    continue
                generated += 1
                factorized += len(S) > 1
                admit(reduce_query(out, elim) if elim else out, node)
        explored += 1
    return ([str(x) for x in queries], parents, explored, generated,
            factorized)


class _KeyedAdmits:
    """Wraps RewriteState.admit: every key the loop hands in must equal
    renaming_key of the query its builder makes.  Counts the steps keyed
    before building and, of those, the duplicates."""

    def __init__(self, monkeypatch):
        self.keyed = self.duplicates = self.built_first = 0
        original = rewriter.RewriteState.admit

        def admit(state, q, parent, key=None):
            if key is None:
                self.built_first += parent is not None
            else:
                assert renaming_key(q()) == key, str(q())
                self.keyed += 1
            entry = original(state, q, parent, key)
            self.duplicates += key is not None and entry is None
            return entry

        monkeypatch.setattr(rewriter.RewriteState, "admit", admit)


def _rewrite_as_reference(q, ctx, elimination):
    """Rewrite q with both loops and require the same admitted queries in
    order, the same parents and the same counters."""
    res = xrewrite(q, ctx, RewriteOptions(elimination=elimination,
                                          budget=20000))
    mine = ([str(e.query) for e in res.state.entries],
            [e.parents for e in res.state.entries], res.metrics.explored,
            res.metrics.generated, res.metrics.factorized)
    assert mine == _build_then_key_xrewrite(q, ctx, elimination), str(q)
    for e in res.state.entries:
        assert e.key == renaming_key(e.query), str(e.query)
    return res


def test_keyed_steps_equal_the_build_then_key_loop(monkeypatch):
    # The financial queries of the benchmark, random linear and sticky
    # rewritings and the piece cases, with elimination off and at its
    # default: the same queries, parents and counters as the loop that
    # builds every step, every key handed to admit equals the built
    # query's (a memo of the bound bodies' keys that ignored the rule
    # would fail here first), and every entry keeps its query's key.
    from conftest import (QUERY_POOL, random_linear_rules, random_piece_case,
                          random_query, random_sticky_rules, rules_context)
    admits = _KeyedAdmits(monkeypatch)
    inputs = _load_bench_inputs()
    doc, tgds, ctx = pipeline(inputs.FINANCIAL)
    for text in inputs.FINANCIAL_QUERIES + inputs.ANSWER_QUERIES:
        for elimination in (None, False):
            _rewrite_as_reference(query(text, doc), ctx, elimination)
    financial = admits.keyed, admits.duplicates
    rng = random.Random(2801)
    for i in range(480):
        if i % 3 == 0:
            rules, q = random_piece_case(rng)
        else:
            rules = (random_linear_rules(rng) if i % 3 == 1
                     else random_sticky_rules(rng, max_rules=4))
            q = random_query(rng, pool=QUERY_POOL)
        ctx = rules_context(rules)
        for elimination in (None, False):
            _rewrite_as_reference(q, ctx, elimination)
    random_keyed = (admits.keyed - financial[0],
                    admits.duplicates - financial[1])
    # seen: (1062, 792) financial, (492, 155) random, 16440 built first
    assert financial[0] > 1000 and financial[1] > 700, financial
    assert random_keyed[0] > 300 and random_keyed[1] > 100, random_keyed
    assert admits.built_first > 10000, admits.built_first


def _keyed_run(monkeypatch, ontology, text):
    doc, tgds, ctx = pipeline(ontology)
    admits = _KeyedAdmits(monkeypatch)
    res = _rewrite_as_reference(query(text, doc), ctx, False)
    return res, admits


def test_keyed_step_drops_a_bound_atom_the_rest_holds(monkeypatch):
    # r(A) becomes s(A), which the rest holds
    res, admits = _keyed_run(monkeypatch, "s(X) -> r(X).",
                             "q(A) :- r(A), s(A).")
    assert [str(e.query) for e in res.state.entries] == [
        "q(A) :- r(A), s(A).", "q(A) :- s(A)."]
    assert (admits.keyed, admits.duplicates) == (1, 0)


@pytest.mark.parametrize("text", ["q() :- s(B, B), t(C).",
                                  "q(A) :- s(A, a), t(A).",
                                  "q(A) :- s(B, B), s(a, A)."])
def test_keyed_step_from_an_atom_with_a_repeated_variable_or_a_constant(
        text, monkeypatch):
    # bound to s(B, B), the second rule's body is one atom, u(B, B)
    res, admits = _keyed_run(
        monkeypatch, "r(X, Y) -> s(X, Y).  u(X, Y), u(Y, X) -> s(X, Y).",
        text)
    assert admits.keyed == res.metrics.generated > 0
    assert admits.built_first == 0


def test_keyed_step_to_a_child_that_is_not_private(monkeypatch):
    # the rule body's atoms share Z^n, so the child is not private and its
    # own steps build first
    res, admits = _keyed_run(monkeypatch, "r(X, Z), u(Z) -> s(X).  "
                             "v(Y) -> u(Y).", "q(A) :- s(A), t(A).")
    assert [str(e.query) for e in res.state.entries] == [
        "q(A) :- s(A), t(A).", "q(A) :- t(A), r(A, Z^1), u(Z^1).",
        "q(A) :- t(A), r(A, Y^2), v(Y^2)."]
    assert (admits.keyed, admits.built_first) == (1, 1)


def test_keyed_steps_from_the_private_child_of_a_query_that_is_not(
        monkeypatch):
    # Z links the root's atoms, so its steps build first; binding s(A, Z)
    # to the head s(X, X) unlinks them, and the child's own step is keyed
    # from the key it was admitted with
    res, admits = _keyed_run(monkeypatch, "p(X) -> s(X, X).  v(X) -> t(X).",
                             "q(A) :- s(A, Z), t(Z).")
    assert [str(e.query) for e in res.state.entries] == [
        "q(A) :- s(A, Z), t(Z).", "q(A) :- t(A), p(A).",
        "q(A) :- s(A, Z), v(Z).", "q(A) :- p(A), v(A)."]
    assert res.state.entries[3].parents == {1, 2}
    assert (admits.keyed, admits.duplicates, admits.built_first) == (1, 0, 3)


def test_no_admitted_body_is_keyed_again(monkeypatch):
    # The paper's query, sequential without elimination: every explored
    # query's key is the one it was admitted with, so of the bodies that
    # the rewriter's keying functions see, only the initial query's holds
    # more than one atom (a loop that keys each parent's body again keys
    # 61).
    from conftest import FINANCIAL, FINANCIAL_QUERY
    from ontorewrite import model
    doc, tgds, ctx = pipeline(FINANCIAL)
    sizes = []

    def counting(function):
        def keyed(first, *rest):
            if isinstance(first, ConjunctiveQuery):
                sizes.append(len(first.body))
            elif isinstance(first, Atom):
                sizes.append(1)
            elif all(isinstance(a, Atom) for a in first):
                sizes.append(len(first))
            return function(first, *rest)
        return keyed

    keying = [name for name, f in vars(rewriter).items() if "key" in name
              and getattr(f, "__module__", None) == model.__name__]
    assert "renaming_key" in keying and "group_keys" in keying
    for name in keying:
        monkeypatch.setattr(rewriter, name, counting(getattr(rewriter, name)))
    res = xrewrite(query(FINANCIAL_QUERY, doc), ctx,
                   RewriteOptions(elimination=False))
    assert res.metrics.explored == 60
    assert sum(size > 1 for size in sizes) == 1


def test_keyed_step_whose_child_is_its_parent(monkeypatch):
    res, admits = _keyed_run(monkeypatch, "s(X, Y) -> s(Y, X).",
                             "q() :- s(A, B).")
    assert len(res.state.entries) == 1 and res.metrics.generated == 1
    assert (admits.keyed, admits.duplicates) == (1, 1)
    assert res.state.entries[0].parents == set()
