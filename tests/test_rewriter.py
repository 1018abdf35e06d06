import itertools
import random
from collections import deque

import pytest

import ontorewrite as ow
from ontorewrite import chase
from ontorewrite.eliminate import reduce_query
from ontorewrite.model import (TGD, VAR, Atom, apart_index, atom, const,
                               make_query, mgu, renaming_key, var)
from ontorewrite.rewriter import (BudgetExhaustedError, RewriteOptions,
                                  _pieces, applicable, factorizable,
                                  factorize_step, rewrite_step, xrewrite)
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
            pieces = _pieces(q, tgd, q.occurrences())
            for a in q.body:
                S = (a,)
                out = rewrite_step(q, S, tgd, 1, preferred, ctx)
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


def _is_piece(S, q, tgd, head):
    """Whether S plus the renamed rule head `head` unifies and the class of
    the head's existential under that unifier holds no constant, no head
    variable of q, no other variable of the rule and no variable of an atom
    of q outside S (a piece unifier's condition, for one existential)."""
    theta = mgu(tuple(S) + (head,))
    if theta is None:
        return False
    epos = tgd.existential_position()
    if epos is None:
        return True
    root = theta.get(head.args[epos - 1], head.args[epos - 1])
    outside = {t for a in q.body if a not in S for t in a.args}
    forbidden = outside | set(q.head_args) | {
        t for i, t in enumerate(head.args, start=1) if i != epos}
    terms = {t for a in S for t in a.args} | set(head.args)
    return not any(theta.get(t, t) == root and (t.kind != VAR or t in forbidden)
                   for t in terms)


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
    return [S for S in _pieces(q, tgd, q.occurrences())
            if rewrite_step(q, S, tgd, apart_index(preferred, "^"),
                            preferred) is not None]


def test_pieces_equal_the_brute_force_reference():
    Z, V, W = var("Z"), var("V"), var("W")
    rules = [TGD((atom("r", X),), atom("s", X, Y)),           # epos 2
             TGD((atom("r", X),), atom("s", Y, X)),           # epos 1
             TGD((atom("r", X, Z),), atom("s", X, Y, Z)),     # epos 2 of 3
             TGD((atom("r", X, Y),), atom("s", X, Y))]        # no existential
    rng = random.Random(606)
    multi = 0
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


def _reference_xrewrite(q, ctx, elimination=None):
    """The loop before single pieces, kept as the reference: one-atom
    rewriting steps, then factorization of the atoms sharing a variable at
    the existential position, with queries labelled r or f by the step that
    made them; a rewriting step that reaches an f query relabels it r, and
    the output is the r queries free of auxiliary predicates."""
    elim = ctx.elimination_for(elimination)
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
            epos = tgd.existential_position()
            matching = [at for at in cur.body if at.pred == tgd.head.pred
                        and len(at.args) == len(tgd.head.args)]
            for at in matching:
                if epos is not None and (at.args[epos - 1].kind != VAR
                                         or at.args[epos - 1] in shared):
                    continue
                out = rewrite_step(cur, (at,), tgd, first_step + generated,
                                   preferred, ctx)
                if out is not None:
                    generated += 1
                    admit(out, "r")
            if epos is None:
                continue
            by_var = {}
            for at in matching:
                if at.args[epos - 1].kind == VAR:
                    by_var.setdefault(at.args[epos - 1], []).append(at)
            for S in sorted((tuple(S) for S in by_var.values() if len(S) > 1),
                            key=len):
                if factorizable(S, tgd, cur):
                    admit(factorize_step(cur, S, preferred, ctx), "f")
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
    for _ in range(60):
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
