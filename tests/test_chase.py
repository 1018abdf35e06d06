import itertools
import random
import time

import ontorewrite as ow
from ontorewrite.chase import (ChaseInstance, certain_answers, chase_up_to,
                               evaluate_cq, evaluate_ucq, fd_violations,
                               nc_check_queries)
from ontorewrite import chase
from ontorewrite.model import (Atom, CONST, ConjunctiveQuery, VAR, as_index,
                               atom, connected_components, const,
                               homomorphisms, null, subst_atom, var)
from ontorewrite.parser import parse_ontology, parse_query

A, B, X = var("A"), var("B"), var("X")
a, b = const("a"), const("b")


def test_chase_first_step_of_appendix_example():
    doc = parse_ontology("p(X,Y,Z) -> s(Y,X).  s(X,Y) -> p(Y,Z,W).  p(a,b,c).")
    inst = chase_up_to(doc.facts, doc.tgds, 1)
    assert set(inst.atoms) == set(doc.facts) | {atom("s", b, a)}


def test_chase_zero_steps_is_the_database():
    doc = parse_ontology("p(X,Y,Z) -> s(Y,X).  p(a,b,c).")
    inst = chase_up_to(doc.facts, doc.tgds, 0)
    assert inst.atoms == doc.facts


def test_chase_full_rules_saturate_before_budget():
    doc = parse_ontology("""
        r(X,Y) -> r(Y,X).
        r(X,Y) -> s(X).
        r(a,b). r(b,c).
    """)
    inst = chase_up_to(doc.facts, doc.tgds, 10_000)
    assert inst.saturated
    expected = {atom("r", a, b), atom("r", b, a), atom("r", b, const("c")),
                atom("r", const("c"), b), atom("s", a), atom("s", b),
                atom("s", const("c"))}
    assert set(inst.atoms) == expected
    # a saturated instance satisfies every rule
    for rule in doc.tgds:
        for h in _all_homomorphisms(rule.body, inst):
            head = subst_atom(h, rule.head[0])
            assert head in inst


def _all_homomorphisms(body, inst):
    return homomorphisms(tuple(body), inst, {})


def test_chase_is_monotone_in_budget():
    doc = parse_ontology("p(X,Y,Z) -> s(Y,X).  s(X,Y) -> p(Y,Z,W).  p(a,b,c).")
    prev = set()
    for k in (0, 1, 3, 7, 20):
        inst = chase_up_to(doc.facts, doc.tgds, k)
        assert prev <= set(inst.atoms)
        prev = set(inst.atoms)


def test_evaluate_cq_null_in_instance_but_not_in_answers():
    z = null("z1")
    inst = [atom("hasCollaborator", z, const("db"), a)]
    q = parse_query("p(B) :- hasCollaborator(A, db, B).")
    assert evaluate_cq(q, inst) == {(a,)}
    q2 = parse_query("p(A, B) :- hasCollaborator(A, db, B).")
    assert evaluate_cq(q2, inst) == set()  # tuples with nulls are excluded


def test_evaluate_cq_empty_instance():
    q = parse_query("p(B) :- r(B).")
    assert evaluate_cq(q, []) == set()


def test_certain_answers_example():
    doc = parse_ontology("""
        project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).
        project(a). inArea(a,db).
    """)
    q = parse_query("p(B) :- hasCollaborator(A, db, B).", dict(doc.arities))
    answers, saturated = certain_answers(q, doc.facts, doc.tgds, 100)
    assert answers == {(a,)}
    assert saturated


def test_certain_answers_monotone_in_depth():
    doc = parse_ontology("p(X,Y,Z) -> s(Y,X).  s(X,Y) -> p(Y,Z,W).  p(a,b,c).")
    q = parse_query("q(A) :- s(B, A).", dict(doc.arities))
    prev = set()
    for k in (1, 5, 25, 100):
        answers, _ = certain_answers(q, doc.facts, doc.tgds, k)
        assert prev <= answers
        prev = answers


def test_oracle_distinguishes_unsound_rewriting():
    doc = parse_ontology("""
        project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).
        project(a). inArea(a,b).
    """)
    q1 = parse_query("p(B) :- hasCollaborator(c, db, B).", dict(doc.arities))
    answers, _ = certain_answers(q1, doc.facts, doc.tgds, 100)
    assert answers == set()
    naive = parse_query("p(B) :- project(B), inArea(B, db).", dict(doc.arities))
    # over D itself, the unsound rewriting would wrongly answer if inArea
    # held db; the oracle stays empty because the constant c never matches
    assert evaluate_cq(naive, doc.facts) == set()


def test_nc_check_query():
    doc = parse_ontology("student(X), professor(X) -> !.  student(a).")
    queries = nc_check_queries(doc.ncs)
    assert len(queries) == 1
    assert [at.pred for at in queries[0].body] == ["student", "professor"]


def test_fd_satisfied_singleton_relation():
    doc = parse_ontology("fatherOf(a,b).  fd fatherOf: 2 -> 1.")
    assert fd_violations(doc.fds, doc.facts) == []


def test_fd_violations_lists_every_pair_in_database_order():
    from conftest import random_database
    rng = random.Random(56)
    fd_doc = parse_ontology("p4(a,b,c).  p3(a,b).  fd p4: 1 -> 2,3.  fd p3: 2 -> 1.")
    for _ in range(40):
        db = random_database(rng, max_facts=12)
        pairs = [(fd, a, b) for fd in fd_doc.fds
                 for n, a in enumerate(db) if a.pred == fd.pred
                 for b in db[n + 1:] if b.pred == fd.pred
                 and all(a.args[i - 1] == b.args[i - 1] for i in fd.lhs)
                 and any(a.args[j - 1] != b.args[j - 1] for j in fd.rhs)]
        assert fd_violations(fd_doc.fds, db) == pairs


def test_chase_universality_smoke():
    doc = parse_ontology("p(X,Y,Z) -> s(Y,X).  s(X,Y) -> p(Y,Z,W).  p(a,b,c).")
    q = parse_query("q(A) :- p(A, B, C).", dict(doc.arities))
    small, _ = certain_answers(q, doc.facts, doc.tgds, 5)
    large, _ = certain_answers(q, doc.facts, doc.tgds, 50)
    assert small <= large


# ---------------------------------------------------------------------------
# The indexed join against a brute-force evaluator.


def _brute_homomorphisms(body, facts, binding=None, anchor=None):
    """Every extension of binding mapping the body into facts, found by
    trying each combination of one fact per atom; sorted item lists."""
    choices = [[f for f in facts if f.pred == a.pred] for a in body]
    if anchor is not None:
        choices[anchor[0]] = [anchor[1]]
    out = []
    for combo in itertools.product(*choices):
        h = dict(binding or {})
        ok = True
        for a, f in zip(body, combo):
            ok = len(a.args) == len(f.args) and all(
                h.setdefault(t, v) == v if t.kind == VAR else t == v
                for t, v in zip(a.args, f.args))
            if not ok:
                break
        if ok:
            out.append(sorted(h.items()))
    return sorted(out)


def _brute_answers(q, facts):
    answers = set()
    for h in _brute_homomorphisms(q.body, facts):
        t = tuple(dict(h).get(arg, arg) for arg in q.head_args)
        if all(term.kind == CONST for term in t):
            answers.add(t)
    return answers


def _homomorphisms(body, facts, binding=None, anchor=None):
    return sorted(sorted(h.items()) for h in
                  homomorphisms(tuple(body), as_index(facts),
                                dict(binding or {}), anchor=anchor))


def _random_facts(rng):
    """A random database with some nulls and a fact of the wrong arity."""
    from conftest import QUERY_POOL, random_database
    db = random_database(rng, max_facts=14, pool=QUERY_POOL)
    z = null("z1")
    extra = [Atom("p2", (z, const("a"))), Atom("p3", (const("b"), z)),
             Atom("p2", (const("a"),)), Atom("p4", (const("a"), const("b")))]
    return list(dict.fromkeys(db + rng.sample(extra, rng.randint(0, 4))))


def test_evaluate_cq_agrees_with_brute_force_on_random_queries():
    from conftest import QUERY_POOL, random_query
    rng = random.Random(4242)
    split = 0  # non-Boolean queries answered group by group
    for _ in range(300):
        q = random_query(rng, max_atoms=4, pool=QUERY_POOL)
        facts = _random_facts(rng)
        assert evaluate_cq(q, facts) == _brute_answers(q, facts), (q, facts)
        assert _homomorphisms(q.body, facts) == _brute_homomorphisms(q.body, facts)
        split += bool(q.head_args) and len(_groups(q)) > 1
    assert split >= 50


def _groups(q):
    return connected_components(q.body, lambda t: t.kind == VAR)


def _random_product_ucq(rng):
    """Disjuncts that are products of a few random component bodies, one
    drawn per slot from that slot's pool, with the slots' variables kept
    apart, so that identical groups repeat across disjuncts.  The head
    variables are drawn from all slots; a disjunct may hold none of one.
    In two UCQs of five each disjunct varies the head on its own (see
    `_varied_head`), so the same groups also repeat under other heads."""
    from conftest import QUERY_POOL, random_query
    slots = []
    for s in range(rng.randint(2, 3)):
        bodies = []
        for _ in range(rng.randint(1, 3)):
            body = random_query(rng, max_atoms=2, pool=QUERY_POOL).body
            sub = {t: var(f"{t.name}{s}") for at in body for t in at.args
                   if t.kind == VAR}
            bodies.append(tuple(subst_atom(sub, at) for at in body))
        slots.append(bodies)
    variables = sorted({t for bodies in slots for body in bodies
                        for at in body for t in at.args if t.kind == VAR})
    head = tuple(rng.sample(variables, min(len(variables), rng.randint(0, 3))))
    if rng.random() < 0.2:
        head += (const("a"),)
    varied = rng.random() < 0.4
    return [ConjunctiveQuery("q", _varied_head(rng, head) if varied else head,
                             tuple(itertools.chain(*bodies)))
            for bodies in itertools.product(*slots)]


def _varied_head(rng, head):
    """The head with its terms reordered, with one variable repeated, or
    with one variable replaced by a constant; a head without variables is
    only reordered."""
    positions = [i for i, t in enumerate(head) if t.kind == VAR]
    way = rng.randrange(3) if positions else 0
    if way == 0:
        return tuple(rng.sample(head, len(head)))
    i = rng.choice(positions)
    if way == 1:
        return head[:i + 1] + head[i:]
    return head[:i] + (b,) + head[i + 1:]


def test_evaluate_ucq_of_random_products_agrees_with_brute_force():
    rng = random.Random(4444)
    repeated = 0  # groups that a disjunct shares with an earlier one
    reheaded = 0  # those that an earlier disjunct held under another head
    for _ in range(300):
        ucq = _random_product_ucq(rng)
        facts = _random_facts(rng)
        expected = set().union(*(_brute_answers(q, facts) for q in ucq))
        assert evaluate_ucq(ucq, facts) == expected, (ucq, facts)
        heads_of = {}
        for q in ucq:
            assert evaluate_cq(q, facts) == _brute_answers(q, facts), (q, facts)
            if q.head_args:
                for group in _groups(q):
                    heads = heads_of.setdefault(group, set())
                    repeated += bool(heads)
                    reheaded += bool(heads - {q.head_args})
                    heads.add(q.head_args)
    assert repeated >= 1000
    assert reheaded >= 500


def test_evaluate_cq_answers_split_bodies_like_brute_force():
    z = null("z1")
    c = const("c")
    facts = [atom("r", a, a), atom("r", a, b), atom("r", b, b), atom("r", b, c),
             atom("r", z, z), atom("r", c, z), atom("s", b), atom("s", z),
             atom("r", a), atom("s", a, b)]
    cases = {
        "q(X, c) :- r(X, X), s(Y).": {(a, c), (b, c)},  # a head constant
        "q(X, Y) :- r(X, X), r(c, Y).": set(),  # only a null row for Y
        "q(X) :- r(X, X), s(b).": {(a,), (b,)},  # a true ground atom
        "q(X) :- r(X, X), s(c).": set(),  # a false ground atom
        # a group holding no head variable beside two that do
        "q(Y, X) :- r(X, b), s(Y), r(Z, Z).": {(b, a), (b, b)},
        "q(X, Y) :- r(X, b), s(Y), r(Z, c), s(Z).": {(a, b), (b, b)},
        "q(X, Y) :- r(X, b), s(Y), r(Z, a), s(Z).": set(),
    }
    for text, expected in cases.items():
        q = parse_query(text)
        assert len(_groups(q)) > 1, text
        assert evaluate_cq(q, facts) == _brute_answers(q, facts) == expected, text
    # a head variable in no atom, with one group and with two
    Y = var("Y")
    for body in ((atom("r", X, X),), (atom("r", X, X), atom("s", a, B))):
        q = ConjunctiveQuery("q", (X, Y), body)
        assert evaluate_cq(q, facts) == _brute_answers(q, facts) == set()
    ucq = [parse_query(text) for text in cases]
    assert evaluate_ucq(ucq, facts) == set().union(*cases.values())


def _counting_joins(monkeypatch):
    """The bodies `chase` joins from now on, one per join started."""
    joined = []

    def counting(body, *args, **kwargs):
        joined.append(tuple(body))
        return homomorphisms(body, *args, **kwargs)

    monkeypatch.setattr(chase, "homomorphisms", counting)
    return joined


def _size_law_ucq(n):
    """The decomposed rewriting of the non-Boolean size law at m=3: 4**n
    disjuncts, products of 4*n + 1 one-atom groups under one head."""
    from conftest import pipeline, query
    from ontorewrite.parallel import xrewrite_parallel
    doc, _, ctx = pipeline(
        "p_1(X) -> p_0(X).  p_2(X) -> p_0(X).  p_3(X) -> p_0(X).")
    names = [f"A{i}" for i in range(1, n + 1)]
    q = query(f"p({', '.join(names)}) :- "
              f"{', '.join(f'p_0({v})' for v in names)}, e(B, B).", doc)
    ucq = xrewrite_parallel(q, ctx).queries
    assert len(ucq) == 4 ** n
    return ucq


def test_evaluate_ucq_joins_each_shared_group_once(monkeypatch):
    """The size law's disjuncts are products of 4*n + 1 one-atom groups,
    and `evaluate_ucq` joins each group once, not each disjunct; so its
    time grows with the disjuncts, about 4x from n=6 to n=7."""
    ks = [const(f"k{i}") for i in range(4)]
    facts = [atom(f"p_{i}", k) for i, k in enumerate(ks)]
    facts.append(atom("e", a, a))
    seconds = {}
    for n in (6, 7):
        ucq = _size_law_ucq(n)
        joined = _counting_joins(monkeypatch)
        assert evaluate_ucq(ucq, facts) == set(itertools.product(ks, repeat=n))
        assert len(joined) == len(set(joined)) == 4 * n + 1
        monkeypatch.undo()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            evaluate_ucq(ucq, facts)
            times.append(time.perf_counter() - t0)
        seconds[n] = min(times)
    assert seconds[7] < 2.0, seconds
    assert seconds[7] < 8 * seconds[6], seconds


def test_evaluate_ucq_joins_a_connected_disjunct_once(monkeypatch, financial):
    doc, _, ctx, q = financial
    ucq = ow.xrewrite(q, ctx, ow.RewriteOptions(elimination=False)).queries
    connected = [d for d in ucq if len(_groups(d)) == 1]
    assert len(connected) == len(ucq) > 50
    facts = parse_ontology("""
        stockPortfolio(c1, s1, n1). company(c2, x, y). listComponent(s1, i1).
        finIndex(i1, u, v). stock(s2, a, b). hasStock(s1, c1).
        finInstrument(s1). legalPerson(c1).
    """).facts
    joined = _counting_joins(monkeypatch)
    answers = set()
    for d in connected:
        joined.clear()
        answers |= evaluate_ucq([d], facts)
        assert joined == [d.body], d
    assert answers
    joined.clear()
    assert evaluate_ucq(ucq, facts) == answers
    assert len(joined) == len(ucq)


def test_boolean_ucq_joins_until_a_disjunct_answers(monkeypatch):
    facts = [atom("r", a), atom("s", b)]
    ucq = [parse_query(text) for text in
           ("p() :- r(X), s(Y).", "p() :- r(X), s(X).", "p() :- t(X).")]
    joined = _counting_joins(monkeypatch)
    assert evaluate_ucq(ucq, facts) == {()}
    assert joined == [ucq[0].body]  # one join, not one per group
    joined.clear()
    assert evaluate_ucq(ucq[1:], facts) == set()
    assert len(joined) == 2


def _counting_bindings(monkeypatch):
    """The bindings `chase` joins yield from now on, in one list."""
    yielded = []

    def counting(*args, **kwargs):
        for h in homomorphisms(*args, **kwargs):
            yielded.append(h)
            yield h

    monkeypatch.setattr(chase, "homomorphisms", counting)
    return yielded


def test_evaluate_ucq_yields_one_binding_per_answer(monkeypatch, financial):
    """Each disjunct of the financial rewriting is one group, joined with
    the UCQ's answers as the known tuples, so over a null-free database a
    join yields a binding only for an answer that no earlier binding gave:
    184 homomorphisms of the 60 disjuncts give 5 answers."""
    doc, _, ctx, q = financial
    ucq = ow.xrewrite(q, ctx, ow.RewriteOptions(elimination=False)).queries
    assert all(len(_groups(d)) == 1 for d in ucq)
    facts = parse_ontology("""
        stockPortfolio(c1, s1, n1). company(c1, x, y). listComponent(s1, i1).
        finIndex(i1, u, v). stock(s1, a, b). hasStock(s1, c1).
        finInstrument(s1). legalPerson(c1).
        hasStock(s2, c2). company(c2, x, y). listComponent(s2, i2).
        listComponent(s2, i1). stock(s3, a, b). hasStock(s3, c1).
        listComponent(s3, i3). stockPortfolio(c2, s3, n2).
    """).facts
    index = as_index(facts)
    assert sum(1 for d in ucq for _ in homomorphisms(d.body, index, {})) == 184
    yielded = _counting_bindings(monkeypatch)
    answers = evaluate_ucq(ucq, facts)
    assert len(answers) == 5
    assert len(yielded) == len(answers)
    assert {tuple(h[t] for t in q.head_args) for h in yielded} == answers


def _padded_ucq(rng, q):
    """q with redundant disjuncts: copies with an extra atom, which q
    subsumes, and copies with the variables renamed, in random order."""
    from conftest import QUERY_POOL, random_query
    ucq = [q]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            extra = random_query(rng, max_atoms=1, pool=QUERY_POOL).body
            ucq.append(ConjunctiveQuery("q", q.head_args, q.body + extra))
        else:
            names = {t: var(t.name + "r") for at in q.body for t in at.args
                     if t.kind == VAR}
            ucq.append(ConjunctiveQuery(
                "q", tuple(names.get(t, t) for t in q.head_args),
                tuple(subst_atom(names, at) for at in q.body)))
    rng.shuffle(ucq)
    return ucq


def test_answer_joins_with_redundant_disjuncts_agree_with_brute_force():
    """Answers of UCQs padded with redundant disjuncts match brute force;
    and a join told an answer tuple and a pre-filled set of known tuples
    yields exactly once each tuple the brute force finds outside the set,
    nulls and unbound variables included, and adds it to the set."""
    from conftest import CONSTS, QUERY_POOL, random_query
    rng = random.Random(4545)
    skipped = 0  # brute-force tuples the known set held
    for _ in range(300):
        q = random_query(rng, max_atoms=4, pool=QUERY_POOL)
        facts = _random_facts(rng)
        ucq = _padded_ucq(rng, q)
        expected = set().union(*(_brute_answers(d, facts) for d in ucq))
        assert evaluate_ucq(ucq, facts) == expected, (ucq, facts)
        for d in ucq:
            assert evaluate_cq(d, facts) == _brute_answers(d, facts), (d, facts)
        body_vars = sorted({t for at in q.body for t in at.args
                            if t.kind == VAR})
        answer = tuple(rng.sample(body_vars, rng.randint(0, len(body_vars))))
        if rng.random() < 0.3:
            answer += (rng.choice(CONSTS + [var("Unbound")]),)
        tuples = {tuple(dict(h).get(t, t) for t in answer)
                  for h in _brute_homomorphisms(q.body, facts)}
        known = set(rng.sample(sorted(tuples), rng.randint(0, len(tuples))))
        known.add((const("elsewhere"),))
        before = set(known)
        rows = [tuple(h.get(t, t) for t in answer) for h in
                homomorphisms(q.body, as_index(facts), {}, answer=answer,
                              known=known)]
        assert len(rows) == len(set(rows)), (q, answer, facts)
        assert set(rows) == tuples - before, (q, answer, facts)
        assert known == before | tuples
        skipped += len(tuples & before)
    assert skipped >= 40


def test_evaluate_cq_agrees_with_brute_force_on_hand_made_cases():
    z = null("z1")
    c = const("c")
    facts = [atom("r", a, a), atom("r", a, b), atom("r", b, b), atom("r", b, c),
             atom("r", z, z), atom("r", c, z), atom("s", b), atom("s", z),
             atom("r", a), atom("s", a, b)]
    cases = [
        "q(X) :- r(X, X).",                 # repeated variable
        "q(X, Y) :- r(X, Y), r(Y, Y).",
        "q(X) :- r(a, X).",                 # constant in a body atom
        "q(X) :- r(X, b), s(X).",
        "q() :- r(X, X), s(X).",            # boolean head
        "q() :- r(X, c), r(c, Y), r(Y, Y).",  # boolean, answered through a null
        "q(Y) :- r(X, Y), s(Y).",           # a null answer is excluded
        "q(X) :- r(X).",                    # only the wrong-arity fact
        "q() :- r(X, Y), s(c).",            # boolean, no answer
    ]
    for text in cases:
        q = parse_query(text)
        assert evaluate_cq(q, facts) == _brute_answers(q, facts), text
        assert _homomorphisms(q.body, facts) == \
            _brute_homomorphisms(q.body, facts), text
    assert evaluate_cq(parse_query("q(X) :- r(X, X)."), facts) == {(a,), (b,)}
    assert evaluate_cq(parse_query("q() :- r(X, c), r(c, Y), r(Y, Y)."),
                       facts) == {()}


def test_body_homomorphisms_with_binding_and_anchor_agree_with_brute_force():
    from conftest import QUERY_POOL, random_query
    rng = random.Random(4343)
    checked = 0
    for _ in range(300):
        q = random_query(rng, max_atoms=4, pool=QUERY_POOL)
        facts = _random_facts(rng)
        body_vars = sorted({t for at in q.body for t in at.args if t.kind == VAR})
        binding = {rng.choice(body_vars): rng.choice(facts).args[0]} \
            if body_vars else {}
        binding[var("Unused")] = const("d")  # a binding outside the body
        assert _homomorphisms(q.body, facts, binding) == \
            _brute_homomorphisms(q.body, facts, binding)
        idx = rng.randrange(len(q.body))
        for fact in facts:
            if fact.pred == q.body[idx].pred:
                anchor = (idx, fact)
                assert _homomorphisms(q.body, facts, binding, anchor) == \
                    _brute_homomorphisms(q.body, facts, binding, anchor)
                checked += 1
    assert checked > 100


def test_evaluate_sees_facts_added_after_the_indexes_were_built():
    inst = ChaseInstance()
    for f in (atom("r", a, b), atom("s", b, const("c"))):
        inst.add(f)
    q = parse_query("p(X, Z) :- r(X, Y), s(Y, Z).")
    assert evaluate_cq(q, inst) == {(a, const("c"))}
    assert inst.indexes  # the join went through an index
    for f in (atom("s", b, const("d")), atom("r", const("e"), b),
              atom("r", a, const("f")), atom("s", const("f"), a)):
        inst.add(f)
    assert evaluate_cq(q, inst) == {(a, const("c")), (a, const("d")),
                                    (const("e"), const("c")),
                                    (const("e"), const("d")), (a, a)}


def test_chain_join_is_linear_in_the_database():
    n = 20_000
    facts = [atom("r", const(f"a{i}"), const(f"b{i}")) for i in range(n)]
    facts += [atom("s", const(f"b{i}"), const(f"c{i}")) for i in range(n)]
    q = parse_query("p(X, Z) :- r(X, Y), s(Y, Z).")
    start = time.perf_counter()
    answers = evaluate_cq(q, facts)
    elapsed = time.perf_counter() - start
    assert len(answers) == n
    assert elapsed < 1.0, f"a {n}-to-{n} key join took {elapsed:.2f}s"


def test_boolean_query_stops_at_its_first_answer():
    n = 2_000
    facts = [atom("r", const(f"a{i}")) for i in range(n)]
    facts += [atom("s", const(f"b{i}")) for i in range(n)]
    q = parse_query("p() :- r(X), s(Y).")  # 4,000,000 homomorphisms
    start = time.perf_counter()
    assert evaluate_cq(q, facts) == {()}
    assert evaluate_ucq([q, q, parse_query("p() :- r(X), t(Y).")], facts) == {()}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"a Boolean product query took {elapsed:.2f}s"
