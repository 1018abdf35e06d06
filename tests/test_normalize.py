import random

import pytest

from ontorewrite.model import VAR, atom, var
from ontorewrite.normalize import (_as_raw, classify, is_linear,
                                   is_multi_linear, is_sticky, normalize_tgds,
                                   smark)
from ontorewrite.parser import ParseError, RawTGD, parse_ontology

X, Y, Z, V, W = (var(n) for n in "XYZVW")


def test_two_existential_head_stays_whole():
    doc = parse_ontology("stockPortfolio(X,Y,Z) -> company(X,V,W).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert [(t.body, t.head) for t in tgds] == [
        (doc.tgds[0].body, doc.tgds[0].head[0])]
    assert provenance == [0] and not aux
    assert tgds[0].existential_positions() == (2, 3)


def test_normal_rule_unchanged():
    doc = parse_ontology("r(X,Y) -> s(Y,Z).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert len(tgds) == 1 and not aux
    assert tgds[0].body == doc.tgds[0].body
    assert tgds[0].head == doc.tgds[0].head[0]


def test_hand_derived_split_of_a_multi_atom_head():
    # s(X,Y) -> exists Z,W p(Y,Z), q(Z,W): frontier {Y}; expect one
    # auxiliary atom carrying the frontier and both existentials
    #   s(X,Y) -> aux#0_0(Y,Z,W); aux#0_0(Y,Z,W) -> p(Y,Z);
    #   aux#0_0(Y,Z,W) -> q(Z,W)
    doc = parse_ontology("s(X,Y) -> p(Y,Z), q(Z,W).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    carrier = atom("aux#0_0", Y, Z, W)
    assert aux == {"aux#0_0"} and provenance == [0, 0, 0]
    assert [(t.body, t.head) for t in tgds] == [
        (doc.tgds[0].body, carrier), ((carrier,), atom("p", Y, Z)),
        ((carrier,), atom("q", Z, W))]


def test_a_repeated_existential_stays_whole():
    doc = parse_ontology("r(X) -> s(X,Z,Z).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert not aux and provenance == [0]
    assert [(t.body, t.head) for t in tgds] == [
        (doc.tgds[0].body, atom("s", X, Z, Z))]
    assert tgds[0].existential_positions() == (2, 3)


def test_head_atoms_split_where_no_existential_joins_them():
    # u and t share only the frontier X: two rules with the source body
    doc = parse_ontology("p(X) -> u(X,Y), t(X,Z).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert not aux and provenance == [0, 0]
    assert [(t.body, t.head) for t in tgds] == [
        (doc.tgds[0].body, atom("u", X, Y)), (doc.tgds[0].body, atom("t", X, Z))]
    # s and t share Y: one part with one auxiliary atom; u and v stay whole
    doc = parse_ontology("r(X) -> u(X,W), s(X,Y), v(X), t(Y,Z).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    body, carrier = doc.tgds[0].body, atom("aux#0_1", X, Y, Z)
    assert aux == {"aux#0_1"} and provenance == [0] * 5
    assert [(t.body, t.head) for t in tgds] == [
        (body, atom("u", X, W)), (body, carrier),
        ((carrier,), atom("s", X, Y)), ((carrier,), atom("t", Y, Z)),
        (body, atom("v", X))]


def test_financial_ontology_normalizes_to_its_source_rules():
    from conftest import FINANCIAL
    doc = parse_ontology(FINANCIAL)
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert [(t.body, t.head) for t in tgds] == [
        (r.body, r.head[0]) for r in doc.tgds]
    assert len(tgds) == 9 and provenance == list(range(9)) and not aux


def test_normalization_adds_one_rule_per_part_at_most():
    rng = random.Random(31)
    split = whole = 0
    for _ in range(200):
        rules = _random_multi_atom_rules(rng)
        tgds, provenance, aux = normalize_tgds(rules)
        assert len(tgds) <= sum(len(r.head) + len(r.head) // 2 for r in rules)
        for k, rule in enumerate(rules):
            out = [t for t, p in zip(tgds, provenance) if p == k]
            assert sorted(t.head for t in out if t.head.pred not in aux) \
                == sorted(rule.head)
            carriers = [t.head for t in out if t.head.pred in aux]
            for t in out:
                if t.body != rule.body:  # fanned out from the one carrier
                    assert t.body[0] in carriers and len(t.body) == 1
                elif t.head.pred not in aux:  # a part of one atom
                    zs = set(rule.existential_vars()) & t.head.variables()
                    others = list(rule.head)
                    others.remove(t.head)
                    assert all(zs.isdisjoint(h.variables()) for h in others)
            for c in carriers:  # each carrier fans out to two atoms or more
                assert len(set(c.args)) == len(c.args)
                assert sum(t.body == (c,) for t in out) >= 2
            whole += len(rule.head) == 1 and any(
                rule.head[0].args.count(z) > 1 for z in rule.existential_vars())
        split += bool(aux)
    assert split > 50 and whole > 40, (split, whole)


def test_multi_head_without_existentials_splits():
    from conftest import random_atom
    doc = parse_ontology("r(X,Y) -> s(X), t(Y).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert [t.head.pred for t in tgds] == ["s", "t"]
    assert not aux and provenance == [0, 0]
    # random rules whose heads use body variables only: one TGD per head
    # atom, in head order, each with the rule's body and provenance
    rng = random.Random(29)
    for _ in range(200):
        rules = []
        for _ in range(rng.randint(1, 4)):
            vars_ = [var(v) for v in "XYZ"[:rng.randint(1, 3)]]
            body = tuple(random_atom(rng, vars_)
                         for _ in range(rng.randint(1, 2)))
            pool = sorted({t for a in body for t in a.args if t.kind == VAR},
                          key=lambda t: t.name)
            if not pool:
                continue
            heads = tuple(random_atom(rng, pool)
                          for _ in range(rng.randint(1, 3)))
            rules.append(RawTGD(body, heads))
        tgds, provenance, aux = normalize_tgds(rules)
        assert not aux
        assert [(t.body, t.head) for t in tgds] == [
            (r.body, h) for r in rules for h in r.head]
        assert provenance == [i for i, r in enumerate(rules) for _ in r.head]


def test_auxiliary_predicates_cannot_be_named_by_any_input():
    from conftest import random_linear_rules, random_sticky_rules
    rng = random.Random(37)
    made = set()
    for _ in range(100):
        for rules in (random_linear_rules(rng), random_sticky_rules(rng),
                      _random_multi_atom_rules(rng)):
            made |= normalize_tgds(rules)[2]
    assert made
    for pred in made:
        with pytest.raises(ParseError):
            parse_ontology(f"{pred}(X) -> r(X).")
    # a rule predicate spelled like an auxiliary one stays ordinary
    doc = parse_ontology("aux_1(X) -> r(X,Y).  r(X,Y) -> s(X,V), s(V,W).")
    tgds, _, aux = normalize_tgds(doc.tgds)
    assert aux == {"aux#1_0"}
    assert tgds[0].body[0].pred == "aux_1"


def test_is_linear_examples():
    doc = parse_ontology("project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).")
    assert not is_linear(doc.tgds)
    from conftest import FINANCIAL
    fin = parse_ontology(FINANCIAL)
    tgds, _, _ = normalize_tgds(fin.tgds)
    assert is_linear(tgds)


def test_multi_linear_example():
    doc = parse_ontology("r(X,Y), s(X,Y) -> p(X).")
    assert is_multi_linear(doc.tgds)
    assert not is_linear(doc.tgds)


def test_smarking_four_rule_example():
    doc = parse_ontology("""
        r(X,Y) -> r(Y,Z).
        r(X,Y) -> s(X).
        s(X), s(Y) -> p(X,Y).
        r(X,Y), r(Z,X) -> s(X).
    """)
    assert smark(doc.tgds) == [{X, Y}, {Y}, set(), {Y, Z}]
    assert is_sticky(doc.tgds)


def test_single_occurrence_marked_variable_is_sticky():
    doc = parse_ontology("r(X,Y) -> p(X).")
    assert smark(doc.tgds) == [{Y}]
    assert is_sticky(doc.tgds)


def test_transitivity_style_set_is_not_sticky():
    # the join variable is marked (absent from the head) and occurs twice
    doc = parse_ontology("r(X,Y) -> r(Y,Z).  r(X,Y), r(Y,Z) -> r(X,Z).")
    body_terms = [t for a in doc.tgds[1].body for t in a.args]
    assert any(body_terms.count(v) >= 2 for v in smark(doc.tgds)[1])
    assert not is_sticky(doc.tgds)


def test_marking_is_deterministic_fixpoint():
    doc = parse_ontology("""
        r(X,Y) -> r(Y,Z).
        r(X,Y) -> s(X).
        s(X), s(Y) -> p(X,Y).
        r(X,Y), r(Z,X) -> s(X).
    """)
    assert smark(doc.tgds) == smark(doc.tgds)


# -- variable-level marking against the occurrence-level marking it replaced --

def _reference_smark(rules):
    """The occurrence-level marking kept as the reference: for each rule,
    the marked body occurrences as (atom index, argument index) pairs."""
    raws = [_as_raw(r) for r in rules]
    marked = []
    for raw in raws:
        marks = set()
        body_vars = set()
        for a in raw.body:
            body_vars.update(a.variables())
        for v in body_vars:
            if any(v not in a.variables() for a in raw.head):
                for ai, a in enumerate(raw.body):
                    for pi, t in enumerate(a.args):
                        if t == v:
                            marks.add((ai, pi))
        marked.append(marks)
    changed = True
    while changed:
        changed = False
        for ri, raw in enumerate(raws):
            body_vars = set()
            for a in raw.body:
                body_vars.update(a.variables())
            for head_atom in raw.head:
                for v in head_atom.variables():
                    if v not in body_vars:
                        continue
                    positions = [pi for pi, t in enumerate(head_atom.args) if t == v]
                    witness = any(
                        b.pred == head_atom.pred
                        and all(b.args[pi].kind == VAR and (ai, pi) in marked[rj]
                                for pi in positions)
                        for rj, other in enumerate(raws)
                        for ai, b in enumerate(other.body))
                    if witness:
                        for ai, a in enumerate(raw.body):
                            for pi, t in enumerate(a.args):
                                if t == v and (ai, pi) not in marked[ri]:
                                    marked[ri].add((ai, pi))
                                    changed = True
    return marked


def _assert_marking_matches_reference(rules):
    raws = [_as_raw(r) for r in rules]
    reference = _reference_smark(rules)
    marking = smark(rules)
    reference_sticky = True
    for ri, raw in enumerate(raws):
        occurrences = {(ai, pi) for ai, a in enumerate(raw.body)
                       for pi, t in enumerate(a.args)
                       if t in marking[ri]}
        assert occurrences == reference[ri], (rules, ri)
        reference_sticky &= len(reference[ri]) == len(
            {raw.body[ai].args[pi] for ai, pi in reference[ri]})
    assert is_sticky(rules) == reference_sticky, rules
    return reference_sticky


def _random_multi_atom_rules(rng, max_rules=5):
    """Rules with one to three body atoms and no restriction on joins."""
    from conftest import random_atom
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        vars_ = [var(v) for v in "XYZU"[:rng.randint(1, 4)]]
        body = tuple(random_atom(rng, vars_) for _ in range(rng.randint(1, 3)))
        pool = sorted({t for a in body for t in a.args if t.kind == VAR},
                      key=lambda t: t.name) + [var("V")]
        heads = tuple(random_atom(rng, pool, allow_const=0.0)
                      for _ in range(rng.randint(1, 2)))
        rules.append(RawTGD(body, heads))
    return rules


def test_marking_matches_occurrence_reference_on_examples():
    from conftest import FINANCIAL
    doc = parse_ontology("""
        r(X,Y) -> r(Y,Z).
        r(X,Y) -> s(X).
        s(X), s(Y) -> p(X,Y).
        r(X,Y), r(Z,X) -> s(X).
    """)
    assert _assert_marking_matches_reference(doc.tgds)
    fin = parse_ontology(FINANCIAL).tgds
    assert _assert_marking_matches_reference(fin)
    assert _assert_marking_matches_reference(normalize_tgds(fin)[0])


def test_marking_matches_occurrence_reference_on_random_suites():
    from conftest import random_linear_rules, random_sticky_rules
    rng = random.Random(41)
    verdicts = set()
    for _ in range(150):
        for rules in (random_linear_rules(rng), random_sticky_rules(rng),
                      _random_multi_atom_rules(rng)):
            verdicts.add(_assert_marking_matches_reference(rules))
            _assert_marking_matches_reference(normalize_tgds(rules)[0])
    assert verdicts == {True, False}


def test_normalization_preserves_linearity_and_stickiness():
    from conftest import random_linear_rules, random_sticky_rules
    rng = random.Random(17)
    for _ in range(25):
        rules = random_linear_rules(rng)
        tgds, _, _ = normalize_tgds(rules)
        assert is_linear(tgds)
    for _ in range(25):
        rules = random_sticky_rules(rng)
        tgds, _, _ = normalize_tgds(rules)
        assert is_sticky(tgds)


def test_normalization_quadratic_bound():
    from conftest import random_linear_rules
    rng = random.Random(23)
    for _ in range(30):
        rules = random_linear_rules(rng)
        tgds, _, _ = normalize_tgds(rules)
        assert len(tgds) <= 4 * len(rules) ** 2


def test_classify_report():
    doc = parse_ontology("r(X,Y) -> s(X).")
    verdict = classify(doc.tgds)
    assert verdict == {"linear": True, "multi_linear": True, "sticky": True}
