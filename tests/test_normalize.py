import random

import pytest

from ontorewrite.model import VAR, atom, var
from ontorewrite.normalize import (_as_raw, classify, is_linear,
                                   is_multi_linear, is_sticky, normalize_tgds,
                                   smark)
from ontorewrite.parser import ParseError, RawTGD, parse_ontology

X, Y, Z, V, W = (var(n) for n in "XYZVW")


def test_two_existential_head_builds_chain():
    doc = parse_ontology("stockPortfolio(X,Y,Z) -> company(X,V,W).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert len(tgds) == 3
    assert provenance == [0, 0, 0]
    assert len(aux) == 2
    # chain: body -> aux1(X,V); aux1 -> aux2(X,V,W); aux2 -> company(X,V,W)
    assert tgds[0].body[0].pred == "stockPortfolio"
    assert tgds[0].head.pred in aux and len(tgds[0].head.args) == 2
    assert tgds[1].body[0] == tgds[0].head
    assert tgds[2].head.pred == "company"
    for t in tgds:
        i = t.existential_position()
        assert i is not None or t is tgds[2]
        if i is not None:
            assert t.head.args.count(t.head.args[i - 1]) == 1


def test_normal_rule_unchanged():
    doc = parse_ontology("r(X,Y) -> s(Y,Z).")
    tgds, provenance, aux = normalize_tgds(doc.tgds)
    assert len(tgds) == 1 and not aux
    assert tgds[0].body == doc.tgds[0].body
    assert tgds[0].head == doc.tgds[0].head[0]


def test_hand_derived_chain_for_two_existentials():
    # s(X,Y) -> exists Z,W p(Y,Z,W): frontier {Y}; expect
    #   s(X,Y) -> aux1(Y,Z); aux1(Y,Z) -> aux2(Y,Z,W); aux2(Y,Z,W) -> p(Y,Z,W)
    doc = parse_ontology("s(X,Y) -> p(Y,Z,W).")
    tgds, _, aux = normalize_tgds(doc.tgds)
    assert len(tgds) == 3 and len(aux) == 2
    a1, a2 = sorted(aux)
    assert tgds[0].head.args == (Y, Z)
    assert tgds[1].body[0].args == (Y, Z) and tgds[1].head.args == (Y, Z, W)
    assert tgds[2].head == atom("p", Y, Z, W)


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
    doc = parse_ontology("aux_0_1(X) -> r(X,Y).  r(X,Y) -> s(V,W).")
    tgds, _, aux = normalize_tgds(doc.tgds)
    assert aux and "aux_0_1" not in aux
    assert tgds[0].body[0].pred == "aux_0_1"


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
