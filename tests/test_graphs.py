import random

import pytest

from conftest import (DL_LITE_QUERY, FINANCIAL, LOOPING, ROTATION,
                      dl_lite_ontology, random_linear_rules, random_query,
                      random_sticky_rules)
from ontorewrite.eliminate import (EliminationContext, cover_sets, covers,
                                   shared_terms)
from ontorewrite.graphs import (affected_positions, build_cover_graph,
                                build_propagation_graph, format_cover_graph)
from ontorewrite.model import (VAR, atom, atom_maps_onto,
                               atom_matches_injectively, make_query, var)
from ontorewrite.normalize import normalize_tgds
from ontorewrite.parser import parse_ontology, parse_query

A, B = var("A"), var("B")

PG_EXAMPLE = """
p(X,Y) -> r(X,Y,Z).
r(X,Y,c) -> s(X,Y,Y).
s(X,X,Y) -> p(X,Y).
"""


def is_tight(seq):
    """Consecutive rules admit a homomorphism mapping the next body ONTO the
    previous head.  Rules must be linear; a single rule is trivially tight.
    The reference that `CoverGraph.tight` is checked against."""
    if not seq:
        return False
    for t in seq:
        if len(t.body) != 1:
            raise ValueError("tight sequences are defined for linear rules only")
    for cur, nxt in zip(seq, seq[1:]):
        if atom_maps_onto(nxt.body[0], cur.head) is None:
            return False
    return True


def is_compatible(seq, target):
    """The first rule's body maps onto the given atom, distinct variables to
    distinct terms (so the atom triggers the rule without collapsing joins)."""
    if not seq:
        return False
    if len(seq[0].body) != 1:
        raise ValueError("compatibility is defined for linear rules only")
    return atom_matches_injectively(seq[0].body[0], target) is not None


def _reference_affected_positions(tgds):
    """The fixpoint that `affected_positions` is checked against: per
    existential variable of a rule head, seeded with all its head positions,
    rescan every rule until nothing changes."""
    out = {}
    for t in tgds:
        for epos in t.existential_positions():
            z = t.head.args[epos - 1]
            seed = tuple((t.head.pred, i) for i, term
                         in enumerate(t.head.args, start=1) if term == z)
            affected = set(seed)
            changed = True
            while changed:
                changed = False
                for rule in tgds:
                    body_positions = {}
                    for a in rule.body:
                        for i, term in enumerate(a.args, start=1):
                            if term.kind == VAR:
                                body_positions.setdefault(term, set()).add(
                                    (a.pred, i))
                    for i, term in enumerate(rule.head.args, start=1):
                        if term.kind != VAR or term not in body_positions:
                            continue
                        pos = (rule.head.pred, i)
                        if pos in affected:
                            continue
                        if body_positions[term] <= affected:
                            affected.add(pos)
                            changed = True
            out[seed] = frozenset(affected)
    return out


def _dl_lite_tgds():
    """The normalized rules of a 349-rule DL-Lite-style ontology."""
    return normalize_tgds(parse_ontology(dl_lite_ontology(22, 200)).tgds)[0]


def _reference_cover_search(tgds):
    """The coverage search that `covers` is checked against: it prunes
    with the head predicates each rule reaches by tight steps, one closure
    per rule, and decides an empty `tb` from the pruned start rules alone.
    Returns the search as a function of (a, b, tb)."""
    cg = build_cover_graph(tgds)
    reached_preds = {}
    for k in cg.tight:
        seen, frontier = {k}, [k]
        while frontier:
            for k2 in cg.tight[frontier.pop()]:
                if k2 not in seen:
                    seen.add(k2)
                    frontier.append(k2)
        reached_preds[k] = {tgds[k2].head.pred for k2 in seen}

    def search(a, b, tb):
        if a == b or not tb <= a.terms():
            return False
        starts = [k for k in cg.by_body_pred.get(a.pred, ())
                  if b.pred in reached_preds[k]
                  and atom_matches_injectively(tgds[k].body[0], a) is not None]
        if not tb:
            return bool(starts)

        def placed(at):
            return frozenset((t, (at.pred, i))
                             for i, t in enumerate(at.args, start=1) if t in tb)

        needed, seen = placed(b), set()
        frontier = [(k, placed(a)) for k in starts]
        while frontier:
            k, held = frontier.pop()
            held = frozenset((t, dst) for t, src in held
                             for dst in cg.moves[k].get(src, ()))
            if len({t for t, _ in held}) < len(tb) or (k, held) in seen:
                continue
            seen.add((k, held))
            if tgds[k].head.pred == b.pred and needed <= held:
                return True
            frontier.extend((k2, held) for k2 in cg.tight[k]
                            if b.pred in reached_preds[k2])
        return False

    return search


def _pg(text):
    doc = parse_ontology(text)
    tgds, _, _ = normalize_tgds(doc.tgds)
    return tgds, build_propagation_graph(tgds)


def test_propagation_graph_example_edges():
    tgds, pg = _pg(PG_EXAMPLE)
    edges = {(src, dst) for src, dst, _ in pg}
    assert edges == {
        (("p", 1), ("r", 1)), (("p", 2), ("r", 2)),
        (("r", 1), ("s", 1)), (("r", 2), ("s", 2)), (("r", 2), ("s", 3)),
        (("s", 1), ("p", 1)), (("s", 2), ("p", 1)), (("s", 3), ("p", 2)),
    }
    assert all(src != ("r", 3) for src, _, _ in pg)


def test_propagation_graph_empty_rule_set():
    assert build_propagation_graph([]) == []


def test_propagation_graph_swap_rule():
    tgds, pg = _pg("r(X,Y) -> r(Y,X).")
    assert {(s, d, l) for s, d, l in pg} == {
        (("r", 1), ("r", 2), 0), (("r", 2), ("r", 1), 0)}


def test_edge_count_matches_naive_triple_loop():
    doc = parse_ontology(PG_EXAMPLE)
    tgds, _, _ = normalize_tgds(doc.tgds)
    pg = build_propagation_graph(tgds)
    naive = set()
    for k, t in enumerate(tgds):
        for a in t.body:
            for i, term in enumerate(a.args, start=1):
                for j, hterm in enumerate(t.head.args, start=1):
                    if term.kind == 1 and term == hterm:
                        naive.add(((a.pred, i), (t.head.pred, j), k))
    assert naive == set(pg)


def test_tight_examples():
    doc = parse_ontology("r(X,Y) -> t(Y,Z).  t(X,X) -> s(X).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    assert not is_tight([tgds[0], tgds[1]])
    assert is_tight([tgds[0]])
    doc2 = parse_ontology("t(X,Y) -> r(X,Y,Z).  r(X,Y,Z) -> s(Y,W,X).")
    tgds2, _, _ = normalize_tgds(doc2.tgds)
    assert is_tight([tgds2[0], tgds2[1]])


def test_tight_rejects_non_linear():
    doc = parse_ontology("r(X,Y), s(Y) -> t(X).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    with pytest.raises(ValueError):
        is_tight([tgds[0]])


def test_compatible_requires_one_to_one_match():
    doc = parse_ontology("s(X,Y,Z) -> t(Z,X).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    assert is_compatible([tgds[0]], atom("s", A, B, var("C")))
    assert not is_compatible([tgds[0]], atom("s", A, B, B))


def test_cover_graph_financial_reachability(financial):
    # listComponent(X,Y) -> finIndex(Y,Z,W) carries the join variable C
    doc, tgds, _, q = financial
    list_component, fin_index = q.body[3], q.body[4]
    ec = EliminationContext(tgds)
    shared = q.shared_variables()
    assert covers(list_component, fin_index, shared_terms(shared, fin_index), ec)
    assert not covers(fin_index, list_component,
                      shared_terms(shared, list_component), ec)


def test_cover_graph_empty_ontology():
    cg = build_cover_graph([])
    assert cg.tight == {} and cg.moves == {}
    assert cg.by_body_pred == {}
    assert format_cover_graph(cg) == ""


def test_cover_graph_sequences_validate():
    for text in (PG_EXAMPLE, ROTATION):
        doc = parse_ontology(text)
        tgds, _, _ = normalize_tgds(doc.tgds)
        cg = build_cover_graph(tgds)
        pg = build_propagation_graph(tgds)
        for k in range(len(tgds)):
            assert ({(src, dst) for src, dsts in cg.moves[k].items()
                     for dst in dsts}
                    == {(src, dst) for src, dst, lab in pg if lab == k})


def test_cover_graph_tightness_relation_is_the_tight_pairs(financial):
    for tgds in (financial[1], normalize_tgds(parse_ontology(PG_EXAMPLE).tgds)[0],
                 _dl_lite_tgds()):
        cg = build_cover_graph(tgds)
        assert cg.tight == {
            k: frozenset(k2 for k2 in range(len(tgds))
                         if is_tight([tgds[k], tgds[k2]]))
            for k in range(len(tgds))}



def test_cover_search_matches_the_pruned_reference():
    # cover_sets against the search pruned by per-rule reachability, on
    # queries and their Boolean forms, where many atoms share no term
    named = [normalize_tgds(parse_ontology(text).tgds)[0]
             for text in (PG_EXAMPLE, ROTATION, LOOPING, FINANCIAL)]
    named.append(_dl_lite_tgds())
    inputs = []
    for tgds in named:
        pool = sorted({(a.pred, len(a.args)) for t in tgds
                       for a in (t.body[0], t.head)})[:24]
        inputs.append((tgds, pool))
    inputs.append((named[-1], [(f"c{i}", 1) for i in range(12)]
                   + [(f"r{i}", 2) for i in range(4)]))
    for seed in range(300):
        inputs.append((normalize_tgds(
            random_linear_rules(random.Random(seed)))[0], None))
    rng = random.Random(23)
    pairs = covered = untied = untied_covered = 0
    for tgds, pool in inputs:
        ec, reference = EliminationContext(tgds), _reference_cover_search(tgds)
        drawn = [random_query(rng, max_atoms=4, pool=pool) for _ in range(8)]
        if tgds is named[-1]:
            drawn.append(parse_query(DL_LITE_QUERY, {}))
        for q in drawn + [make_query("q", (), d.body) for d in drawn]:
            shared = q.shared_variables()
            expected = {}
            for a in q.body:
                ta = shared_terms(shared, a)
                expected[a] = {b for b in q.body if reference(b, a, ta)}
                pairs += len(q.body) - 1
                covered += len(expected[a])
                if not ta:
                    untied += len(q.body) - 1
                    untied_covered += len(expected[a])
            assert cover_sets(q, ec) == expected, (tgds, q)
    # 23,780 ordered pairs, 368 covered; 1,916 with an empty T(q, a), of
    # which 253 are covered
    assert pairs > 20_000 and covered > 300
    assert untied > 1_500 and untied_covered > 200

def test_affected_positions_example():
    doc = parse_ontology("p(X,Y), s(Y,Z) -> t(Y,X,W).  t(X,Y,Z) -> p(W,Z).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    aff = affected_positions(tgds)
    assert aff == {(("t", 3),): {("t", 3), ("p", 2)},
                   (("p", 1),): {("p", 1), ("t", 2)}}
    assert ("t", 1) not in aff[("t", 3),]  # Y also occurs at the unaffected s[1]
    # a repeated existential seeds all its positions at once, so X, which
    # occurs at both, carries its null on to u[1]
    doc = parse_ontology("p3(Z,Z) -> p2(W,W).  p2(X,X) -> u(X).")
    aff = affected_positions(normalize_tgds(doc.tgds)[0])
    assert aff == {(("p2", 1), ("p2", 2)): {("p2", 1), ("p2", 2), ("u", 1)}}


def test_affected_positions_no_existential_contributes_nothing():
    doc = parse_ontology("r(X,Y) -> s(X,Y).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    assert affected_positions(tgds) == {}


def test_affected_positions_is_a_fixpoint():
    doc = parse_ontology("p(X,Y), s(Y,Z) -> t(Y,X,W).  t(X,Y,Z) -> p(W,Z).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    first = affected_positions(tgds)
    again = affected_positions(tgds)
    assert first == again


def test_affected_positions_match_the_reference_fixpoint(financial):
    rule_sets = [financial[1], _dl_lite_tgds()]
    for seed in range(450):
        rng = random.Random(seed)
        for draw in (random_linear_rules, random_sticky_rules):
            rule_sets.append(normalize_tgds(draw(rng, max_rules=8))[0])
    grown = repeated = 0
    for tgds in rule_sets:
        aff = affected_positions(tgds)
        assert aff == _reference_affected_positions(tgds)
        grown += any(len(positions) > len(seed)
                     for seed, positions in aff.items())
        repeated += any(len(seed) > 1 for seed in aff)
    assert grown >= 300  # 337 of the 900 random sets affect more than a seed
    assert repeated >= 300  # 406 seed a repeated existential
