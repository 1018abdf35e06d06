import pytest

from ontorewrite.graphs import (affected_positions, build_cover_graph,
                                build_propagation_graph, is_compatible,
                                is_tight, minimal_paths)
from ontorewrite.model import atom, var
from ontorewrite.normalize import normalize_tgds
from ontorewrite.parser import parse_ontology

A, B = var("A"), var("B")

PG_EXAMPLE = """
p(X,Y) -> r(X,Y,Z).
r(X,Y,c) -> s(X,Y,Y).
s(X,X,Y) -> p(X,Y).
"""


def _pg(text):
    doc = parse_ontology(text)
    tgds, _, _ = normalize_tgds(doc.tgds)
    return tgds, build_propagation_graph(tgds, doc.arities)


def test_propagation_graph_example_edges():
    tgds, pg = _pg(PG_EXAMPLE)
    edges = {(src, dst) for src, dst, _ in pg.edges}
    assert edges == {
        (("p", 1), ("r", 1)), (("p", 2), ("r", 2)),
        (("r", 1), ("s", 1)), (("r", 2), ("s", 2)), (("r", 2), ("s", 3)),
        (("s", 1), ("p", 1)), (("s", 2), ("p", 1)), (("s", 3), ("p", 2)),
    }
    assert ("r", 3) in pg.nodes and ("r", 3) not in pg.adjacency


def test_propagation_graph_empty_rule_set():
    pg = build_propagation_graph([], {"r": 2})
    assert pg.edges == [] and pg.nodes == [("r", 1), ("r", 2)]


def test_propagation_graph_swap_rule():
    tgds, pg = _pg("r(X,Y) -> r(Y,X).")
    assert {(s, d, l) for s, d, l in pg.edges} == {
        (("r", 1), ("r", 2), 0), (("r", 2), ("r", 1), 0)}


def test_edge_count_matches_naive_triple_loop():
    doc = parse_ontology(PG_EXAMPLE)
    tgds, _, _ = normalize_tgds(doc.tgds)
    pg = build_propagation_graph(tgds, doc.arities)
    naive = set()
    for k, t in enumerate(tgds):
        for a in t.body:
            for i, term in enumerate(a.args, start=1):
                for j, hterm in enumerate(t.head.args, start=1):
                    if term.kind == 1 and term == hterm:
                        naive.add(((a.pred, i), (t.head.pred, j), k))
    assert naive == set(pg.edges)


def test_minimal_path_example():
    tgds, pg = _pg(PG_EXAMPLE)
    seqs = minimal_paths(pg, ("s", 3), ("r", 2))
    assert (2, 0) in seqs  # labels sigma3 sigma1
    # the doubled cycle s3 p2 r2 s3 p2 r2 s3 would carry labels repeated
    # twice; no returned sequence contains an immediately repeated square
    for seq in seqs:
        n = len(seq)
        for j in range(1, n // 2 + 1):
            assert not (seq[n - 2 * j:n - j] == seq[n - j:n]
                        and seq[n - 2 * j:n - j])


def test_minimal_paths_cycles_from_node_to_itself():
    tgds, pg = _pg(PG_EXAMPLE)
    seqs = minimal_paths(pg, ("s", 3), ("s", 3))
    assert seqs  # the cycle traversed once
    assert all(len(s) >= 1 for s in seqs)


def test_minimal_paths_terminate_on_interleavable_cycles():
    # square-free label walks are unbounded here; the traversal must still
    # terminate (bounded edge reuse) and keep the short useful sequences
    doc = parse_ontology("""
        t(X,Y) -> r(X,Y,Z).
        r(X,Y,Z) -> s(Y,W,X).
        s(X,Y,Z) -> t(Z,X).
        t(X,Y) -> s(X,Y,Y).
    """)
    tgds, _, _ = normalize_tgds(doc.tgds)
    pg = build_propagation_graph(tgds, doc.arities)
    seqs = minimal_paths(pg, ("t", 1), ("s", 1))
    assert (3,) in seqs


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
    doc, tgds, ctx, _ = financial
    cg = build_cover_graph(tgds, doc.arities)
    chains = cg.sequences(("stockPortfolio", 2), ("finInstrument", 1))
    assert chains
    # sigma2's normalization chain followed by sigma8
    assert any(tgds[seq[-1]].head.pred == "finInstrument" and
               tgds[seq[0]].body[0].pred == "stockPortfolio" for seq in chains)
    chains2 = cg.sequences(("listComponent", 2), ("finIndex", 1))
    assert chains2
    assert all(tgds[seq[0]].body[0].pred == "listComponent" for seq in chains2)


def test_cover_graph_empty_ontology():
    cg = build_cover_graph([], {"r": 2})
    assert cg.reach == {}


def test_cover_graph_sequences_validate():
    doc = parse_ontology(PG_EXAMPLE)
    tgds, _, _ = normalize_tgds(doc.tgds)
    cg = build_cover_graph(tgds, doc.arities)
    pg = build_propagation_graph(tgds, doc.arities)
    for (src, dst), seqs in cg.reach.items():
        for seq in seqs:
            assert is_tight([tgds[i] for i in seq])
            assert seq in minimal_paths(pg, src, dst)


def test_cover_graph_tightness_relation_is_the_tight_pairs(financial):
    for tgds in (financial[1], normalize_tgds(parse_ontology(PG_EXAMPLE).tgds)[0]):
        cg = build_cover_graph(tgds)
        assert cg.tight == {
            k: frozenset(k2 for k2 in range(len(tgds))
                         if is_tight([tgds[k], tgds[k2]]))
            for k in range(len(tgds))}


def test_affected_positions_example():
    doc = parse_ontology("p(X,Y), s(Y,Z) -> t(Y,X,W).  t(X,Y,Z) -> p(W,Z).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    aff = affected_positions(tgds)
    assert aff[0] == {("t", 3), ("p", 2)}
    assert aff[1] == {("p", 1), ("t", 2)}
    assert ("t", 1) not in aff[0]  # Y also occurs at the unaffected s[1]


def test_affected_positions_no_existential_contributes_nothing():
    doc = parse_ontology("r(X,Y) -> s(X,Y).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    assert affected_positions(tgds)[0] == frozenset()


def test_affected_positions_is_a_fixpoint():
    doc = parse_ontology("p(X,Y), s(Y,Z) -> t(Y,X,W).  t(X,Y,Z) -> p(W,Z).")
    tgds, _, _ = normalize_tgds(doc.tgds)
    first = affected_positions(tgds)
    again = affected_positions(tgds)
    assert first == again
