"""Propagation graph, minimal paths, tight sequences, cover graph and
affected positions.

Positions are (predicate, index) pairs with 1-based indices.  All structures
here are built once per rule set and then shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .model import TGD, VAR, atom_maps_onto, atom_matches_injectively

Position = Tuple[str, int]


@dataclass
class PropagationGraph:
    """Labeled directed multigraph over schema positions.  An edge
    (pi_b -> pi_h) labeled by rule index k exists iff some variable occurs at
    pi_b in the body and at pi_h in the head of rule k."""

    nodes: List[Position]
    edges: List[Tuple[Position, Position, int]]
    adjacency: Dict[Position, List[Tuple[Position, int]]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.adjacency:
            for src, dst, label in self.edges:
                self.adjacency.setdefault(src, []).append((dst, label))


def schema_positions(tgds: Iterable[TGD], arities: Optional[dict] = None) -> List[Position]:
    seen: Dict[str, int] = dict(arities or {})
    for t in tgds:
        for a in list(t.body) + [t.head]:
            seen.setdefault(a.pred, len(a.args))
    out: List[Position] = []
    for pred in seen:
        for i in range(1, seen[pred] + 1):
            out.append((pred, i))
    return out


def build_propagation_graph(tgds: List[TGD], arities: Optional[dict] = None) -> PropagationGraph:
    nodes = schema_positions(tgds, arities)
    edges: List[Tuple[Position, Position, int]] = []
    seen = set()
    for k, t in enumerate(tgds):
        head_positions: Dict = {}
        for i, term in enumerate(t.head.args, start=1):
            if term.kind == VAR:
                head_positions.setdefault(term, []).append((t.head.pred, i))
        for a in t.body:
            for i, term in enumerate(a.args, start=1):
                if term.kind != VAR or term not in head_positions:
                    continue
                for hp in head_positions[term]:
                    e = ((a.pred, i), hp, k)
                    if e not in seen:
                        seen.add(e)
                        edges.append(e)
    return PropagationGraph(nodes, edges)


def _has_repeated_cycle(nodes: list, labels: list) -> bool:
    """True if the freshly extended path violates minimality: an immediately
    repeated labeled cycle ending at the last node."""
    n = len(labels)  # number of edges; nodes has n + 1 entries
    for j in range(1, n // 2 + 1):
        if (nodes[n - 2 * j:n - j + 1] == nodes[n - j:n + 1]
                and labels[n - 2 * j:n - j] == labels[n - j:n]):
            return True
    return False


def minimal_paths_from(pg: PropagationGraph, source: Position,
                       pair_ok=None) -> Dict[Position, Set[tuple]]:
    """All minimal paths out of `source`: a map target -> set of label tuples.

    A path is minimal when it contains no immediately repeated labeled cycle.
    Graphs with three or more interleavable labeled cycles admit unboundedly
    long minimal paths (square-free label walks), so the traversal also
    bounds each labeled edge to two uses; a repeated cycle always repeats an
    edge, hence every pruned walk is longer than some enumerated one with the
    same endpoints.  `pair_ok(prev_label, next_label)` prunes label
    transitions.
    """
    result: Dict[Position, Set[tuple]] = {}
    nodes = [source]
    labels: List[int] = []
    edge_uses: Dict[Tuple[Position, Position, int], int] = {}

    def dfs():
        for dst, lab in pg.adjacency.get(nodes[-1], ()):
            edge = (nodes[-1], dst, lab)
            if edge_uses.get(edge, 0) >= 2:
                continue
            if pair_ok is not None and labels and not pair_ok(labels[-1], lab):
                continue
            edge_uses[edge] = edge_uses.get(edge, 0) + 1
            nodes.append(dst)
            labels.append(lab)
            if not _has_repeated_cycle(nodes, labels):
                result.setdefault(dst, set()).add(tuple(labels))
                dfs()
            nodes.pop()
            labels.pop()
            edge_uses[edge] -= 1

    dfs()
    return result


def minimal_paths(pg: PropagationGraph, source: Position,
                  target: Position) -> Set[tuple]:
    return minimal_paths_from(pg, source).get(target, set())


def is_tight(seq: List[TGD]) -> bool:
    """Consecutive rules admit a homomorphism mapping the next body ONTO the
    previous head.  Rules must be linear; a single rule is trivially tight."""
    if not seq:
        return False
    for t in seq:
        if len(t.body) != 1:
            raise ValueError("tight sequences are defined for linear rules only")
    for cur, nxt in zip(seq, seq[1:]):
        if atom_maps_onto(nxt.body[0], cur.head) is None:
            return False
    return True


def is_compatible(seq: List[TGD], target) -> bool:
    """The first rule's body maps onto the given atom, distinct variables to
    distinct terms (so the atom triggers the rule without collapsing joins)."""
    if not seq:
        return False
    if len(seq[0].body) != 1:
        raise ValueError("compatibility is defined for linear rules only")
    return atom_matches_injectively(seq[0].body[0], target) is not None


@dataclass
class CoverGraph:
    """Pair-keyed closure of the propagation graph: for each position pair,
    every tight minimal-path label sequence (as rule-index tuples).  `tight`
    is the tightness relation on rule pairs: k2 is in tight[k] iff the body
    of rule k2 maps onto the head of rule k."""

    tgds: List[TGD]
    reach: Dict[Tuple[Position, Position], List[tuple]]
    tight: Dict[int, FrozenSet[int]]

    def sequences(self, src: Position, dst: Position) -> List[tuple]:
        return self.reach.get((src, dst), [])


def build_cover_graph(tgds: List[TGD],
                      arities: Optional[dict] = None) -> CoverGraph:
    if any(len(t.body) != 1 for t in tgds):
        raise ValueError("the cover graph is defined for linear rules only")
    pg = build_propagation_graph(tgds, arities)
    tight = {k: frozenset(k2 for k2, t2 in enumerate(tgds)
                          if atom_maps_onto(t2.body[0], t.head) is not None)
             for k, t in enumerate(tgds)}

    # tightness is prefix-closed, so pruning on consecutive pairs during the
    # traversal enumerates exactly the tight minimal sequences
    def pair_tight(prev: int, nxt: int) -> bool:
        return nxt in tight[prev]

    reach: Dict[Tuple[Position, Position], List[tuple]] = {}
    for src in pg.nodes:
        if src not in pg.adjacency:
            continue
        for dst, seqs in minimal_paths_from(pg, src, pair_tight).items():
            kept = sorted(seqs)
            if kept:
                reach[(src, dst)] = kept
    return CoverGraph(tgds, reach, tight)


def affected_positions(tgds: List[TGD]) -> Dict[int, FrozenSet[Position]]:
    """For each rule index k with an existential variable, the least fixpoint
    of: the existential position of rule k is affected; a head position of
    any rule is affected if its variable occurs in that rule's body only at
    affected positions."""
    out: Dict[int, FrozenSet[Position]] = {}
    for k, t in enumerate(tgds):
        epos = t.existential_position()
        if epos is None:
            out[k] = frozenset()
            continue
        affected: Set[Position] = {(t.head.pred, epos)}
        changed = True
        while changed:
            changed = False
            for rule in tgds:
                body_positions: Dict = {}
                for a in rule.body:
                    for i, term in enumerate(a.args, start=1):
                        if term.kind == VAR:
                            body_positions.setdefault(term, set()).add((a.pred, i))
                for i, term in enumerate(rule.head.args, start=1):
                    if term.kind != VAR or term not in body_positions:
                        continue
                    pos = (rule.head.pred, i)
                    if pos in affected:
                        continue
                    if body_positions[term] <= affected:
                        affected.add(pos)
                        changed = True
        out[k] = frozenset(affected)
    return out


def format_propagation_graph(pg: PropagationGraph, rule_names=None) -> str:
    def name(k):
        return rule_names[k] if rule_names else f"r{k + 1}"

    lines = []
    for src, dst, label in sorted(pg.edges, key=lambda e: (e[0], e[1], e[2])):
        lines.append(f"{src[0]}[{src[1]}] -> {dst[0]}[{dst[1]}] : {name(label)}")
    return "\n".join(lines)


def format_cover_graph(cg: CoverGraph, rule_names=None) -> str:
    def name(k):
        return rule_names[k] if rule_names else f"r{k + 1}"

    lines = []
    for (src, dst), seqs in sorted(cg.reach.items()):
        for seq in seqs:
            lines.append(f"{src[0]}[{src[1]}] -> {dst[0]}[{dst[1]}] : "
                         + ",".join(name(k) for k in seq))
    return "\n".join(lines)
