"""Propagation graph, cover graph and affected positions.

Positions are (predicate, index) pairs with 1-based indices.  All structures
here are built once per rule set and then shared read-only.  The
propagation graph is the list of its E labeled edges, at most one per body
and head occurrence of a variable in a rule.  Affected positions take O(E)
per existential head position, each edge visited once.  The cover
graph holds what `eliminate.covers` searches through: the tightness
relation, found among the rules whose body predicate is a head's, each
rule's moves along the propagation graph, and the rules by body
predicate.  It takes time linear in the tight pairs and the edges.
`build_cover_graph` is where elimination checks that the rule set is linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .model import TGD, VAR, atom_maps_onto

Position = Tuple[str, int]
Edge = Tuple[Position, Position, int]  # (body position, head position, rule)


def build_propagation_graph(tgds: List[TGD]) -> List[Edge]:
    """The propagation graph, a labeled directed multigraph over schema
    positions, as its edges in rule order: an edge (pi_b, pi_h, k) exists
    iff some variable occurs at pi_b in the body and at pi_h in the head of
    rule k."""
    edges: List[Edge] = []
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
    return edges


@dataclass
class CoverGraph:
    """The steps of the atom-coverage search, for a linear rule set.

    `tight[k]` holds the rules k2 whose body maps onto the head of rule k.
    `moves[k]` maps each body position of rule k to the head positions its
    variable reaches: the propagation graph's edges labeled k.
    `by_body_pred` lists the rules by the predicate of their body, where a
    search starts."""

    tight: Dict[int, FrozenSet[int]]
    moves: Dict[int, Dict[Position, Set[Position]]]
    by_body_pred: Dict[str, List[int]]


def build_cover_graph(tgds: List[TGD]) -> CoverGraph:
    if any(len(t.body) != 1 for t in tgds):
        raise ValueError("the cover graph is defined for linear rules only")
    by_body_pred: Dict[str, List[int]] = {}
    for k, t in enumerate(tgds):
        by_body_pred.setdefault(t.body[0].pred, []).append(k)
    tight = {k: frozenset(k2 for k2 in by_body_pred.get(t.head.pred, ())
                          if atom_maps_onto(tgds[k2].body[0], t.head) is not None)
             for k, t in enumerate(tgds)}
    moves: Dict[int, Dict[Position, Set[Position]]] = {k: {} for k in tight}
    for src, dst, k in build_propagation_graph(tgds):
        moves[k].setdefault(src, set()).add(dst)
    return CoverGraph(tight, moves, by_body_pred)


def affected_positions(tgds: List[TGD]) -> Dict[Position, FrozenSet[Position]]:
    """For each existential head position (a seed), the least fixpoint of:
    the seed is affected; a head position of any rule is affected if its
    variable occurs in that rule's body only at affected positions.  Read
    off the propagation graph: each (rule, head position) needs the sources
    of its edges, and one worklist per seed visits each edge once (Dowling
    and Gallier, 1984)."""
    needs: Dict[Tuple[int, Position], int] = {}  # edges into each entry
    waiting: Dict[Position, List[Tuple[int, Position]]] = {}
    for src, dst, k in build_propagation_graph(tgds):  # edges are distinct
        needs[k, dst] = needs.get((k, dst), 0) + 1
        waiting.setdefault(src, []).append((k, dst))
    by_seed: Dict[Position, FrozenSet[Position]] = {}
    for t in tgds:
        for epos in t.existential_positions():
            seed = (t.head.pred, epos)
            if seed in by_seed:
                continue
            affected, frontier, met = {seed}, [seed], {}
            while frontier:
                for entry in waiting.get(frontier.pop(), ()):
                    met[entry] = met.get(entry, 0) + 1
                    if met[entry] == needs[entry] and entry[1] not in affected:
                        affected.add(entry[1])
                        frontier.append(entry[1])
            by_seed[seed] = frozenset(affected)
    return by_seed


def format_propagation_graph(edges: List[Edge]) -> str:
    return "\n".join(f"{src[0]}[{src[1]}] -> {dst[0]}[{dst[1]}] : r{label + 1}"
                     for src, dst, label in sorted(edges))


def format_cover_graph(cg: CoverGraph) -> str:
    """The tightness relation, one `rK -> rJ` line per tight pair."""
    return "\n".join(f"r{k + 1} -> r{k2 + 1}"
                     for k in sorted(cg.tight) for k2 in sorted(cg.tight[k]))
