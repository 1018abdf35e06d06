"""Query elimination for linear rules: atom coverage, cover sets, the
strategy-driven eliminate pass, and the reduction wired into the rewriter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cache import LRUCache
from .graphs import (Position, atom_matches_injectively, build_cover_graph,
                     is_compatible)
from .model import Atom, ConjunctiveQuery, TGD, VAR, make_query, ordered_body


def shared_terms(q: ConjunctiveQuery, a: Atom) -> set:
    """T(q, a): the maximal subset of terms(a) containing only constants
    occurring in q and variables shared in q."""
    shared = q.shared_variables()
    return {t for t in a.args if t.kind != VAR or t in shared}


def _positions_of(a: Atom, t) -> List[Position]:
    return [(a.pred, i) for i, term in enumerate(a.args, start=1) if term == t]


class EliminationContext:
    """Bundles a linear rule set with its cover graph, whose tightness
    relation also serves atoms without shared terms."""

    def __init__(self, tgds: List[TGD], arities: Optional[dict] = None):
        for t in tgds:
            if len(t.body) != 1:
                raise ValueError("query elimination requires linear rules")
        self.tgds = tgds
        self.cover_graph = build_cover_graph(tgds, arities)
        # Always empty: reduce_query keeps no memo.  Its only reader is the
        # benchmark tracer's cache.elim_hit_ratio (perfbench/tracing.py);
        # ROADMAP item 1 removes that hold, and then this attribute.
        self.cache = LRUCache(0)

    def has_tight_chain(self, start: Atom, target_pred: str) -> bool:
        """Whether some tight sequence compatible to `start` ends in a rule
        whose head predicate is `target_pred`."""
        tight = self.cover_graph.tight
        frontier = [k for k, t in enumerate(self.tgds)
                    if atom_matches_injectively(t.body[0], start) is not None]
        seen = set(frontier)
        while frontier:
            k = frontier.pop()
            if self.tgds[k].head.pred == target_pred:
                return True
            for k2 in tight[k]:
                if k2 not in seen:
                    seen.add(k2)
                    frontier.append(k2)
        return False


def covers(a: Atom, b: Atom, q: ConjunctiveQuery, ctx: EliminationContext) -> bool:
    """Whether atom `a` covers atom `b` w.r.t. q: removing b loses neither
    constants nor joins (T(q,b) sits inside a) and one tight rule sequence,
    compatible to a, propagates every required term of a into b's positions
    along minimal paths."""
    if a == b:
        return False
    tb = shared_terms(q, b)
    if not tb <= a.terms():
        return False
    if not tb:
        # Condition on paths is vacuous; require a tight compatible sequence
        # producing b's predicate.
        return ctx.has_tight_chain(a, b.pred)
    cg = ctx.cover_graph
    candidates: Optional[Set[tuple]] = None
    for t in sorted(tb):
        sources = _positions_of(a, t)
        for pi in _positions_of(b, t):
            here: Set[tuple] = set()
            for src in sources:
                here.update(cg.sequences(src, pi))
            if candidates is None:
                candidates = here
            else:
                candidates &= here
            if not candidates:
                return False
    assert candidates is not None
    for seq in sorted(candidates):
        if is_compatible([ctx.tgds[k] for k in seq], a):
            return True
    return False


def cover_sets(q: ConjunctiveQuery, ctx: EliminationContext) -> Dict[Atom, Set[Atom]]:
    out: Dict[Atom, Set[Atom]] = {a: set() for a in q.body}
    for a in q.body:
        for b in q.body:
            if a != b and covers(b, a, q, ctx):
                out[a].add(b)
    return out


def eliminate(q: ConjunctiveQuery, strategy: List[Atom], ctx: EliminationContext) -> Set[Atom]:
    """Scan atoms in strategy order; an atom whose current cover set is
    nonempty is eliminable and disappears from the remaining cover sets.
    The eliminated count is strategy-independent."""
    if sorted(strategy) != sorted(q.body):
        raise ValueError("strategy must be a permutation of the query body")
    cover = cover_sets(q, ctx)
    eliminated: Set[Atom] = set()
    for a in strategy:
        if cover[a]:
            eliminated.add(a)
            for b in q.body:
                if b not in eliminated:
                    cover[b].discard(a)
    return eliminated


def reduce_query(q: ConjunctiveQuery, ctx: EliminationContext) -> ConjunctiveQuery:
    """The reduced query: eliminate along the canonical strategy (body atoms
    in canonical-rename order)."""
    if len(q.body) <= 1:
        return q
    removed = eliminate(q, ordered_body(q), ctx)
    return make_query(q.head_pred, q.head_args,
                      (a for a in q.body if a not in removed)) if removed else q
