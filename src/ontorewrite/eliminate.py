"""Query elimination for linear rules: atom coverage, cover sets, the
strategy-driven eliminate pass, and the reduction wired into the rewriter.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Set, Tuple

from .graphs import Position, build_cover_graph
from .model import (Atom, ConjunctiveQuery, TGD, Term, VAR,
                    atom_matches_injectively, make_query, ordered_body)


def shared_terms(shared: set, a: Atom) -> set:
    """T(q, a): the maximal subset of terms(a) containing only constants
    occurring in q and variables shared in q, given q's `shared`
    variables."""
    return {t for t in a.args if t.kind != VAR or t in shared}


# The one record behind the rewriter context's `mgu_cache` and
# `rename_cache` and the elimination context's `cache`: no step unifies,
# renames or eliminates through a memo, so it counts no hit and no miss.
# Its only reader is the benchmark tracer's cache.*_hit_ratio
# (perfbench/tracing.py); ROADMAP item 1 removes that hold, and then these
# attributes.
NO_CACHE = SimpleNamespace(hits=0, misses=0)


class EliminationContext:
    """Bundles a linear rule set with its cover graph, the steps of the
    coverage search in `covers`.  Building the cover graph rejects a rule
    set that is not linear."""

    def __init__(self, tgds: List[TGD]):
        self.tgds = tgds
        self.cover_graph = build_cover_graph(tgds)
        self.cache = NO_CACHE  # ROADMAP item 1 deletes it (see NO_CACHE)


def _placed(a: Atom, terms: set) -> FrozenSet[Tuple[Term, Position]]:
    """The pairs (t, p) of a term t in `terms` and a position p of `a`
    that holds it."""
    return frozenset((t, (a.pred, i)) for i, t in enumerate(a.args, start=1)
                     if t in terms)


def covers(a: Atom, b: Atom, tb: set, ctx: EliminationContext) -> bool:
    """Whether atom `a` covers atom `b`, whose shared terms T(q, b) are
    `tb`: removing b loses neither constants nor joins (tb sits inside a)
    and one tight rule sequence, compatible to a, carries each term of tb
    from its positions in a into all its positions in b along the
    propagation graph, ending in a rule whose head has b's predicate and
    arity.

    The search runs over states: the last rule k of a tight sequence
    compatible to `a` and the pairs (t, p) such that k carries the term t
    of `tb` to its head position p.  There are finitely many states (rules
    times subsets of one atom's positions, per term), so the search ends.
    It drops a state in which a term is held nowhere, since none of its
    successors holds that term either."""
    if a == b or not tb <= a.terms():
        return False
    cg = ctx.cover_graph
    held = _placed(a, tb)
    frontier = [(k, held) for k in cg.by_body_pred.get(a.pred, ())
                if atom_matches_injectively(ctx.tgds[k].body[0], a) is not None]
    needed, seen = _placed(b, tb), set()
    while frontier:
        k, held = frontier.pop()
        moves = cg.moves[k]
        held = frozenset([(t, dst) for t, src in held
                          for dst in moves.get(src, ())])
        if len({t for t, _ in held}) < len(tb) or (k, held) in seen:
            continue
        seen.add((k, held))
        head = ctx.tgds[k].head
        if (head.pred == b.pred and len(head.args) == len(b.args)
                and needed <= held):
            return True
        frontier.extend([(k2, held) for k2 in cg.tight[k]])
    return False


def cover_sets(q: ConjunctiveQuery, ctx: EliminationContext) -> Dict[Atom, Set[Atom]]:
    """For each body atom a, the atoms of q that cover it."""
    shared = q.shared_variables()
    out: Dict[Atom, Set[Atom]] = {a: set() for a in q.body}
    for a in q.body:
        ta = shared_terms(shared, a)
        for b in q.body:
            if covers(b, a, ta, ctx):
                out[a].add(b)
    return out


def eliminate(q: ConjunctiveQuery, strategy: List[Atom], ctx: EliminationContext) -> Set[Atom]:
    """Scan atoms in strategy order; an atom that some atom not yet
    eliminated covers is eliminable, and the search for a covering atom
    stops at the first.  This eliminates what scanning the `cover_sets`
    table would, without deciding the pairs it never reads.  The eliminated
    count is strategy-independent."""
    if sorted(strategy) != sorted(q.body):
        raise ValueError("strategy must be a permutation of the query body")
    shared = q.shared_variables()
    eliminated: Set[Atom] = set()
    for a in strategy:
        ta = shared_terms(shared, a)
        if any(covers(b, a, ta, ctx) for b in q.body if b not in eliminated):
            eliminated.add(a)
    return eliminated


def reduce_query(q: ConjunctiveQuery, ctx: EliminationContext) -> ConjunctiveQuery:
    """The reduced query: eliminate along the canonical strategy, the body
    in canonical order (`ordered_body`)."""
    if len(q.body) <= 1:
        return q
    removed = eliminate(q, ordered_body(q), ctx)
    return make_query(q.head_pred, q.head_args,
                      (a for a in q.body if a not in removed)) if removed else q
