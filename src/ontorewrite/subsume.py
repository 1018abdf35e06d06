"""Query subsumption and the one pruning routine behind every mode.

A finished rewriting is pruned pairwise: in canonical order, each surviving
query drops every other survivor it subsumes, so of two equivalent queries
the one with the smaller canonical form stays.  `tail` prunes the whole
rewriting; `idec` and `irew` prune each decomposition component's rewriting
before unfolding.  Nothing is pruned inside the rewriting loop: with
one-atom resolution plus factorization a query pruned there may be the only
source of a disjunct no survivor subsumes (König, Leclère, Mugnier and
Thomazo, "Sound, complete and minimal UCQ-rewriting for existential rules",
SWJ 2015), so pruning early loses answers."""

from __future__ import annotations

from typing import List, Optional

from .model import (Atom, AtomIndex, ConjunctiveQuery, canonical_rename,
                    find_homomorphism)


def subsumes(q1: ConjunctiveQuery, q2: ConjunctiveQuery,
             body2: Optional[AtomIndex] = None) -> bool:
    """q1 subsumes q2 when a homomorphism maps body(q1) into body(q2) and
    head(q1) onto head(q2); q2's answers are then contained in q1's.
    `body2` is an index of q2's body to reuse, if the caller has one."""
    if q1.head_pred != q2.head_pred or len(q1.head_args) != len(q2.head_args):
        return False
    h1 = Atom(q1.head_pred, q1.head_args)
    h2 = Atom(q2.head_pred, q2.head_args)
    target = q2.body if body2 is None else body2
    return find_homomorphism(q1.body, target, fixed_head=(h1, h2)) is not None


def _survivors(queries: List[ConjunctiveQuery]) -> List[bool]:
    """Which queries survive pairwise pruning: in canonical order each
    survivor drops every other survivor it subsumes.  Every dropped query is
    subsumed by a survivor, and no survivor subsumes another."""
    order = sorted(range(len(queries)),
                   key=lambda i: canonical_rename(queries[i]))
    bodies = [AtomIndex(q.body) for q in queries]
    alive = [True] * len(queries)
    for i in order:
        if not alive[i]:
            continue
        for j in order:
            if i != j and alive[j] and subsumes(queries[i], queries[j], bodies[j]):
                alive[j] = False
    return alive


def prune_tail_state(state) -> None:
    """Prune a finished sequential rewriting: mark `pruned` on every final
    entry of the state that the pairwise pass drops."""
    finals = state.final_entries()
    for entry, keep in zip(finals, _survivors([e.query for e in finals])):
        entry.pruned = not keep


def prune_ucq(queries: List[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Pairwise subsumption minimization of a flat UCQ, in input order."""
    return [q for q, keep in zip(queries, _survivors(queries)) if keep]


def is_subsumption_minimal(queries: List[ConjunctiveQuery]) -> bool:
    for i, q1 in enumerate(queries):
        for j, q2 in enumerate(queries):
            if i != j and subsumes(q1, q2):
                return False
    return True
