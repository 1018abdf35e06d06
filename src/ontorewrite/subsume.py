"""Query subsumption and the one pruning routine behind every mode.

A finished rewriting is pruned pairwise by `prune_ucq`: in the order of
their canonical forms (`model.canonical_rename`, the body laid out group by
group), each surviving query drops every other survivor it subsumes, so of
two equivalent queries the one whose form sorts first stays.  Every
subsumption mode prunes through it (`parallel` says where).  Nothing is
pruned inside the rewriting loop, and with its operator nothing may be.
Its step resolves one single piece at a time, and a loop that drops every
query subsumed by one it kept is then incomplete: under
`stockPortfolio(X,Y,Z) -> company(X,V,W).` and
`company(X,Y,Z) -> legalPerson(X).` the kept
`p(B) :- company(B,E,F), company(B,Y,Z).` subsumes
`p(B) :- stockPortfolio(B,Y,Z), company(B,Y2,Z2).` by mapping both company
atoms onto one, so the loop never reaches
`p(B) :- stockPortfolio(B,Y,Z), stockPortfolio(B,Y2,Z2).`  König, Leclère,
Mugnier and Thomazo ("Sound, complete and minimal UCQ-rewriting for
existential rules", SWJ 2015) prove such pruning complete for aggregated
single-piece unifiers, which resolve several pieces of one query in one
step; in-loop pruning waits for that operator and for a filter on cheap
query features (ROADMAP items 14, stage 2, and 4)."""

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


# Unused: only perfbench/tracing.py wraps it; ROADMAP item 1 drops it.
def prune_tail_state(state) -> None:
    """Mark `pruned` on every final entry of a finished sequential
    rewriting that the pairwise pass drops; nothing reads the marks."""
    finals = state.final_entries()
    for entry, keep in zip(finals, _survivors([e.query for e in finals])):
        entry.pruned = not keep


def prune_ucq(queries: List[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Pairwise subsumption minimization of a flat UCQ, in input order."""
    return [q for q, keep in zip(queries, _survivors(queries)) if keep]

