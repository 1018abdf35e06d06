"""Decomposition-based rewriting: split the query on existential joins,
rewrite each component independently, one after another, reconcile with a
Datalog rule and unfold back into a UCQ.  The gain is the decomposed search
space; the components share the rewriter context and its caches.

Components are rewritten without subsumption.  `idec` and `irew` prune each
component's finished rewriting before unfolding; `tail` prunes the unfolded
UCQ."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .eliminate import reduce_query
from .model import (Atom, ConjunctiveQuery, Term, VAR, make_query, mgu,
                    subst_atom)
from .rewriter import (Metrics, RewriteOptions, RewriteResult, RewriterContext,
                       xrewrite)
from . import subsume


@dataclass
class Decomposition:
    components: List[Tuple[Atom, ...]]
    component_queries: List[ConjunctiveQuery]
    reconciliation: ConjunctiveQuery  # head of q over the component predicates

    @property
    def size(self) -> int:
        return len(self.components)


def _component_pred_base(ctx: RewriterContext) -> str:
    base = "comp"
    used = set(ctx.arities) | {t.head.pred for t in ctx.tgds}
    for t in ctx.tgds:
        used.update(a.pred for a in t.body)
    while any(p == base or p.startswith(base + "_") for p in used):
        base += "x"
    return base


def decompose(q: ConjunctiveQuery, ctx: RewriterContext) -> Decomposition:
    """The unique optimal existential-join decomposition: body atoms are
    grouped when they share a variable whose body occurrences all sit at
    positions affected w.r.t. one and the same rule."""
    affected = ctx.affected()

    var_positions: Dict[Term, Set] = {}
    for a in q.body:
        for i, t in enumerate(a.args, start=1):
            if t.kind == VAR:
                var_positions.setdefault(t, set()).add((a.pred, i))

    def confined(v: Term) -> bool:
        positions = var_positions[v]
        return any(positions <= aff for aff in affected.values() if aff)

    confined_vars = {v for v in var_positions if confined(v)}

    # Connected components of the atom graph linking atoms that share a
    # confined variable.
    body = list(q.body)
    component_of = list(range(len(body)))

    def find(i):
        while component_of[i] != i:
            component_of[i] = component_of[component_of[i]]
            i = component_of[i]
        return i

    for v in confined_vars:
        holders = [i for i, a in enumerate(body) if v in a.args]
        for i in holders[1:]:
            ra, rb = find(holders[0]), find(i)
            if ra != rb:
                component_of[max(ra, rb)] = min(ra, rb)

    groups: Dict[int, List[Atom]] = {}
    for i, a in enumerate(body):
        groups.setdefault(find(i), []).append(a)
    components = [tuple(groups[r]) for r in sorted(groups)]

    # Global variable order: first occurrence across head then body.
    var_order: List[Term] = []
    for t in list(q.head_args) + [t for a in body for t in a.args]:
        if t.kind == VAR and t not in var_order:
            var_order.append(t)

    base = _component_pred_base(ctx)
    head_vars = {t for t in q.head_args if t.kind == VAR}
    comp_queries = []
    recon_body = []
    for idx, comp in enumerate(components, start=1):
        comp_vars = set()
        for a in comp:
            comp_vars.update(a.variables())
        others = set()
        for other in components:
            if other is not comp:
                for a in other:
                    others.update(a.variables())
        kept = tuple(v for v in var_order
                     if v in comp_vars and (v in head_vars or v in others))
        pred = f"{base}_{idx}"
        comp_queries.append(make_query(pred, kept, comp))
        recon_body.append(Atom(pred, kept))
    reconciliation = make_query(q.head_pred, q.head_args, recon_body)
    return Decomposition(components, comp_queries, reconciliation)


def unfold(component_rewritings: List[List[ConjunctiveQuery]],
           reconciliation: ConjunctiveQuery,
           ctx: Optional[RewriterContext] = None) -> List[ConjunctiveQuery]:
    """Cartesian expansion of the reconciliation rule over the disjuncts of
    each component rewriting, standardizing each disjunct apart and unifying
    its head with the matching reconciliation atom; joins shared between
    components are preserved.  Output deduplicated modulo renaming."""
    from .model import canonical_rename

    # each slot's disjuncts standardized apart once, with their head atoms
    slots = []
    for slot, disjuncts in enumerate(component_rewritings):
        standardized = [_standardize(d, slot) for d in disjuncts]
        slots.append([(Atom(d.head_pred, d.head_args), d.body)
                      for d in standardized])
    results: List[ConjunctiveQuery] = []
    seen = set()

    def expand(slot: int, query: ConjunctiveQuery):
        if slot == len(slots):
            canon = ctx.canonical(query) if ctx else canonical_rename(query)
            if canon not in seen:
                seen.add(canon)
                results.append(query)
            return
        # the reconciliation atom for this slot: the body atom carrying the
        # slot's component predicate
        comp_pred = reconciliation.body[slot].pred
        target = next(a for a in query.body if a.pred == comp_pred)
        preferred = frozenset(query.variables())
        for head_atom, body in slots[slot]:
            gamma = mgu((target, head_atom), preferred=preferred)
            if gamma is None:
                continue
            rest = [subst_atom(gamma, a) for a in query.body if a is not target]
            rest.extend(subst_atom(gamma, a) for a in body)
            expand(slot + 1,
                   make_query(query.head_pred,
                              (gamma.get(t, t) for t in query.head_args), rest))

    expand(0, reconciliation)
    return results


def _standardize(q: ConjunctiveQuery, slot: int) -> ConjunctiveQuery:
    sub = {v: Term(VAR, f"{v.name}~{slot}") for v in q.variables()}
    return make_query(q.head_pred,
                      (sub.get(t, t) for t in q.head_args),
                      (subst_atom(sub, a) for a in q.body))


@dataclass
class ParallelResult:
    queries: List[ConjunctiveQuery]
    metrics: Metrics
    decomposition: Decomposition
    component_results: List[RewriteResult]
    component_ucqs: List[List[ConjunctiveQuery]]  # what unfold consumed


def xrewrite_parallel(q: ConjunctiveQuery, ctx: RewriterContext,
                      options: Optional[RewriteOptions] = None) -> ParallelResult:
    """Decompose, rewrite each component in turn with an independent
    rewriter sharing the context's graphs and caches, then unfold.  The
    query is reduced before decomposition when elimination applies."""
    options = options or RewriteOptions()
    eliminating = options.elimination
    if eliminating is None:
        eliminating = ctx.linear

    split_start = time.perf_counter()
    base = reduce_query(q, ctx.elimination()) if eliminating else q
    decomposition = decompose(base, ctx)
    split_time = time.perf_counter() - split_start

    comp_options = RewriteOptions(elimination=options.elimination,
                                  budget=options.budget)

    rewrite_start = time.perf_counter()
    component_results = [xrewrite(cq, ctx, comp_options)
                         for cq in decomposition.component_queries]
    rewrite_time = time.perf_counter() - rewrite_start

    component_ucqs = [r.queries for r in component_results]
    if options.subsumption in ("idec", "irew"):
        component_ucqs = [subsume.prune_ucq(u) for u in component_ucqs]

    unfold_start = time.perf_counter()
    queries = unfold(component_ucqs, decomposition.reconciliation, ctx)
    unfold_time = time.perf_counter() - unfold_start

    if options.subsumption == "tail":
        queries = subsume.prune_ucq(queries)

    metrics = Metrics()
    for r in component_results:
        metrics.merge(r.metrics)
    metrics.split_time = split_time
    metrics.rewrite_time = rewrite_time
    metrics.unfold_time = unfold_time
    metrics.components = decomposition.size
    return ParallelResult(queries, metrics, decomposition, component_results,
                          component_ucqs)
