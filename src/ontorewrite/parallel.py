"""Decomposition-based rewriting: split the query on existential joins,
rewrite each component independently, one after another, reconcile with a
Datalog rule and unfold back into a UCQ.  The gain is the decomposed search
space; the components share the rewriter context and its MGU cache, and one
step budget.

Unfolding goes by position: component i's disjuncts unify with the
reconciliation's i-th body atom.  Each disjunct unifies once per distinct
target atom, not once per product, and its body is substituted then; a
product only concatenates the chosen bodies, under the bindings of the
reconciliation's variables when a component head holds a constant or
repeats a variable.

Components are rewritten without subsumption.  `idec` and `irew` prune each
component's finished rewriting before unfolding; `tail` prunes the unfolded
UCQ."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .eliminate import reduce_query
from .model import (Atom, ConjunctiveQuery, Term, VAR, compose, make_query,
                    mgu, renaming_key, subst_atom, subst_query)
from .normalize import fresh_prefix
from .rewriter import (BudgetExhaustedError, Metrics, RewriteOptions,
                       RewriteResult, RewriterContext, xrewrite)
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
    used = set(ctx.arities)
    for t in ctx.tgds:
        used.add(t.head.pred)
        used.update(a.pred for a in t.body)
    return fresh_prefix("comp", used)


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
    var_order = [t for t in dict.fromkeys(
        list(q.head_args) + [t for a in body for t in a.args]) if t.kind == VAR]

    comp_vars = [set().union(*(a.variables() for a in comp))
                 for comp in components]
    spread = Counter(v for vs in comp_vars for v in vs)  # components per variable
    base = _component_pred_base(ctx)
    head_vars = {t for t in q.head_args if t.kind == VAR}
    comp_queries = []
    recon_body = []
    for idx, (comp, vs) in enumerate(zip(components, comp_vars), start=1):
        kept = tuple(v for v in var_order
                     if v in vs and (v in head_vars or spread[v] > 1))
        pred = f"{base}_{idx}"
        comp_queries.append(make_query(pred, kept, comp))
        recon_body.append(Atom(pred, kept))
    reconciliation = make_query(q.head_pred, q.head_args, recon_body)
    return Decomposition(components, comp_queries, reconciliation)


def unfold(component_rewritings: List[List[ConjunctiveQuery]],
           reconciliation: ConjunctiveQuery) -> List[ConjunctiveQuery]:
    """Cartesian expansion of the reconciliation rule over the disjuncts of
    each component rewriting, standardized apart, slot i against
    `reconciliation.body[i]`.  Unifiers keep the reconciliation's variables,
    so joins shared between components are preserved.

    A disjunct's unifier γ with its target atom binds only its own
    variables and the reconciliation's, and maps both to the
    reconciliation's variables or to constants.  So each (slot, target)
    pair is unified once, memoized as the reconciliation part of γ and γ
    applied to the body, and a product is the chosen bodies under `theta`,
    the composed reconciliation parts, which stays empty unless a component
    head holds a constant or repeats a variable.  Output deduplicated
    modulo renaming by renaming key (`model.renaming_key`): a product none
    of whose non-head variables joins two atoms is keyed without a
    canonical form."""
    slots = []
    for slot, disjuncts in enumerate(component_rewritings):
        standardized = [_standardize(d, slot) for d in disjuncts]
        slots.append([(Atom(d.head_pred, d.head_args), d.body)
                      for d in standardized])
    preferred = frozenset(reconciliation.variables())
    results: List[ConjunctiveQuery] = []
    seen = set()
    chosen: List[Tuple[Atom, ...]] = []  # the bodies of the slots so far
    unifiers: Dict[Tuple[int, Atom], list] = {}

    def unify(slot: int, target: Atom) -> list:
        pairs = unifiers.get((slot, target))
        if pairs is None:
            pairs = unifiers[slot, target] = []
            for head_atom, body in slots[slot]:
                gamma = mgu((target, head_atom), preferred=preferred)
                if gamma is not None:
                    pairs.append((
                        {v: t for v, t in gamma.items() if v in preferred},
                        tuple(subst_atom(gamma, a) for a in body)))
        return pairs

    def expand(slot: int, theta: dict):
        if slot == len(slots):
            head_args = reconciliation.head_args
            body = (a for atoms in chosen for a in atoms)
            if theta:
                head_args = (theta.get(t, t) for t in head_args)
                body = (subst_atom(theta, a) for a in body)
            query = make_query(reconciliation.head_pred, head_args, body)
            key = renaming_key(query)
            if key not in seen:
                seen.add(key)
                results.append(query)
            return
        target = reconciliation.body[slot]
        if theta:
            target = subst_atom(theta, target)
        for bound, body in unify(slot, target):
            chosen.append(body)
            expand(slot + 1, compose(theta, bound) if bound else theta)
            chosen.pop()

    expand(0, {})
    return results


def _standardize(q: ConjunctiveQuery, slot: int) -> ConjunctiveQuery:
    sub = {v: Term(VAR, f"{v.name}~{slot}") for v in q.variables()}
    return subst_query(sub, q)


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
    rewriter sharing the context's graphs and MGU cache, then unfold.  The
    query is reduced before decomposition when elimination applies."""
    options = options or RewriteOptions()
    elim = ctx.elimination_for(options.elimination)

    split_start = time.perf_counter()
    base = reduce_query(q, elim) if elim else q
    decomposition = decompose(base, ctx)
    split_time = time.perf_counter() - split_start

    # the budget bounds the steps of all components together
    budget = options.budget
    rewrite_start = time.perf_counter()
    component_results = []
    try:
        for cq in decomposition.component_queries:
            result = xrewrite(cq, ctx, RewriteOptions(
                elimination=options.elimination, budget=budget))
            component_results.append(result)
            if budget is not None:
                budget -= result.metrics.generated
    except BudgetExhaustedError:
        raise BudgetExhaustedError("rewriting exceeded the step budget of "
                                   f"{options.budget}") from None
    rewrite_time = time.perf_counter() - rewrite_start

    component_ucqs = [r.queries for r in component_results]
    if options.subsumption in ("idec", "irew"):
        component_ucqs = [subsume.prune_ucq(u) for u in component_ucqs]

    unfold_start = time.perf_counter()
    queries = unfold(component_ucqs, decomposition.reconciliation)
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
