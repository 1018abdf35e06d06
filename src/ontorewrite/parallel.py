"""Decomposition-based rewriting: split the query on existential joins,
rewrite each component independently, one after another, and reconcile
with a Datalog rule; the result unfolds that folded program into a UCQ on
first read.  The gain is the decomposed search space; the components share
the rewriter context and one step budget, which also bounds the products
of the unfold.

`xrewrite_parallel` decomposes the core (`model.core`) of its input,
taken after elimination has reduced the input, so that a redundant atom
adds no component and multiplies no product.  A component of a core is a
core, so `xrewrite`, which reduces each component and takes its core
again, drops nothing more unless that reduction dropped atoms.

Unfolding goes by position: component i's disjuncts, standardized apart
from the reconciliation's variables, unify with the reconciliation's i-th
body atom, each once, before any product is formed; a disjunct's body is
substituted and its group keys (`model.group_keys`) computed then.  The
products are one flat `itertools.product` over the slots, in the order of
nested loops.  A product concatenates its parts' bodies, under the one
`mgu` of their bindings of reconciliation variables where a component head
holds a constant or repeats a variable, and is dropped when those clash.
Products are deduplicated modulo renaming.  A product with no such bindings, whose
reconciliation variables are all head variables, is keyed by its parts'
group keys, sorted, and built only when that key is new; any other product
is built and keyed by `model.renaming_key`.

This pipeline is the one reader of the subsumption mode
(`RewriteOptions.subsumption`), and prunes through `subsume.prune_ucq`.
Components are rewritten unpruned.  `idec` and `irew` prune each
component's finished rewriting before unfolding; `tail` prunes the unfolded
UCQ when it is built; `none` prunes nothing."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import prod
from typing import Dict, List, Optional, Set

from .eliminate import reduce_query
from .model import (Atom, ConjunctiveQuery, Term, VAR, apart_index,
                    connected_components, core, group_keys, head_assignment,
                    key_of_groups, make_query, mgu, renaming_key, subst_atom,
                    subst_atoms, subst_query)
from .rewriter import (BudgetExhaustedError, Metrics, RewriteOptions,
                       RewriterContext, xrewrite)
from . import subsume


@dataclass
class Decomposition:
    component_queries: List[ConjunctiveQuery]  # a component's atoms are its body
    reconciliation: ConjunctiveQuery  # head of q over the component predicates


def fresh_prefix(base: str, used_preds: Set[str]) -> str:
    """`base`, extended with x until no predicate of `used_preds` is it or
    starts with it plus `_`, so that every `<base>_...` name is fresh."""
    while any(p == base or p.startswith(base + "_") for p in used_preds):
        base += "x"
    return base


def _component_pred_base(q: ConjunctiveQuery, ctx: RewriterContext) -> str:
    """A prefix no predicate of the ontology or of q starts with, so that no
    component predicate clashes with a database, rule or answer predicate."""
    used = set(ctx.arities)
    for t in ctx.tgds:
        used.add(t.head.pred)
        used.update(a.pred for a in t.body)
    used.add(q.head_pred)
    used.update(a.pred for a in q.body)
    return fresh_prefix("comp", used)


def decompose(q: ConjunctiveQuery, ctx: RewriterContext) -> Decomposition:
    """The unique optimal existential-join decomposition: body atoms are
    grouped when they share a variable whose body occurrences all sit at
    positions affected w.r.t. one and the same existential head position."""
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
    components = connected_components(q.body, confined_vars.__contains__)

    # Global variable order: first occurrence across head then body.
    var_order = [t for t in dict.fromkeys(
        list(q.head_args) + [t for a in q.body for t in a.args]) if t.kind == VAR]

    comp_vars = [set().union(*(a.variables() for a in comp))
                 for comp in components]
    spread = Counter(v for vs in comp_vars for v in vs)  # components per variable
    base = _component_pred_base(q, ctx)
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
    return Decomposition(comp_queries, reconciliation)


def unfold(component_rewritings: List[List[ConjunctiveQuery]],
           reconciliation: ConjunctiveQuery) -> List[ConjunctiveQuery]:
    """Cartesian expansion of the reconciliation rule over the disjuncts of
    each component rewriting, standardized apart from the reconciliation's
    variables (`model.apart_index`), slot i against
    `reconciliation.body[i]`.  Unifiers keep the reconciliation's variables,
    so joins shared between components are preserved.

    A reconciliation atom's arguments are distinct variables, so each
    disjunct unifies with its slot's atom, once, before any product is
    formed.  Its unifier γ maps the disjunct's head variables to the
    reconciliation's variables or to constants, and binds a reconciliation
    variable only where the disjunct's head holds a constant or repeats a
    variable.  A product is the parts' bodies under γ, under the single
    `mgu` of all its parts' bindings, and is dropped when those clash:
    since `mgu` represents each class by its least member, this is what
    unifying the slots one after another with the atoms bound so far gives.

    The output is deduplicated modulo renaming by renaming key.  When no
    part binds and every reconciliation variable is a head variable, slots
    share only head variables, so the product's groups are its parts'
    groups, and its key is `renaming_key`'s assembled from the parts'
    `model.group_keys`, each computed once per disjunct, duplicate atoms
    dropped; its query is built only when that key is new.  Any other
    product is built and keyed by `renaming_key`."""
    preferred = frozenset(reconciliation.variables())
    head_pred, head_args = reconciliation.head_pred, reconciliation.head_args
    assignment, numbered_head = head_assignment(reconciliation)
    keyed = preferred.issubset(assignment)
    first = apart_index(preferred, "~")
    slots = []  # per slot, (bindings, body, (atom, group key) pairs or None)
    for slot, (target, disjuncts) in enumerate(
            zip(reconciliation.body, component_rewritings)):
        parts = []
        for d in disjuncts:
            d = _standardize(d, first + slot)
            gamma = mgu((target, Atom(d.head_pred, d.head_args)),
                        preferred=preferred)
            body = subst_atoms(gamma, d.body)
            bound = {v: t for v, t in gamma.items() if v in preferred}
            pairs = (list(zip(body, group_keys(body, assignment)))
                     if keyed and not bound else None)
            parts.append((bound, body, pairs))
        slots.append(parts)
    results: List[ConjunctiveQuery] = []
    seen = set()
    for parts in product(*slots):
        pairs = [p for _, _, p in parts]
        if None not in pairs:
            key_of = dict(chain.from_iterable(pairs))
            key = key_of_groups(head_pred, numbered_head, key_of.values())
            if key in seen:
                continue
            query = ConjunctiveQuery(head_pred, head_args, tuple(key_of))
        else:
            args = head_args
            atoms = chain.from_iterable(body for _, body, _ in parts)
            bindings = [(v, t) for bound, _, _ in parts
                        for v, t in bound.items()]
            if bindings:
                variables, terms = zip(*bindings)
                theta = mgu((Atom("=", variables), Atom("=", terms)),
                            preferred=preferred)
                if theta is None:
                    continue
                args = (theta.get(t, t) for t in head_args)
                atoms = (subst_atom(theta, a) for a in atoms)
            query = make_query(head_pred, args, atoms)
            key = renaming_key(query)
            if key in seen:
                continue
        seen.add(key)
        results.append(query)
    return results


def _standardize(q: ConjunctiveQuery, index: int) -> ConjunctiveQuery:
    sub = {v: Term(VAR, f"{v.name}~{index}") for v in q.variables()}
    return subst_query(sub, q)


@dataclass
class ParallelResult:
    """The folded rewriting.  `queries` unfolds it into the flat UCQ on
    first read, prunes that under `tail` and sets `metrics.unfold_time`.
    Under a step budget, when the unfold joins two or more components and
    its products outnumber the steps that the rewriting left of the budget,
    it raises BudgetExhaustedError instead, before it forms any product.
    A lone component's products are its disjuncts, which its steps made."""
    metrics: Metrics
    decomposition: Decomposition
    component_ucqs: List[List[ConjunctiveQuery]]  # what unfold consumes
    subsumption: str  # the mode the rewriting was compiled under
    budget: Optional[int] = None  # the steps left of the budget, if any

    @cached_property
    def queries(self) -> List[ConjunctiveQuery]:
        products = prod(len(u) for u in self.component_ucqs)
        if (self.budget is not None and len(self.component_ucqs) > 1
                and products > self.budget):
            raise BudgetExhaustedError(
                f"unfolding {products} products exceeds the {self.budget} "
                "steps left of the step budget")
        start = time.perf_counter()
        queries = unfold(self.component_ucqs,
                         self.decomposition.reconciliation)
        self.metrics.unfold_time = time.perf_counter() - start
        if self.subsumption == "tail":
            queries = subsume.prune_ucq(queries)
        return queries


def xrewrite_parallel(q: ConjunctiveQuery, ctx: RewriterContext,
                      options: Optional[RewriteOptions] = None) -> ParallelResult:
    """Decompose, then rewrite each component in turn with an independent
    rewriter sharing the context's rules and graphs; unfold nothing.  What
    is decomposed is the core of q, taken after elimination has reduced q
    when it applies."""
    options = options or RewriteOptions()
    elim = ctx.elimination_for(options.elimination)

    split_start = time.perf_counter()
    reduced = reduce_query(q, elim) if elim else q
    minimal = core(reduced)
    decomposition = decompose(minimal, ctx)
    metrics = Metrics(split_time=time.perf_counter() - split_start,
                      components=len(decomposition.component_queries),
                      core_removed=len(reduced.body) - len(minimal.body))

    # the budget bounds the steps of all components together, and what
    # they leave of it bounds the products of the unfold
    budget = options.budget
    component_ucqs = []
    rewrite_start = time.perf_counter()
    try:
        for cq in decomposition.component_queries:
            result = xrewrite(cq, ctx, RewriteOptions(
                elimination=options.elimination, budget=budget))
            metrics.merge(result.metrics)
            component_ucqs.append(result.queries)
            if budget is not None:
                budget -= result.metrics.generated
    except BudgetExhaustedError:
        raise BudgetExhaustedError("rewriting exceeded the step budget of "
                                   f"{options.budget}") from None
    metrics.rewrite_time = time.perf_counter() - rewrite_start

    if options.subsumption in ("idec", "irew"):
        component_ucqs = [subsume.prune_ucq(u) for u in component_ucqs]

    return ParallelResult(metrics, decomposition, component_ucqs,
                          options.subsumption, budget)
