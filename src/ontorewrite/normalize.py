"""Normal-form transformation for rules and syntactic classification.

A rule set is in normal form when every rule has a single head atom in
which each existential variable occurs once.  Such a rule is kept whole:
the rewriter resolves its pieces over all its existentials at once.  Any
other rule with existentials derives one auxiliary atom that carries the
frontier variables and the existentials, and that atom fans out to the
original head atoms; a rule without existentials fans out from its own
body.  The transformation preserves linearity and stickiness and adds at
most one rule per head atom plus one.

Classification decides linearity, multi-linearity and stickiness on raw or
normalized rules.  `smark` returns each rule's marked body variables as a
plain list of sets, and `is_sticky` counts their body occurrences.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from .model import Atom, TGD
from .parser import RawTGD


def _is_normal(rule: RawTGD) -> bool:
    if len(rule.head) != 1:
        return False
    args = rule.head[0].args
    return all(args.count(z) == 1 for z in rule.existential_vars())


def normalize_tgds(rules: Iterable[RawTGD]) -> Tuple[List[TGD], List[int], Set[str]]:
    """Split raw rules into normal form.

    Returns (normalized rules, provenance, auxiliary predicates) where
    provenance[i] is the index of the raw rule the i-th output came from.
    Rule k's auxiliary predicate is named `aux#<k>`: the tokenizer rejects
    `#`, so no rule, query, constraint or fact can name one.
    """
    out: List[TGD] = []
    provenance: List[int] = []
    aux_preds: Set[str] = set()
    for idx, rule in enumerate(rules):
        if _is_normal(rule):
            out.append(TGD(rule.body, rule.head[0]))
            provenance.append(idx)
            continue
        body = rule.body
        existentials = rule.existential_vars()
        if existentials:
            head_vars = set().union(*(a.variables() for a in rule.head))
            body_terms = dict.fromkeys(t for a in body for t in a.args)
            frontier = [t for t in body_terms if t in head_vars]
            aux = Atom(f"aux#{idx}", tuple(frontier + existentials))
            aux_preds.add(aux.pred)
            out.append(TGD(body, aux))
            provenance.append(idx)
            body = (aux,)
        for head_atom in rule.head:
            out.append(TGD(body, head_atom))
            provenance.append(idx)
    return out, provenance, aux_preds


# ---------------------------------------------------------------------------
# Classification.


def _as_raw(rule) -> RawTGD:
    if isinstance(rule, TGD):
        return RawTGD(rule.body, (rule.head,))
    return rule


def is_linear(rules: Iterable) -> bool:
    """Every rule has exactly one body atom."""
    return all(len(_as_raw(r).body) == 1 for r in rules)


def is_multi_linear(rules: Iterable) -> bool:
    """Every body atom of every rule contains all of the rule's body variables."""
    for r in rules:
        raw = _as_raw(r)
        body_vars = set()
        for a in raw.body:
            body_vars.update(a.variables())
        for a in raw.body:
            if a.variables() != body_vars:
                return False
    return True


def smark(rules: Iterable) -> List[Set]:
    """The variable-marking procedure: for each rule, in order, the set of
    its marked body variables.  The initial marking (a body variable absent
    from some head atom) is followed by the propagation step, run to
    fixpoint.  Both mark every body occurrence of a variable at once, so
    each rule's marking is a set of variables."""
    raws = [_as_raw(r) for r in rules]
    body_vars = [set().union(*(a.variables() for a in raw.body)) for raw in raws]
    marked: List[Set] = [{v for v in bv
                          if any(v not in a.variables() for a in raw.head)}
                         for raw, bv in zip(raws, body_vars)]

    # Propagation to fixpoint: for a rule sigma and a universally quantified
    # variable V of a head atom a, if some body atom b (of any rule) with the
    # predicate of a carries a marked variable at each position where V occurs
    # in a, then V is marked in sigma.
    bodies_by_pred: dict = {}  # predicate -> (rule index, body atom) pairs
    for rj, raw in enumerate(raws):
        for b in raw.body:
            bodies_by_pred.setdefault(b.pred, []).append((rj, b))
    changed = True
    while changed:
        changed = False
        for ri, raw in enumerate(raws):
            for head_atom in raw.head:
                for v in head_atom.variables():
                    if v not in body_vars[ri] or v in marked[ri]:
                        continue
                    positions = [pi for pi, t in enumerate(head_atom.args) if t == v]
                    if any(all(b.args[pi] in marked[rj] for pi in positions)
                           for rj, b in bodies_by_pred.get(head_atom.pred, ())):
                        marked[ri].add(v)
                        changed = True
    return marked


def is_sticky(rules: Iterable) -> bool:
    """No rule body contains a marked variable occurring two or more times."""
    rules = list(rules)
    for rule, marked in zip(rules, smark(rules)):
        occurrences = [t for a in _as_raw(rule).body for t in a.args
                       if t in marked]
        if len(occurrences) != len(set(occurrences)):
            return False
    return True


def classify(rules: Iterable) -> dict:
    rules = list(rules)
    return {
        "linear": is_linear(rules),
        "multi_linear": is_multi_linear(rules),
        "sticky": is_sticky(rules),
    }
