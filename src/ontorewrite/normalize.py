"""Normal-form transformation for rules and syntactic classification.

A rule set is in normal form when every rule has a single head atom with at
most one existential variable, occurring once.  Rules outside normal form
are split into a chain through fresh auxiliary predicates that carry the
frontier variables plus the existentials introduced so far; the chain's last
predicate fans out to the original head atoms.  The transformation preserves
linearity and stickiness and grows the rule set at most quadratically.

Classification decides linearity, multi-linearity and stickiness on raw or
normalized rules.  `smark` returns each rule's marked body variables as a
plain list of sets, and `is_sticky` counts their body occurrences.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from .model import Atom, TGD, VAR
from .parser import RawTGD


def _is_normal(rule: RawTGD) -> bool:
    if len(rule.head) != 1:
        return False
    ev = rule.existential_vars()
    if len(ev) > 1:
        return False
    if ev:
        occurrences = sum(1 for t in rule.head[0].args if t == ev[0])
        return occurrences == 1
    return True


def fresh_prefix(base: str, used_preds: Set[str]) -> str:
    """`base`, extended with x until no predicate of `used_preds` is it or
    starts with it plus `_`, so that every `<base>_...` name is fresh."""
    while any(p == base or p.startswith(base + "_") for p in used_preds):
        base += "x"
    return base


def normalize_tgds(rules: Iterable[RawTGD]) -> Tuple[List[TGD], List[int], Set[str]]:
    """Split raw rules into normal form.

    Returns (normalized rules, provenance, auxiliary predicates) where
    provenance[i] is the index of the raw rule the i-th output came from.
    Auxiliary predicates are named deterministically `aux_<rule>_<step>`
    (base escalated if a user predicate collides with the reserved prefix).
    """
    rules = list(rules)
    base = fresh_prefix("aux", {a.pred for r in rules for a in r.body + r.head})

    out: List[TGD] = []
    provenance: List[int] = []
    aux_preds: Set[str] = set()
    for idx, rule in enumerate(rules):
        if _is_normal(rule):
            out.append(TGD(rule.body, rule.head[0]))
            provenance.append(idx)
            continue
        existentials = rule.existential_vars()
        if not existentials:
            # No existentials: a multi-atom head splits into one rule per atom.
            for head_atom in rule.head:
                out.append(TGD(rule.body, head_atom))
                provenance.append(idx)
            continue
        body_vars = []
        for a in rule.body:
            for t in a.args:
                if t.kind == VAR and t not in body_vars:
                    body_vars.append(t)
        head_vars = set()
        for a in rule.head:
            head_vars.update(a.variables())
        frontier = [v for v in body_vars if v in head_vars]
        carried = list(frontier)
        prev_body = rule.body
        for step, z in enumerate(existentials, start=1):
            aux = f"{base}_{idx}_{step}"
            aux_preds.add(aux)
            head_atom = Atom(aux, tuple(carried + [z]))
            out.append(TGD(prev_body, head_atom))
            provenance.append(idx)
            carried.append(z)
            prev_body = (head_atom,)
        for head_atom in rule.head:
            out.append(TGD(prev_body, head_atom))
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
