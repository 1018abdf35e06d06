"""Bounded oblivious chase, CQ evaluation over instances, the certain-answer
oracle, the check queries derived from negative constraints, and the scan
for the fact pairs that violate a functional dependency.

Bodies are matched against instances by `model.homomorphisms`, the planned,
hash-indexed join that query subsumption uses too.

A query is answered by one join when it is Boolean, which stops at its
first homomorphism, or when its body is one group of atoms linked by shared
variables.  Any other body splits into such groups: each is joined once for
its constant-only rows over the head variables it holds, a group holding
none only has to match, and the answers are the product of the rows.  A
UCQ's disjuncts are often such products of a few small parts under one head
(the decomposed rewriting unfolds into them), so `evaluate_ucq` keeps a
memo for the duration of one call that does each disjunct's bookkeeping
once per call: each distinct atom's variables, from which a body is grouped
by `connected_components`; per head, its variables; and under the head,
per group, its projection and rows, keyed by the group's atoms.  The same
atoms and projection over the same instance always give the same rows, so
every disjunct holding the group under that head reuses them."""

from __future__ import annotations

from collections import deque
from itertools import chain, product
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from .model import (Atom, AtomIndex, CONST, ConjunctiveQuery, NULL, Term, VAR,
                    as_index, connected_components, homomorphisms)
from .normalize import _as_raw
from .parser import FunctionalDependency, NegativeConstraint, RawTGD


class ChaseInstance(AtomIndex):
    """The chase's instance: its atoms with their join indexes, the counter
    naming fresh nulls, and whether the chase reached a fixpoint."""

    def __init__(self):
        super().__init__()
        self.null_counter = 0
        self.saturated = False

    def fresh_null(self) -> Term:
        self.null_counter += 1
        return Term(NULL, f"z{self.null_counter:06d}")


def _frontier_key(rule: RawTGD, h: dict) -> tuple:
    vs = sorted({t for a in rule.body for t in a.args if t.kind == VAR})
    return tuple(h[v] for v in vs)


def chase_up_to(db: Iterable[Atom], rules: Iterable, k: int) -> ChaseInstance:
    """Apply the oblivious chase rule under fair FIFO scheduling, stopping
    after k applications or at a fixpoint.  Each applicable (rule, body
    homomorphism) pair is applied at most once; existential variables take
    fresh nulls following all existing values."""
    if k < 0:
        raise ValueError(f"the chase step budget must be at least 0, not {k}")
    raws = [_as_raw(r) for r in rules]
    instance = ChaseInstance()
    for a in db:
        if any(t.kind == NULL for t in a.args):
            raise ValueError("the database must be null-free")
        instance.add(a)

    pending = []
    seen: Set[Tuple[int, tuple]] = set()

    def discover(fact: Optional[Atom]):
        """Queue every new (rule, body homomorphism) pair; with a fact, only
        those mapping some body atom onto it."""
        for ri, rule in enumerate(raws):
            anchors = ([None] if fact is None else
                       [(idx, fact) for idx, pattern in enumerate(rule.body)
                        if pattern.pred == fact.pred])
            for anchor in anchors:
                for h in homomorphisms(rule.body, instance, {}, anchor):
                    key = (ri, _frontier_key(rule, h))
                    if key not in seen:
                        seen.add(key)
                        pending.append((ri, h))

    discover(None)
    applications = 0
    cursor = 0
    while cursor < len(pending) and applications < k:
        ri, h = pending[cursor]
        cursor += 1
        rule = raws[ri]
        extension = dict(h)
        for z in rule.existential_vars():
            extension[z] = instance.fresh_null()
        new_facts = []
        for head_atom in rule.head:
            fact = Atom(head_atom.pred,
                        tuple(extension.get(t, t) for t in head_atom.args))
            if instance.add(fact):
                new_facts.append(fact)
        applications += 1
        for fact in new_facts:
            discover(fact)
    instance.saturated = cursor >= len(pending)
    return instance


def evaluate_cq(q: ConjunctiveQuery, instance) -> Set[tuple]:
    """All constant-only answer tuples of q over an instance (an AtomIndex
    such as a ChaseInstance, or any iterable of atoms); tuples containing
    nulls are excluded.  A Boolean query, or a body that is one group of
    atoms linked by shared variables, is one join; a Boolean one stops at
    its first homomorphism.  Any other body is joined group by group, and
    its answers are the product of the groups' rows (see `_answers`)."""
    return _answers(q, as_index(instance), _Memo())


def evaluate_ucq(queries: Iterable[ConjunctiveQuery], instance) -> Set[tuple]:
    """The union of the disjuncts' answers; once a Boolean disjunct has
    answered, the remaining Boolean disjuncts are skipped.  A memo serves
    every disjunct: each distinct atom's variables, read to group a body;
    per head, its variables; and under the head, per group of a split body,
    the head variables the group holds and its rows.  So every disjunct
    holding the same group under the same head shares one join, and only
    the first disjunct to meet an atom, a head or a group computes its part:
    the same atoms and projection over the same instance always give the
    same rows.  The memo lives only as long as the call, since the instance
    may grow after it."""
    instance = as_index(instance)
    memo = _Memo()
    out: Set[tuple] = set()
    for q in queries:
        if not q.head_args and () in out:
            continue
        out |= _answers(q, instance, memo)
    return out


class _AtomVariables(dict):
    """Each atom's variables in argument order, computed at its first
    lookup."""

    def __missing__(self, a: Atom) -> tuple:
        vs = self[a] = tuple([t for t in a.args if t.kind == VAR])
        return vs


class _Memo:
    """What answering a query computes that depends only on its atoms, its
    head and its groups, shared by the queries of one call: `variables`
    maps each atom to its variables, `heads` each head to its variables and
    a dict from each group met under it to the group's projection (the head
    variables it holds, in head order) and rows."""

    def __init__(self):
        self.variables = _AtomVariables()
        self.heads: Dict[tuple, Tuple[list, dict]] = {}


def _answers(q: ConjunctiveQuery, index: AtomIndex, memo: _Memo) -> Set[tuple]:
    """q's answers over the index, by one join or group by group (see the
    module docstring), each group's projection and rows taken from the memo
    or computed into it.  An empty group leaves no answers; else the answers
    are the product of the rows in head order, the head's constants passed
    through.  A head variable in no atom leaves no answers, as it does in
    one join."""
    head = q.head_args
    variables = memo.variables
    groups = (connected_components(q.body, links=variables.__getitem__)
              if head else ())
    if len(groups) < 2:
        return _rows(q.body, head, index)
    under_head = memo.heads.get(head)
    if under_head is None:
        under_head = memo.heads[head] = (
            [t for t in dict.fromkeys(head) if t.kind == VAR], {})
    head_vars, by_group = under_head
    names: List[Term] = []  # the head variables of the groups with rows
    parts = []  # their rows
    for group in groups:
        part = by_group.get(group)
        if part is None:
            held = {t for a in group for t in variables[a]}
            projection = tuple([v for v in head_vars if v in held])
            part = by_group[group] = (projection,
                                      _rows(group, projection, index))
        projection, rows = part
        if not rows:
            return set()
        if projection:
            names.extend(projection)
            parts.append(rows)
    if len(names) < len(head_vars):
        return set()
    answers = set()
    for combo in product(*parts):
        h = dict(zip(names, chain.from_iterable(combo)))
        answers.add(tuple([h.get(t, t) for t in head]))
    return answers


def _rows(body, terms: tuple, index: AtomIndex) -> Set[tuple]:
    """The constant-only images of terms under the body's homomorphisms into
    the index; with no terms, {()} at the first homomorphism, else empty."""
    joins = homomorphisms(body, index, {})
    if not terms:
        return {()} if next(joins, None) is not None else set()
    rows = set()
    for h in joins:
        row = tuple([h.get(t, t) for t in terms])
        if all(term.kind == CONST for term in row):
            rows.add(row)
    return rows


def certain_answers(q: ConjunctiveQuery, db: Iterable[Atom], rules: Iterable,
                    depth_budget: int = 500) -> Tuple[Set[tuple], bool]:
    """Evaluate q over the bounded chase.  The flag reports whether the chase
    reached a fixpoint (answers exact) or was truncated (answers a sound
    under-approximation of the certain answers)."""
    instance = chase_up_to(db, rules, depth_budget)
    return evaluate_cq(q, instance), instance.saturated


# ---------------------------------------------------------------------------
# Constraint checks.


def nc_check_queries(ncs: Iterable[NegativeConstraint]) -> List[ConjunctiveQuery]:
    """One Boolean query per negative constraint; a nonempty answer after
    rewriting and evaluation signals inconsistency."""
    return [ConjunctiveQuery("violation", (), nc.body) for nc in ncs]


def fd_violations(fds: Iterable[FunctionalDependency], db: Iterable[Atom]) -> List[tuple]:
    """Every pair of facts that agree on the FD's left-hand side and differ
    on its right, once, the earlier fact first, in database order; facts are
    grouped by their left-hand projection, so only pairs inside a group are
    compared."""
    by_pred: Dict[str, List[Atom]] = {}
    for a in db:
        by_pred.setdefault(a.pred, []).append(a)
    bad = []
    for fd in fds:
        facts = by_pred.get(fd.pred, ())
        keys = [tuple(a.args[i - 1] for i in fd.lhs) for a in facts]
        groups: Dict[tuple, Deque[Atom]] = {}
        for a, key in zip(facts, keys):
            groups.setdefault(key, deque()).append(a)
        for a, key in zip(facts, keys):
            later = groups[key]
            later.popleft()  # a itself: the facts of its group after it stay
            for b in later:
                if any(a.args[j - 1] != b.args[j - 1] for j in fd.rhs):
                    bad.append((fd, a, b))
    return bad
