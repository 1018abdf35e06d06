"""Bounded oblivious chase, CQ evaluation over instances, the certain-answer
oracle, the check queries derived from negative constraints, and the scan
for the fact pairs that violate a functional dependency.

Bodies are matched against instances by `model.homomorphisms`, the planned,
hash-indexed join that query subsumption uses too.

A query is answered by one join when it is Boolean or its body is one
group of atoms linked by shared variables.  The join knows the answers
found so far and, once a binding fixes the answer tuple, drops it if the
tuple is found, else stops at its first match (see `homomorphisms`).  Any
other body splits into such groups: each is joined once for its
constant-only rows over the head variables it holds, a group holding none
only has to match, and the answers are the product of the rows.  A
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
    return evaluate_ucq([q], instance)


def evaluate_ucq(queries: Iterable[ConjunctiveQuery], instance) -> Set[tuple]:
    """The union of the disjuncts' answers; a disjunct whose head holds no
    variable is skipped once that head is an answer.  A memo serves every
    disjunct: each distinct atom's variables, read to group a body; per
    head, its variables; and under the head, per group of a split body, the
    head variables the group holds and its rows.  So every disjunct holding
    the same group under the same head shares one join, and only the first
    disjunct to meet an atom, a head or a group computes its part: the same
    atoms and projection over the same instance always give the same rows.
    The memo lives for one call, as the instance may grow after it."""
    instance = as_index(instance)
    memo = _Memo()
    out: Set[tuple] = set()
    joined = False  # whether out may hold tuples with nulls or variables
    for q in queries:
        head = q.head_args
        if head in out and (not head or all(t.kind != VAR for t in head)):
            continue
        joined |= _answers(q, instance, memo, out)
    return _constant(out) if joined else out


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


def _answers(q: ConjunctiveQuery, index: AtomIndex, memo: _Memo,
             out: Set[tuple]) -> bool:
    """Add q's answers over the index to out, and say whether out may now
    hold tuples that are not constant-only: by one join that knows out's
    tuples and adds every tuple it finds, or group by group (see the module
    docstring), each group's projection and rows taken from the memo or
    computed into it.  An empty group adds no answers; else the answers are
    the product of the rows in head order, the head constants kept."""
    head = q.head_args
    variables = memo.variables
    groups = (connected_components(q.body, links=variables.__getitem__)
              if head else ())
    if len(groups) < 2:
        _rows(q.body, head, index, out)
        return bool(head)  # a Boolean join adds only ()
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
            part = by_group[group] = (
                projection, _constant(_rows(group, projection, index, set())))
        projection, rows = part
        if not rows:
            return False
        if projection:
            names.extend(projection)
            parts.append(rows)
    if len(names) < len(head_vars):
        return False
    for combo in product(*parts):
        h = dict(zip(names, chain.from_iterable(combo)))
        out.add(tuple([h.get(t, t) for t in head]))
    return False


def _rows(body, terms: tuple, index: AtomIndex, known: set) -> Set[tuple]:
    """known plus the images of terms under the body's homomorphisms."""
    for _ in homomorphisms(body, index, {}, answer=terms, known=known):
        pass
    return known


def _constant(rows: Set[tuple]) -> Set[tuple]:
    """The rows holding only constants."""
    if all(t.kind == CONST for t in set(chain.from_iterable(rows))):
        return rows
    return {row for row in rows if all(t.kind == CONST for t in row)}


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
