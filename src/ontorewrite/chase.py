"""Bounded oblivious chase, CQ evaluation over instances, the certain-answer
oracle, and the check queries derived from functional dependencies and
negative constraints.

A body is matched against an instance by a join planned once per body: the
atoms are taken greedily, fewest unbound variables first, and each atom's
facts are fetched from a hash index on its bound argument positions, so a
join costs time linear in the facts it reaches, not in the product of the
relations it joins."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import Atom, CONST, ConjunctiveQuery, NULL, Term, VAR
from .normalize import _as_raw
from .parser import FunctionalDependency, NegativeConstraint, RawTGD

NEQ_PRED = "neq"


@dataclass
class ChaseInstance:
    atoms: List[Atom] = field(default_factory=list)
    atom_set: Set[Atom] = field(default_factory=set)
    by_pred: Dict[str, List[Atom]] = field(default_factory=dict)
    null_counter: int = 0
    applications: List[Tuple[int, tuple]] = field(default_factory=list)
    saturated: bool = False
    # pred -> bound positions -> values at those positions -> facts, in
    # insertion order; built on first lookup and kept current by add
    indexes: Dict[str, Dict[Tuple[int, ...], Dict[tuple, List[Atom]]]] = \
        field(default_factory=dict, repr=False, compare=False)

    def add(self, a: Atom) -> bool:
        if a in self.atom_set:
            return False
        self.atom_set.add(a)
        self.atoms.append(a)
        self.by_pred.setdefault(a.pred, []).append(a)
        for positions, index in self.indexes.get(a.pred, {}).items():
            _index_fact(index, positions, a)
        return True

    def lookup(self, pred: str, positions: Tuple[int, ...], key: tuple) -> List[Atom]:
        """The facts of pred holding key at positions, in insertion order."""
        by_positions = self.indexes.setdefault(pred, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for a in self.by_pred.get(pred, ()):
                _index_fact(index, positions, a)
        return index.get(key, [])

    def fresh_null(self) -> Term:
        self.null_counter += 1
        return Term(NULL, f"z{self.null_counter:06d}")

    def __contains__(self, a: Atom) -> bool:
        return a in self.atom_set

    def __len__(self) -> int:
        return len(self.atoms)


def _index_fact(index: dict, positions: Tuple[int, ...], a: Atom) -> None:
    # a fact too short for the positions matches no atom that uses them
    if len(a.args) > positions[-1]:
        index.setdefault(tuple(a.args[i] for i in positions), []).append(a)


def _as_instance(facts) -> ChaseInstance:
    """facts itself if it is a ChaseInstance, else a new one holding them."""
    if isinstance(facts, ChaseInstance):
        return facts
    instance = ChaseInstance()
    for a in facts:
        instance.add(a)
    return instance


def _match(binding: dict, pattern: Atom, fact: Atom) -> Optional[dict]:
    if pattern.pred != fact.pred or len(pattern.args) != len(fact.args):
        return None
    out = binding
    copied = False
    for p, f in zip(pattern.args, fact.args):
        if p.kind == VAR:
            bound = out.get(p)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def _plan(atoms: list, bound, instance: ChaseInstance) -> list:
    """The join order of atoms given the variables bound before it: greedily
    the atom with the fewest unbound variable occurrences, then the one with
    the fewest facts, the first on ties.  Each step is (atom, the positions
    bound when it is reached, the terms at those positions)."""
    bound = set(bound)
    sizes = [len(instance.by_pred.get(a.pred, ())) for a in atoms]
    # cost = unbound occurrences * weight + facts, so that min compares the
    # pair (unbound occurrences, facts) and keeps the first on ties
    weight = max(sizes, default=0) + 1
    cost = list(sizes)
    occurs: Dict[Term, List[int]] = {}  # variable -> atom index per occurrence
    for i, a in enumerate(atoms):
        for t in a.args:
            if t.kind == VAR and t not in bound:
                cost[i] += weight
                occurs.setdefault(t, []).append(i)
    remaining = list(range(len(atoms)))
    steps = []
    while remaining:
        best = min(remaining, key=cost.__getitem__)
        remaining.remove(best)
        a = atoms[best]
        positions = tuple([j for j, t in enumerate(a.args)
                           if t.kind != VAR or t in bound])
        steps.append((a, positions, tuple([a.args[j] for j in positions])))
        for t in a.args:
            if t.kind == VAR and t not in bound:
                bound.add(t)
                for i in occurs[t]:
                    cost[i] -= weight
    return steps


def _body_homomorphisms(body: tuple, instance: ChaseInstance, binding: dict,
                        anchor: Optional[Tuple[int, Atom]] = None):
    """All extensions of `binding` mapping the body into the instance; when
    an anchor (atom index, fact) is given, that body atom maps to the fact.

    The join order is planned once (see _plan).  A step whose atom has bound
    positions fetches only the facts holding the bound values there from the
    instance's hash index; a step with none scans the predicate's facts.
    Every candidate is still checked by _match."""
    atoms = list(body)
    if anchor is not None:
        idx, fact = anchor
        start = _match(binding, atoms[idx], fact)
        if start is None:
            return
        atoms = atoms[:idx] + atoms[idx + 1:]
        binding = start
    steps = _plan(atoms, binding, instance)
    last = len(steps)
    by_pred = instance.by_pred

    def rec(i, bound):
        if i == last:
            yield bound
            return
        a, positions, terms = steps[i]
        if positions:
            facts = instance.lookup(a.pred, positions,
                                    tuple([bound.get(t, t) for t in terms]))
        else:
            facts = by_pred.get(a.pred, ())
        for fact in facts:
            nb = _match(bound, a, fact)
            if nb is not None:
                yield from rec(i + 1, nb)

    yield from rec(0, binding)


def _frontier_key(rule: RawTGD, h: dict) -> tuple:
    vs = sorted({t for a in rule.body for t in a.args if t.kind == VAR})
    return tuple(h[v] for v in vs)


def chase_up_to(db: Iterable[Atom], rules: Iterable, k: int) -> ChaseInstance:
    """Apply the oblivious chase rule under fair FIFO scheduling, stopping
    after k applications or at a fixpoint.  Each applicable (rule, body
    homomorphism) pair is applied at most once; existential variables take
    fresh nulls following all existing values."""
    raws = [_as_raw(r) for r in rules]
    instance = ChaseInstance()
    for a in db:
        if any(t.kind == NULL for t in a.args):
            raise ValueError("the database must be null-free")
        instance.add(a)

    pending = []
    seen: Set[Tuple[int, tuple]] = set()

    def discover(anchor_fact: Optional[Atom]):
        for ri, rule in enumerate(raws):
            if anchor_fact is None:
                for h in _body_homomorphisms(rule.body, instance, {}):
                    key = (ri, _frontier_key(rule, h))
                    if key not in seen:
                        seen.add(key)
                        pending.append((ri, h))
            else:
                for idx, pattern in enumerate(rule.body):
                    if pattern.pred != anchor_fact.pred:
                        continue
                    for h in _body_homomorphisms(rule.body, instance, {},
                                                 anchor=(idx, anchor_fact)):
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
        instance.applications.append((ri, _frontier_key(rule, h)))
        for fact in new_facts:
            discover(fact)
    instance.saturated = cursor >= len(pending)
    return instance


def evaluate_cq(q: ConjunctiveQuery, instance) -> Set[tuple]:
    """All constant-only answer tuples of q over an instance (a ChaseInstance
    or any iterable of atoms); tuples containing nulls are excluded.  A
    Boolean query stops at its first homomorphism."""
    instance = _as_instance(instance)
    answers: Set[tuple] = set()
    for h in _body_homomorphisms(q.body, instance, {}):
        if not q.head_args:
            return {()}
        t = tuple(h.get(arg, arg) for arg in q.head_args)
        if all(term.kind == CONST for term in t):
            answers.add(t)
    return answers


def evaluate_ucq(queries: Iterable[ConjunctiveQuery], instance) -> Set[tuple]:
    """The union of the disjuncts' answers; once a Boolean disjunct has
    answered, the remaining Boolean disjuncts are skipped."""
    instance = _as_instance(instance)
    out: Set[tuple] = set()
    for q in queries:
        if not q.head_args and () in out:
            continue
        out |= evaluate_cq(q, instance)
    return out


def certain_answers(q: ConjunctiveQuery, db: Iterable[Atom], rules: Iterable,
                    depth_budget: int = 500) -> Tuple[Set[tuple], bool]:
    """Evaluate q over the bounded chase.  The flag reports whether the chase
    reached a fixpoint (answers exact) or was truncated (answers a sound
    under-approximation of the certain answers)."""
    instance = chase_up_to(db, rules, depth_budget)
    return evaluate_cq(q, instance), instance.saturated


# ---------------------------------------------------------------------------
# Constraint check queries.


def fd_check_queries(fds: Iterable[FunctionalDependency],
                     arities: dict) -> List[ConjunctiveQuery]:
    """For each FD r: A -> B, Boolean queries joining two r-atoms that agree
    on A and differ (via the auxiliary neq predicate) on one attribute of B.
    A nonempty answer over the database extended with neq signals a violation."""
    out = []
    for fd in fds:
        arity = arities[fd.pred]
        left = [Term(VAR, f"X{i}") for i in range(1, arity + 1)]
        right = [Term(VAR, f"X{i}") if i in fd.lhs else Term(VAR, f"Y{i}")
                 for i in range(1, arity + 1)]
        for j in fd.rhs:
            if j in fd.lhs:
                continue
            body = [Atom(fd.pred, tuple(left)), Atom(fd.pred, tuple(right)),
                    Atom(NEQ_PRED, (left[j - 1], right[j - 1]))]
            out.append(ConjunctiveQuery("violation", (), tuple(body)))
    return out


def nc_check_queries(ncs: Iterable[NegativeConstraint]) -> List[ConjunctiveQuery]:
    """One Boolean query per negative constraint; a nonempty answer after
    rewriting and evaluation signals inconsistency."""
    return [ConjunctiveQuery("violation", (), nc.body) for nc in ncs]


def materialize_neq(db: Iterable[Atom]) -> List[Atom]:
    """neq facts over the active domain: one per ordered pair of distinct
    constants.  Used only inside the oracle; SQL emission uses <> natively."""
    domain = sorted({t for a in db for t in a.args if t.kind == CONST})
    return [Atom(NEQ_PRED, (a, b)) for a in domain for b in domain if a != b]


def fd_violations(fds: Iterable[FunctionalDependency], db: Iterable[Atom]) -> List[tuple]:
    """Every ordered pair of facts that agree on the FD's left-hand side and
    differ on its right, in database order; facts are grouped by their
    left-hand projection, so only pairs inside a group are compared."""
    by_pred: Dict[str, List[Atom]] = {}
    for a in db:
        by_pred.setdefault(a.pred, []).append(a)
    bad = []
    for fd in fds:
        facts = by_pred.get(fd.pred, ())
        keys = [tuple(a.args[i - 1] for i in fd.lhs) for a in facts]
        groups: Dict[tuple, List[Atom]] = {}
        for a, key in zip(facts, keys):
            groups.setdefault(key, []).append(a)
        for a, key in zip(facts, keys):
            for b in groups[key]:
                if a is not b and any(a.args[j - 1] != b.args[j - 1]
                                      for j in fd.rhs):
                    bad.append((fd, a, b))
    return bad
