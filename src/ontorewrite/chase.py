"""Bounded oblivious chase, CQ evaluation over instances, the certain-answer
oracle, and the check queries derived from functional dependencies and
negative constraints."""

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

    def add(self, a: Atom) -> bool:
        if a in self.atom_set:
            return False
        self.atom_set.add(a)
        self.atoms.append(a)
        self.by_pred.setdefault(a.pred, []).append(a)
        return True

    def fresh_null(self) -> Term:
        self.null_counter += 1
        return Term(NULL, f"z{self.null_counter:06d}")

    def __contains__(self, a: Atom) -> bool:
        return a in self.atom_set

    def __len__(self) -> int:
        return len(self.atoms)


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


def _body_homomorphisms(body: tuple, instance: ChaseInstance, binding: dict,
                        anchor: Optional[Tuple[int, Atom]] = None):
    """All extensions of `binding` mapping the body into the instance; when
    an anchor (atom index, fact) is given, that body atom maps to the fact."""
    atoms = list(body)
    if anchor is not None:
        idx, fact = anchor
        start = _match(binding, atoms[idx], fact)
        if start is None:
            return
        atoms = atoms[:idx] + atoms[idx + 1:]
        binding = start

    def rec(remaining, bound):
        if not remaining:
            yield bound
            return

        def cost(a):
            unbound = sum(1 for t in a.args if t.kind == VAR and t not in bound)
            return (unbound, len(instance.by_pred.get(a.pred, ())))

        a = min(remaining, key=cost)
        rest = [x for x in remaining if x is not a]
        for fact in instance.by_pred.get(a.pred, ()):
            nb = _match(bound, a, fact)
            if nb is not None:
                yield from rec(rest, nb)

    yield from rec(atoms, binding)


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
    or any iterable of atoms); tuples containing nulls are excluded."""
    if not isinstance(instance, ChaseInstance):
        inst = ChaseInstance()
        for a in instance:
            inst.add(a)
        instance = inst
    answers: Set[tuple] = set()
    for h in _body_homomorphisms(q.body, instance, {}):
        t = tuple(h.get(arg, arg) for arg in q.head_args)
        if all(term.kind == CONST for term in t):
            answers.add(t)
    return answers


def evaluate_ucq(queries: Iterable[ConjunctiveQuery], instance) -> Set[tuple]:
    if not isinstance(instance, ChaseInstance):
        inst = ChaseInstance()
        for a in instance:
            inst.add(a)
        instance = inst
    out: Set[tuple] = set()
    for q in queries:
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
