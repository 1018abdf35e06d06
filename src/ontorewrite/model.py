"""Core symbolic algebra: terms, atoms, conjunctive queries, rules,
substitutions, unification, homomorphism search, canonical renaming and
the renaming keys that deduplication compares.  The str of a term, atom,
query or rule is its text in the format that `parser` reads back.

Terms, atoms, queries and rules are immutable and may be shared freely,
also between threads.  The one mutable structure is AtomIndex, the hashed
atom set that `homomorphisms`, the only homomorphism search, matches bodies
against; query subsumption, the chase and answer evaluation all use it.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

# Term kinds.  Constants and nulls share a total order in which every null
# follows every constant; (kind, name) tuple comparison realises it.
CONST = 0
VAR = 1
NULL = 2

_KIND_NAMES = {CONST: "constant", VAR: "variable", NULL: "null"}

# A constant the parser reads back unquoted; any other is written quoted.
_PLAIN_CONST = re.compile(r"[a-z0-9_][A-Za-z0-9_^~]*$")


class Term(NamedTuple):
    kind: int
    name: str

    def __repr__(self):
        return f"{_KIND_NAMES[self.kind][0]}:{self.name}"

    def __str__(self):
        if self.kind == CONST and not _PLAIN_CONST.match(self.name):
            escaped = self.name.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return self.name


def const(name: str) -> Term:
    return Term(CONST, name)


def var(name: str) -> Term:
    return Term(VAR, name)


def null(name: str) -> Term:
    return Term(NULL, name)


class Atom(NamedTuple):
    pred: str
    args: tuple

    def terms(self) -> set:
        return set(self.args)

    def variables(self) -> set:
        return {t for t in self.args if t.kind == VAR}

    def __str__(self):
        return f"{self.pred}({', '.join(map(str, self.args))})"


def atom(pred: str, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


class ConjunctiveQuery(NamedTuple):
    """A CQ seen as a rule head_pred(head_args) :- body.

    The body is duplicate-free and order-preserving (set semantics with a
    deterministic iteration order).  Head arguments are usually variables
    but may become constants through unification steps.
    """

    head_pred: str
    head_args: tuple
    body: tuple

    def variables(self) -> set:
        vs = {t for t in self.head_args if t.kind == VAR}
        for a in self.body:
            vs.update(t for t in a.args if t.kind == VAR)
        return vs

    def terms(self) -> set:
        ts = set(self.head_args)
        for a in self.body:
            ts.update(a.args)
        return ts

    def occurrences(self) -> dict:
        """Number of occurrences of each term across head and body."""
        occ: dict = {}
        for t in self.head_args:
            occ[t] = occ.get(t, 0) + 1
        for a in self.body:
            for t in a.args:
                occ[t] = occ.get(t, 0) + 1
        return occ

    def shared_variables(self) -> set:
        """Variables occurring more than once in the query (head included).

        Distinguished variables are always shared: they occur in the head
        and, by safety, in the body.
        """
        return {t for t, n in self.occurrences().items() if t.kind == VAR and n >= 2}

    def is_safe(self) -> bool:
        body_vars = set()
        for a in self.body:
            body_vars.update(a.variables())
        return all(t.kind != VAR or t in body_vars for t in self.head_args)

    def __str__(self):
        head = Atom(self.head_pred, self.head_args)
        return f"{head} :- {', '.join(map(str, self.body))}."


def make_query(head_pred: str, head_args: Iterable[Term], body: Iterable[Atom]) -> ConjunctiveQuery:
    """Build a CQ, de-duplicating body atoms while preserving first positions."""
    seen = dict.fromkeys(body)
    return ConjunctiveQuery(head_pred, tuple(head_args), tuple(seen))


def connected_components(atoms: Iterable[Atom], linked=None,
                         links=None) -> List[Tuple[Atom, ...]]:
    """The groups of atoms joined by chains of shared terms for which
    `linked(term)` holds, each in the atoms' order, in order of their first
    atom.  `links(atom)`, when given, yields an atom's linked terms in place
    of filtering its arguments by `linked`, so a caller may read them from a
    memo.  One sweep over the linked terms, with union-find over atom
    positions in which every group's root is its first atom."""
    atoms = tuple(atoms)
    parent = list(range(len(atoms)))
    holder: Dict[Term, int] = {}  # linked term -> the first atom holding it

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(atoms):
        for t in filter(linked, a.args) if links is None else links(a):
            j = holder.setdefault(t, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    # an atom's parent precedes it, so in position order the parent already
    # points at the root
    groups: Dict[int, List[Atom]] = {}
    for i, a in enumerate(atoms):
        root = parent[i] = parent[parent[i]]
        if root == i:
            groups[i] = [a]
        else:
            groups[root].append(a)
    return [tuple(g) for g in groups.values()]


class TGD(NamedTuple):
    """A tuple-generating dependency in normal form: a conjunctive body and a
    single head atom in which each existential variable occurs once.
    """

    body: tuple
    head: Atom

    def body_variables(self) -> set:
        vs = set()
        for a in self.body:
            vs.update(t for t in a.args if t.kind == VAR)
        return vs

    def existential_positions(self) -> Tuple[int, ...]:
        """The 1-based argument indexes of the existential variables."""
        body_vars = self.body_variables()
        return tuple(i for i, t in enumerate(self.head.args, start=1)
                     if t.kind == VAR and t not in body_vars)

    def rename(self, step: int) -> "TGD":
        """The rule with every variable X replaced by X^step."""
        sub = {v: Term(VAR, f"{v.name}^{step}") for v in self.variables()}
        return TGD(tuple(subst_atom(sub, a) for a in self.body), subst_atom(sub, self.head))

    def variables(self) -> set:
        vs = self.body_variables()
        vs.update(t for t in self.head.args if t.kind == VAR)
        return vs

    def __str__(self):
        return f"{', '.join(map(str, self.body))} -> {self.head}."


def apart_index(variables: Iterable[Term], mark: str) -> int:
    """The least n such that no variable is named `<name><mark><i>` for any
    name and any i >= n: one more than the largest number that ends a
    variable's name after a `mark`, 0 when none does.  So appending `mark`
    and such an i to the names of other variables, as `TGD.rename` does with
    `^`, renames them apart from `variables`."""
    top = -1
    for v in variables:
        _, found, tail = v.name.rpartition(mark)
        if found and tail.isascii() and tail.isdigit():
            top = max(top, int(tail))
    return top + 1


# ---------------------------------------------------------------------------
# Substitutions.
#
# A substitution is a plain dict mapping terms to terms.  Constants map to
# themselves implicitly; the empty dict is the identity.


def subst_atom(sub: dict, a: Atom) -> Atom:
    return Atom(a.pred, tuple(sub.get(t, t) for t in a.args))


def subst_atoms(sub: dict, atoms: Iterable[Atom]) -> tuple:
    seen = dict.fromkeys(subst_atom(sub, a) for a in atoms)
    return tuple(seen)


def subst_query(sub: dict, q: ConjunctiveQuery) -> ConjunctiveQuery:
    return make_query(q.head_pred, (sub.get(t, t) for t in q.head_args), (subst_atom(sub, a) for a in q.body))


# ---------------------------------------------------------------------------
# Unification.
#
# There are no function symbols, so unification is positional matching with
# union-find over terms.  Representatives are chosen with rank preferring
# constants, then variables from `preferred`, then the smallest remaining
# variable; the result is idempotent and, whenever possible, maps preferred
# variables to preferred variables or constants.


def mgu(atoms: Iterable[Atom], preferred: frozenset = frozenset()) -> Optional[dict]:
    atoms = list(atoms)
    if len(atoms) < 2:
        return {}
    first = atoms[0]
    for a in atoms[1:]:
        if a.pred != first.pred or len(a.args) != len(first.args):
            return None

    parent: dict = {}

    def find(t):
        root = t
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(t, t) != t:
            parent[t], t = root, parent[t]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        if ra.kind != VAR and rb.kind != VAR:
            return False  # two distinct constants/nulls clash
        if ra.kind != VAR:
            parent[rb] = ra
        else:
            parent[ra] = rb
        return True

    for a in atoms[1:]:
        for t1, t2 in zip(first.args, a.args):
            if not union(t1, t2):
                return None

    # Group classes and pick representatives.
    classes: dict = {}
    for a in atoms:
        for t in a.args:
            classes.setdefault(find(t), []).append(t)

    def rank(t):
        if t.kind != VAR:
            return (0, t)
        if t in preferred:
            return (1, t)
        return (2, t)

    out = {}
    for members in classes.values():
        rep = min(set(members), key=rank)
        for t in set(members):
            if t != rep:
                out[t] = rep
    return out


# ---------------------------------------------------------------------------
# Homomorphisms.
#
# One search serves query subsumption, the chase and answer evaluation: a
# body is matched against an AtomIndex by a join planned once per body, each
# step fetching its candidates from a hash index on its bound positions, so a
# join costs time linear in the atoms it reaches, not in the product of the
# relations it joins.


class AtomIndex:
    """A duplicate-free list of atoms in insertion order, grouped by
    predicate, with hash indexes keyed by (predicate, bound argument
    positions).  An index maps the values at its positions to the atoms
    holding them, in insertion order; it is built on first lookup and kept
    current by add."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.atoms: List[Atom] = []
        self.atom_set: Set[Atom] = set()
        self.by_pred: Dict[str, List[Atom]] = {}
        self.indexes: Dict[str, Dict[Tuple[int, ...], Dict[tuple, List[Atom]]]] = {}
        for a in atoms:
            self.add(a)

    def add(self, a: Atom) -> bool:
        if a in self.atom_set:
            return False
        self.atom_set.add(a)
        self.atoms.append(a)
        self.by_pred.setdefault(a.pred, []).append(a)
        for positions, index in self.indexes.get(a.pred, {}).items():
            _index_atom(index, positions, a)
        return True

    def lookup(self, pred: str, positions: Tuple[int, ...], key: tuple) -> List[Atom]:
        """The atoms of pred holding key at positions, in insertion order."""
        by_positions = self.indexes.setdefault(pred, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for a in self.by_pred.get(pred, ()):
                _index_atom(index, positions, a)
        return index.get(key, [])

    def __contains__(self, a: Atom) -> bool:
        return a in self.atom_set


def _index_atom(index: dict, positions: Tuple[int, ...], a: Atom) -> None:
    # an atom too short for the positions matches no atom that uses them
    if len(a.args) > positions[-1]:
        index.setdefault(tuple(a.args[i] for i in positions), []).append(a)


def as_index(atoms) -> AtomIndex:
    """atoms itself if it is an AtomIndex, else a new index holding them."""
    return atoms if isinstance(atoms, AtomIndex) else AtomIndex(atoms)


def _match(binding: dict, pattern: Atom, target: Atom) -> Optional[dict]:
    """binding extended so that it maps pattern onto target, or None; the
    binding itself when it needs no extension."""
    if pattern.pred != target.pred or len(pattern.args) != len(target.args):
        return None
    out = binding
    copied = False
    for p, t in zip(pattern.args, target.args):
        if p.kind == VAR:
            bound = out.get(p)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p] = t
            elif bound != t:
                return None
        elif p != t:
            return None
    return out


def _plan(atoms: list, bound, index: AtomIndex) -> Optional[list]:
    """The join order of atoms given the variables bound before it: greedily
    the atom with the fewest unbound variable occurrences, then the one with
    the fewest candidates, the first on ties.  Each step is (atom, the
    positions bound when it is reached, the terms at those positions).
    None when some atom has no candidates, so that the join is empty."""
    sizes = [len(index.by_pred.get(a.pred, ())) for a in atoms]
    if 0 in sizes:
        return None
    bound = set(bound)
    # cost = unbound occurrences * weight + candidates, so that min compares
    # the pair (unbound occurrences, candidates) and keeps the first on ties
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


def homomorphisms(body: Iterable[Atom], index: AtomIndex, binding: dict,
                  anchor: Optional[Tuple[int, Atom]] = None):
    """All extensions of `binding` mapping the body into the index, constants
    fixed; when an anchor (atom position, target atom) is given, that body
    atom maps onto the target.

    The join order is planned once (see _plan).  A step whose atom has bound
    positions fetches only the atoms holding the bound values there from the
    index; a step with none scans the predicate's atoms.  Every candidate is
    still checked by _match."""
    atoms = list(body)
    if anchor is not None:
        idx, target = anchor
        start = _match(binding, atoms[idx], target)
        if start is None:
            return
        atoms = atoms[:idx] + atoms[idx + 1:]
        binding = start
    steps = _plan(atoms, binding, index)
    if steps is None:
        return
    last = len(steps)
    by_pred = index.by_pred

    def rec(i, bound):
        if i == last:
            yield bound
            return
        a, positions, terms = steps[i]
        if positions:
            candidates = index.lookup(a.pred, positions,
                                      tuple([bound.get(t, t) for t in terms]))
        else:
            candidates = by_pred[a.pred]
        for target in candidates:
            nb = _match(bound, a, target)
            if nb is not None:
                yield from rec(i + 1, nb)

    yield from rec(0, binding)


def find_homomorphism(src: Iterable[Atom], dst: Union[Iterable[Atom], AtomIndex],
                      fixed_head=None) -> Optional[dict]:
    """A substitution h with h(src) being a subset of dst (atoms or an
    AtomIndex of them), constants fixed: the first that `homomorphisms`
    finds.

    `fixed_head` is an optional pair of atoms (h1, h2) constraining
    h(h1) = h2."""
    binding = {} if fixed_head is None else _match({}, *fixed_head)
    if binding is None:
        return None
    return next(homomorphisms(src, as_index(dst), binding), None)


def core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of q: the smallest subquery of q that q maps onto with its
    head fixed, equivalent to q (Chandra and Merlin, STOC 1977).  Its body
    is a sub-tuple of q's, in q's order; q itself when q is a core.

    One pass over the body drops each atom `a` for which a homomorphism
    fixing the head maps the body into the body minus `a`, and shrinks the
    body to that homomorphism's image.  An atom kept stays kept: were the
    smaller body, a retract of the larger one, to map into itself minus
    `a`, so would the larger one.  Only an atom that some other atom of
    the body accepts under the head's fixed variables can go, so a body in
    which no atom passes that test costs no search."""
    if len({a.pred for a in q.body}) == len(q.body):
        return q  # no two atoms share a predicate, so no atom passes
    head = Atom(q.head_pred, q.head_args)
    fixed = _match({}, head, head)
    body = q.body
    for a in q.body:
        if a not in body or not any(
                b != a and _match(fixed, a, b) is not None for b in body):
            continue
        h = find_homomorphism(body, [b for b in body if b != a],
                              fixed_head=(head, head))
        if h is not None:
            image = set(subst_atoms(h, body))
            body = tuple([b for b in body if b in image])
    if body is q.body:
        return q
    return ConjunctiveQuery(q.head_pred, q.head_args, body)


def atom_maps_onto(a: Atom, b: Atom) -> Optional[dict]:
    """A substitution h with h(a) = b (single-atom, positional)."""
    return _match({}, a, b)


def atom_matches_injectively(a: Atom, b: Atom) -> Optional[dict]:
    """A substitution h with h(a) = b mapping distinct variables of a to
    distinct terms of b (a one-to-one matching)."""
    h = _match({}, a, b)
    if h is None or len(set(h.values())) != len(h):
        return None
    return h


# ---------------------------------------------------------------------------
# Canonical renaming and renaming keys.
#
# Variables are mapped one-to-one onto #1, #2, ... (head variables first,
# in head order) in first-use order along the canonical order, so that
# queries equal modulo bijective renaming and body permutation yield
# identical forms.  The canonical order is the body's groups, the atoms
# that unnamed variables link, sorted by key, ties in body order, each in
# its own order; tied groups are renamings of each other that share no
# unnamed variable, so their order leaves the form as it is.  One path,
# `_ordered_groups`, groups every body: a lone atom is keyed by its atom
# key, with no walk.  A larger group's order places, step by step, the
# atom of smallest key, branching only on ties; of tied atoms whose
# unnamed variables occur in no other remaining atom, which are
# interchangeable, only the first is tried, so p(X), q(X, Y1), ...,
# q(X, Yk) costs O(k^2) key comparisons, not k!.  Other ties, as in a
# cycle over one binary predicate, still branch.


def atom_key(a: Atom, assignment: dict) -> tuple:
    """The sort key of a if placed next: its predicate and, per argument,
    (0, term) for a term that is not a variable, (1, canonical index) for a
    named variable and (2, rank) for an unnamed one, its rank among the
    atom's unnamed variables in arg order.  Atoms keyed at the same step
    would number their unnamed variables from the same index, so ranks
    compare as those indices would; and a key changes only when one of the
    atom's variables is named."""
    key = [a.pred]
    own: dict = {}
    for t in a.args:
        if t.kind != VAR:
            key.append((0, t))
        elif t in assignment:
            key.append((1, assignment[t]))
        else:
            key.append((2, own.setdefault(t, len(own))))
    return tuple(key)


def _canonical_order(body, assignment):
    """The positions of one group's atoms in the order of smallest key
    sequence, the first such in group order on ties, and that sequence.
    `assignment` names the head variables #1, #2, ... and stays unchanged."""
    occurs: Dict[Term, List[int]] = {}  # unnamed variable -> atoms holding it
    for i, a in enumerate(body):
        for t in a.args:
            if t.kind == VAR and t not in assignment:
                holders = occurs.setdefault(t, [])
                if not holders or holders[-1] != i:
                    holders.append(i)
    # per atom, its unnamed variables that some other atom holds too, built
    # on the first tie; an atom's variables are all named once it is placed,
    # so a remaining atom shares no unnamed variable with the other
    # remaining atoms exactly when all of these are named
    linked = None

    def place(i, remaining, assign, idx, keys):
        """Place atom i: drop it from remaining, name its unnamed variables
        from idx on in arg order and re-key the atoms that hold them.
        Returns the next free index."""
        remaining.remove(i)
        touched = set()
        for t in body[i].args:
            if t.kind == VAR and t not in assign:
                assign[t] = idx
                idx += 1
                touched.update(occurs[t])
        touched.discard(i)
        for j in touched:
            keys[j] = atom_key(body[j], assign)
        return idx

    def candidates(tied, assign):
        """The tied atoms worth trying: of those sharing no unnamed variable
        with another remaining atom only the first, since the others'
        tails equal its tail."""
        nonlocal linked
        if linked is None:
            linked = [[t for t in dict.fromkeys(a.args)
                       if t.kind == VAR and len(occurs.get(t, ())) > 1]
                      for a in body]
        kept = []
        seen_private = False
        for i in tied:
            if not linked[i] or all(t in assign for t in linked[i]):
                if seen_private:
                    continue
                seen_private = True
            kept.append(i)
        return kept

    def walk(remaining, assign, idx, keys):
        """Place the remaining atoms (positions in body) in the order of
        smallest key sequence, naming their variables from idx on; returns
        the positions in that order and their keys.  Takes over remaining,
        assign and keys, the state at entry."""
        order = []
        form = []
        while remaining:
            best = min([keys[i] for i in remaining])
            tied = [i for i in remaining if keys[i] == best]
            if len(tied) > 1:
                tied = candidates(tied, assign)
            form.append(best)
            if len(tied) > 1:
                best_tail = None
                for i in tied:
                    sub_remaining, sub_assign = list(remaining), dict(assign)
                    sub_keys = list(keys)
                    sub_idx = place(i, sub_remaining, sub_assign, idx, sub_keys)
                    tail = walk(sub_remaining, sub_assign, sub_idx, sub_keys)
                    if best_tail is None or tail[1] < best_tail[1]:
                        best_tail = ([i] + tail[0], tail[1])
                order.extend(best_tail[0])
                form.extend(best_tail[1])
                return order, form
            order.append(tied[0])
            idx = place(tied[0], remaining, assign, idx, keys)
        return order, form

    keys = [atom_key(a, assignment) for a in body]
    return walk(list(range(len(body))), dict(assignment), len(assignment) + 1,
                keys)


def head_assignment(q: ConjunctiveQuery):
    """The head variables named #1, #2, ... in head order, and the head
    with each variable replaced by its index."""
    assignment: dict = {}
    head = tuple([assignment.setdefault(t, len(assignment) + 1)
                  if t.kind == VAR else t for t in q.head_args])
    return assignment, head


# The tag of a group mark, above the argument tags 0, 1 and 2 of atom keys.
_GROUP = 3


def _ordered_groups(body, assignment: dict) -> list:
    """Per group of body (`connected_components`), in order of first atom,
    its key and its atoms in its own order.  A lone atom is keyed by
    `atom_key`, with no walk; a larger group by its key sequence
    (`_canonical_order`) under the mark `("", (_GROUP, form))`, equal to no
    atom key."""
    groups = []
    for group in connected_components(
            body, lambda t: t.kind == VAR and t not in assignment):
        if len(group) == 1:
            groups.append((atom_key(group[0], assignment), group))
        else:
            order, form = _canonical_order(group, assignment)
            groups.append((("", (_GROUP, tuple(form))),
                           [group[i] for i in order]))
    return groups


def private_body_keys(key: tuple) -> Optional[tuple]:
    """The body's atom keys, sorted, read off the renaming key `key` of a
    query whose body is private (every group a lone atom); None when one of
    its group keys is a group mark."""
    body = key[2]
    if any(len(k) == 2 and k[1][0] == _GROUP for k in body):
        return None
    return body


def canonical_rename(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The canonical form of q: constants map to themselves, variables onto
    #1, #2, ... so that renamings and body permutations coincide."""
    sub = {t: var(f"#{i}") for t, i in head_assignment(q)[0].items()}
    body = ordered_body(q)
    for t in (t for a in body for t in a.args if t.kind == VAR):
        if t not in sub:
            sub[t] = var(f"#{len(sub) + 1}")
    return ConjunctiveQuery(q.head_pred, tuple(sub.get(t, t) for t in q.head_args),
                            tuple(subst_atom(sub, a) for a in body))


def ordered_body(q: ConjunctiveQuery) -> list:
    """Body atoms of q in canonical order (original atoms): its groups
    sorted by key, ties in body order, each in its own order."""
    groups = _ordered_groups(q.body, head_assignment(q)[0])
    groups.sort(key=lambda group: group[0])
    return [a for _, atoms in groups for a in atoms]


def group_keys(body, assignment: dict) -> list:
    """Per atom of body, the key of its group.  A renaming that fixes the
    named variables maps groups onto groups, so the sorted group keys of two
    duplicate-free bodies are equal exactly when the bodies are renamings of
    each other; a body of parts that share no unnamed variable has its
    parts' group keys, each computed on its own."""
    key_of = {}
    for key, atoms in _ordered_groups(body, assignment):
        key_of.update(dict.fromkeys(atoms, key))
    return [key_of[a] for a in body]


def renaming_key(q: ConjunctiveQuery) -> tuple:
    """A hashable key equal for two queries exactly when they are renamings
    of each other: the head predicate, the head with its variables numbered
    and the body's group keys under that numbering, sorted."""
    assignment, head = head_assignment(q)
    return key_of_groups(q.head_pred, head, group_keys(q.body, assignment))


def key_of_groups(head_pred: str, head: tuple, keys: Iterable) -> tuple:
    """The renaming key of the query with head predicate `head_pred`, the
    head `head` as `head_assignment` numbers it, and a body whose group keys
    are `keys`, one per atom, in any order."""
    return (head_pred, head, tuple(sorted(keys)))
