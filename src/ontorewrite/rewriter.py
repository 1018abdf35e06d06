"""The backward-chaining rewriting loop: applicability, single pieces and
the two paths of the rewriting step that resolves them, dedup modulo
renaming, query provenance and metrics.

Dedup compares renaming keys (`model.renaming_key`): the numbered head and
the sorted keys of the body's groups, the atoms that non-head variables
link (`model.group_keys`); for a query none of whose non-head variables
joins two atoms they are its atom keys sorted.

The loop has one step: it resolves a single piece of the query (König,
Leclère, Mugnier and Thomazo, "Sound, complete and minimal UCQ-rewriting
for existential rules", SWJ 2015) against a rule, the atoms that must
unify with the rule head together because they share the variable that
the head's existential takes.  It visits only the rules whose head
predicate the query's body holds, in rule order.  A one-atom piece against
a head of distinct variables, every step of the paper's financial
rewriting, binds the head directly (`_bind_head`): no renamed copy of the
rule, no `mgu`.  Any other piece takes the general path, `rewrite_step`,
which renames the rule apart and runs `mgu`.

Every step's output is deduplicated against all queries so far, and each
admitted query keeps its renaming key.  With elimination off, a one-atom
step against a head of distinct variables from a query whose body is
private (no non-head variable links two atoms, so each atom is a group of
its own, as `model.private_body_keys` reads off its key) is keyed before
it is built: its key is the parent's stored atom keys, minus the resolved
atom's, plus the keys of the rule body bound to that atom, which depend
only on the rule and the atom's key and are memoized under both
(`_ChildKeys`).  Its query is built only when that key is new, so a
duplicate step costs a key, not a query, and no admitted body is keyed
again.  Every other step is built and then keyed.  The loop runs until its
queue is empty, so every admitted query is explored, and the final
rewriting collects the admitted queries whose bodies mention no auxiliary
normalization predicate.  The loop prunes nothing and reads no
subsumption mode; `parallel` applies the modes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Set, Tuple, Union)

from .eliminate import NO_CACHE, EliminationContext, reduce_query
from .graphs import affected_positions
from .model import (Atom, ConjunctiveQuery, TGD, Term, VAR, apart_index,
                    atom_key, group_keys, head_assignment, key_of_groups,
                    make_query, mgu, private_body_keys, renaming_key,
                    subst_atom)
# Unused here, but the benchmark tracer wraps rewriter.canonical_rename;
# ROADMAP item 1 removes that hold.
from .model import canonical_rename  # noqa: F401
from .normalize import is_linear


class BudgetExhaustedError(RuntimeError):
    pass


SUBSUMPTION_MODES = ("none", "tail", "idec", "irew")


@dataclass
class RewriteOptions:
    elimination: Optional[bool] = None  # None: enabled iff the rule set is linear
    # One of SUBSUMPTION_MODES.  Only the decomposed pipeline
    # (parallel.xrewrite_parallel) reads it; xrewrite ignores it, and a
    # sequential caller prunes its output with subsume.prune_ucq.
    subsumption: str = "none"
    budget: Optional[int] = None

    def __post_init__(self):
        if self.subsumption not in SUBSUMPTION_MODES:
            raise ValueError(f"unknown subsumption mode {self.subsumption!r}; "
                             f"expected one of {', '.join(SUBSUMPTION_MODES)}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"the step budget must be at least 0, "
                             f"not {self.budget}")


@dataclass
class Metrics:
    explored: int = 0
    generated: int = 0
    factorized: int = 0  # steps that resolved a piece of two or more atoms
    rewrite_time: float = 0.0
    split_time: float = 0.0
    unfold_time: float = 0.0
    components: int = 1

    def merge(self, other: "Metrics"):
        self.explored += other.explored
        self.generated += other.generated
        self.factorized += other.factorized


class _RuleFacts(NamedTuple):
    """What the loop reads of a rule on every step, computed once."""
    epos: Optional[int]  # the existential position, 1-based
    plain_head: bool  # the head's arguments are distinct variables
    body_only: Tuple[Term, ...]  # the body variables outside the head

    @staticmethod
    def of(tgd: TGD) -> "_RuleFacts":
        args = tgd.head.args
        head = set(args)
        plain = len(head) == len(args) and all(t.kind == VAR for t in args)
        return _RuleFacts(tgd.existential_position(), plain,
                          tuple(tgd.body_variables() - head))


class RewriterContext:
    """Shared state for one ontology: normalized rules and lazily built
    structures: each rule's `_RuleFacts` and the rules by head predicate,
    which every rewriting reads, and the elimination/affected structures."""

    def __init__(self, tgds: List[TGD], aux_preds: Iterable[str] = (),
                 arities: Optional[dict] = None):
        self.tgds = list(tgds)
        self.aux_preds = frozenset(aux_preds)
        self.arities = dict(arities or {})
        self.linear = is_linear(self.tgds)
        # No step unifies through a memo, and deduplication keys through
        # model.renaming_key.  ROADMAP item 1 deletes these (see NO_CACHE).
        self.mgu_cache = self.rename_cache = NO_CACHE
        self._elim: Optional[EliminationContext] = None
        self._affected = None

    def elimination(self) -> EliminationContext:
        if self._elim is None:
            self._elim = EliminationContext(self.tgds)
        return self._elim

    def elimination_for(self, option: Optional[bool]) -> Optional[EliminationContext]:
        """The elimination context a rewriting with the `elimination` option
        `option` reduces through, or None when it does not eliminate.  None
        enables elimination iff the rule set is linear."""
        if option is None:
            option = self.linear
        if not option:
            return None
        if not self.linear:
            raise ValueError("query elimination requires a linear rule set")
        return self.elimination()

    def affected(self):
        if self._affected is None:
            self._affected = affected_positions(self.tgds)
        return self._affected

    def mentions_aux(self, q: ConjunctiveQuery) -> bool:
        return any(a.pred in self.aux_preds for a in q.body)

    @cached_property
    def rule_facts(self) -> List[_RuleFacts]:
        return [_RuleFacts.of(t) for t in self.tgds]

    @cached_property
    def rules_by_head(self) -> Dict[str, List[int]]:
        by_head: Dict[str, List[int]] = {}
        for k, tgd in enumerate(self.tgds):
            by_head.setdefault(tgd.head.pred, []).append(k)
        return by_head

    def rules_for(self, preds: Iterable[str]) -> List[int]:
        """The numbers of the rules whose head predicate is in `preds`, in
        rule order."""
        return sorted(k for p in preds for k in self.rules_by_head.get(p, ()))


# ---------------------------------------------------------------------------
# Applicability, single pieces and the rewriting step.


def applicable(tgd: TGD, S: Tuple[Atom, ...], q: ConjunctiveQuery) -> bool:
    """The rule can resolve against S: S plus the rule head unifies, and no
    atom of S carries a constant or a shared variable of q at the rule's
    existential position."""
    head = tgd.head
    if not S or any(a.pred != head.pred or len(a.args) != len(head.args)
                    for a in S):
        return False
    epos = tgd.existential_position()
    if epos is not None:
        shared = q.shared_variables()
        if any(a.args[epos - 1].kind != VAR or a.args[epos - 1] in shared
               for a in S):
            return False
    renamed = tgd.rename(apart_index(q.variables(), "^"))
    return mgu(tuple(S) + (renamed.head,)) is not None


def _pieces(q: ConjunctiveQuery, tgd: TGD, epos: Optional[int],
            occ: dict) -> List[Tuple[Atom, ...]]:
    """The single pieces of q for the rule, in order of their first atom:
    the sets of atoms that one step must resolve together.  Without an
    existential each atom matching the rule head is a piece alone.  With
    one, a piece is every atom holding a variable v at the existential
    position, and only when v occurs nowhere else: not in the head, not in
    another atom, not twice in one atom.  A constant there makes no piece.
    `epos` is the rule's existential position and `occ` is
    `q.occurrences()`."""
    head = tgd.head
    matching = [a for a in q.body
                if a.pred == head.pred and len(a.args) == len(head.args)]
    if epos is None:
        return [(a,) for a in matching]
    by_var: Dict[Term, List[Atom]] = {}
    for a in matching:
        v = a.args[epos - 1]
        if v.kind == VAR:
            by_var.setdefault(v, []).append(a)
    # the holders account for len(S) occurrences of v; any more lie elsewhere
    return [tuple(S) for v, S in by_var.items() if occ[v] == len(S)]


# Read only by perfbench/tracing.py and the paper-example tests (ROADMAP item 1).
def factorizable(S: Tuple[Atom, ...], tgd: TGD, q: ConjunctiveQuery) -> bool:
    """S unifies, the rule has an existential position, and some variable
    outside the rest of the body occurs in every atom of S exactly there."""
    if len(S) < 2:
        return False
    epos = tgd.existential_position()
    if epos is None:
        return False
    if any(a.pred != tgd.head.pred or len(a.args) != len(tgd.head.args) for a in S):
        return False
    v = S[0].args[epos - 1]
    if v.kind != VAR:
        return False
    for a in S:
        if a.args[epos - 1] != v:
            return False
        if any(t == v for i, t in enumerate(a.args, start=1) if i != epos):
            return False
    for a in q.body:
        if a not in S and v in a.args:
            return False
    return mgu(S) is not None


def rewrite_step(q: ConjunctiveQuery, S: Tuple[Atom, ...], tgd: TGD, step: int,
                 preferred: FrozenSet = frozenset()) -> Optional[ConjunctiveQuery]:
    """Replace S with the body of the rule renamed by the step counter and
    apply the mgu of S and the renamed head throughout; None if there is none.
    The step must rename the rule apart from q (see `model.apart_index`)."""
    renamed = tgd.rename(step)
    gamma = mgu(tuple(S) + (renamed.head,), preferred)
    if gamma is None:
        return None
    removed = set(S)
    new_body = [a for a in q.body if a not in removed]
    new_body.extend(renamed.body)
    return make_query(q.head_pred,
                      (gamma.get(t, t) for t in q.head_args),
                      (subst_atom(gamma, a) for a in new_body))


def _bind_head(q: ConjunctiveQuery, a: Atom, tgd: TGD, step: int,
               preferred: FrozenSet,
               body_only: Tuple[Term, ...]) -> ConjunctiveQuery:
    """`rewrite_step(q, (a,), tgd, step, preferred)` for a rule whose head's
    arguments are distinct variables, without renaming the rule or running
    `mgu`: the rest of q, then the rule body as `_bound_body` binds it.  The
    rest and the head change only where they hold a variable of a that the
    binding renames.  `body_only` is the rule's body variables outside its
    head."""
    rename, bound = _bound_body(a, tgd, step, preferred, body_only)
    head_args, rest = q.head_args, [b for b in q.body if b != a]
    if rename:
        if not rename.keys().isdisjoint(head_args):
            head_args = [rename.get(t, t) for t in head_args]
        rest = [b if rename.keys().isdisjoint(b.args) else subst_atom(rename, b)
                for b in rest]
    return make_query(q.head_pred, head_args, chain(rest, bound))


def _bound_body(a: Atom, tgd: TGD, step: int, preferred: FrozenSet,
                body_only: Tuple[Term, ...]) -> Tuple[Dict[Term, Term], list]:
    """The rule body bound to a as the unifier of a and the renamed head
    binds it, and the renaming of a's variables that the unifier makes: each
    head variable binds to a's term at its position and each body-only
    variable V becomes V^step.  The unifier's class of a variable t of a
    holds t and the head variables H at t's positions; `mgu` represents it
    by t when t is preferred, else by the least name among t and the H^step,
    so t is renamed to an H^step that sorts before it (`X^12` before `X^5`),
    in the rest of the query too."""
    rename: Dict[Term, Term] = {}
    for h, t in zip(tgd.head.args, a.args):
        if t.kind == VAR and t not in preferred:
            name = f"{h.name}^{step}"
            if name < rename.get(t, t).name:
                rename[t] = Term(VAR, name)
    sub = {v: Term(VAR, f"{v.name}^{step}") for v in body_only}
    sub.update((h, rename.get(t, t)) for h, t in zip(tgd.head.args, a.args))
    return rename, [subst_atom(sub, b) for b in tgd.body]


class _ChildKeys:
    """The renaming keys of one rewriting's one-atom steps against heads of
    distinct variables from parents whose body is private, derived from the
    parent's stored key without building the children.  The head's
    variables are among the loop's preferred ones, so the binding renames
    only variables of the resolved atom outside the head, which occur in no
    other atom, and bijectively: the head and the rest of the body keep
    their keys.  The bound rule body's unnamed variables are the atom's and
    the rule's fresh ones, so its groups link to no atom of the rest and
    keep the keys they have on their own (`model.group_keys`).  Those keys
    depend only on the rule and the atom's key, and are memoized under
    both."""

    def __init__(self, ctx: RewriterContext, preferred: FrozenSet):
        self.ctx = ctx
        self.preferred = preferred
        # (rule number, atom key) -> the bound rule body's group keys, split
        # into those of atoms free of unnamed variables and the others
        self.bound: Dict[tuple, Tuple[list, list]] = {}

    def of(self, entry: "QueryEntry") -> Optional[Callable]:
        """The function of (atom, rule number, step) that gives the renaming
        key of the query `_bind_head` makes of entry's query, the atom and
        the rule at that step; None when that query's body is not
        private."""
        body = private_body_keys(entry.key)
        if body is None:
            return None
        q = entry.query
        assignment, head = head_assignment(q)
        return partial(self.key, q.head_pred, head, assignment, body)

    def key(self, head_pred: str, head: tuple, assignment: Dict[Term, int],
            body: tuple, a: Atom, k: int, step: int) -> tuple:
        """The parent's atom keys `body` minus a's, plus the bound body's.
        Of the bound atoms free of unnamed variables the child drops those
        the rest of the body holds."""
        resolved = atom_key(a, assignment)
        bound = self.bound.get((k, resolved))
        if bound is None:
            bound = self.bound[k, resolved] = self._bound_keys(
                a, k, step, assignment)
        rest = list(body)
        rest.remove(resolved)
        named, other = bound
        return key_of_groups(head_pred, head, rest + [
            key for key in named if key not in rest] + other)

    def _bound_keys(self, a: Atom, k: int, step: int,
                    assignment: Dict[Term, int]) -> Tuple[list, list]:
        bound = list(dict.fromkeys(_bound_body(
            a, self.ctx.tgds[k], step, self.preferred,
            self.ctx.rule_facts[k].body_only)[1]))
        named: list = []
        other: list = []
        for b, key in zip(bound, group_keys(bound, assignment)):
            free = all(t.kind != VAR or t in assignment for t in b.args)
            (named if free else other).append(key)
        return named, other


# Read only by perfbench/tracing.py and the paper-example tests (ROADMAP item 1).
def factorize_step(q: ConjunctiveQuery, S: Tuple[Atom, ...],
                   preferred: FrozenSet = frozenset()) -> ConjunctiveQuery:
    """Apply the most general unifier of S to the whole query."""
    gamma = mgu(S, preferred)
    if gamma is None:
        raise ValueError("factorize_step requires a unifiable atom set")
    return make_query(q.head_pred,
                      (gamma.get(t, t) for t in q.head_args),
                      (subst_atom(gamma, a) for a in q.body))


# ---------------------------------------------------------------------------
# The rewriting loop.


@dataclass
class QueryEntry:
    node: int
    query: ConjunctiveQuery
    key: tuple  # the query's renaming key, as `canon_index` holds it
    # Only perfbench/tracing.py reads it; ROADMAP item 1 drops it.
    pruned: bool = False
    parents: Set[int] = field(default_factory=set)


class RewriteState:
    """The admitted queries with their renaming-key index, FIFO of
    unexplored queries, provenance (each entry's parents) and counters.
    Every step goes through `admit`, duplicates too, with its query or,
    when the loop derived its key, with that key and a function that
    builds the query."""

    def __init__(self, ctx: RewriterContext):
        self.ctx = ctx
        self.entries: List[QueryEntry] = []
        self.canon_index: Dict[tuple, int] = {}  # renaming key -> node
        self.queue: deque = deque()
        self.metrics = Metrics()

    def _add_edge(self, parent: Optional[QueryEntry], child: QueryEntry):
        if parent is not None and parent.node != child.node:
            child.parents.add(parent.node)

    def admit(self, q: Union[ConjunctiveQuery, Callable[[], ConjunctiveQuery]],
              parent: Optional[QueryEntry],
              key: Optional[tuple] = None) -> Optional[QueryEntry]:
        """Admit q unless a renaming of it was admitted before, and record
        parent as a parent of the admitted query; the new entry, or None.
        `key` is q's renaming key, computed from q when not given, and the
        new entry keeps it; with it, q may be a function of no arguments
        that builds the query, called only when the key is new."""
        canon = renaming_key(q) if key is None else key
        node = self.canon_index.get(canon)
        if node is not None:
            self._add_edge(parent, self.entries[node])
            return None
        if callable(q):
            q = q()
        entry = QueryEntry(len(self.entries), q, canon)
        self.entries.append(entry)
        self.canon_index[canon] = entry.node
        self.queue.append(entry.node)
        self._add_edge(parent, entry)
        return entry

    # -- results -------------------------------------------------------------

    def final_entries(self) -> List[QueryEntry]:
        """The entries whose queries the unpruned rewriting outputs: those
        free of auxiliary predicates."""
        return [e for e in self.entries if not self.ctx.mentions_aux(e.query)]

    def final_queries(self) -> List[ConjunctiveQuery]:
        return [e.query for e in self.final_entries()]


@dataclass
class RewriteResult:
    queries: List[ConjunctiveQuery]
    metrics: Metrics
    state: RewriteState


def xrewrite(q: ConjunctiveQuery, ctx: RewriterContext,
             options: Optional[RewriteOptions] = None) -> RewriteResult:
    """Resolve single pieces against the rules until fixpoint.

    Every step's output is deduplicated modulo bijective variable renaming
    against all queries so far; a step whose renaming key the loop derives
    from its parent's (see the module docstring) builds its query only when
    that key is new, and otherwise only records the parent.  Either way the
    step counts in `generated` and against the budget.  The n-th step that
    yields a query renames its rule apart by n, counted on from the index
    that `model.apart_index` gives for q's variables, so that a variable of
    q named like `Y^1` is never captured.  With elimination on (default for
    linear rule sets) every step's output is first reduced through atom
    coverage.  The result is unpruned under every subsumption mode.
    """
    options = options or RewriteOptions()
    elim = ctx.elimination_for(options.elimination)

    start = time.perf_counter()
    state = RewriteState(ctx)
    preferred = frozenset(q.variables())
    first_step = max(1, apart_index(preferred, "^"))

    q0 = reduce_query(q, elim) if elim else q
    state.admit(q0, None)
    child_keys = _ChildKeys(ctx, preferred)

    while state.queue:
        node = state.queue.popleft()
        entry = state.entries[node]
        cur = entry.query
        occ = cur.occurrences()
        keyer = None if elim else child_keys.of(entry)
        for k in ctx.rules_for({a.pred for a in cur.body}):
            tgd, facts = ctx.tgds[k], ctx.rule_facts[k]
            for S in _pieces(cur, tgd, facts.epos, occ):
                step = first_step + state.metrics.generated
                key = None
                if len(S) == 1 and facts.plain_head:
                    if keyer is None:
                        out = _bind_head(cur, S[0], tgd, step, preferred,
                                         facts.body_only)
                    else:
                        key = keyer(S[0], k, step)
                        out = partial(_bind_head, cur, S[0], tgd, step,
                                      preferred, facts.body_only)
                else:
                    out = rewrite_step(cur, S, tgd, step, preferred)
                if out is None:
                    continue
                state.metrics.generated += 1
                state.metrics.factorized += len(S) > 1
                if elim:
                    out = reduce_query(out, elim)
                if options.budget is not None and state.metrics.generated > options.budget:
                    raise BudgetExhaustedError(
                        f"rewriting exceeded the step budget of {options.budget}")
                state.admit(out, entry, key)
        state.metrics.explored += 1

    state.metrics.rewrite_time = time.perf_counter() - start
    return RewriteResult(state.final_queries(), state.metrics, state)
