"""The backward-chaining rewriting loop: applicability, single pieces and
the rewriting step that resolves them, dedup modulo renaming, query
provenance, the MGU cache and metrics.

Dedup compares renaming keys (`model.renaming_key`): the numbered head and
the sorted keys of the body's groups, the atoms that non-head variables
link (`model.group_keys`); for a query none of whose non-head variables
joins two atoms they are its atom keys sorted.

The loop has one step: it resolves a single piece of the query (König,
Leclère, Mugnier and Thomazo, "Sound, complete and minimal UCQ-rewriting
for existential rules", SWJ 2015) against a rule, the atoms that must
unify with the rule head together because they share the variable that
the head's existential takes.  Every step's output is deduplicated
against all queries so far.  The loop runs until its queue is empty, so
every admitted query is explored, and the final rewriting collects the
admitted queries whose bodies mention no auxiliary normalization
predicate.  The loop prunes nothing: a subsumption mode other than `none`
prunes that final rewriting once, through `subsume.prune_ucq`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import subsume
from .cache import MGU_CACHE_SIZE, LRUCache
from .eliminate import EliminationContext, reduce_query
from .graphs import affected_positions
from .model import (Atom, ConjunctiveQuery, TGD, Term, VAR, apart_index,
                    make_query, mgu, renaming_key, subst_atom)
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
    subsumption: str = "none"  # one of SUBSUMPTION_MODES
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


class RewriterContext:
    """Shared state for one ontology: normalized rules, the MGU cache, and
    lazily built elimination/affected structures."""

    def __init__(self, tgds: List[TGD], aux_preds: Iterable[str] = (),
                 arities: Optional[dict] = None):
        self.tgds = list(tgds)
        self.aux_preds = frozenset(aux_preds)
        self.arities = dict(arities or {})
        self.linear = is_linear(self.tgds)
        self.mgu_cache = LRUCache(MGU_CACHE_SIZE)
        # Always empty: deduplication keys through model.renaming_key.  Its
        # only reader is the benchmark tracer's cache.rename_hit_ratio
        # (perfbench/tracing.py); ROADMAP item 1 removes that hold, and then
        # this attribute.
        self.rename_cache = LRUCache(0)
        self._elim: Optional[EliminationContext] = None
        self._affected = None

    def unify(self, atoms: Tuple[Atom, ...], preferred: FrozenSet) -> Optional[dict]:
        key = (frozenset(atoms), preferred)
        hit = self.mgu_cache.get(key, False)
        if hit is not False:
            return hit
        result = mgu(atoms, preferred)
        self.mgu_cache.put(key, result)
        return result

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


def _pieces(q: ConjunctiveQuery, tgd: TGD, occ: dict) -> List[Tuple[Atom, ...]]:
    """The single pieces of q for the rule, in order of their first atom:
    the sets of atoms that one step must resolve together.  Without an
    existential each atom matching the rule head is a piece alone.  With
    one, a piece is every atom holding a variable v at the existential
    position, and only when v occurs nowhere else: not in the head, not in
    another atom, not twice in one atom.  A constant there makes no piece.
    `occ` is `q.occurrences()`."""
    head = tgd.head
    matching = [a for a in q.body
                if a.pred == head.pred and len(a.args) == len(head.args)]
    epos = tgd.existential_position()
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
                 preferred: FrozenSet = frozenset(),
                 ctx: Optional[RewriterContext] = None) -> Optional[ConjunctiveQuery]:
    """Replace S with the body of the rule renamed by the step counter and
    apply the mgu of S and the renamed head throughout; None if there is none.
    The step must rename the rule apart from q (see `model.apart_index`)."""
    renamed = tgd.rename(step)
    atoms = tuple(S) + (renamed.head,)
    gamma = ctx.unify(atoms, preferred) if ctx else mgu(atoms, preferred)
    if gamma is None:
        return None
    removed = set(S)
    new_body = [a for a in q.body if a not in removed]
    new_body.extend(renamed.body)
    return make_query(q.head_pred,
                      (gamma.get(t, t) for t in q.head_args),
                      (subst_atom(gamma, a) for a in new_body))


# Read only by perfbench/tracing.py and the paper-example tests (ROADMAP item 1).
def factorize_step(q: ConjunctiveQuery, S: Tuple[Atom, ...],
                   preferred: FrozenSet = frozenset(),
                   ctx: Optional[RewriterContext] = None) -> ConjunctiveQuery:
    """Apply the most general unifier of S to the whole query."""
    atoms = tuple(S)
    gamma = ctx.unify(atoms, preferred) if ctx else mgu(atoms, preferred)
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
    # Only perfbench/tracing.py reads it; ROADMAP item 1 drops it.
    pruned: bool = False
    parents: Set[int] = field(default_factory=set)


class RewriteState:
    """The admitted queries with their renaming-key index, FIFO of
    unexplored queries, provenance (each entry's parents) and counters."""

    def __init__(self, ctx: RewriterContext):
        self.ctx = ctx
        self.entries: List[QueryEntry] = []
        self.canon_index: Dict[tuple, int] = {}  # renaming key -> node
        self.queue: deque = deque()
        self.metrics = Metrics()

    def _add_edge(self, parent: Optional[QueryEntry], child: QueryEntry):
        if parent is not None and parent.node != child.node:
            child.parents.add(parent.node)

    def admit(self, q: ConjunctiveQuery,
              parent: Optional[QueryEntry]) -> Optional[QueryEntry]:
        canon = renaming_key(q)
        node = self.canon_index.get(canon)
        if node is not None:
            self._add_edge(parent, self.entries[node])
            return None
        entry = QueryEntry(len(self.entries), q)
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
    against all queries so far.  The n-th step that yields a query renames
    its rule apart by n, counted on from the index that `model.apart_index`
    gives for q's variables, so that a variable of q named like `Y^1` is
    never captured.  With elimination on (default for linear rule sets)
    every step's output is first reduced through atom coverage.
    """
    options = options or RewriteOptions()
    elim = ctx.elimination_for(options.elimination)

    start = time.perf_counter()
    state = RewriteState(ctx)
    preferred = frozenset(q.variables())
    first_step = max(1, apart_index(preferred, "^"))

    q0 = reduce_query(q, elim) if elim else q
    state.admit(q0, None)

    while state.queue:
        node = state.queue.popleft()
        entry = state.entries[node]
        cur = entry.query
        body_preds = {a.pred for a in cur.body}
        occ = cur.occurrences()
        for tgd in ctx.tgds:
            if tgd.head.pred not in body_preds:
                continue
            for S in _pieces(cur, tgd, occ):
                out = rewrite_step(cur, S, tgd,
                                   first_step + state.metrics.generated,
                                   preferred, ctx)
                if out is None:
                    continue
                state.metrics.generated += 1
                state.metrics.factorized += len(S) > 1
                if elim:
                    out = reduce_query(out, elim)
                if options.budget is not None and state.metrics.generated > options.budget:
                    raise BudgetExhaustedError(
                        f"rewriting exceeded the step budget of {options.budget}")
                state.admit(out, entry)
        state.metrics.explored += 1

    queries = state.final_queries()
    if options.subsumption != "none":
        queries = subsume.prune_ucq(queries)

    state.metrics.rewrite_time = time.perf_counter() - start
    return RewriteResult(queries, state.metrics, state)
