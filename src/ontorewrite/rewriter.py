"""The backward-chaining rewriting loop: applicability, factorizability,
rewriting and factorization steps, dedup modulo renaming, query
provenance, the MGU cache and metrics.

Dedup compares renaming keys (`model.renaming_key`): the head and the sorted
atom keys of a query none of whose non-head variables joins two atoms, the
canonical form of any other query.

Queries are labeled r/f by the step that produced them (the input query is r)
and explored/unexplored; the final rewriting collects the explored r-labeled
queries whose bodies mention no auxiliary normalization predicate.  The loop
prunes nothing: a subsumption mode other than `none` prunes the finished
rewriting once (`subsume.prune_tail_state`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import subsume
from .cache import MGU_CACHE_SIZE, LRUCache
from .eliminate import EliminationContext, reduce_query
from .graphs import affected_positions
from .model import (Atom, ConjunctiveQuery, TGD, Term, VAR, make_query, mgu,
                    renaming_key, subst_atom)
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
    factorized: int = 0
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
    lazily built elimination/affected structures.  Callers may share one
    across threads: the cache and lazy parts are guarded by locks."""

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
        self._lock = threading.Lock()

    def unify(self, atoms: Tuple[Atom, ...], preferred: FrozenSet) -> Optional[dict]:
        key = (frozenset(atoms), preferred)
        hit = self.mgu_cache.get(key, False)
        if hit is not False:
            return hit
        result = mgu(atoms, preferred)
        self.mgu_cache.put(key, result)
        return result

    def elimination(self) -> EliminationContext:
        with self._lock:
            if self._elim is None:
                self._elim = EliminationContext(self.tgds, self.arities)
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
        with self._lock:
            if self._affected is None:
                self._affected = affected_positions(self.tgds)
            return self._affected

    def mentions_aux(self, q: ConjunctiveQuery) -> bool:
        return any(a.pred in self.aux_preds for a in q.body)


# ---------------------------------------------------------------------------
# Applicability and factorizability.


def _existential_free(tgd: TGD, S: Tuple[Atom, ...], shared: Set[Term]) -> bool:
    """`applicable` short of unification: S matches the rule head and carries
    no constant or variable of `shared` (the query's shared variables) at
    the rule's existential position."""
    if not S:
        return False
    head = tgd.head
    if any(a.pred != head.pred or len(a.args) != len(head.args) for a in S):
        return False
    epos = tgd.existential_position()
    if epos is not None:
        for a in S:
            t = a.args[epos - 1]
            if t.kind != VAR or t in shared:
                return False
    return True


def applicable(tgd: TGD, S: Tuple[Atom, ...], q: ConjunctiveQuery) -> bool:
    """The rule can resolve against S: S plus the rule head unifies, and no
    atom of S carries a constant or a shared variable of q at the rule's
    existential position."""
    if not _existential_free(tgd, S, q.shared_variables()):
        return False
    renamed = tgd.rename(0)  # step counter starts at 1, so ^0 never collides
    return mgu(tuple(S) + (renamed.head,)) is not None


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
    apply the mgu of S and the renamed head throughout; None if there is none."""
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
    label: str  # 'r' or 'f'
    explored: bool = False
    pruned: bool = False  # dropped by subsumption after the loop
    parents: Set[int] = field(default_factory=set)


class RewriteState:
    """The labeled query set with its canonical-form index, FIFO of
    unexplored queries, provenance (each entry's parents) and counters."""

    def __init__(self, ctx: RewriterContext):
        self.ctx = ctx
        self.entries: List[QueryEntry] = []
        self.canon_index: Dict[tuple, int] = {}  # renaming key -> node
        self.queue: deque = deque()
        self.metrics = Metrics()
        self.step = 0

    def _new_entry(self, q: ConjunctiveQuery, label: str, canon) -> QueryEntry:
        entry = QueryEntry(len(self.entries), q, label)
        self.entries.append(entry)
        self.canon_index[canon] = entry.node
        self.queue.append(entry.node)
        return entry

    def _add_edge(self, parent: Optional[QueryEntry], child: QueryEntry):
        if parent is not None and parent.node != child.node:
            child.parents.add(parent.node)

    def admit(self, q: ConjunctiveQuery, label: str,
              parent: Optional[QueryEntry]) -> Optional[QueryEntry]:
        canon = renaming_key(q)
        node = self.canon_index.get(canon)
        if node is not None:
            entry = self.entries[node]
            if label == "r" and entry.label == "f":
                entry.label = "r"  # an r-producer reached an f-only query
            self._add_edge(parent, entry)
            return None
        entry = self._new_entry(q, label, canon)
        self._add_edge(parent, entry)
        return entry

    # -- results -------------------------------------------------------------

    def final_entries(self) -> List[QueryEntry]:
        """The entries whose queries the rewriting outputs: explored,
        r-labeled, not pruned, and free of auxiliary predicates."""
        return [e for e in self.entries
                if e.label == "r" and e.explored and not e.pruned
                and not self.ctx.mentions_aux(e.query)]

    def final_queries(self) -> List[ConjunctiveQuery]:
        return [e.query for e in self.final_entries()]


@dataclass
class RewriteResult:
    queries: List[ConjunctiveQuery]
    metrics: Metrics
    state: RewriteState


def _enumerate_factorizable(q: ConjunctiveQuery, tgd: TGD) -> List[tuple]:
    """The sets `factorizable` may accept, smallest first, then by their
    first atom: per variable v, the atoms matching the rule head that hold v
    at its existential position.  No other set can pass, because a
    factorizable set holds v there in every atom and takes in every atom
    that mentions v."""
    epos = tgd.existential_position()
    if epos is None:
        return []
    by_var: Dict[Term, List[Atom]] = {}
    for a in q.body:
        if a.pred == tgd.head.pred and len(a.args) == len(tgd.head.args):
            v = a.args[epos - 1]
            if v.kind == VAR:
                by_var.setdefault(v, []).append(a)
    # the sets are disjoint and by_var keeps first-atom order, so a stable
    # sort by size gives the order of the subsets by size, then by position
    return sorted((tuple(S) for S in by_var.values() if len(S) >= 2), key=len)


def xrewrite(q: ConjunctiveQuery, ctx: RewriterContext,
             options: Optional[RewriteOptions] = None) -> RewriteResult:
    """Exhaustively apply rewriting and factorization steps until fixpoint.

    New queries are deduplicated modulo bijective variable renaming: a
    rewriting-step output against existing r-queries, a factorization output
    against all queries.  With elimination on (default for linear rule sets)
    every admitted query is first reduced through atom coverage.
    """
    options = options or RewriteOptions()
    elim = ctx.elimination_for(options.elimination)

    start = time.perf_counter()
    state = RewriteState(ctx)
    preferred = frozenset(q.variables())

    q0 = reduce_query(q, elim) if elim else q
    state.admit(q0, "r", None)

    while state.queue:
        node = state.queue.popleft()
        entry = state.entries[node]
        cur = entry.query
        body_preds = {a.pred for a in cur.body}
        shared = cur.shared_variables()
        for k, tgd in enumerate(ctx.tgds):
            if tgd.head.pred not in body_preds:
                continue
            # rewriting step (single-atom resolution; factorization below
            # prepares any multi-atom unification that matters)
            for a in cur.body:
                S = (a,)
                if not _existential_free(tgd, S, shared):
                    continue
                out = rewrite_step(cur, S, tgd, state.step + 1, preferred, ctx)
                if out is None:
                    continue
                state.step += 1
                state.metrics.generated += 1
                if elim:
                    out = reduce_query(out, elim)
                if options.budget is not None and state.metrics.generated > options.budget:
                    raise BudgetExhaustedError(
                        f"rewriting exceeded the step budget of {options.budget}")
                state.admit(out, "r", entry)
            # factorization step
            for S in _enumerate_factorizable(cur, tgd):
                if factorizable(S, tgd, cur):
                    out = factorize_step(cur, S, preferred, ctx)
                    state.metrics.factorized += 1
                    if elim:
                        out = reduce_query(out, elim)
                    state.admit(out, "f", entry)
        entry.explored = True
        state.metrics.explored += 1

    if options.subsumption != "none":
        subsume.prune_tail_state(state)

    state.metrics.rewrite_time = time.perf_counter() - start
    return RewriteResult(state.final_queries(), state.metrics, state)
