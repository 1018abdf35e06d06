"""Correctness checks, computed apart from the rewriter.

Each check returns None when the output is right and a one-line reason
when it is not.  The references are the chase oracle
(`chase.certain_answers`), sqlite3 running the SQL that `emit.to_sql`
prints, a homomorphism test written here rather than taken from the
program, and the disjuncts of the size-law family enumerated directly.
"""

from __future__ import annotations

import sqlite3
from itertools import product
from typing import Dict, Iterable, List, Optional

from ontorewrite import chase, emit

VAR = 1  # ontorewrite.model.VAR; the term kind of a variable

# sqlite3 rejects a compound SELECT of more than 500 terms, and emit.to_sql
# writes one flat UNION, so larger rewritings cannot be run there.
SQLITE_MAX_DISJUNCTS = 500


def first_gap(*gaps: Optional[str]) -> Optional[str]:
    for gap in gaps:
        if gap is not None:
            return gap
    return None


# ---------------------------------------------------------------------------
# Subsumption, by a homomorphism search of the benchmark's own.


def _extend(binding: dict, src, dst) -> Optional[dict]:
    if src.kind != VAR:
        return binding if src == dst else None
    bound = binding.get(src)
    if bound is None:
        out = dict(binding)
        out[src] = dst
        return out
    return binding if bound == dst else None


def _match(binding: Optional[dict], a, b) -> Optional[dict]:
    if binding is None or a.pred != b.pred or len(a.args) != len(b.args):
        return None
    for s, d in zip(a.args, b.args):
        binding = _extend(binding, s, d)
        if binding is None:
            return None
    return binding


def maps_into(q1, q2) -> bool:
    """Whether q1 subsumes q2: some substitution maps q1's head onto q2's
    head and every body atom of q1 onto a body atom of q2."""
    if q1.head_pred != q2.head_pred or len(q1.head_args) != len(q2.head_args):
        return False
    binding: Optional[dict] = {}
    for s, d in zip(q1.head_args, q2.head_args):
        binding = _extend(binding, s, d)
        if binding is None:
            return False
    by_pred: Dict[str, list] = {}
    for b in q2.body:
        by_pred.setdefault(b.pred, []).append(b)

    def search(i: int, binding: dict) -> bool:
        if i == len(q1.body):
            return True
        for b in by_pred.get(q1.body[i].pred, ()):
            nb = _match(binding, q1.body[i], b)
            if nb is not None and search(i + 1, nb):
                return True
        return False

    return search(0, binding)


def equivalence_gap(ucq, reference) -> Optional[str]:
    """Each disjunct of either UCQ is subsumed by some disjunct of the other."""
    for mine, theirs, side in ((ucq, reference, "output"),
                               (reference, ucq, "reference")):
        for q in mine:
            if not any(maps_into(p, q) for p in theirs):
                return f"{side} disjunct {q} is subsumed by no disjunct of the other"
    return None


def minimality_gap(ucq) -> Optional[str]:
    for i, q1 in enumerate(ucq):
        for j, q2 in enumerate(ucq):
            if i != j and maps_into(q1, q2):
                return f"not subsumption-minimal: {q1} subsumes {q2}"
    return None


# ---------------------------------------------------------------------------
# Answers.


def oracle(query, facts, rules, budget: int) -> set:
    """Certain answers from the bounded chase.  The answers at half the
    budget must already be the same, or the budget is not shown to suffice."""
    answers, saturated = chase.certain_answers(query, facts, rules, budget)
    if not saturated:
        half, _ = chase.certain_answers(query, facts, rules, budget // 2)
        if half != answers:
            raise RuntimeError(
                f"chase budget {budget} does not settle the answers of {query}")
    return answers


def answer_gap(answers: set, expected: set, where: str) -> Optional[str]:
    if answers == expected:
        return None
    missing = sorted(expected - answers)[:3]
    extra = sorted(answers - expected)[:3]
    return (f"answers on {where} differ from the oracle: "
            f"{len(expected - answers)} missing {missing}, "
            f"{len(answers - expected)} spurious {extra}")


def ucq_gap(ucq, facts, expected: set, where: str) -> Optional[str]:
    return answer_gap(chase.evaluate_ucq(ucq, facts), expected, where)


class SqliteDatabase:
    """The facts loaded into an in-memory sqlite3 database, one table per
    predicate under emit's identity mapping."""

    def __init__(self, facts: Iterable, arities: Dict[str, int]):
        facts = list(facts)
        arities = dict(arities)
        for a in facts:
            arities.setdefault(a.pred, len(a.args))
        self.mapping = emit.SchemaMapping.identity(arities)
        self.conn = sqlite3.connect(":memory:")
        for pred, (table, columns) in self.mapping.tables.items():
            self.conn.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
        rows: Dict[str, List[tuple]] = {}
        for a in facts:
            rows.setdefault(a.pred, []).append(tuple(t.name for t in a.args))
        for pred, values in rows.items():
            table, columns = self.mapping.tables[pred]
            marks = ", ".join("?" for _ in columns)
            self.conn.executemany(f"INSERT INTO {table} VALUES ({marks})", values)

    def run(self, sql: str, boolean: bool) -> set:
        rows = self.conn.execute(sql).fetchall()
        if boolean:
            return {()} if rows else set()
        return {tuple(r) for r in rows}

    def close(self):
        self.conn.close()


def sqlite_gap(ucq, answers: set, db: SqliteDatabase) -> Optional[str]:
    """The evaluator's answers equal sqlite3's on the emitted SQL.  Skipped
    (None) for rewritings sqlite3 cannot take in one compound SELECT."""
    if not ucq or len(ucq) > SQLITE_MAX_DISJUNCTS:
        return None
    sql = emit.to_sql(ucq, db.mapping)
    got = db.run(sql, boolean=not ucq[0].head_args)
    mine = {tuple(t.name for t in row) for row in answers}
    if got != mine:
        return (f"evaluator and sqlite3 disagree: {len(mine)} against "
                f"{len(got)} answers")
    return None


# ---------------------------------------------------------------------------
# The size-law family p(A1..An) :- p_0(A1), ..., p_0(An), e(B, B) over the
# rules p_i(X) -> p_0(X).


def _family_signature(q) -> Optional[list]:
    """For a disjunct made of unary p_<j> atoms over pairwise distinct
    variables plus one atom e(B, B) with B in no other atom, the list of
    (variable, j); None for any other shape."""
    out, seen, links = [], set(), []
    for a in q.body:
        if a.pred == "e":
            links.append(a)
            continue
        if len(a.args) != 1 or a.args[0].kind != VAR or a.args[0] in seen:
            return None
        if not a.pred.startswith("p_") or not a.pred[2:].isdigit():
            return None
        seen.add(a.args[0])
        out.append((a.args[0], int(a.pred[2:])))
    if len(links) != 1:
        return None
    b = links[0].args
    if len(b) != 2 or b[0] != b[1] or b[0].kind != VAR or b[0] in seen \
            or b[0] in q.head_args:
        return None
    return out


def size_law_gap(ucq, n: int, m: int) -> Optional[str]:
    """Exactly (m+1)^n disjuncts, one per choice of p_j for each head
    variable, enumerated directly."""
    if len(ucq) != (m + 1) ** n:
        return f"{len(ucq)} disjuncts where the size law gives {(m + 1) ** n}"
    got = set()
    for q in ucq:
        sig = _family_signature(q)
        if sig is None or len(sig) != n or {v for v, _ in sig} != set(q.head_args):
            return f"disjunct {q} is not of the size-law shape"
        pred_of = dict(sig)
        got.add(tuple(pred_of[v] for v in q.head_args))
    expected = set(product(range(m + 1), repeat=n))
    if got != expected:
        return f"{len(expected - got)} combinations missing"
    return None


def boolean_gap(ucq, m: int, minimal: bool) -> Optional[str]:
    """The boolean family.  A disjunct is equivalent to the set of its
    predicates, and it answers the query exactly when it holds p_j for a
    single j, so every j needs a disjunct over p_j alone.  With subsumption
    run to the end (`minimal`) there is nothing else."""
    sets = []
    for q in ucq:
        sig = _family_signature(q)
        if sig is None or not sig or q.head_args:
            return f"disjunct {q} is not of the boolean size-law shape"
        sets.append(frozenset(j for _, j in sig))
    if any(not s <= set(range(m + 1)) for s in sets):
        return "a disjunct uses a predicate outside p_0 .. p_m"
    missing = [j for j in range(m + 1) if frozenset({j}) not in sets]
    if missing:
        return f"no disjunct over p_{missing[0]} alone ({len(missing)} missing)"
    if minimal and len(sets) != m + 1:
        return f"{len(sets) - m - 1} disjuncts beyond the m+1 minimal ones"
    return None
