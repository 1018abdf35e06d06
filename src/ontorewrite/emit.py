"""Serialization of rewritings as UCQ text, folded non-recursive Datalog, or
ANSI SQL, plus the size/atoms/joins metrics report."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .model import CONST, ConjunctiveQuery, Term, VAR


class SchemaMapping:
    """Predicate-to-table binding: table name plus ordered column names."""

    def __init__(self, tables: Dict[str, Tuple[str, List[str]]]):
        self.tables = tables

    @classmethod
    def from_dict(cls, data: dict) -> "SchemaMapping":
        """From a JSON object of objects, each with a string `table` and a
        list of string `columns`; ValueError naming the entry otherwise."""
        if not isinstance(data, dict):
            raise ValueError("a schema mapping must be a JSON object")
        tables = {}
        for pred, entry in data.items():
            entry = entry if isinstance(entry, dict) else {}
            table, columns = entry.get("table"), entry.get("columns")
            if not (isinstance(table, str) and isinstance(columns, list)
                    and all(isinstance(c, str) for c in columns)):
                raise ValueError(f"mapping for {pred!r} needs a string table "
                                 "and a list of string columns")
            tables[pred] = (table, list(columns))
        return cls(tables)

    @classmethod
    def identity(cls, arities: Dict[str, int]) -> "SchemaMapping":
        return cls({p: (p, [f"c{i}" for i in range(1, n + 1)])
                    for p, n in arities.items()})

    def check(self, queries: Iterable[ConjunctiveQuery]):
        for q in queries:
            for a in q.body:
                if a.pred not in self.tables:
                    raise ValueError(f"predicate {a.pred!r} has no table mapping")
                if len(self.tables[a.pred][1]) != len(a.args):
                    raise ValueError(
                        f"mapping for {a.pred!r} has {len(self.tables[a.pred][1])} "
                        f"columns but the predicate has arity {len(a.args)}")


def _sql_literal(t: Term) -> str:
    return "'" + t.name.replace("'", "''") + "'"


def _cq_to_select(q: ConjunctiveQuery, mapping: SchemaMapping) -> str:
    from_parts = [f"{mapping.tables[a.pred][0]} t{i}"
                  for i, a in enumerate(q.body, start=1)]

    anchor: Dict[Term, str] = {}
    conditions: List[str] = []
    for i, a in enumerate(q.body, start=1):
        _, columns = mapping.tables[a.pred]
        for col, term in zip(columns, a.args):
            ref = f"t{i}.{col}"
            if term.kind == CONST:
                conditions.append(f"{ref} = {_sql_literal(term)}")
            elif term in anchor:
                conditions.append(f"{ref} = {anchor[term]}")
            else:
                anchor[term] = ref

    if q.head_args:
        select_parts = []
        for t in q.head_args:
            if t.kind == CONST:
                select_parts.append(_sql_literal(t))
            else:
                select_parts.append(anchor[t])
        select = "SELECT " + ", ".join(select_parts)
    else:
        select = "SELECT 1"
    sql = f"{select} FROM {', '.join(from_parts)}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql


# Most SELECTs in one flat UNION: sqlite3 rejects a compound of more than 500.
SQL_UNION_CHUNK = 500


def to_sql(queries: List[ConjunctiveQuery], mapping: SchemaMapping) -> str:
    """One SELECT block per disjunct joined by UNION; tables aliased t1, t2,
    ... in body order, WHERE equating columns that share a variable and
    pinning constants; past SQL_UNION_CHUNK blocks, the UNION of chunks that
    size, each wrapped as SELECT * FROM (...) AS u1, u2, ....  A zero-ary
    head emits the existence form SELECT 1 ... LIMIT 1 over the whole union."""
    if not queries:
        raise ValueError("empty rewriting")
    mapping.check(queries)
    selects = [_cq_to_select(q, mapping) for q in queries]
    chunks = ["\nUNION\n".join(selects[i:i + SQL_UNION_CHUNK])
              for i in range(0, len(selects), SQL_UNION_CHUNK)]
    sql = chunks[0] if len(chunks) == 1 else "\nUNION\n".join(
        f"SELECT * FROM (\n{c}\n) AS u{i}" for i, c in enumerate(chunks, 1))
    if not queries[0].head_args:
        sql += "\nLIMIT 1"
    return sql


def serialize_ucq(queries: List[ConjunctiveQuery]) -> str:
    return "\n".join(map(str, queries)) + "\n"


def to_datalog(component_rewritings: List[List[ConjunctiveQuery]],
               reconciliation: ConjunctiveQuery) -> str:
    """The folded program: every component disjunct as a rule over its
    component predicate, then the reconciliation rule."""
    return serialize_ucq([q for ucq in component_rewritings for q in ucq]
                         + [reconciliation])


# ---------------------------------------------------------------------------
# Metrics.


def count_atoms(queries: Iterable[ConjunctiveQuery]) -> int:
    return sum(len(q.body) for q in queries)


def count_joins(q: ConjunctiveQuery) -> int:
    """Join conditions a disjunct executes: a variable with n body
    occurrences contributes C(n, 2) column equalities."""
    occ: Dict[Term, int] = {}
    for a in q.body:
        for t in a.args:
            if t.kind == VAR:
                occ[t] = occ.get(t, 0) + 1
    return sum(n * (n - 1) // 2 for n in occ.values())


def count_joins_total(queries: Iterable[ConjunctiveQuery]) -> int:
    return sum(count_joins(q) for q in queries)


def stats_report(queries: List[ConjunctiveQuery], metrics,
                 answered: Optional[Tuple[int, float]] = None) -> str:
    """Size, atom and join counts of the given queries or rules, then the
    run's counters and timers, then, given `answered` (the number of
    answers and the seconds their evaluation took), the `answers` and
    `answer_ms` rows; pretty and as key=value lines."""
    rows = [
        ("size", len(queries)),
        ("atoms", count_atoms(queries)),
        ("joins", count_joins_total(queries)),
        ("core_removed", metrics.core_removed),
        ("explored", metrics.explored),
        ("generated", metrics.generated),
        ("factorized", metrics.factorized),
        ("components", metrics.components),
        ("split_ms", round(metrics.split_time * 1000, 3)),
        ("rewrite_ms", round(metrics.rewrite_time * 1000, 3)),
        ("unfold_ms", round(metrics.unfold_time * 1000, 3)),
    ]
    if answered is not None:
        count, seconds = answered
        rows += [("answers", count), ("answer_ms", round(seconds * 1000, 3))]
    width = max(len(k) for k, _ in rows)
    pretty = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
    machine = "\n".join(f"{k}={v}" for k, v in rows)
    return pretty + "\n\n" + machine
