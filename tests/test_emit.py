import random
import sqlite3

import pytest

import ontorewrite as ow
from ontorewrite.chase import evaluate_ucq
from ontorewrite.emit import (SchemaMapping, count_atoms, count_joins,
                              serialize_ucq, stats_report, to_datalog, to_sql)
from ontorewrite.model import atom, make_query, var
from ontorewrite.parser import parse_ontology, parse_query

from conftest import pipeline, query

A, B, C = var("A"), var("B"), var("C")

COLLAB_MAPPING = SchemaMapping({
    "project": ("project", ["p_id"]),
    "inArea": ("inArea", ["p_id", "area"]),
    "hasCollaborator": ("hasCollaborator", ["c_id", "area", "p_id"]),
})


def _collab_rewriting():
    doc, tgds, ctx = pipeline("project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).")
    q = query("p(B) :- hasCollaborator(A, db, B).", doc)
    return ow.xrewrite(q, ctx).queries


def test_sql_structure_matches_reference_union():
    sql = to_sql(_collab_rewriting(), COLLAB_MAPPING)
    branches = sql.split("\nUNION\n")
    assert len(branches) == 2
    first, second = branches
    assert "FROM hasCollaborator t1" in first
    assert "t1.area = 'db'" in first
    assert "FROM project t1, inArea t2" in second
    assert "t2.area = 'db'" in second
    assert "t2.p_id = t1.p_id" in second
    assert first.startswith("SELECT t1.p_id")
    assert second.startswith("SELECT t1.p_id")


def test_sql_boolean_single_block():
    q = make_query("p", [], [atom("project", A)])
    sql = to_sql([q], COLLAB_MAPPING)
    assert sql == "SELECT 1 FROM project t1\nLIMIT 1"


def test_sql_repeated_variable_self_equality():
    q = make_query("p", [A], [atom("hasCollaborator", A, B, A)])
    sql = to_sql([q], COLLAB_MAPPING)
    assert "t1.p_id = t1.c_id" in sql


def test_sql_unmapped_predicate_rejected():
    q = make_query("p", [A], [atom("unknown", A)])
    with pytest.raises(ValueError):
        to_sql([q], COLLAB_MAPPING)


def _run_sql(sql, tables, rows):
    con = sqlite3.connect(":memory:")
    for name, cols in tables.items():
        con.execute(f"CREATE TABLE {name}({', '.join(cols)})")
    for name, tuples in rows.items():
        for t in tuples:
            marks = ", ".join("?" for _ in t)
            con.execute(f"INSERT INTO {name} VALUES ({marks})", t)
    return set(con.execute(sql).fetchall())


def test_sql_evaluates_like_cq_evaluator():
    queries = _collab_rewriting()
    sql = to_sql(queries, COLLAB_MAPPING)
    got = _run_sql(sql,
                   {"project": ["p_id"], "inArea": ["p_id", "area"],
                    "hasCollaborator": ["c_id", "area", "p_id"]},
                   {"project": [("a",)], "inArea": [("a", "db")],
                    "hasCollaborator": [("z", "db", "b")]})
    assert got == {("a",), ("b",)}


def test_sql_agreement_on_random_instances():
    from conftest import (PRED_POOL, random_database, random_linear_rules,
                          random_query, rules_context)
    rng = random.Random(77)
    arities = dict(PRED_POOL)
    mapping = SchemaMapping.identity(arities)
    tables = {p: [f"c{i}" for i in range(1, n + 1)] for p, n in arities.items()}
    for _ in range(20):
        rules = random_linear_rules(rng, max_rules=4)
        ctx = rules_context(rules)
        q = random_query(rng)
        res = ow.xrewrite(q, ctx, ow.RewriteOptions(elimination=False))
        db = random_database(rng)
        rows = {}
        for f in db:
            rows.setdefault(f.pred, []).append(tuple(t.name for t in f.args))
        sql = to_sql(res.queries, mapping)
        got = _run_sql(sql, tables, rows)
        want = {tuple(t.name for t in ans)
                for ans in evaluate_ucq(res.queries, db)}
        if not q.head_args:
            got = {r for r in got}
            want = {(1,)} if want else set()
        assert got == want, (rules, q, db, sql)


def test_sql_size_law_beyond_sqlite_compound_limit():
    # 1,024 disjuncts: more than the 500 terms sqlite3 takes in one compound
    m, n = 3, 5
    doc, tgds, ctx = pipeline("\n".join(f"p_{i}(X) -> p_0(X)."
                                        for i in range(1, m + 1)))
    head = ", ".join(f"A{j}" for j in range(1, n + 1))
    body = ", ".join(f"p_0(A{j})" for j in range(1, n + 1))
    preds = [f"p_{i}" for i in range(m + 1)]
    mapping = SchemaMapping.identity({p: 1 for p in preds})
    db = parse_ontology("p_0(k4). p_1(k1). p_1(k5). p_2(k2). p_3(k3).").facts
    rows = {}
    for f in db:
        rows.setdefault(f.pred, []).append((f.args[0].name,))
    ground = ", ".join(f"p_0(k{j})" for j in range(1, n + 1))
    for text in (f"p({head}) :- {body}.", f"p() :- {ground}."):
        q = query(text, doc)
        queries = ow.xrewrite_parallel(q, ctx).queries
        assert len(queries) == (m + 1) ** n
        sql = to_sql(queries, mapping)
        assert sql.endswith("\nLIMIT 1") == (not q.head_args)
        got = _run_sql(sql, {p: ["c1"] for p in preds}, rows)
        want = {tuple(t.name for t in ans) for ans in evaluate_ucq(queries, db)}
        if not q.head_args:
            want = {(1,)} if want else set()
        assert got == want and got


def test_count_joins_examples():
    single = make_query("p", [A], [atom("project", A)])
    assert count_joins(single) == 0
    doc = parse_ontology("r(a,b).")
    chain = parse_query("p(A) :- r(A,B), r(B,C).", dict(doc.arities))
    assert count_joins(chain) == 1
    triple = parse_query("p() :- r(A,B), r(A,C), r(A,D).", dict(doc.arities))
    assert count_joins(triple) == 3  # A occurs three times: C(3,2)


def test_stats_report_shapes():
    queries = _collab_rewriting()
    metrics = ow.Metrics(explored=2, generated=1)
    report = stats_report(queries, metrics)
    assert "size" in report and "joins" in report
    assert "size=2" in report
    assert f"atoms={count_atoms(queries)}" in report


def test_to_datalog_folds_components(financial):
    doc, tgds, ctx, q = financial
    par = ow.xrewrite_parallel(q, ctx, ow.RewriteOptions(elimination=True))
    text = to_datalog(par.component_ucqs, par.decomposition.reconciliation)
    lines = [ln for ln in text.strip().splitlines()]
    assert lines[-1].startswith("p(A, B, C) :- ")
    assert all(":-" in ln for ln in lines)
    # folded size: component rules plus the reconciliation rule
    assert len(lines) == sum(len(u) for u in par.component_ucqs) + 1


def test_serialize_ucq_round_trips():
    queries = _collab_rewriting()
    text = serialize_ucq(queries)
    parsed = [parse_query(line) for line in text.strip().splitlines()]
    assert parsed == queries
