import json
import os
import random
import subprocess
import sys
import time

import pytest

from ontorewrite.chase import chase_up_to, evaluate_cq, evaluate_ucq
from ontorewrite.cli import main
from ontorewrite.model import Atom, ConjunctiveQuery, const, var
from ontorewrite.parser import parse_ontology

from conftest import (DL_LITE_QUERY, FINANCIAL, FINANCIAL_QUERY, QUERY_POOL,
                      SYMMETRIC_ONTOLOGY, TRIANGLE, copies_query,
                      dl_lite_ontology, random_atom, random_database,
                      random_linear_rules, random_query, random_sticky_rules)

COLLAB = "project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stats_rows(out):
    """The `--stats` rows, key -> value: the output's last paragraph."""
    return dict(ln.split("=", 1)
                for ln in out.rstrip("\n").split("\n\n")[-1].splitlines())


def test_rewrite_financial_stats(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    qf = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--stats"])
    assert code == 0
    assert out.count(":-") == 2
    rows = _stats_rows(out)
    assert (rows["size"], rows["joins"], rows["components"]) == ("2", "2", "2")


def test_rewrite_database_stats_add_the_answer_rows(files, capsys):
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    db = files("d.dlog", "project(a). inArea(a, db). project(b). "
                         "inArea(b, db). project(c).\n")
    base = ["rewrite", "--ontology", onto, "--query", qf, "--stats"]
    code, plain, _ = _run(capsys, base)
    assert code == 0 and "answer" not in plain
    code, out, err = _run(capsys, base + ["--database", db])
    assert code == 0 and err == ""
    answers, pretty, machine = out.split("\n\n")
    assert answers == "(a)\n(b)"
    # the rows without a database, then the answer count and time
    rows = [ln.split()[0] for ln in pretty.splitlines()]
    assert rows == list(_stats_rows(out))
    assert rows == list(_stats_rows(plain)) + ["answers", "answer_ms"]
    assert pretty.splitlines()[-2].split() == ["answers", "2"]
    assert _stats_rows(out)["answers"] == "2"
    assert float(_stats_rows(out)["answer_ms"]) >= 0


def test_rewrite_stats_follow_an_answer_that_holds_equals(files, capsys):
    # the answer 'x=1' reads as no row: the rows are the last paragraph
    onto = files("o.dlog", "r(X) -> s(X).\n")
    qf = files("q.dlog", "q(A) :- s(A).\n")
    db = files("d.dlog", "r('x=1').\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query",
                                   qf, "--database", db, "--stats"])
    assert code == 0 and err == ""
    assert out.startswith("('x=1')\n\n")
    rows = _stats_rows(out)
    assert len(rows) == 12 and "('x" not in rows
    assert rows["answers"] == "1"


def test_rewrite_is_byte_deterministic(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    qf = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    argv = ["rewrite", "--ontology", onto, "--query", qf, "--no-elimination"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count(":-") == 60


def test_rewrite_with_database_prints_answers(files, capsys):
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    db = files("d.dlog", "project(a). inArea(a, db).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 0
    assert out.strip() == "(a)"


def test_rewrite_budget_bounds_the_constraint_checks(files):
    # the check query of the negative constraint rewrites forever under the
    # sticky rule; the query alone answers at once
    onto = files("o.dlog", "p(X), q(Y) -> p(X).\ns(X), p(X) -> !.\n")
    qf = files("q.dlog", "a(A) :- r(A).\n")
    db = files("d.dlog", "r(a). s(b).\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ontorewrite.cli", "rewrite", "--ontology", onto,
         "--query", qf, "--database", db, "--budget", "30"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "budget" in proc.stderr


def test_rewrite_inconsistent_database_exits_one(files, capsys):
    onto = files("o.dlog", "student(X), professor(X) -> !.\nstudent(a).\nprofessor(a).\n")
    qf = files("q.dlog", "p(A) :- student(A).\n")
    db = files("d.dlog", "student(a). professor(a).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 1
    assert "nc violated" in err


def test_rewrite_fd_violation_exits_one(files, capsys):
    onto = files("o.dlog", "fatherOf(a,b).\nfd fatherOf: 2 -> 1.\n")
    qf = files("q.dlog", "p(A) :- fatherOf(A, B).\n")
    db = files("d.dlog", "fatherOf(a, c). fatherOf(b, c).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 1
    # the violating pair once, the earlier fact first
    assert err.splitlines() == ["fd violated: fd fatherOf: 2 -> 1. "
                                "witness fatherOf(a, c), fatherOf(b, c)"]


# Normalizing the two existentials makes two auxiliary predicates, which no
# input can name: a predicate spelled like the old `aux_0_1` is a database one.
CHAIN = "person(X) -> hasParent(X, Y), hasParent(Y, Z).\n"


def test_a_predicate_spelled_like_an_auxiliary_one_stays_in_the_rewriting(
        files, capsys):
    onto = files("o.dlog", CHAIN)
    qf = files("q.dlog", "q(X) :- aux_0_1(X).\n")
    db = files("d.dlog", "aux_0_1(a).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf])
    assert (code, out, err) == (0, "q(X) :- aux_0_1(X).\n", "")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert (code, out, err) == (0, "(a)\n", "")
    code, out, err = _run(capsys, ["eval", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 0 and out.startswith("(a)\n")


def test_a_constraint_over_a_predicate_spelled_like_an_auxiliary_one_is_checked(
        files, capsys):
    onto = files("o.dlog", CHAIN + "aux_0_1(X), bad(X) -> !.\n")
    qf = files("q.dlog", "q(X) :- person(X).\n")
    db = files("d.dlog", "aux_0_1(a). bad(a). person(a).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 1 and out == ""
    assert err.splitlines() == ["nc violated: aux_0_1(X), bad(X) -> !."]


@pytest.mark.parametrize("ontology, query, db, answers", [
    # the rule's Y renamed by the first step is Y^1, the query's variable
    ("p4(Y, Y, X) -> p4(X, Y, Y).\n", "q() :- p4(Y^1, C, C).\n",
     "p4(d, d, c).\n", ["()"]),
    # the first component's B standardized apart is B~0, the query's variable
    ("s(X, Y) -> p0(X, Y).\n", "q(A, B~0) :- p0(A, B), r(B~0).\n",
     "p0(a, b). r(c).\n", ["(a, c)"]),
], ids=["rewriting step", "unfold"])
def test_rewrite_does_not_capture_query_variables_named_like_renamed_ones(
        files, capsys, ontology, query, db, answers):
    onto = files("o.dlog", ontology)
    qf = files("q.dlog", query)
    dbf = files("d.dlog", db)
    printed = {}
    for command in ("rewrite", "eval"):
        code, out, err = _run(capsys, [command, "--ontology", onto, "--query",
                                       qf, "--database", dbf])
        assert code == 0, err
        printed[command] = [line for line in out.splitlines()
                            if not line.startswith("%")]
    assert printed["rewrite"] == printed["eval"] == answers


def test_rewrite_database_arity_mismatch_is_input_error(files, capsys):
    onto = files("o.dlog", "fatherOf(a,b).\nfd fatherOf: 2 -> 1.\n")
    qf = files("q.dlog", "p(A) :- fatherOf(A, B).\n")
    db = files("d.dlog", "fatherOf(a).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 2
    assert "arity 2" in err


@pytest.mark.parametrize("command", ["rewrite", "eval"])
def test_query_arity_mismatch_is_input_error(files, capsys, command):
    onto = files("o.dlog", "r(X) -> s(X).\n")
    qf = files("q.dlog", "p(X) :- r(X, Y).\n")
    db = files("d.dlog", "r(a).\n")
    code, out, err = _run(capsys, [command, "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 2
    assert "query atom r(X, Y)" in err and "arity 1" in err and out == ""


def test_rewrite_fd_check_is_linear_in_the_database(files, capsys):
    onto = files("o.dlog", "fatherOf(a0,b0).\nfd fatherOf: 1 -> 2.\n")
    qf = files("q.dlog", "p(A) :- fatherOf(A, B).\n")
    facts = " ".join(f"fatherOf(a{i}, b{i})." for i in range(2000))
    db = files("d.dlog", facts + "\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--database", db])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert len(out.splitlines()) == 2000
    assert elapsed < 1.0, f"2,000 facts with one FD took {elapsed:.2f}s"


def test_rewrite_budget_exhausted_exits_three(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    qf = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--no-elimination", "--budget", "3"])
    assert code == 3


def test_rewrite_negative_budget_is_input_error(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    steps = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    no_steps = files("q0.dlog", "p(A) :- unknown(A).\n")  # no rule resolves it
    for qf, budget, expected in ((steps, "-1", 2), (steps, "0", 3),
                                 (no_steps, "-1", 2), (no_steps, "0", 0)):
        code, out, err = _run(capsys, ["rewrite", "--ontology", onto,
                                       "--query", qf, "--budget", budget])
        assert code == expected, (qf, budget, err)


def test_rewrite_budget_on_growing_sticky_query_is_fast(files, capsys):
    # the rule is sticky, yet the query grows forever by private q-atoms:
    # p(A), q(Y1), ..., q(Yk); canonical renaming of those ties must not
    # cost k!, so a budget of 30 steps stops in well under a second
    onto = files("o.dlog", "p(X), q(Y) -> p(X).\n")
    qf = files("q.dlog", "a(A) :- p(A).\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--budget", "30"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert elapsed < 1.0, f"budget 30 took {elapsed:.2f}s"


def test_rewrite_sql_output(files, capsys):
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    mapping = files("m.json", json.dumps({
        "project": {"table": "project", "columns": ["p_id"]},
        "inArea": {"table": "inArea", "columns": ["p_id", "area"]},
        "hasCollaborator": {"table": "hasCollaborator",
                            "columns": ["c_id", "area", "p_id"]},
    }))
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--output", "sql", "--mapping", mapping])
    assert code == 0
    assert "UNION" in out and "'db'" in out


def test_rewrite_sql_without_mapping_is_input_error(files, capsys):
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--output", "sql"])
    assert code == 2


def test_rewrite_malformed_mapping_is_input_error(files, capsys):
    # each mapping names the predicate it fails on, or is not an object
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    base = ["rewrite", "--ontology", onto, "--query", qf, "--output", "sql"]
    for data in ([], {"hasCollaborator": "x"},
                 {"hasCollaborator": {"table": "t", "columns": 5}},
                 {"hasCollaborator": {"table": "t"}},
                 {"hasCollaborator": {"table": 3,
                                      "columns": ["c_id", "area", "p_id"]}}):
        mapping = files("m.json", json.dumps(data))
        code, out, err = _run(capsys, base + ["--mapping", mapping])
        assert (code, out) == (2, ""), data
        assert err.startswith("error: "), data
        assert "Traceback" not in err, data
        if data:
            assert "'hasCollaborator'" in err, data


def test_rewrite_database_refuses_datalog_and_sql_output(files, capsys):
    # with --database rewrite prints answers, so an --output other than the
    # default would go unhonoured
    onto = files("o.dlog", COLLAB)
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    db = files("d.dlog", "project(a). inArea(a, db).\n")
    mapping = files("m.json", json.dumps({}))
    base = ["rewrite", "--ontology", onto, "--query", qf, "--database", db]
    for extra in (["--output", "sql"], ["--output", "sql", "--mapping", mapping],
                  ["--output", "datalog"],
                  ["--output", "datalog", "--subsumption", "tail"]):
        code, out, err = _run(capsys, base + extra)
        assert (code, out) == (2, ""), extra
        assert "--database" in err, extra
    code, out, err = _run(capsys, base + ["--output", "ucq"])
    assert (code, out) == (0, "(a)\n")


def test_rewrite_datalog_output(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    qf = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--output", "datalog"])
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("p(A, B, C) :-")


def test_rewrite_datalog_output_honours_idec(files, capsys):
    onto = files("o.dlog", "p2(X,Y) -> p2(Y,X).\np3(a,Z) -> p2(Z,W).\n"
                           "p3(Y,c) -> p3(Y,Y).\np3(X,X) -> p3(W,X).\n")
    qf = files("q.dlog", "q(A) :- p1(d), p3(B,c), p3(c,A).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--subsumption", "idec", "--output", "datalog",
                                   "--stats"])
    assert code == 0
    rules = [ln for ln in out.splitlines() if ":-" in ln]
    assert [ln.split("(")[0] for ln in rules] == \
        ["comp_1", "comp_2", "comp_3", "q"]
    # --stats counts the printed rules: three component rules plus the
    # reconciliation, with their six body atoms
    assert sum(ln.split(":-")[1].count("(") for ln in rules) == 6
    rows = _stats_rows(out)
    assert (rows["size"], rows["atoms"], rows["joins"]) == ("4", "6", "0")


def test_rewrite_datalog_output_refuses_tail(files, capsys):
    # the unpruned program has 3 component rules; the tail UCQ 2 disjuncts
    onto = files("o.dlog", "a(X) -> b(X).\na(X), d(X) -> b(X).\n")
    qf = files("q.dlog", "p(X) :- b(X).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--subsumption", "tail", "--output", "datalog"])
    assert code == 2
    assert "tail" in err and out == ""
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--subsumption", "tail"])
    assert code == 0 and len(out.splitlines()) == 2
    # refused before rewriting, so a rewriting that exhausts its budget
    # still reports the bad combination, not the budget
    onto = files("o.dlog", "p(X), q(Y) -> p(X).\n")
    qf = files("q.dlog", "a(A) :- p(A).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--budget", "30"])
    assert code == 3
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--budget", "30", "--output", "datalog",
                                   "--subsumption", "tail"])
    assert code == 2 and out == ""


def _datalog_answers(text, db):
    """The answers of a printed folded program over the database: each
    component predicate's rules evaluated into facts, then the
    reconciliation rule over the database plus those facts.  That two-layer
    reading is the program's Datalog meaning only if every component
    predicate is fresh, so that is asserted first: no database fact, no
    component rule body and not the answer predicate uses one."""
    *rules, reconciliation = parse_ontology(text).queries
    comp_preds = {r.head_pred for r in rules}
    assert comp_preds == {a.pred for a in reconciliation.body}
    used = {a.pred for r in rules for a in r.body} | {a.pred for a in db}
    assert not comp_preds & (used | {reconciliation.head_pred})
    facts = list(db)
    for pred in sorted(comp_preds):
        component = [r for r in rules if r.head_pred == pred]
        facts += [Atom(pred, t) for t in evaluate_ucq(component, db)]
    return evaluate_cq(reconciliation, facts)


def _assert_datalog_answers_like_the_ucq(files, capsys, ontology, query, db):
    """`--output datalog`, read back and answered, gives the lines
    `--database` prints; returns the number of component predicates and
    those lines."""
    onto = files("o.dlog", ontology)
    qf = files("q.dlog", query)
    dbf = files("d.dlog", "".join(f"{a}.\n" for a in db))
    base = ["rewrite", "--ontology", onto, "--query", qf]
    code, printed, err = _run(capsys, base + ["--output", "datalog"])
    assert code == 0, err
    code, answers, err = _run(capsys, base + ["--database", dbf])
    assert code == 0, err
    folded = _datalog_answers(printed, db)
    assert "".join("(" + ", ".join(map(str, t)) + ")\n"
                   for t in sorted(folded)) == answers, printed
    return len(parse_ontology(printed).queries[-1].body), answers


@pytest.mark.parametrize("query, facts, expected", [
    ("comp_2(X) :- p(X), q(X).\n", "r(a). p(b). q(b). q(c).", "(b)\n"),
    ("ans(X) :- comp_1(X, Y), p(Y).\n", "comp_1(a, b). comp_1(c, d). r(b).",
     "(a)\n"),
], ids=["answer-predicate", "body-predicate"])
def test_datalog_output_keeps_component_predicates_off_the_query(
        files, capsys, query, facts, expected):
    # the query's own predicates look like component predicates; the
    # folded program must not reuse them
    db = parse_ontology(facts).facts
    assert _assert_datalog_answers_like_the_ucq(
        files, capsys, "r(X) -> p(X).\n", query, db) == (2, expected)


def test_datalog_output_answers_like_the_ucq_on_random_suites(files, capsys):
    rng = random.Random(31)
    split = answered = 0
    for _ in range(40):
        for rules in (random_linear_rules(rng),
                      random_sticky_rules(rng, max_rules=4)):
            q = random_query(rng, pool=QUERY_POOL)
            db = random_database(rng, max_facts=12, pool=QUERY_POOL)
            components, answers = _assert_datalog_answers_like_the_ucq(
                files, capsys, "".join(f"{r}\n" for r in rules), f"{q}\n", db)
            split += components > 1
            answered += answers != ""
    # the sample folds programs of several components, and answers
    assert split >= 30 and answered >= 10, (split, answered)


def test_constraint_checks_agree_with_the_chase(files, capsys):
    # `rewrite --database` exits 1 exactly when the saturated chase
    # satisfies the constraint's body; each check is rewritten through the
    # one pipeline
    rng = random.Random(47)
    variables = [var(v) for v in "XYZ"]
    decided = violated = 0
    for i in range(40):
        # every other round without elimination, which the checks honour
        extra = ["--no-elimination"] if i % 2 else []
        for rules in (random_linear_rules(rng),
                      random_sticky_rules(rng, max_rules=4)):
            q = random_query(rng, pool=QUERY_POOL)
            nc = tuple(random_atom(rng, variables, allow_const=0.1)
                       for _ in range(rng.randint(1, 2)))
            db = random_database(rng, max_facts=8, pool=QUERY_POOL)
            instance = chase_up_to(db, rules, 500)
            if not instance.saturated:
                continue
            expected = 1 if evaluate_cq(ConjunctiveQuery("violation", (), nc),
                                        instance) else 0
            onto = files("o.dlog", "".join(f"{r}\n" for r in rules)
                         + ", ".join(map(str, nc)) + " -> !.\n")
            qf = files("q.dlog", f"{q}\n")
            dbf = files("d.dlog", "".join(f"{a}.\n" for a in db))
            code, out, err = _run(capsys, ["rewrite", "--ontology", onto,
                                           "--query", qf, "--database", dbf]
                                  + extra)
            assert code == expected, (rules, nc, db, extra, err)
            assert ("nc violated" in err) == bool(expected)
            decided += 1
            violated += expected
    assert decided >= 60 and 10 <= violated <= decided - 10, (decided, violated)


def test_constraint_checks_compile_with_the_query_options(files, capsys,
                                                          monkeypatch):
    # a check compiled without elimination put this linear ontology on the
    # unpruned loop: 95,483 steps and ~9 s for the one check.  Every
    # compile of the run now reads the one RewriteOptions its flags give.
    from ontorewrite import cli
    calls = []
    compile_query = cli.xrewrite_parallel

    def recording(q, ctx, options):
        result = compile_query(q, ctx, options)
        calls.append((options, result.metrics.generated))
        return result

    monkeypatch.setattr(cli, "xrewrite_parallel", recording)
    onto = files("o.dlog", dl_lite_ontology(22, 200) + "c0(X), c1(X) -> !.\n")
    qf = files("q.dlog", DL_LITE_QUERY + "\n")
    db = files("d.dlog", "c0(a). c1(a).\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto,
                                   "--query", qf, "--database", db])
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (1, "", "nc violated: c0(X), c1(X) -> !.\n")
    assert len(calls) == 2  # the query, then the constraint's check
    (options, _), (check_options, check_steps) = calls
    assert check_options == options
    assert check_steps < 1000, check_steps
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("rules, query, facts", [
    ("p_1(X) -> p_0(X).\np_2(X) -> p_0(X).\n",
     "p() :- p_0(A), p_0(B).\n", "p_1(a).\n"),
    ("r_1(X) -> r_0(X).\nr_2(X) -> r_1(X).\nr_3(X) -> r_2(X).\n",
     "p() :- r_0(A), r_0(B).\n", "r_3(a).\n"),
], ids=["p_0-pair", "r_0-chain"])
def test_rewrite_every_mode_answers_through_subsumed_queries(files, capsys,
                                                             rules, query,
                                                             facts):
    onto = files("o.dlog", rules)
    qf = files("q.dlog", query)
    db = files("d.dlog", facts)
    for mode in ("none", "tail", "idec", "irew"):
        for extra in ([], ["--no-elimination"]):
            code, out, err = _run(capsys, [
                "rewrite", "--ontology", onto, "--query", qf, "--database", db,
                "--subsumption", mode] + extra)
            assert (code, out) == (0, "()\n"), (mode, extra, err)


def test_guarantee_termination_refuses_unclassified(files, capsys):
    onto = files("o.dlog", "r(X,Y), r(Y,Z) -> r(X,Z).\nr(X,Y) -> s(Y,Z).\n")
    qf = files("q.dlog", "p(A) :- s(A, B).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--guarantee-termination"])
    assert code == 2
    assert "termination" in err


def test_classify_sticky_with_marking_table(files, capsys):
    onto = files("o.dlog", """
r(X,Y) -> r(Y,Z).
r(X,Y) -> s(X).
s(X), s(Y) -> p(X,Y).
r(X,Y), r(Z,X) -> s(X).
""")
    code, out, err = _run(capsys, ["classify", "--ontology", onto])
    assert code == 0
    assert "sticky=true" in out and "linear=false" in out
    assert "rule 1: X, Y" in out
    assert "rule 3: -" in out


def test_chase_subcommand(files, capsys):
    onto = files("o.dlog", "p(X,Y,Z) -> s(Y,X).\ns(X,Y) -> p(Y,Z,W).\np(a,b,c).\n")
    code, out, err = _run(capsys, ["chase", "--ontology", onto, "--steps", "1"])
    assert code == 0
    assert "s(b, a)." in out
    assert "saturated=false" in out


@pytest.mark.parametrize("command", ["chase", "eval"])
def test_negative_steps_are_input_errors(files, capsys, command):
    onto = files("o.dlog", COLLAB + "project(a). inArea(a, db).\n")
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    query = ["--query", qf] if command == "eval" else []
    for steps in ("-1", "-5"):
        code, out, err = _run(capsys, [command, "--ontology", onto,
                                       "--steps", steps] + query)
        assert (code, out) == (2, ""), steps
        assert "at least 0" in err
    # no step leaves the rule unapplied, so the chase is not saturated
    code, out, err = _run(capsys, [command, "--ontology", onto,
                                   "--steps", "0"] + query)
    assert code == 0
    assert out.splitlines()[-1] == "% saturated=false"


def test_chase_output_parses_back(files, capsys):
    onto = files("o.dlog", "person(X) -> livesIn(X, Y).\n"
                           "person('Bob'). livesIn(ann, 'New York').\n")
    code, out, err = _run(capsys, ["chase", "--ontology", onto])
    assert code == 0
    facts = parse_ontology(out).facts
    assert [f"{a}." for a in facts] == out.splitlines()[:-1]
    assert len(facts) == 3
    assert Atom("person", (const("Bob"),)) in facts
    assert Atom("livesIn", (const("ann"), const("New York"))) in facts


def test_graph_subcommand(files, capsys):
    onto = files("o.dlog", "p(X,Y) -> r(X,Y,Z).\nr(X,Y,c) -> s(X,Y,Y).\ns(X,X,Y) -> p(X,Y).\n")
    code, out, err = _run(capsys, ["graph", "--ontology", onto])
    assert code == 0
    assert "p[1] -> r[1] : r1" in out
    assert "cover graph:" in out


def test_eval_subcommand(files, capsys):
    onto = files("o.dlog", COLLAB + "project(a). inArea(a, db).\n")
    qf = files("q.dlog", "p(B) :- hasCollaborator(A, db, B).\n")
    code, out, err = _run(capsys, ["eval", "--ontology", onto, "--query", qf])
    assert code == 0
    assert "(a)" in out and "saturated=true" in out


@pytest.mark.parametrize("command", ["rewrite", "eval"])
def test_answers_quote_constants_that_need_it(files, capsys, command):
    # a one-column answer holding a comma must not read as two columns
    onto = files("o.dlog", "person(X) -> named(X).\n")
    qf = files("q.dlog", "p(X) :- named(X).\n")
    db = files("d.dlog", "person('a, b'). person(ann). person('Bob').\n")
    code, out, err = _run(capsys, [command, "--ontology", onto, "--query", qf,
                                   "--database", db])
    assert code == 0
    assert out.splitlines()[:3] == ["('Bob')", "('a, b')", "(ann)"]


@pytest.mark.parametrize("command", ["eval", "chase"])
def test_database_arity_mismatch_is_input_error(files, capsys, command):
    onto = files("o.dlog", "r(X,Y) -> s(a).\n")
    qf = files("q.dlog", "p() :- s(a).\n")
    db = files("d.dlog", "r(a).\n")
    query = ["--query", qf] if command == "eval" else []
    code, out, err = _run(capsys, [command, "--ontology", onto, "--database", db]
                          + query)
    assert code == 2
    assert "arity 2" in err and out == ""


@pytest.mark.parametrize("command", ["rewrite", "eval", "chase"])
def test_database_holds_facts_only(files, capsys, command):
    onto = files("o.dlog", "r(X) -> s(X).\n")
    qf = files("q.dlog", "p(X) :- s(X).\n")
    db = files("d.dlog", "r(a).\ns(X) -> t(X).\nfd r: 1 -> 1.\n"
                         "? q(X) :- r(X).\n")
    query = ["--query", qf] if command != "chase" else []
    code, out, err = _run(capsys, [command, "--ontology", onto, "--database", db]
                          + query)
    assert code == 2 and out == ""
    assert err == f"error: {db}: a database holds facts only, not s(X) -> t(X).\n"


def test_database_names_its_first_non_fact_in_text_order(files, capsys):
    onto = files("o.dlog", "r(X) -> s(X).\n")
    qf = files("q.dlog", "p(X) :- s(X).\n")
    db = files("d.dlog", "r(a).\nfd r: 1 -> 1.\ns(X) -> t(X).\n")
    code, out, err = _run(capsys, ["eval", "--ontology", onto, "--database", db,
                                   "--query", qf])
    assert code == 2 and out == ""
    assert err == f"error: {db}: a database holds facts only, not fd r: 1 -> 1.\n"


def test_rewrite_scales_to_a_thousand_rule_ontology(files, capsys):
    # 1,399 normalized rules: the whole rewrite, parsing, the rule-set
    # analyses it pays (affected positions, the cover graph) and the
    # rewriting itself, stays well under a second
    onto = files("o.dlog", dl_lite_ontology(22, 800))
    qf = files("q.dlog", DL_LITE_QUERY + "\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf])
    elapsed = time.perf_counter() - start
    assert code == 0 and err == "" and out.count(":-") >= 1
    assert elapsed < 1.0, elapsed


def test_rewrite_of_disjoint_triangles_stays_fast(files, capsys):
    # 12 one-atom components over 4 variable-disjoint e-triangles: every
    # one of the 2^12 products is keyed by renaming_key, which walks each
    # triangle on its own (a walk over the whole body took ~15 s in all)
    onto = files("o.dlog", SYMMETRIC_ONTOLOGY)
    qf = files("q.dlog", copies_query(TRIANGLE, 4) + "\n")
    for extra, disjuncts in (([], 35), (["--subsumption", "tail"], 4)):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["rewrite", "--ontology", onto,
                                       "--query", qf] + extra)
        elapsed = time.perf_counter() - start
        assert code == 0 and err == "" and out.count(":-") == disjuncts
        assert elapsed < 5.0, (extra, elapsed)


def test_parse_error_exits_two(files, capsys):
    onto = files("o.dlog", "p(X -> \n")
    qf = files("q.dlog", "p(B) :- r(B).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf])
    assert code == 2
    assert "error" in err
