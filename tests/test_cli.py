import json
import os
import subprocess
import sys
import time

import pytest

from ontorewrite.cli import main
from ontorewrite.model import Atom, const
from ontorewrite.parser import parse_ontology

from conftest import FINANCIAL, FINANCIAL_QUERY

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


def test_rewrite_financial_stats(files, capsys):
    onto = files("fin.dlog", FINANCIAL)
    qf = files("q.dlog", f"? {FINANCIAL_QUERY}\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf,
                                   "--stats"])
    assert code == 0
    assert out.count(":-") == 2
    assert "size=2" in out and "joins=2" in out and "components=2" in out


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
    assert "fd violated" in err


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
    stats = [ln for ln in out.splitlines() if "=" in ln]
    assert stats[:3] == ["size=4", "atoms=6", "joins=0"]


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
    for extra in (["--subsumption", "tail"], ["--no-parallel"]):
        code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query",
                                       qf, "--budget", "30", "--output",
                                       "datalog"] + extra)
        assert code == 2 and out == "", extra


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
        for extra in ([], ["--no-parallel"], ["--no-elimination"],
                      ["--no-parallel", "--no-elimination"]):
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


def test_parse_error_exits_two(files, capsys):
    onto = files("o.dlog", "p(X -> \n")
    qf = files("q.dlog", "p(B) :- r(B).\n")
    code, out, err = _run(capsys, ["rewrite", "--ontology", onto, "--query", qf])
    assert code == 2
    assert "error" in err
