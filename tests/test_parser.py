import random
import re
from pathlib import Path

import pytest

from ontorewrite.model import Atom, const, make_query, var
from ontorewrite.parser import (FunctionalDependency, ParseError,
                                parse_ontology, parse_query)

README = Path(__file__).resolve().parent.parent / "README.md"


def serialize_ontology(doc):
    """The document as text that parses back: every statement's str is its
    text in the format."""
    lines = [str(s) for s in (*doc.tgds, *doc.ncs, *doc.fds)]
    lines += [f"{fact}." for fact in doc.facts]
    lines += [f"? {q}" for q in doc.queries]
    return "\n".join(lines) + "\n"


def test_parse_tgd_with_existential():
    doc = parse_ontology("project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X).")
    assert len(doc.tgds) == 1
    rule = doc.tgds[0]
    assert [a.pred for a in rule.body] == ["project", "inArea"]
    assert rule.head[0].pred == "hasCollaborator"
    assert [t.name for t in rule.existential_vars()] == ["Z"]


def test_parse_negative_constraint():
    doc = parse_ontology("student(X), professor(X) -> !.")
    assert len(doc.ncs) == 1
    assert len(doc.ncs[0].body) == 2


def test_parse_fd():
    doc = parse_ontology("fatherOf(a,b).  fd fatherOf: 2 -> 1.")
    assert doc.fds == [FunctionalDependency("fatherOf", (2,), (1,))]


def test_parse_query_distinguished():
    q = parse_query("p(B) :- hasCollaborator(A, db, B).")
    assert q.head_pred == "p"
    assert [t.name for t in q.head_args] == ["B"]
    assert q.body[0].args[1] == const("db")


def test_parse_boolean_query():
    q = parse_query("p() :- r(X).")
    assert q.head_args == ()


def test_parse_unsafe_query_rejected():
    with pytest.raises(ParseError, match="unsafe"):
        parse_query("p(C) :- r(A,B).")


def test_arity_conflict_reported():
    with pytest.raises(ParseError, match="arity"):
        parse_ontology("r(a,b).  r(a) -> s(a).")


def test_fd_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_ontology("r(a,b).  fd r: 1 -> 3.")


def test_fd_may_come_before_its_predicate():
    before = parse_ontology("fd r: 1 -> 2.\nr(a,b).")
    after = parse_ontology("r(a,b).\nfd r: 1 -> 2.")
    assert before.fds == after.fds == [FunctionalDependency("r", (1,), (2,))]
    # the checks still run, against the whole document, and point at the fd
    with pytest.raises(ParseError) as err:
        parse_ontology("r(a).\n fd r: 1 -> 2.\nr(b).")
    assert str(err.value) == \
        "fd index 2 out of range for 'r'/1 (line 2, column 2)"
    with pytest.raises(ParseError) as err:
        parse_ontology("fd s: 1 -> 2.\nr(a,b).")
    assert str(err.value) == \
        "fd on unknown predicate 's' (line 1, column 1)"


def test_readme_dlog_example_parses():
    text = README.read_text()
    section = text[text.index("## The `.dlog` format"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    doc = parse_ontology(block)
    assert doc.fds == [FunctionalDependency("fatherOf", (2,), (1,))]
    assert len(doc.tgds) == 1 and len(doc.ncs) == 1 and len(doc.queries) == 1


def test_parse_query_leaves_the_callers_arities_alone():
    doc = parse_ontology("r(X) -> s(X).")
    arities = dict(doc.arities)
    parse_query("p(X) :- s(X).", doc.arities)
    assert doc.arities == arities
    q = parse_query("p(X, Y) :- s(X), r(Y).", doc.arities)
    assert len(q.head_args) == 2
    with pytest.raises(ParseError, match="arity"):
        parse_query("p(X) :- s(X, X).", doc.arities)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ontology("r(a,b)\n  -> ;")
    assert "line" in str(err.value)


@pytest.mark.parametrize("text, message, line, col", [
    ("r(a,b)\n  -> ;", "unexpected character ';'", 2, 6),
    # a quoted constant spanning a line break moves the line count on
    ("r('a\nb', X) -> s(X).\nt(Y) -> .", "expected a predicate, found '.'", 3, 9),
    ("% c\n\n  p(A) :- q(A) r(A).", "expected '.', found 'r'", 3, 16),
    ("p(a,\n  b", "unexpected end of input", 2, 3),
])
def test_syntax_error_messages_and_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_ontology(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_trailing_query_input_position():
    with pytest.raises(ParseError) as err:
        parse_query("p(A) :- q(A).\n  extra")
    assert str(err.value) == "trailing input 'extra' (line 2, column 3)"


def test_comments_and_quoted_constants():
    doc = parse_ontology("% a comment\nr('hello world', X) -> s(X).\n")
    assert doc.tgds[0].body[0].args[0] == const("hello world")


def test_facts_and_embedded_queries():
    doc = parse_ontology("""
        r(a,b).
        ? p(A) :- r(A,B).
        r(X,Y) -> s(Y).
    """)
    assert len(doc.facts) == 1 and len(doc.queries) == 1 and len(doc.tgds) == 1


def test_facts_must_be_ground():
    with pytest.raises(ParseError, match="ground"):
        parse_ontology("r(a,X).")


def test_round_trip_ontology(financial):
    doc = financial[0]
    again = parse_ontology(serialize_ontology(doc))
    assert again.tgds == doc.tgds
    assert again.ncs == doc.ncs
    assert again.fds == doc.fds


def test_round_trip_random_ontologies():
    from conftest import random_linear_rules, random_database
    rng = random.Random(3)
    for _ in range(30):
        rules = random_linear_rules(rng)
        doc = parse_ontology("")
        doc.tgds = rules
        doc.facts = random_database(rng)
        again = parse_ontology(serialize_ontology(doc))
        assert again.tgds == rules
        assert again.facts == doc.facts


def test_round_trip_query():
    q = parse_query("p(A, B) :- r(A, 'x y'), s(B, B, c).")
    assert parse_query(str(q)) == q


# constants that parse back only when quoted
QUOTED = ["Bob", "New York", "o'neil", "a\\b", "", "'", "\\", "-1", "x-y"]


def test_round_trip_constants_that_need_quotes():
    A = var("A")
    for name in QUOTED:
        c = const(name)
        assert str(c).startswith("'"), name
        q = make_query("p", [A, c], [Atom("r", (A, c)), Atom("s", (c,))])
        assert parse_query(str(q)) == q, str(q)
        doc = parse_ontology("r(X, Y) -> s(Y).\n")
        doc.facts = [Atom("r", (c, const("b")))]
        doc.queries = [q]
        again = parse_ontology(serialize_ontology(doc))
        assert (again.tgds, again.facts, again.queries) == \
            (doc.tgds, doc.facts, doc.queries), name


def test_round_trip_rewriting_output_with_fresh_variables():
    # rewriting outputs may carry step-renamed variables like Z^1 or D~0
    q = parse_query("p(B, C) :- hasCollaborator(A, B, C), hasCollaborator(A, 'Y^1', Z~0).")
    assert parse_query(str(q)) == q
    q2 = parse_query("p(A) :- r(A, X^3).")
    assert [t.name for t in q2.body[0].args] == ["A", "X^3"]
