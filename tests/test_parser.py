import random
import re
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from conftest import (FINANCIAL, FINANCIAL_QUERY, PRED_POOL, mutate,
                      random_database, random_linear_rules, random_query)
from ontorewrite.model import (Atom, CONST, ConjunctiveQuery, Term, VAR,
                               const, make_query, var)
from ontorewrite.parser import (FunctionalDependency, NegativeConstraint,
                                OntologyDocument, ParseError, RawTGD,
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


def readme_dlog_block():
    text = README.read_text()
    section = text[text.index("## The `.dlog` format"):]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_readme_dlog_example_parses():
    doc = parse_ontology(readme_dlog_block())
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
    ("p(X):-r(X)", "unexpected end of input", 1, 10),
    # a bad character anywhere is reported before any parse error
    ("r(a, X).\n;", "unexpected character ';'", 2, 1),
    ("r('abc).", "unexpected character \"'\"", 1, 3),
    ("r(\u00e9).", "unexpected character '\u00e9'", 1, 3),
])
def test_syntax_error_messages_and_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_ontology(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_query_errors_at_the_ends_of_the_text():
    for text in ("", " \n\t"):
        with pytest.raises(ParseError) as err:
            parse_query(text)
        assert str(err.value) == "unexpected end of input (line 1, column 1)"
    with pytest.raises(ParseError) as err:
        parse_query("p(X):-r(X)")
    assert str(err.value) == "unexpected end of input (line 1, column 10)"


def test_trailing_query_input_position():
    with pytest.raises(ParseError) as err:
        parse_query("p(A) :- q(A).\n  extra")
    assert str(err.value) == "trailing input 'extra' (line 2, column 3)"


def test_empty_text_and_trailing_comment():
    assert parse_ontology("") == OntologyDocument()
    assert parse_ontology(" \n\t\n") == OntologyDocument()
    assert parse_ontology("% only a comment") == OntologyDocument()
    doc = parse_ontology("r(a). % no newline after this comment")
    assert doc.facts == [Atom("r", (const("a"),))]
    q = parse_query("p(X) :- r(X). % a comment")
    assert q == make_query("p", [var("X")], [Atom("r", (var("X"),))])


def test_fd_as_a_predicate():
    doc = parse_ontology("fd fd: 1 -> 1. fd(a).")
    assert doc.fds == [FunctionalDependency("fd", (1,), (1,))]
    assert doc.facts == [Atom("fd", (const("a"),))]


def test_equal_constants_share_one_term():
    doc = parse_ontology("r(a, 'b'). s(b, a).\nr(X, Y) -> s(Y, X).")
    (r, s), (rule,) = doc.facts, doc.tgds
    assert r.args[0] == s.args[1] == const("a")
    assert r.args[0] is s.args[1]
    assert r.args[1] == s.args[0] == const("b")
    assert rule.body[0].args[0] is rule.head[0].args[1]


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


# ---------------------------------------------------------------------------
# The reference parser, which parse_ontology and parse_query must match on
# every text: it keeps a NamedTuple per token with the token's offset, and
# makes a Term per occurrence.

_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>->)
      | (?P<sep>:-)
      | (?P<punct>[(),.!?:])
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<ident>[A-Za-z0-9_][A-Za-z0-9_^~]*)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _RefToken(NamedTuple):
    kind: str
    text: str
    pos: int  # offset in the parsed text


def _ref_tokenize(text: str):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            raise _ref_error(text, f"unexpected character {m.group()!r}", m.start())
        tokens.append(_RefToken(kind, m.group(), m.start()))
    return tokens


def _ref_error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset pos of text, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.fd_keywords = []  # the `fd` token of each FD parsed, in order

    def error(self, message: str, tok: _RefToken) -> ParseError:
        return _ref_error(self.text, message, tok.pos)

    def peek(self) -> Optional[_RefToken]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _RefToken:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _RefToken("", "", 0)
            raise self.error("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _RefToken:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # -- terms and atoms ----------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "quoted":
            raw = re.sub(r"\\(.)", r"\1", tok.text[1:-1])
            return Term(CONST, raw)
        if tok.kind != "ident":
            raise self.error(f"expected a term, found {tok.text!r}", tok)
        if tok.text[0].isupper():
            return Term(VAR, tok.text)
        return Term(CONST, tok.text)

    def parse_atom(self, arities: dict) -> Atom:
        tok = self.next()
        if tok.kind != "ident" or tok.text[0].isupper():
            raise self.error(f"expected a predicate, found {tok.text!r}", tok)
        pred = tok.text
        args = []
        self.expect("(")
        if not self.at(")"):
            args.append(self.parse_term())
            while self.at(","):
                self.next()
                args.append(self.parse_term())
        self.expect(")")
        known = arities.get(pred)
        if known is not None and known != len(args):
            raise self.error(
                f"predicate {pred!r} used with arity {len(args)} but declared with {known}",
                tok)
        arities.setdefault(pred, len(args))
        return Atom(pred, tuple(args))

    def parse_atom_list(self, arities: dict) -> list:
        atoms = [self.parse_atom(arities)]
        while self.at(","):
            self.next()
            atoms.append(self.parse_atom(arities))
        return atoms

    # -- statements ----------------------------------------------------------

    def parse_query_statement(self, arities: dict) -> ConjunctiveQuery:
        tok = self.peek()
        head = self.parse_atom(arities)
        self.expect(":-")
        return self.parse_query_body(head, tok, arities)

    def parse_query_body(self, head: Atom, tok: _RefToken,
                         arities: dict) -> ConjunctiveQuery:
        """The rest of a query after `head :-`; tok is the head's first
        token, where errors point."""
        body = self.parse_atom_list(arities)
        self.expect(".")
        q = make_query(head.pred, head.args, body)
        if not q.is_safe():
            missing = sorted(t.name for t in head.args
                             if t.kind == VAR and all(t not in a.args for a in body))
            raise self.error(
                f"unsafe query: distinguished variable(s) {', '.join(missing)} "
                "missing from the body", tok)
        return q

    def parse_fd(self) -> FunctionalDependency:
        self.fd_keywords.append(self.expect("fd"))
        tok = self.next()
        if tok.kind != "ident" or tok.text[0].isupper():
            raise self.error(f"expected a predicate after 'fd', found {tok.text!r}",
                             tok)
        pred = tok.text
        self.expect(":")

        def int_list():
            out = []
            while True:
                t = self.next()
                if not t.text.isdigit():
                    raise self.error(f"expected an attribute index, found {t.text!r}", t)
                out.append(int(t.text))
                if self.at(","):
                    self.next()
                    continue
                return out

        lhs = int_list()
        self.expect("->")
        rhs = int_list()
        self.expect(".")
        return FunctionalDependency(pred, tuple(lhs), tuple(rhs))

    def check_fds(self, doc: OntologyDocument):
        """Check each FD against the arities of the whole document, so that
        an FD may come before the first use of its predicate; an error
        points at the FD's `fd` keyword."""
        for fd, kw in zip(doc.fds, self.fd_keywords):
            arity = doc.arities.get(fd.pred)
            if arity is None:
                raise self.error(f"fd on unknown predicate {fd.pred!r}", kw)
            for i in fd.lhs + fd.rhs:
                if not 1 <= i <= arity:
                    raise self.error(
                        f"fd index {i} out of range for {fd.pred!r}/{arity}", kw)

    def parse_statement(self, doc: OntologyDocument):
        tok = self.peek()
        after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if tok.text == "fd" and after is not None and after.kind == "ident":
            doc.fds.append(self.parse_fd())
            return
        if tok.text == "?":
            self.next()
            doc.queries.append(self.parse_query_statement(doc.arities))
            return
        # A fact, a rule, a constraint, or a query without the ? prefix.
        atoms = self.parse_atom_list(doc.arities)
        nxt = self.next()
        if nxt.text == ".":
            if len(atoms) != 1:
                raise self.error("a fact is a single atom", tok)
            fact = atoms[0]
            for t in fact.args:
                if t.kind != CONST:
                    raise self.error("facts must be ground", tok)
            doc.facts.append(fact)
            return
        if nxt.text == ":-":
            if len(atoms) != 1:
                raise self.error("a query has a single head atom", tok)
            doc.queries.append(self.parse_query_body(atoms[0], tok, doc.arities))
            return
        if nxt.text != "->":
            raise self.error(f"expected '.', '->' or ':-', found {nxt.text!r}", nxt)
        if self.at("!"):
            self.next()
            self.expect(".")
            doc.ncs.append(NegativeConstraint(tuple(atoms)))
            return
        head = self.parse_atom_list(doc.arities)
        self.expect(".")
        doc.tgds.append(RawTGD(tuple(atoms), tuple(head)))


def _reference_parse(text: str) -> OntologyDocument:
    parser = _RefParser(text)
    doc = OntologyDocument()
    while parser.peek() is not None:
        parser.parse_statement(doc)
    parser.check_fds(doc)
    return doc


def _reference_parse_query(text: str, arities: Optional[dict] = None) -> ConjunctiveQuery:
    """The one query in text, checked against the predicate arities given,
    if any; the caller's dict is left as it is."""
    parser = _RefParser(text)
    if parser.at("?"):
        parser.next()
    q = parser.parse_query_statement(dict(arities or {}))
    if parser.peek() is not None:
        tok = parser.peek()
        raise parser.error(f"trailing input {tok.text!r}", tok)
    return q



def _outcome(parse, text):
    """What parse makes of text: its result, or its error's message and
    position."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def _random_document_text(rng):
    """A linear rule set with facts, FDs, a query and quoted constants, as
    text."""
    quoted = [const(name) for name in QUOTED]
    facts = [Atom(a.pred, tuple(rng.choice(quoted) if rng.random() < 0.3 else t
                                for t in a.args))
             for a in random_database(rng)]
    fds = [FunctionalDependency(pred, (1,), (arity,))
           for pred, arity in PRED_POOL if arity > 1 and rng.random() < 0.5]
    doc = OntologyDocument(tgds=random_linear_rules(rng), fds=fds, facts=facts,
                           queries=[random_query(rng)])
    return serialize_ontology(doc)


def test_parser_matches_reference_on_mutated_texts():
    rng = random.Random(21)
    readme = readme_dlog_block()
    bases = [FINANCIAL, readme, FINANCIAL_QUERY + "\n",
             next(line for line in readme.splitlines() if line.startswith("?"))]
    for _ in range(40):
        text = _random_document_text(rng)
        bases += [text, text.splitlines()[-1].removeprefix("? ")]
    # 2,184 texts, each read as an ontology and as a query
    for text in bases + [mutate(rng, base) for base in bases for _ in range(25)]:
        assert _outcome(parse_ontology, text) == \
            _outcome(_reference_parse, text), text
        assert _outcome(parse_query, text) == \
            _outcome(_reference_parse_query, text), text
