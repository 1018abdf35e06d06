"""Reader for the textual ontology/query format.

Grammar (whitespace insignificant, `%` starts a line comment):

    fact      atom .
    tgd       atom, ..., atom -> atom, ..., atom .
    nc        atom, ..., atom -> ! .
    fd        fd pred : i, ..., i -> j, ..., j .
    query     ? head(V, ...) :- atom, ..., atom .     (the ? is optional)

Identifiers starting with a lowercase letter (or digit) are constants and
predicates, identifiers starting with an uppercase letter are variables,
and quoted strings '...' are constants.  Variables occurring in a rule head
but not in its body are existentially quantified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .model import Atom, CONST, ConjunctiveQuery, Term, VAR, make_query


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class RawTGD(NamedTuple):
    """A rule as written: conjunctive body, possibly multi-atom head with any
    number of existential variables."""

    body: tuple
    head: tuple

    def existential_vars(self) -> list:
        body_vars = set()
        for a in self.body:
            body_vars.update(a.variables())
        out = []
        for a in self.head:
            for t in a.args:
                if t.kind == VAR and t not in body_vars and t not in out:
                    out.append(t)
        return out

    def __str__(self):
        return (f"{', '.join(str(a) for a in self.body)} -> "
                f"{', '.join(str(a) for a in self.head)}.")


class NegativeConstraint(NamedTuple):
    body: tuple

    def __str__(self):
        return f"{', '.join(str(a) for a in self.body)} -> !."


class FunctionalDependency(NamedTuple):
    pred: str
    lhs: tuple
    rhs: tuple

    def __str__(self):
        return (f"fd {self.pred}: {','.join(map(str, self.lhs))} -> "
                f"{','.join(map(str, self.rhs))}.")


@dataclass
class OntologyDocument:
    tgds: list = field(default_factory=list)
    ncs: list = field(default_factory=list)
    fds: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    arities: dict = field(default_factory=dict)


_TOKEN_RE = re.compile(
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


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset in the parsed text


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            raise _error(text, f"unexpected character {m.group()!r}", m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    return tokens


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset pos of text, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fd_keywords = []  # the `fd` token of each FD parsed, in order

    def error(self, message: str, tok: _Token) -> ParseError:
        return _error(self.text, message, tok.pos)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 0)
            raise self.error("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
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

    def parse_query_body(self, head: Atom, tok: _Token,
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


def parse_ontology(text: str) -> OntologyDocument:
    parser = _Parser(text)
    doc = OntologyDocument()
    while parser.peek() is not None:
        parser.parse_statement(doc)
    parser.check_fds(doc)
    return doc


def parse_query(text: str, arities: Optional[dict] = None) -> ConjunctiveQuery:
    """The one query in text, checked against the predicate arities given,
    if any; the caller's dict is left as it is."""
    parser = _Parser(text)
    if parser.at("?"):
        parser.next()
    q = parser.parse_query_statement(dict(arities or {}))
    if parser.peek() is not None:
        tok = parser.peek()
        raise parser.error(f"trailing input {tok.text!r}", tok)
    return q

