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

The text is split into tokens by one `findall`, as plain strings; a bad
character anywhere is reported before any parse error.  The parser works on
token indices: a token's offset, and so an error's line and column, is
computed only when a ParseError is raised, by scanning the text again up to
that token.  Terms are interned per parse, one Term per distinct token text,
so the facts of a database share their constants.
"""

from __future__ import annotations

import itertools
import re
import string
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
    # every statement but the facts, in text order
    non_facts: list = field(default_factory=list, repr=False, compare=False)


# One match per token: the whitespace and comments before it, then the token
# itself, which is an arrow, a punctuation mark, a quoted constant, an
# identifier, any other (bad) character, or the empty end of the text.
# Every match succeeds at its first try, so nothing backtracks.
_TOKEN_RE = re.compile(
    r"""\s* (?:%[^\n]*\s*)*
      ( -> | :- | [(),.!?:]
      | '(?:[^'\\]|\\.)*'
      | [A-Za-z0-9_][A-Za-z0-9_^~]*
      | .
      | \Z )
    """,
    re.VERBOSE,
)

# A token's kind is its first character's: ' starts a quoted constant, these
# characters an identifier, and anything else punctuation.
_IDENT_START = frozenset(string.ascii_letters + string.digits + "_")
_SINGLE_CHAR_TOKENS = _IDENT_START | frozenset("(),.!?:")


def _tokenize(text: str) -> list:
    """The tokens of text as strings, ending with the empty string that marks
    the end (twice after trailing whitespace or a comment); the first bad
    character raises."""
    tokens = _TOKEN_RE.findall(text)
    bad = {t for t in set(tokens) if len(t) == 1} - _SINGLE_CHAR_TOKENS
    if bad:
        index = min(map(tokens.index, bad))
        raise _error(text, f"unexpected character {tokens[index]!r}",
                     _token_start(text, index))
    return tokens


def _token_start(text: str, index: int) -> int:
    """The offset in text of the token at index, or 0 for index -1."""
    if index < 0:
        return 0
    match = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    return match.start(1)


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset pos of text, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0  # the index of the next token
        self.terms = {}  # token text -> its Term, one Term per distinct text
        self.fd_keywords = []  # the index of each FD's `fd` token, in order

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the token at index; offsets are only computed
        here, by scanning the text again."""
        return _error(self.text, message, _token_start(self.text, index))

    def peek(self) -> str:
        """The next token, or "" at the end."""
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            # at the end, point at the last token
            raise self.error("unexpected end of input", self.pos - 1)
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}", self.pos - 1)

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    # -- terms and atoms ----------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.next()
        term = self.terms.get(tok)
        if term is None:
            term = self.terms[tok] = self.new_term(tok)
        return term

    def new_term(self, tok: str) -> Term:
        """The Term of the token just read."""
        if tok[0] == "'":
            return Term(CONST, re.sub(r"\\(.)", r"\1", tok[1:-1]))
        if tok[0] not in _IDENT_START:
            raise self.error(f"expected a term, found {tok!r}", self.pos - 1)
        return Term(VAR if tok[0].isupper() else CONST, tok)

    def parse_atom(self, arities: dict) -> Atom:
        start = self.pos
        pred = self.next()
        if pred[0] not in _IDENT_START or pred[0].isupper():
            raise self.error(f"expected a predicate, found {pred!r}", start)
        args = []
        self.expect("(")
        tokens = self.tokens
        if tokens[self.pos] != ")":
            args.append(self.parse_term())
            while tokens[self.pos] == ",":
                self.pos += 1
                args.append(self.parse_term())
        self.expect(")")
        known = arities.get(pred)
        if known is not None and known != len(args):
            raise self.error(
                f"predicate {pred!r} used with arity {len(args)} but declared with {known}",
                start)
        arities.setdefault(pred, len(args))
        return Atom(pred, tuple(args))

    def parse_atom_list(self, arities: dict) -> list:
        atoms = [self.parse_atom(arities)]
        while self.at(","):
            self.pos += 1
            atoms.append(self.parse_atom(arities))
        return atoms

    # -- statements ----------------------------------------------------------

    def parse_query_statement(self, arities: dict) -> ConjunctiveQuery:
        start = self.pos
        head = self.parse_atom(arities)
        self.expect(":-")
        return self.parse_query_body(head, start, arities)

    def parse_query_body(self, head: Atom, start: int,
                         arities: dict) -> ConjunctiveQuery:
        """The rest of a query after `head :-`; start is the index of the
        head's first token, where errors point."""
        body = self.parse_atom_list(arities)
        self.expect(".")
        q = make_query(head.pred, head.args, body)
        if not q.is_safe():
            missing = sorted(t.name for t in head.args
                             if t.kind == VAR and all(t not in a.args for a in body))
            raise self.error(
                f"unsafe query: distinguished variable(s) {', '.join(missing)} "
                "missing from the body", start)
        return q

    def parse_fd(self) -> FunctionalDependency:
        self.fd_keywords.append(self.pos)
        self.expect("fd")
        pred = self.next()
        if pred[0] not in _IDENT_START or pred[0].isupper():
            raise self.error(f"expected a predicate after 'fd', found {pred!r}",
                             self.pos - 1)
        self.expect(":")

        def int_list():
            out = []
            while True:
                t = self.next()
                if not t.isdigit():
                    raise self.error(f"expected an attribute index, found {t!r}",
                                     self.pos - 1)
                out.append(int(t))
                if self.at(","):
                    self.pos += 1
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

    def parse_statement(self, doc: OntologyDocument) -> tuple:
        """The doc list the next statement belongs in, and the statement."""
        start = self.pos
        tok = self.tokens[start]
        if tok == "fd" and self.tokens[start + 1][:1] in _IDENT_START:
            return doc.fds, self.parse_fd()
        if tok == "?":
            self.pos += 1
            return doc.queries, self.parse_query_statement(doc.arities)
        # A fact, a rule, a constraint, or a query without the ? prefix.
        atoms = self.parse_atom_list(doc.arities)
        nxt = self.next()
        if nxt == ".":
            if len(atoms) != 1:
                raise self.error("a fact is a single atom", start)
            fact = atoms[0]
            for t in fact.args:
                if t.kind != CONST:
                    raise self.error("facts must be ground", start)
            return doc.facts, fact
        if nxt == ":-":
            if len(atoms) != 1:
                raise self.error("a query has a single head atom", start)
            return doc.queries, self.parse_query_body(atoms[0], start, doc.arities)
        if nxt != "->":
            raise self.error(f"expected '.', '->' or ':-', found {nxt!r}",
                             self.pos - 1)
        if self.at("!"):
            self.pos += 1
            self.expect(".")
            return doc.ncs, NegativeConstraint(tuple(atoms))
        head = self.parse_atom_list(doc.arities)
        self.expect(".")
        return doc.tgds, RawTGD(tuple(atoms), tuple(head))


def parse_ontology(text: str) -> OntologyDocument:
    parser = _Parser(text)
    doc = OntologyDocument()
    while parser.peek():
        statements, statement = parser.parse_statement(doc)
        statements.append(statement)
        if statements is not doc.facts:
            doc.non_facts.append(statement)
    parser.check_fds(doc)
    return doc


def parse_query(text: str, arities: Optional[dict] = None) -> ConjunctiveQuery:
    """The one query in text, checked against the predicate arities given,
    if any; the caller's dict is left as it is."""
    parser = _Parser(text)
    if parser.at("?"):
        parser.next()
    q = parser.parse_query_statement(dict(arities or {}))
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}", parser.pos)
    return q

