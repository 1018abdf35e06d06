"""Shared fixtures: the financial ontology, small pipeline helpers and the
random ontology/query/database generators used by the property suites."""

import random

import pytest

import ontorewrite as ow
from ontorewrite.model import Atom, VAR, const, var
from ontorewrite.parser import RawTGD, parse_ontology, parse_query
from ontorewrite.subsume import subsumes

FINANCIAL = """
stockPortfolio(X,Y,Z) -> company(X,V,W).
stockPortfolio(X,Y,Z) -> stock(Y,V,W).
listComponent(X,Y) -> finIndex(Y,Z,W).
listComponent(X,Y) -> stock(X,Z,W).
stockPortfolio(X,Y,Z) -> hasStock(Y,X).
hasStock(X,Y) -> stockPortfolio(Y,X,Z).
stock(X,Y,Z) -> stockPortfolio(V,X,W).
stock(X,Y,Z) -> finInstrument(X).
company(X,Y,Z) -> legalPerson(X).
"""

FINANCIAL_QUERY = ("p(A,B,C) :- finInstrument(A), stockPortfolio(B,A,D), "
                   "company(B,E,F), listComponent(A,C), finIndex(C,G,H).")

# Two rotations of p and a copy into q: a labelled cycle on p[1].
ROTATION = """
p(X,Y,Z,W) -> p(X,W,Y,Z).
p(X,Y,Z,W) -> q(X,Y,Z,W).
"""

# A normalized rule set on which enumerating minimal paths took millions
# of steps; the coverage search ends at once.  p1(A) covers p4(B,A,C).
LOOPING = """
p4(X,X,X) -> p4(X,X,X).
p1(Z) -> aux_1_1(Z,W).
aux_1_1(Z,W) -> p4(W,Z,W).
p3(X,X) -> p2(X,V).
"""


def pipeline(text):
    """Parse an ontology, normalize it, and build a rewriter context."""
    doc = parse_ontology(text)
    tgds, provenance, aux = ow.normalize_tgds(doc.tgds)
    ctx = ow.RewriterContext(tgds, aux, doc.arities)
    return doc, tgds, ctx


def query(text, doc):
    return parse_query(text, dict(doc.arities))


def canon_set(queries):
    return {ow.canonical_rename(q) for q in queries}


def is_subsumption_minimal(queries):
    """Whether no query of the UCQ subsumes another, checking every pair."""
    for i, q1 in enumerate(queries):
        for j, q2 in enumerate(queries):
            if i != j and subsumes(q1, q2):
                return False
    return True


@pytest.fixture
def financial():
    doc, tgds, ctx = pipeline(FINANCIAL)
    q = query(FINANCIAL_QUERY, doc)
    return doc, tgds, ctx, q


# ---------------------------------------------------------------------------
# Random generators (deterministic per seed).

PRED_POOL = [("p1", 1), ("p2", 2), ("p3", 2), ("p4", 3)]
CONSTS = [const(c) for c in "abcd"]


def random_atom(rng, variables, allow_const=0.15):
    pred, arity = rng.choice(PRED_POOL)
    args = []
    for _ in range(arity):
        if rng.random() < allow_const:
            args.append(rng.choice(CONSTS))
        else:
            args.append(rng.choice(variables))
    return Atom(pred, tuple(args))


def random_linear_rules(rng, max_rules=6):
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        body_vars = [var(v) for v in rng.sample(["X", "Y", "Z"], rng.randint(1, 3))]
        body = random_atom(rng, body_vars, allow_const=0.05)
        head_vars = (sorted(body.variables(), key=lambda t: t.name)
                     or body_vars[:1])
        pool = head_vars + [var("V"), var("W")]
        pred, arity = rng.choice(PRED_POOL)
        head_args = tuple(rng.choice(pool) for _ in range(arity))
        rules.append(RawTGD((body,), (Atom(pred, head_args),)))
    return rules


JOIN_HEAD = ("p5", 2)  # reserved for multi-atom-body rules; occurs in no body


def random_sticky_rules(rng, max_rules=6, max_tries=200):
    """Sticky rule sets on which the rewriting terminates.

    Rules with more than one body atom can pump the rewriting forever when
    their head predicate is re-derivable (the query grows by one body copy
    per step, never isomorphic to an earlier one), so multi-atom bodies get
    the reserved head predicate p5, which appears in no rule body: such atoms
    are rewritten at most once per query occurrence.
    """
    for _ in range(max_tries):
        rules = []
        n = rng.randint(1, max_rules)
        multi_at = rng.randrange(n) if rng.random() < 0.6 else None
        for i in range(n):
            if i == multi_at:
                vars_ = [var(v) for v in "XYZU"[:rng.randint(2, 4)]]
                body = tuple(random_atom(rng, vars_, allow_const=0.0)
                             for _ in range(2))
                body_vars = sorted({t for a in body for t in a.args
                                    if t.kind == VAR}, key=lambda t: t.name)
                pool = body_vars + [var("V")]
                pred, arity = JOIN_HEAD
                head = Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))
                rules.append(RawTGD(body, (head,)))
            else:
                vars_ = [var(v) for v in rng.sample(["X", "Y", "Z"],
                                                    rng.randint(1, 3))]
                body = (random_atom(rng, vars_, allow_const=0.0),)
                body_vars = sorted({t for a in body for t in a.args
                                    if t.kind == VAR}, key=lambda t: t.name)
                pool = body_vars + [var("V")]
                pred, arity = rng.choice(PRED_POOL)
                head = Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))
                rules.append(RawTGD(body, (head,)))
        if ow.is_sticky(rules):
            return rules
    return random_linear_rules(rng, max_rules)  # fallback; linear terminates too


def random_database(rng, max_facts=8, pool=None):
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        pred, arity = rng.choice(pool or PRED_POOL)
        facts.append(Atom(pred, tuple(rng.choice(CONSTS) for _ in range(arity))))
    return list(dict.fromkeys(facts))


def random_query(rng, max_atoms=3, pool=None):
    n = rng.randint(1, max_atoms)
    pool = pool or PRED_POOL
    variables = [var(v) for v in "ABCD"]
    body = []
    for _ in range(n):
        pred, arity = rng.choice(pool)
        args = tuple(rng.choice(CONSTS) if rng.random() < 0.1
                     else rng.choice(variables) for _ in range(arity))
        body.append(Atom(pred, args))
    body_vars = sorted({t for a in body for t in a.args if t.kind == VAR},
                       key=lambda t: t.name)
    k = rng.randint(0, min(2, len(body_vars)))
    head_args = tuple(rng.sample(body_vars, k)) if k else ()
    return ow.make_query("q", head_args, body)


QUERY_POOL = PRED_POOL + [JOIN_HEAD]

# Characters that mutated texts gain: the format's punctuation, comment and
# quote marks, identifier characters and characters it does not allow.
MUTATION_CHARS = "()., !?:-%'\n\\aXZ_1>;\u00e9"


def mutate(rng, text):
    """text after one to three edits at random offsets, each inserting a
    character of MUTATION_CHARS, deleting one, or replacing one by one."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit, c = rng.randrange(3), rng.choice(MUTATION_CHARS)
        if edit == 0:
            text = text[:i] + c + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


def dl_lite_ontology(seed, concepts):
    """A DL-Lite-style ontology as text, drawn from `random.Random(seed)`: a
    concept tree `c<i>(X) -> c<j>(X).` with j < i, and per role `r<i>`, one
    for every four concepts, a domain rule, a range rule and an existential
    restriction `c<k>(X) -> r<i>(X, Y).`  It is in normal form, with
    concepts - 1 + 3 * (concepts // 4) rules (1,399 at 800 concepts)."""
    rng = random.Random(seed)
    lines = [f"c{i}(X) -> c{rng.randrange(i)}(X)." for i in range(1, concepts)]
    for i in range(concepts // 4):
        lines += [f"r{i}(X, Y) -> c{rng.randrange(concepts)}(X).",
                  f"r{i}(X, Y) -> c{rng.randrange(concepts)}(Y).",
                  f"c{rng.randrange(concepts)}(X) -> r{i}(X, Y)."]
    return "\n".join(lines) + "\n"


DL_LITE_QUERY = "q(X) :- c0(X), r0(X, Y), c1(Y)."

# Symmetric queries: repeated copies of small directed graphs, given by
# their edges (i, j) over nodes 0-2, whose tied atoms make a canonical walk
# over the whole body branch factorially.
SYMMETRIC_ONTOLOGY = "f(X, Y) -> e(X, Y).\n"
TRIANGLE = ((0, 1), (1, 2), (2, 0))
PATH = ((0, 1), (1, 2))
SHAPES = (TRIANGLE, PATH, ((0, 1), (1, 0)), ((0, 1), (0, 2)),
          ((0, 1), (2, 1)))


def copies_body(shapes, extra=()):
    """One copy of each shape as `e` atoms, over variables of its own (node
    i of copy c is `X<i>_<c>`), each followed by the `extra` atoms
    (predicate, arguments), whose integer arguments are its nodes."""
    body = []
    for c, shape in enumerate(shapes):
        node = [var(f"X{i}_{c}") for i in range(3)]
        body += [Atom("e", (node[i], node[j])) for i, j in shape]
        body += [Atom(pred, tuple(node[t] if isinstance(t, int) else t
                                  for t in args)) for pred, args in extra]
    return body


def copies_query(shape, copies, head=""):
    """`q(<head>) :- ...` as text: `copies` copies of `shape`."""
    body = copies_body([shape] * copies)
    return f"q({head}) :- {', '.join(map(str, body))}."


def random_piece_case(rng):
    """A linear rule set and a query in which 2-4 atoms of the existential
    rule's head predicate `s` share one variable V at its existential
    position, beside distractors that may keep them from forming a piece:
    V at a second position, in the head or in an atom of another predicate,
    a constant at that position, an `s` atom of the wrong arity, and a
    second group of `s` atoms.  The other rules rewrite `t`, turn a `c(V)`
    atom into one more `s` atom holding V there, and derive `s` without an
    existential."""
    arity = rng.randint(2, 3)
    epos = rng.randrange(arity)
    xs = [var(f"X{i}") for i in range(arity)]
    head = list(xs)
    head[epos] = var("Y")
    frontier = tuple(x for i, x in enumerate(xs) if i != epos)
    rules = [RawTGD((Atom("r", frontier),), (Atom("s", tuple(head)),)),
             RawTGD((Atom("s", tuple(xs)),), (Atom("c", (xs[epos],)),)),
             RawTGD((Atom("w", (xs[0], xs[1])),), (Atom("t", (xs[0], xs[1])),)),
             RawTGD((Atom("k", tuple(xs)),), (Atom("s", tuple(xs)),))]
    V, W = var("V"), var("W")
    pool = [var(n) for n in "ABC"] + CONSTS[:1]

    def s_atom(at_epos, n=arity):
        args = [rng.choice(pool) for _ in range(n)]
        args[epos] = at_epos
        return Atom("s", tuple(args))

    body = [s_atom(V) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.15:  # V at a second position of one holder
        args = list(body[0].args)
        args[rng.choice([i for i in range(arity) if i != epos])] = V
        body[0] = Atom("s", tuple(args))
    if rng.random() < 0.15:
        body.append(Atom("t", (V, rng.choice(pool))))
    if rng.random() < 0.3:
        body.append(Atom("c", (V,)))
    if rng.random() < 0.15:
        body.append(s_atom(rng.choice(CONSTS[:2])))
    if rng.random() < 0.15:
        body.append(s_atom(V, arity + 1))
    if rng.random() < 0.3:
        body.append(Atom("t", (rng.choice(pool), rng.choice(pool))))
    if rng.random() < 0.3:
        body += [s_atom(W) for _ in range(rng.randint(1, 2))]
    rng.shuffle(body)
    held = sorted({t for a in body for t in a.args if t.kind == VAR} - {V},
                  key=lambda t: t.name)
    head_args = rng.sample(held, rng.randint(0, min(2, len(held))))
    if rng.random() < 0.15:
        head_args.append(V)
    return rules, ow.make_query("q", head_args, body)


def rules_context(rules):
    tgds, _, aux = ow.normalize_tgds(rules)
    arities = {}
    for r in rules:
        for a in r.body + r.head:
            arities.setdefault(a.pred, len(a.args))
    return ow.RewriterContext(tgds, aux, arities)
