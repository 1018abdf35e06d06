"""Seeded inputs of the four workloads: ontology texts, query templates,
database generators and the oracle databases.

The seed draws variable names, constant names and fact order, and the shape
of the small databases the oracle checks against; it never draws a query's
shape or body order, or the shape of a timed database.  Every seed
therefore asks the program for the same amount of work, which is what lets
two sets of runs on different seeds agree on their timings.
"""

from __future__ import annotations

import random
import re
from itertools import product

FINANCIAL = """\
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

# The paper's query first.  The other two are the costliest connected
# five- and four-atom queries tried over the same schema; each compiles in
# roughly a second sequentially, so every timed operation is long.
FINANCIAL_QUERIES = (
    "p(A,B,C) :- finInstrument(A), stockPortfolio(B,A,D), company(B,E,F), "
    "listComponent(A,C), finIndex(C,G,H).",
    "p(A,B) :- hasStock(A,B), company(B,E,F), finInstrument(A), legalPerson(B).",
    "p(A,B,C) :- stock(A,X,Y), stockPortfolio(B,A,D), legalPerson(B), "
    "listComponent(A,C), finIndex(C,G,H).",
)

# Queries of the answer workload: after elimination and decomposition each
# keeps at least one join, so evaluation does the work.
ANSWER_QUERIES = (
    FINANCIAL_QUERIES[0],
    "p(A,B) :- listComponent(A,C), listComponent(B,C), finInstrument(A).",
    "p(B,C) :- company(B,E,F), stockPortfolio(B,A,D), listComponent(A,C), "
    "finIndex(C,G,H).",
)

SIZE_LAW_M = 3
SIZE_LAW_N = 6


def size_law_rules(m: int = SIZE_LAW_M) -> str:
    return "".join(f"p_{i}(X) -> p_0(X).\n" for i in range(1, m + 1))


def size_law_query(n: int, boolean: bool) -> str:
    """The size-law family plus the atom e(B, B), which no rule touches: it
    forms a component of its own and gives every disjunct one join, so that
    the rewritings' join count is not 0."""
    names = [f"A{i}" for i in range(1, n + 1)]
    head = "" if boolean else ", ".join(names)
    body = ", ".join(f"p_0({v})" for v in names)
    return f"p({head}) :- {body}, e(B, B)."


# ---------------------------------------------------------------------------
# Seeded renaming of a query template.


_VARIABLE = re.compile(r"\b[A-Z]\w*")


def fresh_names(rng: random.Random, k: int):
    """k distinct variable names drawn from the seed."""
    picks = rng.sample(range(100, 1000), k)
    return [f"V{i}" for i in picks]


def seeded_variant(template: str, rng: random.Random) -> str:
    """The template with its variables renamed one-to-one.  The body keeps its
    order: decomposition numbers components and unfold nests its loops in
    body order, so a shuffled body changes the work (by a third on the
    boolean family)."""
    variables = list(dict.fromkeys(_VARIABLE.findall(template)))
    names = dict(zip(variables, fresh_names(rng, len(variables))))
    return _VARIABLE.sub(lambda m: names[m.group()], template)


# ---------------------------------------------------------------------------
# Databases.


def facts_text(facts) -> str:
    return "".join(f"{p}({', '.join(args)}).\n" for p, args in facts)


# The timed financial databases take their shape from this seed and only
# their names and fact order from the run's seed: on databases this small,
# the evaluator's work changes by a third from one random shape to another.
SHAPE_SEED = 2014


def financial_db(rng: random.Random, companies: int, stocks: int,
                 indexes: int, holds: int, shape_rng=None):
    """A financial database with fixed fact counts and fixed join degrees:
    every company holds exactly `holds` stocks, every stock sits in exactly
    one index, and half of the companies and stocks carry the unary and
    descriptive facts.  `shape_rng` (by default `rng`) picks which entities
    are linked; `rng` names the constants and orders the facts."""
    shape = shape_rng or rng
    tag = rng.randrange(10 ** 6)

    def names(prefix, k):
        ids = rng.sample(range(k), k)
        return [f"{prefix}{tag}_{i}" for i in ids]

    comp, stk, idx = names("c", companies), names("s", stocks), names("x", indexes)
    countries = ["it", "uk", "de", "fr", "us"]
    facts = []
    for i, c in enumerate(comp):
        facts.append(("company", (c, f"name{i}", shape.choice(countries))))
    for c in shape.sample(comp, companies // 2):
        facts.append(("legalPerson", (c,)))
    for i, s in enumerate(shape.sample(stk, stocks // 2)):
        facts.append(("stock", (s, f"ticker{i}", shape.choice(countries))))
    for s in shape.sample(stk, stocks // 2):
        facts.append(("finInstrument", (s,)))
    for c in comp:
        for s in shape.sample(stk, holds):
            facts.append(("stockPortfolio", (c, s, f"amt{shape.randrange(50)}")))
    for s in shape.sample(stk, stocks // 2):
        facts.append(("hasStock", (s, shape.choice(comp))))
    for s in stk:
        facts.append(("listComponent", (s, shape.choice(idx))))
    for i, x in enumerate(idx):
        facts.append(("finIndex", (x, f"index{i}", shape.choice(countries))))
    rng.shuffle(facts)
    return facts


def size_law_db(rng: random.Random, m: int, per_pred: int):
    """`per_pred` facts for each of p_0 .. p_m over distinct constants, and
    one fact e(k, k)."""
    tag = rng.randrange(10 ** 6)
    facts = [(f"p_{i}", (f"k{tag}_{i}_{j}",))
             for i in range(m + 1) for j in range(per_pred)]
    facts.append(("e", (f"k{tag}_e",) * 2))
    rng.shuffle(facts)
    return facts


def boolean_oracle_dbs(rng: random.Random, m: int):
    """One database per subset of {p_0 .. p_m}, one fact each, all with the
    fact e(k, k): a boolean rewriting that drops a minimal disjunct answers
    wrongly on the database holding only that disjunct's predicate."""
    tag = rng.randrange(10 ** 6)
    dbs = []
    for mask in product((0, 1), repeat=m + 1):
        db = [(f"p_{i}", (f"k{tag}_{i}",)) for i, bit in enumerate(mask) if bit]
        db.append(("e", (f"k{tag}_e",) * 2))
        dbs.append(db)
    return dbs
