"""Query elimination on a linear ontology: dropping atoms that other atoms
of the same query already imply shrinks the rewriting from 60 disjuncts with
300 joins down to 2 disjuncts with 2 joins.

Run:  python demos/financial_elimination.py
"""

import ontorewrite as ow
from ontorewrite.emit import count_atoms, count_joins_total

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

doc = ow.parse_ontology(FINANCIAL)
tgds, _, aux = ow.normalize_tgds(doc.tgds)
ctx = ow.RewriterContext(tgds, aux, doc.arities)

# Financial instruments owned by a company and listed on an index.
q = ow.parse_query(
    "p(A,B,C) :- finInstrument(A), stockPortfolio(B,A,D), company(B,E,F), "
    "listComponent(A,C), finIndex(C,G,H).", doc.arities)

# The rules already force three of the five atoms: a stockPortfolio entry
# implies the stock is a finInstrument and the owner a company, and a
# listComponent entry implies the index exists.
reduced = ow.reduce_query(q, ctx.elimination())
print("input query:  ", q)
print("reduced query:", reduced)

for elim in (False, True):
    res = ow.xrewrite(q, ctx, ow.RewriteOptions(elimination=elim))
    print(f"\nelimination={elim}: {len(res.queries)} disjuncts, "
          f"{count_atoms(res.queries)} atoms, "
          f"{count_joins_total(res.queries)} joins, "
          f"{res.metrics.explored} explored")
    if elim:
        for disjunct in res.queries:
            print("  ", disjunct)

# The cover sets behind an elimination decision can be inspected directly.
ec = ctx.elimination()
sets = ow.cover_sets(q, ec)
print("\ncover sets of the input query:")
for a in q.body:
    names = sorted(b.pred for b in sets[a])
    print(f"  {a}  <-  {names if names else 'not covered'}")
