"""Rewriting basics: backward resolution, the applicability condition, and
why a step must resolve a whole piece of atoms for completeness.

Run:  python demos/rewrite_basics.py
"""

import ontorewrite as ow

# One rule: every project with an area has some external collaborator in it.
ONTOLOGY = "project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X)."

doc = ow.parse_ontology(ONTOLOGY)
tgds, _, aux = ow.normalize_tgds(doc.tgds)
ctx = ow.RewriterContext(tgds, aux, doc.arities)

# Ask for projects in the db area that have a collaborator.  The rule can
# produce hasCollaborator facts during the chase, so the rewriting must also
# look directly for projects in that area.
q = ow.parse_query("p(B) :- hasCollaborator(A, db, B).", doc.arities)
print("query:     ", q)
for disjunct in ow.xrewrite(q, ctx).queries:
    print("rewriting: ", disjunct)

# The applicability condition protects soundness.  A constant or a join
# variable sitting at the rule's existential position blocks resolution:
# nothing the rule ever produces can match it.
print()
for text in ("p(B) :- hasCollaborator(c, db, B).",
             "p(B) :- hasCollaborator(B, db, B)."):
    blocked = ow.parse_query(text, doc.arities)
    out = ow.xrewrite(blocked, ctx).queries
    print(f"{text}  ->  {len(out)} disjunct(s), rule not applicable")

# Pieces.  With a second rule, resolving collaborator(A) adds a second
# hasCollaborator atom that holds A at the existential position.  Neither
# atom can be resolved alone, since A joins them, but together they form a
# piece: the atoms that share A only there.  One step resolves the piece,
# unifying both atoms with the rule head at once, and yields the disjunct
# that makes the rewriting complete.
ONTOLOGY2 = ONTOLOGY + "\nhasCollaborator(X,Y,Z) -> collaborator(X)."
doc2 = ow.parse_ontology(ONTOLOGY2)
tgds2, _, aux2 = ow.normalize_tgds(doc2.tgds)
ctx2 = ow.RewriterContext(tgds2, aux2, doc2.arities)
q2 = ow.parse_query("p(B,C) :- hasCollaborator(A,B,C), collaborator(A).",
                    doc2.arities)
res = ow.xrewrite(q2, ctx2, ow.RewriteOptions(elimination=False))
print(f"\nquery:      {q2}")
print(f"pieces of two or more atoms resolved: {res.metrics.factorized}")
for disjunct in res.queries:
    print("rewriting: ", disjunct)

# Verify completeness against the chase oracle on a concrete database.
db = ow.parse_ontology("project(a). inArea(a,b).").facts
oracle, saturated = ow.certain_answers(q2, db, doc2.tgds, 100)
evaluated = ow.evaluate_ucq(res.queries, db)
names = lambda answers: sorted(tuple(t.name for t in row) for row in answers)
print(f"\ncertain answers {names(oracle)} == rewriting answers "
      f"{names(evaluated)}: {oracle == evaluated}")
