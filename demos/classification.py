"""Syntactic classification of rule sets: linearity, multi-linearity, and
stickiness via the variable-marking procedure.  The rewriting provably
terminates on these classes; anything else should run with a step budget.

Run:  python demos/classification.py
"""

import ontorewrite as ow

# A sticky set: joins are allowed as long as marked variables never occur
# twice in a body.  Marking starts at body variables missing from the head
# and propagates backwards through head positions.
STICKY = """
r(X,Y) -> r(Y,Z).
r(X,Y) -> s(X).
s(X), s(Y) -> p(X,Y).
r(X,Y), r(Z,X) -> s(X).
"""

doc = ow.parse_ontology(STICKY)
print("rule set:")
for i, rule in enumerate(doc.tgds, start=1):
    print(f"  {i}. {rule}")

verdict = ow.classify(doc.tgds)
print(f"\nlinear={verdict['linear']}  multi_linear={verdict['multi_linear']}  "
      f"sticky={verdict['sticky']}")

marking = ow.smark(doc.tgds)
print("marked body variables:")
for i in range(len(doc.tgds)):
    names = sorted(v.name for v in marking[i])
    print(f"  rule {i + 1}: {', '.join(names) if names else '-'}")

# Transitivity breaks stickiness: the join variable is marked (it is absent
# from the head) and occurs twice in the body.
TRANSITIVE = "r(X,Y) -> r(Y,Z).  r(X,Y), r(Y,Z) -> r(X,Z)."
doc2 = ow.parse_ontology(TRANSITIVE)
print(f"\ntransitive set sticky? {ow.is_sticky(doc2.tgds)}")
m2 = ow.smark(doc2.tgds)
print(f"rule 2 marked variables: {sorted(v.name for v in m2[1])}")

# Multi-linear: several body atoms, but each carries all body variables.
doc3 = ow.parse_ontology("r(X,Y), s(X,Y) -> p(X).")
print(f"\nmulti-linear example: {ow.classify(doc3.tgds)}")
