"""The bounded oblivious chase as a verification oracle: forward-saturate a
database under the rules (inventing labeled nulls for existentials), read
certain answers off the result, and check a database against its FDs and
NCs the way `ontorewrite rewrite --database` does.

Run:  python demos/chase_oracle.py
"""

import ontorewrite as ow
from ontorewrite.chase import chase_up_to, evaluate_cq, nc_check_queries

# A rule pair that chases forever: each p-fact yields an s-fact, each s-fact
# a fresh p-fact with two invented nulls.
ONTOLOGY = "p(X,Y,Z) -> s(Y,X).  s(X,Y) -> p(Y,Z,W).  p(a,b,c)."
doc = ow.parse_ontology(ONTOLOGY)

for steps in (0, 1, 2, 5):
    inst = chase_up_to(doc.facts, doc.tgds, steps)
    atoms = ", ".join(str(a) for a in sorted(inst.atoms))
    print(f"chase^[{steps}]: {atoms}")

# Certain answers = answers over the (possibly truncated) chase; the flag
# says whether a fixpoint was reached, i.e. whether they are exact.
q = ow.parse_query("q(A) :- s(B, A).", doc.arities)
answers, saturated = ow.certain_answers(q, doc.facts, doc.tgds, 50)
print(f"\ncertain answers of {q}: "
      f"{sorted(tuple(t.name for t in a) for a in answers)} "
      f"(saturated={saturated})")

# Constraint checking.  An FD is checked by grouping each relation's facts
# on the FD's left-hand side: every ordered pair inside a group that differs
# on the right-hand side is a violation, with the two facts as witnesses;
# fatherOf(a, e) is alone in its group and violates nothing.
# An NC becomes a Boolean query that gets rewritten like any other query
# before evaluation.
CONSTRAINED = """
fatherOf(a, c). fatherOf(b, c). fatherOf(a, e).
fd fatherOf: 2 -> 1.
student(X), professor(X) -> !.
student(d). professor(d).
"""
cdoc = ow.parse_ontology(CONSTRAINED)
print()
for fd, a, b in ow.fd_violations(cdoc.fds, cdoc.facts):
    print(f"fd violated: {fd} witness {a}, {b}")

nc_queries = nc_check_queries(cdoc.ncs)
print(f"nc check query: {nc_queries[0]}")
print(f"nc violated: {bool(evaluate_cq(nc_queries[0], cdoc.facts))}")
