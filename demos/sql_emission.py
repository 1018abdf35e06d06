"""SQL emission: the rewriting becomes one SELECT block per disjunct joined
by UNION, with shared variables as column equalities and constants pinned in
WHERE.  Executed here on an in-memory sqlite database.

Run:  python demos/sql_emission.py
"""

import sqlite3

import ontorewrite as ow
from ontorewrite.emit import SchemaMapping, to_sql

ONTOLOGY = "project(X), inArea(X,Y) -> hasCollaborator(Z,Y,X)."

doc = ow.parse_ontology(ONTOLOGY)
tgds, _, aux = ow.normalize_tgds(doc.tgds)
ctx = ow.RewriterContext(tgds, aux, doc.arities)
q = ow.parse_query("p(B) :- hasCollaborator(A, db, B).", doc.arities)
rewriting = ow.xrewrite(q, ctx).queries

mapping = SchemaMapping({
    "project": ("project", ["p_id"]),
    "inArea": ("inArea", ["p_id", "area"]),
    "hasCollaborator": ("hasCollaborator", ["c_id", "area", "p_id"]),
})
sql = to_sql(rewriting, mapping)
print("rewriting:")
for disjunct in rewriting:
    print("  ", disjunct)
print("\nSQL:\n" + sql)

# The union finds both the explicitly stored collaborator row and the
# project that the ontology says must have one.
con = sqlite3.connect(":memory:")
con.execute("CREATE TABLE project(p_id)")
con.execute("CREATE TABLE inArea(p_id, area)")
con.execute("CREATE TABLE hasCollaborator(c_id, area, p_id)")
con.execute("INSERT INTO project VALUES ('a')")
con.execute("INSERT INTO inArea VALUES ('a', 'db')")
con.execute("INSERT INTO hasCollaborator VALUES ('c7', 'db', 'b')")

print("\nrows:", sorted(con.execute(sql).fetchall()))

# Repeated variables inside one atom become self-equalities on the alias.
q2 = ow.make_query("p", [ow.var("A")],
                   [ow.atom("hasCollaborator", ow.var("A"), ow.var("B"),
                            ow.var("A"))])
print("\nself-join constraint:\n" + to_sql([q2], mapping))
