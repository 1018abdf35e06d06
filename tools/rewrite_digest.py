"""Digest of the rewritings the compiler emits and of what the parser reads,
to check that a change keeps them byte-identical.

Run from a checkout, at two commits, and compare the eight printed lines:

    python3 tools/rewrite_digest.py

The first line gives the number of rewritings and the SHA-256 of their
`emit.serialize_ucq` text, each preceded by its label:

- every operation of every `perfbench/workloads.py` workload at seeds 7
  and 8, compiled as the benchmark compiles it;
- `SUITES` random suites drawn with the generators of
  `tests/conftest.py`, each a linear and a sticky rule set with one query
  apiece, rewritten on the sequential and the decomposed path under
  subsumption none, tail and idec, with elimination at its default and off.
  `xrewrite` reads no subsumption mode, so the sequential path prunes its
  output with `subsume.prune_ucq` under tail and idec.

A rewriting that exhausts its budget counts with the text "budget".

The second line gives the number of rule-set analyses and the SHA-256 of
their text: the exit code and output of `ontorewrite graph` and `ontorewrite
classify`, run through `cli.main`, on the financial ontology of
`tests/conftest.py` and on each random suite's rule set.

The third line gives the number of answer sets and the SHA-256 of their
text: the answers of `chase.evaluate_ucq` to each rewriting of the first
line, sorted, one tuple a line as `ontorewrite rewrite --database` prints
them, or "budget".  A workload operation is answered over its workload's
database; a random suite over a database drawn with `random_database` of
`tests/conftest.py`, one per rule set of the suite, from a generator of its
own seed.

The fourth line gives the number of command-line runs and the SHA-256 of
their text: the exit code and output of `ontorewrite rewrite`, run through
`cli.main` at its default options on each random suite's rule set and
query, three times: with `--output ucq`, with `--output datalog`, and with
`--database` over the suite's database of the third line.

The fifth line gives the number of parses and the SHA-256 of their text:
the `repr` of the document `parser.parse_ontology` makes of each text, or
the message, line and column of the `ParseError` it raises.  The texts are
every workload's ontology and database text at seeds 7 and 8, each random
suite's rule set, query (after `?`) and database written as one document,
and `MUTATIONS` mutations of each, drawn with `mutate` of
`tests/conftest.py` from a generator of its own seed.

The sixth line gives the number of DL-Lite rewritings and the SHA-256 of
their `emit.serialize_ucq` text, each preceded by its label: `DL_LITE_QUERY`
and its Boolean form over `dl_lite_ontology(22, c)` of `tests/conftest.py`
for c in `DL_LITE_CONCEPTS` (174 and 349 normalized rules), rewritten by
`xrewrite` with elimination on and by `xrewrite_parallel` at its default
options, both under the `BUDGET` step budget.  A rewriting that exhausts
its budget counts with the text "budget".

The seventh line gives the number of symmetric rewritings and the SHA-256
of their `emit.serialize_ucq` text, each preceded by its label: 1, 2, 3
and 4 variable-disjoint `TRIANGLE`s, two copies of a `PATH`, and one
`TRIANGLE` and one `PATH` followed by the `LONE` atoms (`copies_body` of
`tests/conftest.py`), over `SYMMETRIC_ONTOLOGY`, Boolean and with the first
variable in the head, rewritten by `xrewrite` and by `xrewrite_parallel`
under subsumption none and tail (`xrewrite`'s output pruned by
`subsume.prune_ucq` under tail), at the default elimination and under the
`BUDGET` step budget.  A rewriting that exhausts its budget counts with the
text "budget".  The last three shapes are bodies on which a walk over the
whole body, as canonical renaming once made, would interleave the groups
of linked atoms or branch over the order of tied copies.

The eighth line gives the number of rewritings and the SHA-256 of their
canonical forms, each preceded by its label: per rewriting of the first,
sixth and seventh lines, and per `PIECE_CASES` cases of
`random_piece_case` of `tests/conftest.py` drawn from a generator of its
own seed and rewritten by `xrewrite` and by `xrewrite_parallel` with
elimination at its default and off, the `str` of each disjunct's
`model.canonical_rename`, sorted, one a line, or "budget".  It ignores the
numbering of the variables that rewriting steps introduce and the order of
the disjuncts, which the first, sixth and seventh lines keep.

Only temporary ontology, query and database files for the CLI are
written; the benchmark's modules are only imported.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]

from ontorewrite import chase, cli, emit  # noqa: E402
from ontorewrite.model import canonical_rename, make_query  # noqa: E402
from ontorewrite.parser import (ParseError, parse_ontology,  # noqa: E402
                                parse_query)
from ontorewrite.parallel import xrewrite_parallel  # noqa: E402
from ontorewrite.rewriter import (BudgetExhaustedError,  # noqa: E402
                                  RewriteOptions, xrewrite)
from ontorewrite.subsume import prune_ucq  # noqa: E402

import workloads  # noqa: E402
from conftest import (DL_LITE_QUERY, FINANCIAL, PATH,  # noqa: E402
                      QUERY_POOL, SYMMETRIC_ONTOLOGY, TRIANGLE, copies_body,
                      dl_lite_ontology, mutate, random_database,
                      random_linear_rules, random_piece_case, random_query,
                      random_sticky_rules, rules_context)

SEEDS = (7, 8)
SUITE_SEED = 2024
DATABASE_SEED = 2025
MUTATION_SEED = 2026
MUTATIONS = 4
PIECE_SEED = 2027
PIECE_CASES = 300
SUITES = 300
BUDGET = 50_000
DL_LITE_CONCEPTS = (100, 200)
# atoms beside the first copy; e(X0_0, Y) joins it unless X0_0 is in the head
LONE = ", e(a, a), e(X0_0, Y), f(Z, a)"
SYMMETRIC_SHAPES = (("triangle", TRIANGLE, 1, ""), ("triangle", TRIANGLE, 2, ""),
                    ("triangle", TRIANGLE, 3, ""), ("path", PATH, 2, ""),
                    ("triangle", TRIANGLE, 4, ""),
                    ("triangle+lone", TRIANGLE, 1, LONE),
                    ("path+lone", PATH, 1, LONE))


def workload_rewritings():
    """(label, UCQ, database) for every workload operation at each seed."""
    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            w = build(seed)
            try:
                ctx, db = workloads.set_up(w)
                for op in w.ops:
                    yield (f"{name}/{seed}/{op.label}",
                           workloads.compile_query(op, ctx), db)
            finally:
                w.close()


def suites():
    """(label, rule set, query) for every random suite, a linear and a
    sticky rule set per suite, in the order the generators draw them."""
    rng = random.Random(SUITE_SEED)
    for i in range(SUITES):
        for kind, rules in (("linear", random_linear_rules(rng)),
                            ("sticky", random_sticky_rules(rng, max_rules=4))):
            yield f"suite/{i}/{kind}", rules, random_query(rng, pool=QUERY_POOL)


def suites_with_databases():
    """(label, rule set, query, database) for every random suite."""
    db_rng = random.Random(DATABASE_SEED)
    for suite, rules, q in suites():
        yield suite, rules, q, random_database(db_rng, max_facts=12,
                                               pool=QUERY_POOL)


def suite_rewritings():
    """(label, UCQ or None when the budget ran out, database) for every
    random suite under every path, subsumption mode and elimination
    setting."""
    for suite, rules, q, db in suites_with_databases():
        ctx = rules_context(rules)
        for path, rewrite in (("seq", xrewrite), ("par", xrewrite_parallel)):
            for mode in ("none", "tail", "idec"):
                for elimination in (None, False):
                    options = RewriteOptions(elimination=elimination,
                                             subsumption=mode, budget=BUDGET)
                    label = f"{suite}/{path}/{mode}/{elimination}"
                    try:
                        queries = rewrite(q, ctx, options).queries
                        if path == "seq" and mode != "none":
                            queries = prune_ucq(queries)
                        yield label, queries, db
                    except BudgetExhaustedError:
                        yield label, None, db


def dl_lite_rewritings():
    """(label, UCQ or None when the budget ran out) for the DL-Lite query
    and its Boolean form over each DL-Lite ontology, sequentially with
    elimination on and on the decomposed path at its default options."""
    for concepts in DL_LITE_CONCEPTS:
        doc = parse_ontology(dl_lite_ontology(22, concepts))
        ctx = rules_context(doc.tgds)
        q = parse_query(DL_LITE_QUERY, dict(doc.arities))
        boolean = make_query("q", (), q.body)
        for form, query in (("query", q), ("boolean", boolean)):
            for path, rewrite, options in (
                    ("seq", xrewrite, RewriteOptions(elimination=True,
                                                     budget=BUDGET)),
                    ("par", xrewrite_parallel, RewriteOptions(budget=BUDGET))):
                label = f"dl-lite/{concepts}/{form}/{path}"
                try:
                    yield label, rewrite(query, ctx, options).queries
                except BudgetExhaustedError:
                    yield label, None


def symmetric_rewritings():
    """(label, UCQ or None when the budget ran out) for every symmetric
    query, Boolean and with the first variable in the head, on both paths
    under subsumption none and tail."""
    doc = parse_ontology(SYMMETRIC_ONTOLOGY)
    ctx = rules_context(doc.tgds)
    for name, shape, copies, lone in SYMMETRIC_SHAPES:
        body = ", ".join(map(str, copies_body([shape] * copies))) + lone
        for form, head in (("boolean", ""), ("query", "X0_0")):
            q = parse_query(f"q({head}) :- {body}.", dict(doc.arities))
            for path, rewrite in (("seq", xrewrite),
                                  ("par", xrewrite_parallel)):
                for mode in ("none", "tail"):
                    options = RewriteOptions(subsumption=mode, budget=BUDGET)
                    label = f"{name}/{copies}/{form}/{path}/{mode}"
                    try:
                        queries = rewrite(q, ctx, options).queries
                        if path == "seq" and mode != "none":
                            queries = prune_ucq(queries)
                        yield label, queries
                    except BudgetExhaustedError:
                        yield label, None


def piece_rewritings():
    """(label, UCQ or None when the budget ran out) for every case of
    `random_piece_case` on both paths, with elimination at its default and
    off."""
    rng = random.Random(PIECE_SEED)
    for i in range(PIECE_CASES):
        rules, q = random_piece_case(rng)
        ctx = rules_context(rules)
        for path, rewrite in (("seq", xrewrite), ("par", xrewrite_parallel)):
            for elimination in (None, False):
                options = RewriteOptions(elimination=elimination,
                                         budget=BUDGET)
                label = f"piece/{i}/{path}/{elimination}"
                try:
                    yield label, rewrite(q, ctx, options).queries
                except BudgetExhaustedError:
                    yield label, None


def analyses(tmp: str):
    """(label, text) for `graph` and `classify` on the financial ontology
    and on every random suite's rule set: the exit code, then the output."""
    ontologies = [("financial", FINANCIAL)]
    ontologies += [(suite, "".join(f"{r}\n" for r in rules))
                   for suite, rules, _ in suites()]
    path = os.path.join(tmp, "ontology.dlog")
    for name, text in ontologies:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("graph", "classify"):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main([command, "--ontology", path])
            yield f"{name}/{command}", f"{code}\n{out.getvalue()}"


def suite_texts(rules, q, db):
    """A random suite's rule set, query and database as .dlog texts."""
    return ("".join(f"{r}\n" for r in rules), f"{q}\n",
            "".join(f"{a}.\n" for a in db))


def rewrite_runs(tmp: str):
    """(label, text) for `rewrite` on every random suite with `--output ucq`,
    `--output datalog` and `--database`: the exit code, then the output."""
    paths = [os.path.join(tmp, f"{name}.dlog")
             for name in ("ontology", "query", "database")]
    ontology, query, database = paths
    runs = (("ucq", ["--output", "ucq"]), ("datalog", ["--output", "datalog"]),
            ("database", ["--database", database]))
    for suite, rules, q, db in suites_with_databases():
        for path, text in zip(paths, suite_texts(rules, q, db)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for run, extra in runs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["rewrite", "--ontology", ontology,
                                 "--query", query] + extra)
            yield f"{suite}/rewrite/{run}", f"{code}\n{out.getvalue()}"


def parse_texts():
    """(label, text) for every text the fifth line parses, each followed by
    its mutations."""
    texts = []
    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            w = build(seed)
            w.close()
            texts += [(f"{name}/{seed}/ontology", w.ontology_text),
                      (f"{name}/{seed}/database", w.db_text)]
    for suite, rules, q, db in suites_with_databases():
        rules_text, query_text, db_text = suite_texts(rules, q, db)
        texts.append((suite, f"{rules_text}? {query_text}{db_text}"))
    rng = random.Random(MUTATION_SEED)
    for label, text in texts:
        yield label, text
        for k in range(MUTATIONS):
            yield f"{label}/mutation/{k}", mutate(rng, text)


def parse_outcome(text) -> str:
    """The parsed document's repr, or the parse error and its position."""
    try:
        return f"{parse_ontology(text)!r}\n"
    except ParseError as exc:
        return f"{(str(exc), exc.line, exc.col)!r}\n"


def digest(items):
    """The number of (label, text) pairs and the SHA-256 of them all."""
    sha = hashlib.sha256()
    count = 0
    for label, text in items:
        sha.update(f"{label}\n{text}".encode())
        count += 1
    return count, sha.hexdigest()


def answers_text(ucq, db) -> str:
    """The UCQ's answers over the database, sorted, one tuple a line."""
    return "".join("(" + ", ".join(map(str, t)) + ")\n"
                   for t in sorted(chase.evaluate_ucq(ucq, db)))


def canonical_text(ucq) -> str:
    """The canonical forms of the UCQ's disjuncts, sorted, one a line."""
    return "".join(f"{line}\n" for line in
                   sorted(str(canonical_rename(q)) for q in ucq))


def main() -> int:
    rewritings = list(itertools.chain(workload_rewritings(),
                                      suite_rewritings()))
    count, sha = digest(
        (label, "budget\n" if ucq is None else emit.serialize_ucq(ucq))
        for label, ucq, _ in rewritings)
    print(f"{count} rewritings sha256={sha}")
    with tempfile.TemporaryDirectory() as tmp:
        count, sha = digest(analyses(tmp))
    print(f"{count} analyses sha256={sha}")
    count, sha = digest(
        (label, "budget\n" if ucq is None else answers_text(ucq, db))
        for label, ucq, db in rewritings)
    print(f"{count} answers sha256={sha}")
    with tempfile.TemporaryDirectory() as tmp:
        count, sha = digest(rewrite_runs(tmp))
    print(f"{count} rewrite runs sha256={sha}")
    count, sha = digest((label, parse_outcome(text))
                        for label, text in parse_texts())
    print(f"{count} parses sha256={sha}")
    dl_lite = list(dl_lite_rewritings())
    count, sha = digest(
        (label, "budget\n" if ucq is None else emit.serialize_ucq(ucq))
        for label, ucq in dl_lite)
    print(f"{count} DL-Lite rewritings sha256={sha}")
    symmetric = list(symmetric_rewritings())
    count, sha = digest(
        (label, "budget\n" if ucq is None else emit.serialize_ucq(ucq))
        for label, ucq in symmetric)
    print(f"{count} symmetric rewritings sha256={sha}")
    count, sha = digest(
        (label, "budget\n" if ucq is None else canonical_text(ucq))
        for label, ucq in itertools.chain(
            ((label, ucq) for label, ucq, _ in rewritings), dl_lite,
            symmetric, piece_rewritings()))
    print(f"{count} canonical rewritings sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
