"""The four workloads: their inputs, the round of operations every run
repeats, and the check applied to each operation's output.

An operation compiles one query the way `ontorewrite rewrite` does (parse,
normalize_tgds, RewriterContext, then xrewrite or xrewrite_parallel, with
prune_ucq after a sequential `tail` run); the harness then answers it with
chase.evaluate_ucq over the workload's database.  Every call goes through
the module attribute, so the traced run can wrap it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ontorewrite import normalize, parallel, parser, rewriter, subsume

import checks
import inputs

# Applications of the bounded chase behind the financial oracle.  On the
# 22-fact oracle databases the answers stop changing below 100 applications;
# checks.oracle also requires that half the budget gives the same answers.
ORACLE_BUDGET = 800

SEQ_TAIL_FAULT = (
    "sequential tail subsumption prunes descendants no surviving query "
    "subsumes (RewriteState.prune_with_descendants)")


@dataclass
class Op:
    label: str
    query: object
    sequential: bool
    elimination: Optional[bool]  # None: the CLI default, on for linear rules
    subsumption: str = "none"
    known_fault: Optional[str] = None
    check: Callable = None  # (ucq, answers) -> reason or None


@dataclass
class Workload:
    name: str
    ontology_text: str
    db_text: str
    parse_db_in_setup: bool
    ops: List[Op]
    setup_reps: int
    db: list
    sqlite: checks.SqliteDatabase

    def close(self):
        self.sqlite.close()


def set_up(w: Workload):
    """Parse and normalize the ontology, build the rewriter context and force
    its lazily built structures; in `answer` also parse the database."""
    doc = parser.parse_ontology(w.ontology_text)
    tgds, _, aux = normalize.normalize_tgds(doc.tgds)
    ctx = rewriter.RewriterContext(tgds, aux, doc.arities)
    if ctx.linear:
        ctx.elimination()
    ctx.affected()
    db = parser.parse_ontology(w.db_text).facts if w.parse_db_in_setup else w.db
    return ctx, db


def compile_query(op: Op, ctx):
    options = rewriter.RewriteOptions(elimination=op.elimination,
                                      subsumption=op.subsumption)
    if op.sequential:
        queries = rewriter.xrewrite(op.query, ctx, options).queries
        if op.subsumption == "tail":
            queries = subsume.prune_ucq(queries)
        return queries
    return parallel.xrewrite_parallel(op.query, ctx, options).queries


def _context(doc):
    tgds, _, aux = normalize.normalize_tgds(doc.tgds)
    return rewriter.RewriterContext(tgds, aux, doc.arities)


def _parse_facts(facts) -> list:
    return parser.parse_ontology(inputs.facts_text(facts)).facts


# ---------------------------------------------------------------------------


def _financial(name, seed, templates, sequential, db_shape, parse_db_in_setup,
               setup_reps) -> Workload:
    rng = random.Random(seed)
    doc = parser.parse_ontology(inputs.FINANCIAL)
    arities = dict(doc.arities)
    db_text = inputs.facts_text(inputs.financial_db(
        rng, *db_shape, shape_rng=random.Random(inputs.SHAPE_SEED)))
    db = parser.parse_ontology(db_text).facts
    oracle_db = _parse_facts(inputs.financial_db(rng, 3, 4, 2, 2))
    sql = checks.SqliteDatabase(db, arities)
    ops = []
    for k, template in enumerate(templates, start=1):
        q = parser.parse_query(inputs.seeded_variant(template, rng), dict(arities))
        expected = checks.oracle(q, oracle_db, doc.tgds, ORACLE_BUDGET)
        # The decomposed path without elimination shares neither the loop
        # over the whole query nor the reduction with the timed paths.
        reference = parallel.xrewrite_parallel(
            q, _context(doc), rewriter.RewriteOptions(elimination=False)).queries

        def check(ucq, answers, expected=expected, reference=reference):
            return checks.first_gap(
                checks.ucq_gap(ucq, oracle_db, expected, "the oracle database"),
                checks.equivalence_gap(ucq, reference),
                checks.sqlite_gap(ucq, answers, sql))
        ops.append(Op(f"q{k}", q, sequential=sequential,
                      elimination=False if sequential else None, check=check))
    return Workload(name, inputs.FINANCIAL, db_text, parse_db_in_setup, ops,
                    setup_reps, db=db, sqlite=sql)


def financial_seq(seed: int) -> Workload:
    return _financial("financial-seq", seed, inputs.FINANCIAL_QUERIES, True,
                      (8, 12, 3, 2), False, setup_reps=40)


def sizelaw_decomposed(seed: int) -> Workload:
    rng = random.Random(seed)
    m, n = inputs.SIZE_LAW_M, inputs.SIZE_LAW_N
    rules = inputs.size_law_rules(m)
    doc = parser.parse_ontology(rules)
    q = parser.parse_query(
        inputs.seeded_variant(inputs.size_law_query(n, False), rng),
        dict(doc.arities))
    db_text = inputs.facts_text(inputs.size_law_db(rng, m, 1))
    db = parser.parse_ontology(db_text).facts
    # The rules are full, so the chase saturates and the oracle is exact
    # on the workload's own database.
    expected = checks.oracle(q, db, doc.tgds, ORACLE_BUDGET)

    def check(ucq, answers):
        return checks.first_gap(
            checks.size_law_gap(ucq, n, m),
            checks.answer_gap(answers, expected, "the workload database"))
    ops = [Op("sizelaw", q, sequential=False, elimination=None, check=check)]
    return Workload("sizelaw-decomposed", rules, db_text, False, ops,
                    setup_reps=40, db=db,
                    sqlite=checks.SqliteDatabase(db, doc.arities))


def boolean_subsumption(seed: int) -> Workload:
    rng = random.Random(seed)
    m, n = inputs.SIZE_LAW_M, inputs.SIZE_LAW_N
    rules = inputs.size_law_rules(m)
    doc = parser.parse_ontology(rules)
    db_text = inputs.facts_text(inputs.size_law_db(rng, m, 2))
    db = parser.parse_ontology(db_text).facts
    sql = checks.SqliteDatabase(db, doc.arities)

    def oracle_check(q, dbs, minimal):
        per_db = [(d, checks.oracle(q, d, doc.tgds, ORACLE_BUDGET)) for d in dbs]

        def check(ucq, answers):
            gaps = [checks.boolean_gap(ucq, m, minimal)]
            if minimal:
                gaps.append(checks.minimality_gap(ucq))
            gaps.extend(checks.ucq_gap(ucq, d, want, f"oracle database {d}")
                        for d, want in per_db)
            gaps.append(checks.sqlite_gap(ucq, answers, sql))
            return checks.first_gap(*gaps)
        return check

    seeded = parser.parse_query(
        inputs.seeded_variant(inputs.size_law_query(n, True), rng),
        dict(doc.arities))
    seeded_dbs = [_parse_facts(f) for f in inputs.boolean_oracle_dbs(rng, m)]
    minimal_check = oracle_check(seeded, seeded_dbs, True)
    plain_check = oracle_check(seeded, seeded_dbs, False)
    ops = [Op(mode, seeded, sequential=False, elimination=None,
              subsumption=mode,
              check=minimal_check if mode == "tail" else plain_check)
           for mode in ("tail", "idec", "irew")]
    # The sequential tail run fails on every input of this family; it keeps
    # inputs that no seed touches, so that it fails the same way in every run.
    fixed = parser.parse_query(inputs.size_law_query(n, True), dict(doc.arities))
    fixed_dbs = [_parse_facts(f)
                 for f in inputs.boolean_oracle_dbs(random.Random(0), m)]
    ops.append(Op("seq-tail", fixed, sequential=True, elimination=False,
                  subsumption="tail", known_fault=SEQ_TAIL_FAULT,
                  check=oracle_check(fixed, fixed_dbs, True)))
    return Workload("boolean-subsumption", rules, db_text, False, ops,
                    setup_reps=40, db=db, sqlite=sql)


def answer_workload(seed: int) -> Workload:
    return _financial("answer", seed, inputs.ANSWER_QUERIES, False,
                      (300, 400, 16, 4), True, setup_reps=12)


BUILDERS = {
    "financial-seq": financial_seq,
    "sizelaw-decomposed": sizelaw_decomposed,
    "boolean-subsumption": boolean_subsumption,
    "answer": answer_workload,
}
