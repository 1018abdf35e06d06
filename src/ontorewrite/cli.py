"""Command-line entry point wiring the pipeline together.

`rewrite` rewrites the query, and each negative constraint's check query,
through the one pipeline `parallel.xrewrite_parallel`.

Exit codes: 0 ok, 1 constraint violation, 2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import chase as chase_mod
from . import emit
from .graphs import (build_cover_graph, build_propagation_graph,
                     format_cover_graph, format_propagation_graph)
from .model import ConjunctiveQuery, as_index
from .normalize import classify, is_linear, normalize_tgds, smark
from .parser import ParseError, parse_ontology
from .rewriter import (SUBSUMPTION_MODES, BudgetExhaustedError,
                       RewriteOptions, RewriterContext)
from .parallel import xrewrite_parallel

OK, CONSTRAINT_VIOLATION, INPUT_ERROR, BUDGET_EXHAUSTED = 0, 1, 2, 3


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_ontology(path: str):
    return parse_ontology(_read(path))


def _check_arities(atoms, doc, what: str) -> None:
    """Each atom has the ontology's arity for its predicate (a predicate the
    ontology does not mention takes any arity)."""
    for a in atoms:
        if len(a.args) != doc.arities.get(a.pred, len(a.args)):
            raise InputError(f"{what} {a} does not have the ontology's "
                             f"arity {doc.arities[a.pred]} for {a.pred}")


def _load_query(path: str, doc) -> ConjunctiveQuery:
    """The one query of a query file; its head predicate names the answers
    and may clash with the ontology's, its body atoms may not."""
    queries = parse_ontology(_read(path)).queries
    if len(queries) != 1:
        raise InputError(f"{path} must contain exactly one query")
    _check_arities(queries[0].body, doc, "query atom")
    return queries[0]


def _load_database(path: str, doc) -> list:
    """The facts of a database file.  Any other statement is an input error,
    which names the file's first one in text order."""
    db_doc = parse_ontology(_read(path))
    if db_doc.non_facts:
        raise InputError(
            f"{path}: a database holds facts only, not {db_doc.non_facts[0]}")
    _check_arities(db_doc.facts, doc, "database fact")
    return db_doc.facts


def _context(doc) -> RewriterContext:
    tgds, _, aux = normalize_tgds(doc.tgds)
    return RewriterContext(tgds, aux, doc.arities)


def cmd_rewrite(args) -> int:
    doc = _load_ontology(args.ontology)
    query = _load_query(args.query, doc)
    ctx = _context(doc)

    if args.guarantee_termination:
        verdict = classify(ctx.tgds)
        if not (verdict["linear"] or verdict["multi_linear"] or verdict["sticky"]):
            raise InputError(
                "termination is not guaranteed: the rule set is neither "
                "linear, multi-linear nor sticky; rerun with --budget")
    if args.database is not None and args.output != "ucq":
        # with a database rewrite prints answers, not the rewriting
        raise InputError(f"--output={args.output} cannot be combined with "
                         "--database, which prints answers")
    if args.output == "datalog" and args.subsumption == "tail":
        # the folded program is not unfolded, so nothing prunes it whole
        raise InputError("--output=datalog cannot honour --subsumption=tail "
                         "(use idec or irew)")
    if args.output == "sql" and args.mapping is None:
        raise InputError("--output=sql requires --mapping")

    result = xrewrite_parallel(query, ctx, RewriteOptions(
        elimination=False if args.no_elimination else None,
        subsumption=args.subsumption, budget=args.budget))
    queries = result.queries
    answered = None  # with a database: the answer count and the seconds

    if args.database is not None:
        code, answered = _check_and_evaluate(args, doc, ctx, queries)
        if code != OK:
            return code
    elif args.output == "ucq":
        sys.stdout.write(emit.serialize_ucq(queries))
    elif args.output == "datalog":
        comp_ucqs = result.component_ucqs
        reconciliation = result.decomposition.reconciliation
        sys.stdout.write(emit.to_datalog(comp_ucqs, reconciliation))
        # --stats then describes the printed rules, not the unfolded UCQ
        queries = [q for u in comp_ucqs for q in u] + [reconciliation]
    elif args.output == "sql":
        mapping = emit.SchemaMapping.from_dict(json.loads(_read(args.mapping)))
        sys.stdout.write(emit.to_sql(queries, mapping) + "\n")

    if args.stats:
        # a blank line first, so that the rows are the last paragraph even
        # after an answer or rule that holds "="
        sys.stdout.write("\n" + emit.stats_report(queries, result.metrics,
                                                  answered) + "\n")
    return OK


def _check_and_evaluate(args, doc, ctx, queries) -> tuple:
    """The exit code, and once the checks pass, the number of answers
    printed and the seconds their evaluation took."""
    db = _load_database(args.database, doc)
    violations = [f"fd violated: {fd} witness {a}, {b}"
                  for fd, a, b in chase_mod.fd_violations(doc.fds, db)]
    # one instance, so its join indexes serve every check and the answers
    instance = as_index(db)
    for nc, check in zip(doc.ncs, chase_mod.nc_check_queries(doc.ncs)):
        rewritten = xrewrite_parallel(check, ctx, RewriteOptions(
            elimination=False, budget=args.budget)).queries
        if chase_mod.evaluate_ucq(rewritten, instance):
            violations.append(f"nc violated: {nc}")
    if violations:
        for v in violations:
            sys.stderr.write(v + "\n")
        return CONSTRAINT_VIOLATION, None

    t0 = time.perf_counter()
    answers = chase_mod.evaluate_ucq(queries, instance)
    seconds = time.perf_counter() - t0
    _write_answers(answers)
    return OK, (len(answers), seconds)


def _write_answers(answers) -> None:
    """One line per answer tuple, sorted, each term as it is written in a
    .dlog file."""
    sys.stdout.write("".join("(" + ", ".join(map(str, t)) + ")\n"
                             for t in sorted(answers)))


def cmd_classify(args) -> int:
    doc = _load_ontology(args.ontology)
    tgds, _, _ = normalize_tgds(doc.tgds)
    raw_verdict = classify(doc.tgds)
    norm_verdict = classify(tgds)
    for key in ("linear", "multi_linear", "sticky"):
        sys.stdout.write(f"{key}={str(norm_verdict[key]).lower()}\n")
    if raw_verdict != norm_verdict:
        for key in ("linear", "multi_linear", "sticky"):
            sys.stdout.write(f"raw_{key}={str(raw_verdict[key]).lower()}\n")
    sys.stdout.write("marking:\n")
    for ri, marked in enumerate(smark(doc.tgds), start=1):
        names = sorted(v.name for v in marked)
        sys.stdout.write(f"  rule {ri}: {', '.join(names) if names else '-'}\n")
    return OK


def cmd_chase(args) -> int:
    doc = _load_ontology(args.ontology)
    db = _load_database(args.database, doc) if args.database else doc.facts
    instance = chase_mod.chase_up_to(db, doc.tgds, args.steps)
    for a in sorted(instance.atoms):
        sys.stdout.write(f"{a}.\n")
    sys.stdout.write(f"% saturated={str(instance.saturated).lower()}\n")
    return OK


def cmd_graph(args) -> int:
    doc = _load_ontology(args.ontology)
    tgds, _, _ = normalize_tgds(doc.tgds)
    pg = build_propagation_graph(tgds)
    sys.stdout.write("propagation graph:\n")
    sys.stdout.write(format_propagation_graph(pg) + "\n")
    if is_linear(tgds):
        cg = build_cover_graph(tgds)
        sys.stdout.write("cover graph:\n")
        sys.stdout.write(format_cover_graph(cg) + "\n")
    return OK


def cmd_eval(args) -> int:
    doc = _load_ontology(args.ontology)
    query = _load_query(args.query, doc)
    db = _load_database(args.database, doc) if args.database else doc.facts
    answers, saturated = chase_mod.certain_answers(query, db, doc.tgds, args.steps)
    _write_answers(answers)
    sys.stdout.write(f"% saturated={str(saturated).lower()}\n")
    return OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontorewrite",
        description="Compile conjunctive queries over existential-rule "
                    "ontologies into UCQ/Datalog/SQL rewritings.")
    sub = parser.add_subparsers(dest="command", required=True)

    rw = sub.add_parser("rewrite", help="rewrite a query against an ontology")
    rw.add_argument("--ontology", required=True)
    rw.add_argument("--query", required=True)
    rw.add_argument("--database")
    rw.add_argument("--mapping", help="JSON schema mapping for SQL output")
    rw.add_argument("--output", choices=("ucq", "datalog", "sql"), default="ucq")
    rw.add_argument("--subsumption", choices=SUBSUMPTION_MODES, default="none")
    rw.add_argument("--no-elimination", action="store_true")
    rw.add_argument("--guarantee-termination", action="store_true")
    rw.add_argument("--budget", type=int)
    rw.add_argument("--stats", action="store_true")
    rw.set_defaults(func=cmd_rewrite)

    cl = sub.add_parser("classify", help="classify the rule set")
    cl.add_argument("--ontology", required=True)
    cl.set_defaults(func=cmd_classify)

    ch = sub.add_parser("chase", help="run the bounded oblivious chase")
    ch.add_argument("--ontology", required=True)
    ch.add_argument("--database")
    ch.add_argument("--steps", type=int, default=1000)
    ch.set_defaults(func=cmd_chase)

    gr = sub.add_parser("graph", help="dump propagation and cover graphs")
    gr.add_argument("--ontology", required=True)
    gr.set_defaults(func=cmd_graph)

    ev = sub.add_parser("eval", help="certain answers via the chase oracle")
    ev.add_argument("--ontology", required=True)
    ev.add_argument("--query", required=True)
    ev.add_argument("--database")
    ev.add_argument("--steps", type=int, default=1000)
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BUDGET_EXHAUSTED
    except (InputError, ParseError, KeyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
