"""Backward-chaining UCQ rewriting for ontological query answering.

The package compiles a conjunctive query posed against an ontology of
existential rules (plus negative constraints and functional dependencies)
into a union of conjunctive queries that evaluates directly over the
extensional database, with query elimination, decomposition-based
rewriting, subsumption pruning, and a bounded-chase oracle for verification.

The names below are the pipeline's entry points by stage, the types they
take and return, and the paper's notions that the demos show.  Everything
else, such as the rewriting step that resolves a single piece, unification or
the cover graph, lives in its module: `ontorewrite.<module>.<name>`.
"""

from .model import (Atom, ConjunctiveQuery, TGD, Term, atom, canonical_rename,
                    const, make_query, var)
from .parser import (FunctionalDependency, NegativeConstraint,
                     OntologyDocument, ParseError, RawTGD, parse_ontology,
                     parse_query)
from .normalize import (classify, is_linear, is_multi_linear, is_sticky,
                        normalize_tgds, smark)
from .eliminate import EliminationContext, cover_sets, reduce_query
from .rewriter import (BudgetExhaustedError, Metrics, RewriteOptions,
                       RewriteResult, RewriterContext, xrewrite)
from .parallel import (Decomposition, ParallelResult, decompose, unfold,
                       xrewrite_parallel)
from .subsume import prune_ucq
from .chase import (ChaseInstance, certain_answers, chase_up_to, evaluate_cq,
                    evaluate_ucq, fd_violations, nc_check_queries)
from .emit import SchemaMapping, serialize_ucq, to_datalog, to_sql

__all__ = [
    # queries and rules
    "Term", "Atom", "ConjunctiveQuery", "TGD", "var", "const", "atom",
    "make_query", "canonical_rename",
    # parse
    "parse_ontology", "parse_query", "OntologyDocument", "RawTGD",
    "NegativeConstraint", "FunctionalDependency", "ParseError",
    # normalize and classify
    "normalize_tgds", "classify", "is_linear", "is_multi_linear", "is_sticky",
    "smark",
    # eliminate
    "EliminationContext", "reduce_query", "cover_sets",
    # rewrite, decompose and unfold, prune
    "RewriterContext", "RewriteOptions", "RewriteResult", "Metrics",
    "BudgetExhaustedError", "xrewrite", "xrewrite_parallel", "ParallelResult",
    "decompose", "Decomposition", "unfold", "prune_ucq",
    # answer and check constraints
    "evaluate_cq", "evaluate_ucq", "chase_up_to", "ChaseInstance",
    "certain_answers", "nc_check_queries", "fd_violations",
    # emit
    "serialize_ucq", "to_datalog", "to_sql", "SchemaMapping",
]
__version__ = "0.1.0"
