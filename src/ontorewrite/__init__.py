"""Backward-chaining UCQ rewriting for ontological query answering.

The package compiles a conjunctive query posed against an ontology of
existential rules (plus negative constraints and functional dependencies)
into a union of conjunctive queries that evaluates directly over the
extensional database, with query elimination, decomposition-based
rewriting, subsumption pruning, and a bounded-chase oracle for verification.
"""

from .model import (Atom, ConjunctiveQuery, TGD, Term, apply, atom,
                    canonical_rename, compose, const, find_homomorphism,
                    make_query, mgu, var)
from .parser import (FunctionalDependency, NegativeConstraint,
                     OntologyDocument, ParseError, RawTGD, parse_ontology,
                     parse_query)
from .normalize import (classify, is_linear, is_multi_linear, is_sticky,
                        normalize_tgds, smark)
from .graphs import (CoverGraph, affected_positions, build_cover_graph,
                     build_propagation_graph, is_compatible, is_tight)
from .eliminate import (EliminationContext, cover_sets, covers, eliminate,
                        reduce_query, shared_terms)
from .rewriter import (BudgetExhaustedError, Metrics, RewriteOptions,
                       RewriteResult, RewriterContext, applicable,
                       factorizable, factorize_step, rewrite_step, xrewrite)
from .parallel import Decomposition, decompose, unfold, xrewrite_parallel
from .subsume import prune_ucq, subsumes
from .chase import (ChaseInstance, certain_answers, chase_up_to, evaluate_cq,
                    evaluate_ucq, fd_check_queries, materialize_neq,
                    nc_check_queries)
from .emit import (SchemaMapping, count_joins, count_joins_total, serialize_ucq,
                   stats_report, to_datalog, to_sql)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
