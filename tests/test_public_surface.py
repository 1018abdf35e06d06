"""The package's public surface is the hand-written `__all__`, and the
README and the demos use nothing outside it."""

import re
import types
from pathlib import Path

import ontorewrite as ow

ROOT = Path(__file__).resolve().parent.parent

SURFACE = [
    "Term", "Atom", "ConjunctiveQuery", "TGD", "var", "const", "atom",
    "make_query", "canonical_rename",
    "parse_ontology", "parse_query", "OntologyDocument", "RawTGD",
    "NegativeConstraint", "FunctionalDependency", "ParseError",
    "normalize_tgds", "classify", "is_linear", "is_multi_linear", "is_sticky",
    "smark",
    "EliminationContext", "reduce_query", "cover_sets",
    "RewriterContext", "RewriteOptions", "RewriteResult", "Metrics",
    "BudgetExhaustedError", "xrewrite", "xrewrite_parallel", "ParallelResult",
    "decompose", "Decomposition", "unfold", "prune_ucq",
    "evaluate_cq", "evaluate_ucq", "chase_up_to", "ChaseInstance",
    "certain_answers", "nc_check_queries", "fd_violations",
    "serialize_ucq", "to_datalog", "to_sql", "SchemaMapping",
]


def test_all_is_the_written_list():
    assert ow.__all__ == SURFACE


def test_public_attributes_are_exactly_all():
    public = {name for name in vars(ow) if not name.startswith("_")
              and not isinstance(getattr(ow, name), types.ModuleType)}
    assert public == set(SURFACE)


def test_no_submodule_is_exported():
    for name in SURFACE:
        assert not isinstance(getattr(ow, name), types.ModuleType), name
    # the function of that name is not re-exported, so it hides nothing
    assert isinstance(ow.eliminate, types.ModuleType)
    assert ow.eliminate.__name__ == "ontorewrite.eliminate"


def test_readme_and_demos_use_only_the_surface():
    sources = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    used = {name for path in sources
            for name in re.findall(r"\bow\.(\w+)", path.read_text())}
    assert used and used <= set(SURFACE), used - set(SURFACE)
