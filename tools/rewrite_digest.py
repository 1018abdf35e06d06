"""Digest of the rewritings the compiler emits, to check that a change keeps
them byte-identical.

Run from a checkout, at two commits, and compare the printed lines:

    python3 tools/rewrite_digest.py

It prints the number of rewritings and the SHA-256 of their
`emit.serialize_ucq` text, each preceded by its label:

- every operation of every `perfbench/workloads.py` workload at seeds 7
  and 8, compiled as the benchmark compiles it;
- `SUITES` random suites drawn with the generators of
  `tests/conftest.py`, each a linear and a sticky rule set with one query
  apiece, rewritten on the sequential and the decomposed path under
  subsumption none, tail and idec, with elimination at its default and off.

A rewriting that exhausts its budget counts with the text "budget".  Nothing
is written; the benchmark's modules are only imported.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]

from ontorewrite import emit  # noqa: E402
from ontorewrite.parallel import xrewrite_parallel  # noqa: E402
from ontorewrite.rewriter import (BudgetExhaustedError,  # noqa: E402
                                  RewriteOptions, xrewrite)

import workloads  # noqa: E402
from conftest import (QUERY_POOL, random_linear_rules,  # noqa: E402
                      random_query, random_sticky_rules, rules_context)

SEEDS = (7, 8)
SUITE_SEED = 2024
SUITES = 300
BUDGET = 50_000


def workload_rewritings():
    """(label, UCQ) for every workload operation at each seed."""
    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            w = build(seed)
            try:
                ctx, _ = workloads.set_up(w)
                for op in w.ops:
                    yield (f"{name}/{seed}/{op.label}",
                           workloads.compile_query(op, ctx))
            finally:
                w.close()


def suite_rewritings():
    """(label, UCQ or None when the budget ran out) for every random suite
    under every path, subsumption mode and elimination setting."""
    rng = random.Random(SUITE_SEED)
    for i in range(SUITES):
        for kind, rules in (("linear", random_linear_rules(rng)),
                            ("sticky", random_sticky_rules(rng, max_rules=4))):
            ctx = rules_context(rules)
            q = random_query(rng, pool=QUERY_POOL)
            for path, rewrite in (("seq", xrewrite), ("par", xrewrite_parallel)):
                for mode in ("none", "tail", "idec"):
                    for elimination in (None, False):
                        options = RewriteOptions(elimination=elimination,
                                                 subsumption=mode,
                                                 budget=BUDGET)
                        label = f"suite/{i}/{kind}/{path}/{mode}/{elimination}"
                        try:
                            yield label, rewrite(q, ctx, options).queries
                        except BudgetExhaustedError:
                            yield label, None


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for rewritings in (workload_rewritings(), suite_rewritings()):
        for label, ucq in rewritings:
            text = "budget\n" if ucq is None else emit.serialize_ucq(ucq)
            digest.update(f"{label}\n{text}".encode())
            count += 1
    print(f"{count} rewritings sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
