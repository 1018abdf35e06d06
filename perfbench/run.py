"""Compile-and-answer benchmark of ontorewrite.

    python3 perfbench/run.py --workload financial-seq --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics, with --trace 1 one with the per-layer metrics
of a traced round.  Both are also written under perfbench/out/, with the
spans of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CONFIG = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = os.path.join(SRC, "ontorewrite")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write(f"error: no ontorewrite sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import ontorewrite
    if os.path.dirname(os.path.abspath(ontorewrite.__file__)) != package:
        sys.stderr.write(f"error: imported ontorewrite from {ontorewrite.__file__}\n")
        return 2

    import harness
    import workloads

    with open(CONFIG, encoding="utf-8") as fh:
        config = json.load(fh)
    section = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    if args.workload not in workloads.BUILDERS:
        ap.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    w = workloads.BUILDERS[args.workload](args.seed)
    try:
        if args.trace:
            result, spans = harness.run_traced(w)
        else:
            result, spans = harness.run_untraced(w, args.seconds), None
    finally:
        w.close()

    if set(result["metrics"]) != set(units):
        sys.stderr.write("error: the metrics measured are not those of "
                         "BENCHMARK.json\n")
        return 2
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = result["metrics"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
