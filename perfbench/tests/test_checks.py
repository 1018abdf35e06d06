"""Tests of the benchmark's own correctness checks.

    python3 -m unittest discover -s perfbench/tests

Each workload's check must pass the program's output, and reject it with
one disjunct dropped (with its equivalent copies) and with one spurious
disjunct added.  The sequential `tail` fault must be flagged, the tracer
must keep its spans and counts under concurrent workers, and the serialized
rewritings must not depend on the interpreter's hash seed.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from ontorewrite import chase, parser  # noqa: E402

SEED = 7


class CheckCase(unittest.TestCase):
    workload = None

    @classmethod
    def setUpClass(cls):
        cls.w = workloads.BUILDERS[cls.workload](SEED)
        ctx, cls.db = workloads.set_up(cls.w)
        cls.outputs = {op.label: workloads.compile_query(op, ctx)
                       for op in cls.w.ops}

    @classmethod
    def tearDownClass(cls):
        cls.w.close()

    def op(self, label):
        return next(op for op in self.w.ops if op.label == label)

    def verdict(self, label, ucq):
        return self.op(label).check(ucq, chase.evaluate_ucq(ucq, self.db))

    def assert_rejects_drops(self, label):
        """Dropping a disjunct is caught unless what is left still subsumes
        it.  Rewritings hold equivalent copies of a disjunct (the financial
        one holds pairs of them), so each disjunct is dropped with its copies."""
        ucq = self.outputs[label]
        dropped = 0
        for i, q in enumerate(ucq):
            copies = {j for j, p in enumerate(ucq)
                      if checks.maps_into(p, q) and checks.maps_into(q, p)}
            rest = [p for j, p in enumerate(ucq) if j not in copies]
            if any(checks.maps_into(p, q) for p in rest):
                continue
            dropped += 1
            with self.subTest(dropped=str(q)):
                self.assertIsNotNone(self.verdict(label, rest))
        self.assertGreater(dropped, 0)

    def assert_rejects_spurious(self, label, text):
        ucq = self.outputs[label]
        extra = parser.parse_query(text, {})
        self.assertIsNotNone(self.verdict(label, list(ucq) + [extra]))


class FinancialSeq(CheckCase):
    workload = "financial-seq"

    def test_passes_output(self):
        for op in self.w.ops:
            self.assertIsNone(self.verdict(op.label, self.outputs[op.label]))

    def test_rejects_dropped_disjunct(self):
        self.assert_rejects_drops("q1")

    def test_rejects_spurious_disjunct(self):
        v = [t.name for t in self.op("q1").query.head_args]
        self.assert_rejects_spurious(
            "q1", f"p({v[0]}, {v[1]}, {v[2]}) :- company({v[1]}, E, F), "
                  f"listComponent({v[0]}, {v[2]}).")


class Answer(CheckCase):
    workload = "answer"

    def test_passes_output(self):
        for op in self.w.ops:
            self.assertIsNone(self.verdict(op.label, self.outputs[op.label]))

    def test_rejects_dropped_disjunct(self):
        for op in self.w.ops:
            self.assert_rejects_drops(op.label)

    def test_rejects_spurious_disjunct(self):
        v = [t.name for t in self.op("q1").query.head_args]
        self.assert_rejects_spurious(
            "q1", f"p({v[0]}, {v[1]}, {v[2]}) :- legalPerson({v[1]}), "
                  f"listComponent({v[0]}, {v[2]}).")


class SizeLaw(CheckCase):
    workload = "sizelaw-decomposed"

    def test_passes_output(self):
        self.assertIsNone(self.verdict("sizelaw", self.outputs["sizelaw"]))

    def test_rejects_dropped_disjunct(self):
        ucq = self.outputs["sizelaw"]
        self.assertIsNotNone(self.verdict("sizelaw", ucq[1:]))
        # the count alone does not decide: a duplicate in place of a disjunct
        self.assertIsNotNone(self.verdict("sizelaw", ucq[1:] + ucq[-1:]))

    def test_rejects_spurious_disjunct(self):
        q = self.op("sizelaw").query
        v = [t.name for t in q.head_args]
        body = ", ".join(f"p_1({x})" for x in v)
        self.assert_rejects_spurious(
            "sizelaw", f"p({', '.join(v)}) :- {body}, e(B, C).")


class BooleanSubsumption(CheckCase):
    workload = "boolean-subsumption"

    def test_passes_output(self):
        for label in ("tail", "idec", "irew"):
            self.assertIsNone(self.verdict(label, self.outputs[label]))

    def test_rejects_dropped_disjunct(self):
        for label in ("tail", "idec", "irew"):
            self.assert_rejects_drops(label)

    def test_rejects_spurious_disjunct(self):
        for label in ("tail", "idec", "irew"):
            self.assert_rejects_spurious(label, "p() :- e(B, B).")
        # sound but redundant: only the minimal mode rejects it
        self.assert_rejects_spurious("tail", "p() :- p_1(X), p_2(Y), e(B, B).")

    def test_flags_sequential_tail_fault(self):
        op = self.op("seq-tail")
        self.assertIsNotNone(op.known_fault)
        gap = self.verdict("seq-tail", self.outputs["seq-tail"])
        self.assertIsNotNone(gap)
        verifier = harness.Verifier()
        ucq = self.outputs["seq-tail"]
        run = harness.OpRun(op, ucq, chase.evaluate_ucq(ucq, self.db), 0, 0, 0)
        self.assertFalse(verifier.verdict(run))
        self.assertEqual((verifier.attempted, verifier.failed), (1, 1))
        self.assertEqual(verifier.unexpected, [])


class TracerThreads(unittest.TestCase):
    def test_spans_and_counts_survive_concurrent_workers(self):
        import threading
        import types
        import tracing

        owner = types.SimpleNamespace()
        owner.inner = lambda x: x
        owner.outer = lambda x: owner.inner(x)
        tracer = tracing.Tracer()

        def count(args, result):
            tracer.counts["calls"] += 1
        tracer.wrap(owner, "inner", "inner", count)
        tracer.wrap(owner, "outer", "outer")
        calls = 3000
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(
                target=lambda: [owner.outer(i) for i in range(calls)])
                for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
            tracer.uninstall()
        self.assertFalse(any(t.is_alive() for t in workers))
        self.assertEqual(tracer.counts["calls"], 8 * calls)
        self.assertEqual(len(tracer.spans), 16 * calls)
        for name, start, end, parent in tracer.spans:
            if name == "inner":
                outer = tracer.spans[parent]
                self.assertEqual(outer[0], "outer")
                self.assertTrue(outer[1] <= start <= end <= outer[2])


DUMP = f"""
import sys
sys.path[:0] = [{SRC!r}, {BENCH!r}]
from ontorewrite import emit
import workloads
for name, build in workloads.BUILDERS.items():
    w = build({SEED})
    ctx, db = workloads.set_up(w)
    for op in w.ops:
        sys.stdout.write(f"% {{name}} {{op.label}}\\n")
        sys.stdout.write(emit.serialize_ucq(workloads.compile_query(op, ctx)))
    w.close()
"""


class HashSeed(unittest.TestCase):
    def test_rewritings_are_byte_identical_across_hash_seeds(self):
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.append(subprocess.run(
                [sys.executable, "-c", DUMP], env=env, check=True,
                capture_output=True, timeout=300).stdout)
        self.assertGreater(len(outs[0]), 1000)
        self.assertEqual(outs[0], outs[1])


if __name__ == "__main__":
    unittest.main()
