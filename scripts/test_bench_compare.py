#!/usr/bin/env python3
"""Tests that bench_compare.py catches drift in every identity field.

Each test copies the committed BENCH_coverage.json to a temporary
directory, changes one field of the copy, and compares the original
against it.  The comparison must exit 1 with exactly one FAIL line, and
that line must name the changed field.  The unchanged copy must pass.

Run: python3 scripts/test_bench_compare.py (ctest: bench_compare_drift).
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = pathlib.Path(__file__).resolve().parent
COMPARE = SCRIPTS / "bench_compare.py"
BASELINE = SCRIPTS.parent / "BENCH_coverage.json"


def case(doc, name):
    return next(c for c in doc["cases"] if c["name"] == name)


def row(doc, case_name, algorithm):
    return next(a for a in case(doc, case_name)["algorithms"]
                if a["name"] == algorithm)


class BenchCompareDriftTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.baseline = json.loads(BASELINE.read_text(encoding="utf-8"))

    def compare(self, mutate):
        """Runs bench_compare.py on the baseline and a mutated copy."""
        doc = copy.deepcopy(self.baseline)
        mutate(doc)
        with tempfile.TemporaryDirectory() as tmp:
            current = pathlib.Path(tmp) / "BENCH_coverage.json"
            current.write_text(json.dumps(doc), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, str(COMPARE), str(BASELINE), str(current)],
                capture_output=True, text=True, check=False)
        fails = [line for line in proc.stdout.splitlines()
                 if line.startswith("[bench_compare] FAIL:")]
        return proc.returncode, fails

    def assert_drift(self, mutate, field):
        code, fails = self.compare(mutate)
        self.assertEqual(code, 1)
        self.assertEqual(len(fails), 1, fails)
        self.assertIn(field, fails[0])

    def test_unchanged_copy_passes(self):
        code, fails = self.compare(lambda doc: None)
        self.assertEqual((code, fails), (0, []))

    def test_served_count(self):
        def mutate(doc):
            row(doc, "small_s1", "approAlg")["served"] += 1
        self.assert_drift(mutate, "small_s1/approAlg: served")

    def test_solution_fingerprint(self):
        def mutate(doc):
            row(doc, "repair_drill_s2", "repair_final")["fingerprint"] = (
                "0x0000000000000000")
        self.assert_drift(
            mutate, "repair_drill_s2/repair_final: solution fingerprint")

    def test_counter(self):
        def mutate(doc):
            counters = case(doc, "medium_s2")["metrics"]["counters"]
            counters["core.assignment.probes"] += 1
        self.assert_drift(mutate, "medium_s2: counter core.assignment.probes")

    def test_histogram_count(self):
        name = "core.assignment.probe_seconds"

        def mutate(doc):
            case(doc, "stream_churn_s1")["metrics"]["histograms"][name][
                "count"] -= 1
        self.assert_drift(mutate, f"stream_churn_s1: histogram {name} count")

    def test_fault_plan_fingerprint(self):
        def mutate(doc):
            case(doc, "repair_drill_s2")["fault_plan_fingerprint"] = (
                "0x0000000000000000")
        self.assert_drift(mutate, "repair_drill_s2: fault_plan_fingerprint")

    def test_case_counter_field(self):
        def mutate(doc):
            case(doc, "stream_churn_s1")["patches"] += 1
        self.assert_drift(mutate, "stream_churn_s1: patches")

    def test_missing_case_field(self):
        def mutate(doc):
            del case(doc, "stream_churn_s1")["trace_fingerprint"]
        self.assert_drift(
            mutate, "stream_churn_s1: field trace_fingerprint missing")

    def test_schema_version(self):
        def mutate(doc):
            doc["schema_version"] = 2
        self.assert_drift(mutate, "schema_version 1 != 2")


if __name__ == "__main__":
    unittest.main()
