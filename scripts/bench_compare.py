#!/usr/bin/env python3
"""Diff two BENCH_coverage.json documents (see docs/OBSERVABILITY.md).

Usage:
    bench_compare.py BASELINE CURRENT

Identity checks (exact — any mismatch is a failure):
  * schema_version,
  * every field of a baseline case other than its name, algorithms and
    metrics: the scenario fingerprint, the (seed, users, uavs, s)
    parameters, and whatever else the case pins (fault-plan and trace
    fingerprints, patch and re-solve counts, service retries...); a field
    missing from the current case fails too,
  * per-algorithm served count and solution fingerprint,
  * every metrics counter value and histogram sample count.

Nothing is timed here; perfbench/ (BENCHMARK.json) is the timing
benchmark.  Cases are matched by name; the comparison runs over the
intersection so a `--quick` run can be checked against a full-suite
baseline (and vice versa).  An empty intersection is an error.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class Report:
    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, message):
        self.failures.append(message)

    def note(self, message):
        self.notes.append(message)


# Case keys that are not identity fields of their own: the name matches
# cases, and the algorithm rows and metrics have their own comparisons.
STRUCTURAL_KEYS = ("name", "algorithms", "metrics")


def compare_fields(case_name, base, cur, report):
    for field, value in base.items():
        if field in STRUCTURAL_KEYS:
            continue
        if field not in cur:
            report.fail(f"{case_name}: field {field} missing from current")
        elif cur[field] != value:
            report.fail(f"{case_name}: {field} {value} != {cur[field]}")


def compare_algorithms(case_name, base_algos, cur_algos, report):
    cur_by_name = {a["name"]: a for a in cur_algos}
    for base in base_algos:
        name = base["name"]
        cur = cur_by_name.get(name)
        if cur is None:
            report.fail(f"{case_name}: algorithm {name} missing from current")
            continue
        if cur["served"] != base["served"]:
            report.fail(
                f"{case_name}/{name}: served {base['served']} -> "
                f"{cur['served']}"
            )
        if cur["fingerprint"] != base["fingerprint"]:
            report.fail(
                f"{case_name}/{name}: solution fingerprint "
                f"{base['fingerprint']} -> {cur['fingerprint']}"
            )


def compare_metrics(case_name, base_metrics, cur_metrics, report):
    # Histogram sums/min/max/buckets are wall-clock derived; only the sample
    # counts are reproducible.  Gauges (queue depth) depend on thread
    # scheduling and are not compared.
    base_counters = base_metrics.get("counters", {})
    cur_counters = cur_metrics.get("counters", {})
    for name, value in sorted(base_counters.items()):
        if name not in cur_counters:
            report.fail(f"{case_name}: counter {name} missing from current")
        elif cur_counters[name] != value:
            report.fail(
                f"{case_name}: counter {name} {value} -> "
                f"{cur_counters[name]}"
            )
    base_hists = base_metrics.get("histograms", {})
    cur_hists = cur_metrics.get("histograms", {})
    for name, hist in sorted(base_hists.items()):
        if name not in cur_hists:
            report.fail(f"{case_name}: histogram {name} missing from current")
        elif cur_hists[name]["count"] != hist["count"]:
            report.fail(
                f"{case_name}: histogram {name} count {hist['count']} -> "
                f"{cur_hists[name]['count']}"
            )


def main():
    parser = argparse.ArgumentParser(
        description="Compare BENCH_coverage.json against a baseline."
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    report = Report()

    if baseline["schema_version"] != current["schema_version"]:
        report.fail(
            f"schema_version {baseline['schema_version']} != "
            f"{current['schema_version']}"
        )

    base_cases = {c["name"]: c for c in baseline["cases"]}
    cur_cases = {c["name"]: c for c in current["cases"]}
    shared = [n for n in base_cases if n in cur_cases]
    if not shared:
        report.fail("no common cases between baseline and current")
    for name in sorted(set(base_cases) ^ set(cur_cases)):
        report.note(f"case {name} present in only one document; skipped")

    for name in shared:
        base, cur = base_cases[name], cur_cases[name]
        compare_fields(name, base, cur, report)
        compare_algorithms(name, base["algorithms"], cur["algorithms"], report)
        compare_metrics(
            name, base.get("metrics", {}), cur.get("metrics", {}), report
        )

    for note in report.notes:
        print(f"[bench_compare] note: {note}")
    if report.failures:
        for failure in report.failures:
            print(f"[bench_compare] FAIL: {failure}")
        print(f"[bench_compare] {len(report.failures)} failure(s)")
        return 1
    print(f"[bench_compare] OK: {len(shared)} case(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
