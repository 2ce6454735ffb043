#!/usr/bin/env python3
"""Self-test for check_bench_regression.py, generic over its RULES table.

Uses one results file as both baseline and fresh run (default: the
committed BENCH_pr10.json; pass a fresh bench_results.jsonl to test the
rules against a live sweep) and checks, through the gate's CLI:
  * an unchanged copy passes;
  * for every RULES row, a value doctored just past its bound fails;
  * for every RULES row, a fresh run missing the field fails.

Usage: test_check_bench_regression.py [RESULTS]   (exit 1 on any miss)
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from check_bench_regression import RULES  # noqa: E402

GATE = os.path.join(HERE, "check_bench_regression.py")


def gate_exit(fresh_rows, baseline_path):
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as fresh:
        for row in fresh_rows:
            fresh.write(json.dumps(row) + "\n")
    try:
        return subprocess.run([sys.executable, GATE, fresh.name, baseline_path],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    finally:
        os.unlink(fresh.name)


def doctored(rows, bench, edit):
    """Copies rows, applying edit() to the first row named bench."""
    out = [dict(row) for row in rows]
    edit(next(row for row in out if row.get("bench") == bench))
    return out


def main(argv):
    results = (argv[1] if len(argv) > 1
               else os.path.join(HERE, os.pardir, "BENCH_pr10.json"))
    with open(results, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]

    cases = [("unchanged copy", rows, 0)]
    for bench, field, direction, tolerance in RULES:
        def past_bound(row, field=field, direction=direction,
                       tolerance=tolerance):
            if direction == "higher":
                row[field] = row[field] * (1.0 - tolerance) * 0.99 - 1
            else:
                row[field] = row[field] * (1.0 + tolerance) * 1.01 + 1

        def drop(row, field=field):
            del row[field]

        cases.append((f"{bench}.{field} past its bound",
                      doctored(rows, bench, past_bound), 1))
        cases.append((f"{bench}.{field} missing",
                      doctored(rows, bench, drop), 1))

    misses = 0
    for label, fresh_rows, expected in cases:
        code = gate_exit(fresh_rows, results)
        ok = code == expected
        misses += 0 if ok else 1
        print(f"{'ok  ' if ok else 'MISS'} {label}: exit {code}, "
              f"expected {expected}")
    print(f"{len(cases) - misses}/{len(cases)} gate self-test cases held")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
