#!/usr/bin/env python3
"""Bench baseline gate: compare a fresh bench/run_all.sh results file with a
committed BENCH_pr*.json baseline, one RULES row at a time.

Correctness is each bench's own job: bench_scenarios exits nonzero on a
missed detection, false evidence, a failed verification, nondeterminism,
online/offline or multiprocess parity loss, or an unbounded online trace;
bench_engine_throughput does when its evidence digest diverges across worker
counts; and run_all.sh exits nonzero when any bench does. This script does
the one thing no bench can do alone: hold the fresh numbers against the
committed baseline.

Usage: check_bench_regression.py FRESH BASELINE   (exit 1 on any violation)
"""

import json
import sys

# (row, field, direction, tolerance). "higher": the fresh value must be at
# least (1 - tolerance) x baseline; "lower": at most (1 + tolerance) x
# baseline. Every field must be present in both files.
RULES = (
    ("engine_throughput", "rounds_per_sec_1w", "higher", 0.25),
    ("engine_throughput", "rounds_per_sec_8w", "higher", 0.25),
    ("crypto_profile", "verifies_per_sec", "higher", 0.25),
    # Settle latency is SIM time, so it is host-independent. The quantile
    # is a log2-bucket upper edge, so a >25% rise means the p99 crossed
    # into a later drain cycle.
    ("scenarios_online", "p99_settle_us", "lower", 0.25),
)


def load_rows(path):
    """Returns {bench name: first row of that name} for a JSON-lines file."""
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(f"{path}:{number}: unparseable line: {error}")
            rows.setdefault(row.get("bench"), row)
    return rows


def check(fresh, baseline):
    """Applies RULES to two load_rows() maps; returns the failure messages."""
    failures = []
    for bench, field, direction, tolerance in RULES:
        name = f"{bench}.{field}"
        new = fresh.get(bench, {}).get(field)
        old = baseline.get(bench, {}).get(field)
        if new is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        if old is None:
            failures.append(f"{name}: missing from the baseline")
            continue
        if direction == "higher":
            bound = old * (1.0 - tolerance)
            ok = new >= bound
        else:
            bound = old * (1.0 + tolerance)
            ok = new <= bound
        print(f"{name}: baseline {old} -> fresh {new} "
              f"({'floor' if direction == 'higher' else 'ceiling'} "
              f"{bound:.1f}) {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(f"{name}: {old} -> {new} is past {bound:.1f}")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    failures = check(load_rows(argv[1]), load_rows(argv[2]))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench baseline gate: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
