#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json records against the committed
baselines in bench/records/ and fail on performance regressions.

Only machine-independent metrics gate the build:

  * ``speedup_*`` (same-machine A/B ratios, e.g. wheel vs heap) must
    not drop by more than the threshold;
  * ``events_per_txn_*`` are deterministic event counts and must not
    grow by more than the threshold;
  * ``results_identical`` must stay exactly 1.

Absolute timings (``ns_per_*``, ``wall_seconds``, ``overhead_pct``,
``simulations_per_second``) and runner-shape metrics (``jobs``, the
parallel-scaling ``speedup`` of fig4, ``hardware_concurrency``) vary
with the host, so they are reported but never fail the check.

Usage:
    check_bench_regression.py --baseline bench/records \
        --current bench-records [--threshold 0.10]

Exit status: 0 when no gating metric regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# (pattern, direction) applied in order; first match wins.
# direction: "higher" = regression when it drops, "lower" = regression
# when it grows, "exact" = must match the baseline bit for bit.
GATING_RULES = [
    (re.compile(r"^results_identical$"), "exact"),
    (re.compile(r"^metrics_overhead_within_budget$"), "exact"),
    (re.compile(r"^speedup_.+"), "higher"),
    (re.compile(r"^events_per_txn_"), "lower"),
]


def rule_for(metric: str):
    for pattern, direction in GATING_RULES:
        if pattern.match(metric):
            return direction
    return None


def load_record(path: Path) -> dict:
    with path.open() as fh:
        record = json.load(fh)
    if record.get("schema") != "flexsnoop-bench-v1":
        raise ValueError(f"{path}: unexpected schema {record.get('schema')!r}")
    return record["metrics"]


def compare(name: str, baseline: dict, current: dict,
            threshold: float) -> list[str]:
    failures = []
    for metric, base in sorted(baseline.items()):
        direction = rule_for(metric)
        if metric not in current:
            failures.append(f"{name}: metric '{metric}' missing from "
                            "the new record")
            continue
        cur = current[metric]
        if base:
            delta = (cur - base) / base
        else:
            delta = 0.0 if cur == base else float("inf")
        marker = " "
        if direction == "exact":
            regressed = cur != base
        elif direction == "higher":
            regressed = cur < base * (1.0 - threshold)
        elif direction == "lower":
            regressed = cur > base * (1.0 + threshold)
        else:  # informational only
            regressed = False
            marker = "i"
        if regressed:
            marker = "X"
            failures.append(
                f"{name}: {metric} regressed: {base:g} -> {cur:g} "
                f"({delta:+.1%}, gate {direction}, "
                f"threshold {threshold:.0%})")
        print(f"  [{marker}] {name:24s} {metric:32s} "
              f"{base:>14g} -> {cur:>14g}  ({delta:+7.1%})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=Path("bench/records"),
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--current", type=Path, required=True,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression allowed on gating "
                             "metrics (default 0.10)")
    args = parser.parse_args()

    current_files = sorted(args.current.glob("BENCH_*.json"))
    if not current_files:
        print(f"error: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 1

    print(f"bench regression check: baseline={args.baseline} "
          f"current={args.current} threshold={args.threshold:.0%}")
    print("  [X] gating regression  [ ] gating ok  [i] informational")
    failures: list[str] = []
    checked = 0
    for cur_path in current_files:
        base_path = args.baseline / cur_path.name
        if not base_path.exists():
            print(f"  [i] {cur_path.name}: no committed baseline, skipped")
            continue
        checked += 1
        failures += compare(cur_path.name, load_record(base_path),
                            load_record(cur_path), args.threshold)

    if checked == 0:
        print("error: no record overlapped a committed baseline",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {checked} record(s) checked, no gating regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
