#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at tiny refs per core.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks that:
  * every metric BENCHMARK.json names is emitted, with its unit, in the
    mode that should emit it, and the run reports itself correct;
  * the traced run's spans nest (children inside their parents, self
    time >= 0) and every cell's traced and untraced twins agreed with
    runSimulation (a disagreement fails the cell);
  * the untraced and traced runs of one seed print the same result
    fingerprint, and the deterministic metrics (simulated figures,
    per-layer counts) repeat exactly across two invocations.
Finally it checks that the benchmark refuses to run, without printing a
result, when the simulator sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

TINY = 0.05  # refs-per-core scale: a few dozen refs per core
SEED = 7
# End-to-end metrics timed on the host; everything else is simulated.
HOST_METRICS = {"setup_s", "peak_rss_mb"}
# Units of per-layer metrics timed on the host (spans, drivers, tracing
# overhead) or read from the allocator; the rest are counts and ratios.
HOST_LAYER_UNITS = {"s", "ns", "kB", "%", "refs/s"}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def fingerprint(lines):
    for line in lines:
        if line.startswith("perfbench fingerprint "):
            return line.split()[-1]
    return None


def check_spans(path, workload):
    with open(path) as f:
        spans = json.load(f)
    children = {}
    for s in spans:
        check(s["end_ns"] >= s["start_ns"],
              f"{workload}: span {s['id']} {s['name']} ends before it starts")
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        check(p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"],
              f"{workload}: span {s['id']} {s['name']} outside its parent "
              f"{p['name']}")
        children.setdefault(p["id"], []).append(s)
    for pid, kids in children.items():
        p = spans[pid]
        covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
        check(p["end_ns"] - p["start_ns"] - covered >= 0,
              f"{workload}: span {pid} {p['name']} has negative self time")
    names = {s["name"] for s in spans}
    for name in ("run", "cell", "workload.generate", "core.run_simulation",
                 "core.machine_build", "sim.event_loop", "coherence.check",
                 "trace.analyze", "drivers"):
        check(name in names, f"{workload}: no '{name}' span")


def main():
    binary = bench.build()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in bench.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            for rep in (0, 1):
                lines, result = bench.run(binary, w, SEED, 0.001, trace, TINY)
                runs[trace, rep] = (lines, result)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want[trace],
                      f"{w} trace {trace}: metrics {sorted(got)} differ "
                      "from BENCHMARK.json")
                check(result["correct"] and result["failed"] == 0,
                      f"{w} trace {trace}: run not correct "
                      f"({result['failed']} of {result['attempted']} "
                      "cells failed)")

        prints = {fingerprint(lines) for lines, _ in runs.values()}
        check(len(prints) == 1 and None not in prints,
              f"{w}: fingerprints differ across runs: {prints}")
        for trace in (0, 1):
            a = runs[trace, 0][1]["metrics"]
            b = runs[trace, 1][1]["metrics"]
            for name in a:
                timed = (name in HOST_METRICS if trace == 0
                         else a[name]["unit"] in HOST_LAYER_UNITS)
                if not timed:
                    check(a[name]["value"] == b[name]["value"],
                          f"{w}: {name} differs across invocations: "
                          f"{a[name]['value']} vs {b[name]['value']}")
        check_spans(os.path.join(bench.out_dir(),
                                 f"{w}-seed{SEED}-trace1-spans.json"), w)

    # Without the simulator sources the benchmark must refuse to run.
    bare = os.path.join(os.path.dirname(bench.build_dir()), "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "specjbb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "benchmark ran without the simulator sources")
    shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print(f"{len(failures)} smoke check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("perfbench smoke tests passed")


if __name__ == "__main__":
    main()
