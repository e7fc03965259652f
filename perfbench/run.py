#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload splash2 --seed 1 --seconds 20 --trace 0

The simulator library and the benchmark binary are built from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
the first run; later runs only re-check the build. The binary prints a
host-shape line, a result fingerprint and, as the last line of stdout,
the result JSON. This script checks that JSON against BENCHMARK.json
and exits non-zero, without a result line, when anything fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("splash2", "specjbb", "hier64")
# A run measures for --seconds; set-up, the traced twins and the layer
# drivers come on top. Past this the run is killed and counts as failed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def out_dir():
    """Where runs leave their reports, span files and scratch traces."""
    return os.path.join(os.path.dirname(build_dir()), "perfbench-out")


def build():
    """Configure once, then (re)build; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def commit_id():
    """HEAD of the repository this checkout is, or 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json says this mode emits."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, refs_scale=1.0):
    """Run the binary once; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--refs-scale", repr(refs_scale), "--out", out_dir(),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark binary exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not the result JSON")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    lines, result = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
