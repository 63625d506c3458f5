#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call builds the library sources
under src/ together with the benchmark program into .bench_build/ (a
Release build with its own CMake project, perfbench/CMakeLists.txt); later
calls only rebuild what changed. The build log goes to standard error.

A measuring run prints the program's description lines and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; this script refuses a result whose metric
names or units differ from the ones BENCHMARK.json lists.

--self-check runs every workload briefly in both modes, twice untraced,
and fails unless every metric is printed with its unit, every output check
passes, no operation fails, and a workload marked deterministic repeats its
io_per_query exactly across the two processes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
SELF_CHECK_SECONDS = 2


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(spec, workload, seed, seconds, trace):
    """Runs the program once; returns (description lines, result dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not a JSON result: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(spec, trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}")
    return lines[:-1], result


def self_check(spec):
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [measure(spec, name, 1, SELF_CHECK_SECONDS, t) for t in (0, 0, 1)]
        for (lines, r), mode in zip(runs, ("untraced", "untraced", "traced")):
            good = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
            print(f"{name} {mode}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for line in lines:
                if "failure" in line or "check failed" in line:
                    print("  " + line)
            ok &= good
        deterministic = any("(deterministic)" in l for l in runs[0][0])
        io = [runs[i][1]["metrics"]["io_per_query"]["value"] for i in (0, 1)]
        if deterministic and io[0] != io[1]:
            print(f"{name}: io_per_query differs between processes: {io}")
            ok = False
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    build()
    if args.self_check:
        return self_check(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    lines, result = measure(spec, args.workload, args.seed, seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
