#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/; later
calls only let the build tool confirm it is up to date. The benchmark's
stdout passes through unchanged: a human-readable report, then, as the last
line, one JSON object with "correct", "attempted", "failed" and "metrics".
Before passing that line on, this script checks that its metrics are
exactly the ones BENCHMARK.json lists for the run's mode, with the same
units.

Exit status: the benchmark's own (1 when an output check failed), or 3 when
the build fails, 4 when the result line does not match BENCHMARK.json, 5 on
a timeout. Nothing is printed as a result in those cases.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dasc_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the benchmark target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dasc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return (f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                f"{sorted(want.items())}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return None


def main(argv):
    if not build():
        return 3
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 5
    lines = done.stdout.rstrip("\n").split("\n")
    if argv == ["--selftest"] or done.returncode == 2:
        sys.stdout.write(done.stdout)
        return done.returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    error = validate(lines[-1], trace)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(error)
        return 4
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
