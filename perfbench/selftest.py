#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

1. Builds the benchmark and runs `dasc_perfbench --selftest`: both
   workloads at tiny sizes, untraced and traced, must pass the output
   checks, and the injected faults (an invalid pair, a dropped decision, a
   wrong batch score) must be rejected.
2. Copies only BENCHMARK.json and perfbench/ into a scratch directory under
   .bench_build/ and runs the benchmark there: without the repository's
   sources it must fail, quickly, without printing a result line.

Exits 0 when both hold.
"""
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402


def stripped_checkout_fails():
    scratch = os.path.join(run.BUILD_DIR, "stripped")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(run.HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    start = time.time()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    elapsed = time.time() - start
    shutil.rmtree(scratch, ignore_errors=True)
    printed_result = '"correct"' in done.stdout
    ok = done.returncode != 0 and not printed_result
    print(f"{'PASS' if ok else 'FAIL'} stripped checkout: exit "
          f"{done.returncode} after {elapsed:.1f} s, result printed: "
          f"{printed_result}")
    return ok


def main():
    if not run.build():
        return 1
    done = subprocess.run([run.BINARY, "--selftest"], cwd=run.ROOT)
    ok = done.returncode == 0
    ok &= stripped_checkout_fails()
    print(f"perfbench selftest {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
