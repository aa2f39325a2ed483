#!/usr/bin/env python3
"""Closed-loop serving benchmark of the SaPHyRa library.

Run from the repository root:

    python3 servebench/run.py --workload social-subset --seed 1 --seconds 12 --trace 0

Builds the library and the load generator from source into .bench_build/
(first run only), runs the aggregation self-tests, generates the workload's
graph and request script from the seed (reused while seed and generator
parameters match), serves the script and prints a summary followed by one
JSON result line. --trace 1 prints the per-layer metrics instead of the
end-to-end ones. See servebench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("social-subset", "road-mutate", "social-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "servebench")
BINARY = os.path.join(BUILD, "servebench")
# A run must end within 180 s once built; the serving process gets what is
# left of this budget after generation.
RUN_BUDGET_S = 170

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, timeout, capture=False):
    """Run cmd to completion (killing it on timeout); returns (code, stdout)."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        print("servebench: %s timed out after %ds" % (cmd[0], timeout),
              file=sys.stderr)
        return 124, ""
    finally:
        code = _child.returncode
        _child = None
    return code, out or ""


def build():
    for required in ("src/service/session.h", "bench/bench_util.h"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print("servebench: %s not found; run from a full checkout"
                  % required, file=sys.stderr)
            return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], 300)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", BUILD, "-j", jobs], 850)
    return code == 0 and os.path.isfile(BINARY)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)

    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2
    start = time.monotonic()
    code, _ = run([BINARY, "selftest"], 30)
    if code != 0:
        print("servebench: aggregation self-tests failed", file=sys.stderr)
        return 1

    inputs = os.path.join(OUT, "servebench-inputs",
                          "%s-%d" % (a.workload, a.seed))
    code, _ = run([BINARY, "gen", "--workload", a.workload, "--seed",
                   str(a.seed), "--dir", inputs], 60)
    if code != 0:
        return 1

    work = os.path.join(OUT, "servebench-work", a.workload)
    results = os.path.join(OUT, "servebench-results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (a.workload, a.seed,
                                                         a.trace))
    remaining = max(30, int(RUN_BUDGET_S - (time.monotonic() - start)))
    code, out = run([BINARY, "serve", "--workload", a.workload,
                     "--seed", str(a.seed), "--seconds", str(a.seconds),
                     "--trace", str(a.trace), "--inputs", inputs,
                     "--work", work, "--results", stem + ".json",
                     "--spans", stem + "-spans.json"], remaining, capture=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (ValueError, IndexError):
        ok = False
    if code != 0 or not ok:
        sys.stderr.write(out)
        print("servebench: serving run failed (exit %d)" % code,
              file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
