#!/usr/bin/env python3
"""Builds and runs the cross-layer benchmark.

    python3 perfbench/run.py --workload steady|churn|tenants --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The driver and the runtime it measures are
built from ../src into .bench_build/perfbench (CMake, -O2) on first use;
later runs only re-check the build. Build output goes to standard error;
the driver's report, ending in one JSON line, goes to standard output.
The exit code is the driver's: non-zero if any job failed its check.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Runtime.h")):
        raise RuntimeError("runtime sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run(cmd):
    """Runs cmd to completion (killed at the timeout).

    Returns (exit code, standard output)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1, ""


def binary_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_fingerprint(workload, driver, out):
    """Compares the run's sim_fingerprint with the first one recorded for
    this workload and this driver binary, and records it if new. The
    simulated figures must not depend on the seed, the run length or
    tracing; the driver checks that within one run, this across runs.
    Returns an error message, or None."""
    m = re.search(r"^sim_fingerprint (0x[0-9a-f]+)", out, re.M)
    if not m:
        return "no sim_fingerprint in the driver's output"
    path = os.path.join(BUILD, "fingerprints.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = "%s %s" % (workload, binary_digest(driver))
    if seen.setdefault(key, m.group(1)) != m.group(1):
        return "sim_fingerprint %s differs from %s of an earlier run" % (
            m.group(1), seen[key])
    with open(path, "w") as f:
        json.dump(seen, f, indent=1)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["steady", "churn", "tenants"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true",
                   help="build and run the arithmetic self-test")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.seed is not None and a.seed < 0:
        p.error("--seed must be >= 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if a.selftest:
        code, out = run([os.path.join(BUILD, "perfbench_selftest")])
        sys.stdout.write(out)
        return code
    driver = os.path.join(BUILD, "perfbench_driver")
    code, out = run([driver, "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    lines = out.rstrip("\n").split("\n")
    if code == 0:
        err = check_fingerprint(a.workload, driver, out)
        if err:
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1:] = ["FAIL " + err, json.dumps(result)]
            code = 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
