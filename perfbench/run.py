#!/usr/bin/env python3
"""Build and run the program-cost benchmark.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload local-state --seed 1 --seconds 40 --trace 0

It builds perfbench/perfbench.exe and bin/resdb_node.exe from source with
dune, then runs the benchmark, whose last line of standard output is one
JSON object (see perfbench/README.md).  Build output goes to standard
error.  Node logs and span files go to .perfbench/ in the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["sim-default", "local-sign", "local-state", "tcp-loopback"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a full checkout of the repository" % need)

    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    targets = ["./perfbench/perfbench.exe", "./bin/resdb_node.exe"]
    try:
        b = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0:
        fail("build failed")

    build = os.path.join(ROOT, "_build", "default")
    cmd = [os.path.join(build, "perfbench", "perfbench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--node-exe", os.path.join(build, "bin", "resdb_node.exe"),
           "--out-dir", os.path.join(ROOT, ".perfbench")]
    # Its own process group, so a timeout can stop the node processes too.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    deadline = time.time() + RUN_TIMEOUT_S
    try:
        rc = p.wait(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGTERM)
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        fail("run timed out", 3)
    sys.exit(rc)


if __name__ == "__main__":
    main()
