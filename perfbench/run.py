#!/usr/bin/env python3
"""Run the time-to-answer benchmark.

    python3 perfbench/run.py --workload walk_mem --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds the benchmark and the wjcli
daemon from source into .bench_build/ (with dune), runs the workload and
relays its output; the last line of standard output is the JSON result.
`--workload all` runs the three workloads in turn.  Exits non-zero when
the build fails, the checkout is incomplete, or any answer was wrong.
See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("walk_mem", "walk_paged", "serve_mix")
BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a full checkout (missing %s)" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/wjbench.exe", "./bin/wjcli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", build.returncode or 2)

    os.makedirs(WORK_DIR, exist_ok=True)
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    codes = [run(w, a) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


def run(workload, a):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "wjbench.exe")
    cmd = [exe, "--workload", workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--work-dir", WORK_DIR,
           "--wjcli", os.path.join(BUILD_DIR, "default", "bin", "wjcli.exe"),
           "--commit", commit()]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the daemon it may spawn.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)


if __name__ == "__main__":
    main()
