#!/usr/bin/env python3
"""Check that two same-seed runs give identical deterministic counts.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout.  For each workload (default: all three)
it runs the benchmark twice untraced and twice traced with one seed and
short timed phases, and fails unless every count below matches exactly.
"""

import json
import subprocess
import sys

COUNTS = {
    0: ["walks_per_answer"],
    1: ["optimizer.trial_walks", "registry.entries", "index.probes_per_walk",
        "walker.minor_words_per_walk", "walker.success_ratio"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], (workload, result)
    return {k: result["metrics"][k]["value"] for k in COUNTS[trace]}


def main():
    workloads = sys.argv[1:] or ["walk_mem", "walk_paged", "serve_mix"]
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            first, second = run(w, 7, trace), run(w, 7, trace)
            for k in COUNTS[trace]:
                same = first[k] == second[k]
                bad += not same
                print("%-10s %-28s %-22r %-22r %s" % (w, k, first[k], second[k],
                                                     "ok" if same else "DIFFERS"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
