#!/usr/bin/env python3
"""Checks tdc_bench's exact per-layer counts against a committed file.

From the root of the repository:

    python3 tests/bench_counts.py            # exit 1 on any difference
    python3 tests/bench_counts.py --update   # rewrite the committed file

Each workload runs once traced, at seed 5:

    python3 tdcbench/run.py --workload <w> --seed 5 --trace 1 --out <f>

Every metric of unit "count" or "bytes" must then equal its value in
tests/fixtures/tdcbench_counts.json exactly. The simulator is
deterministic, so any difference is a change of the model or of the
work a layer does, never noise. sys.measure_allocs is left out: it
counts heap allocations, which depend on the standard-library build.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "tdcbench_counts.json")
WORKLOADS = ("spec-hit", "mix-thrash", "replay-lowmiss", "serve-drain")
SEED = 5
LEFT_OUT = {"sys.measure_allocs"}


def traced_counts(workload):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        # tdc_bench writes the report, then exits 1 if an operation
        # failed; the report says which.
        p = subprocess.run([sys.executable,
                            os.path.join(ROOT, "tdcbench", "run.py"),
                            "--workload", workload, "--seed", str(SEED),
                            "--trace", "1", "--out", out],
                           cwd=ROOT, stdout=sys.stderr)
        if not os.path.exists(out):
            sys.exit(f"{workload}: run.py exited {p.returncode} without "
                     f"writing a report")
        with open(out) as f:
            report = json.load(f)
    if not report["correct"] or report["failed"] != 0 or p.returncode:
        sys.exit(f"{workload}: the traced run is not correct (exit "
                 f"{p.returncode}): {report['errors']}")
    return {name: int(m["value"])
            for name, m in sorted(report["metrics"].items())
            if m["unit"] in ("count", "bytes") and name not in LEFT_OUT}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--update", action="store_true",
                   help="write the measured counts to the fixture")
    args = p.parse_args()

    measured = {w: traced_counts(w) for w in WORKLOADS}
    if args.update:
        doc = {"schema": "tdc-bench-counts-v1",
               "regenerate": "python3 tests/bench_counts.py --update",
               "seed": SEED, "workloads": measured}
        with open(FIXTURE, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {FIXTURE}")
        return

    with open(FIXTURE) as f:
        want = json.load(f)["workloads"]
    diffs = []
    for w in WORKLOADS:
        for name in sorted(set(want[w]) | set(measured[w])):
            a, b = want[w].get(name), measured[w].get(name)
            if a != b:
                diffs.append(f"{w}: {name}: expected {a}, measured {b}")
    for d in diffs:
        print(d)
    n = sum(len(c) for c in measured.values())
    print(f"{n - len(diffs)}/{n} exact counts match "
          f"tests/fixtures/tdcbench_counts.json")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
