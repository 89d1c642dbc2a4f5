#!/usr/bin/env python3
"""Checks that the benchmark agrees with itself, and records the runs.

From the root of the repository:

    python3 tdcbench/agree.py [--sets 2] [--runs 10] [--out FILE]

Each set runs every workload of BENCHMARK.json --runs times, with seeds
1..runs in the first set, runs+1..2*runs in the second and so on,
seed-major so slow drift of the host spreads over all workloads. For
each end-to-end metric it reports the median of the runs and their
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A set
passes when every spread but setup_s's is within its bound; sets agree
when no later median is worse than the first by more than the bound.
Counts of the traced run are not checked here: they must repeat to the
digit, which `--trace 1` runs with one seed show directly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "tdcbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def worse(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    delta = first - later if better == "higher" else later - first
    return delta / first


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default="bench-agreement.json")
    args = p.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    ok = True
    for s in range(args.sets):
        t0 = time.time()
        raw = {w: {m["name"]: [] for m in metrics} for w in workloads}
        failed = 0
        for r in range(args.runs):
            seed = s * args.runs + r + 1
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                failed += res["failed"] + (0 if res["correct"] else 1)
                for m in metrics:
                    value = res["metrics"][m["name"]]["value"]
                    raw[w][m["name"]].append(value)
        summary = {w: {n: summarize(v) for n, v in raw[w].items()}
                   for w in workloads}
        for w in workloads:
            for m in metrics:
                sp = summary[w][m["name"]]["spread"]
                within = m["name"] == "setup_s" or sp <= m["bound"]
                ok = ok and within
                print(f"set {s + 1} {w:<15} {m['name']:<12} "
                      f"median {summary[w][m['name']]['median']:.6g} "
                      f"spread {sp:.4f} (bound {m['bound']})"
                      f"{'' if within else '  OVER'}", flush=True)
        ok = ok and failed == 0
        sets.append({"seeds": [s * args.runs + r + 1
                               for r in range(args.runs)],
                     "failed": failed, "wall_s": time.time() - t0,
                     "workloads": summary})

    agreement = {}
    for w in workloads:
        for m in metrics:
            first = sets[0]["workloads"][w][m["name"]]["median"]
            drift = max((worse(first, x["workloads"][w][m["name"]]["median"],
                               m["better"]) for x in sets[1:]), default=0.0)
            agreement[f"{w}/{m['name']}"] = drift
            within = drift <= m["bound"]
            ok = ok and within
            print(f"agreement {w:<15} {m['name']:<12} worse by "
                  f"{drift:+.4f} (bound {m['bound']})"
                  f"{'' if within else '  OVER'}")
    with open(args.out, "w") as f:
        json.dump({"schema": "tdc-bench-agreement-v1",
                   "run_seconds": spec["run_seconds"], "sets": sets,
                   "worse_than_first_set": agreement, "ok": ok}, f,
                  indent=1)
        f.write("\n")
    print("agreement ok" if ok else "agreement FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
