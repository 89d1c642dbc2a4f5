#!/usr/bin/env python3
"""Gates tdc_bench's end-to-end metrics on paired runs against a base commit.

From the root of the repository:

    python3 tests/bench_times.py <base-rev>    # exit 1 on any regression
    python3 -m doctest tests/bench_times.py    # tests of the verdict

The base revision is exported with `git archive` into a temporary
directory, so neither the checkout nor .git changes. Each tree builds
its own tdc_bench from its own tdcbench/ with the two cmake commands
tdcbench/run.py uses: the checkout where run.py builds it
($CARGO_TARGET_DIR, else .bench_build), the base inside the temporary
directory. Then each of PAIRS pairs runs every BENCHMARK.json workload
once per side, the side that goes first alternating between pairs:

    tdc_bench --workload=<w> --seed=5 --reps=2 --work=<temporary>/work

A fixed repetition count, not --seconds, gives both sides the same work.
Both sides share one --work directory, since runs never overlap: the
path alone has moved spec-hit's peak_rss_mb between 38 and 50 MiB for
one binary.

For each workload and end-to-end metric, the head's median may be worse
than the base's by at most the metric's BENCHMARK.json bound. Every head
run must be correct, and the head may not fail a larger share of its
operations than the base. Both sides run on the same machine in the same
minutes, so the verdict compares code with code, not a host with the
numbers another host once recorded. About 5 minutes of runs on a
4-vCPU host, plus 1.5 to 3 minutes of LTO build for each tree not built
yet.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tdcbench"))
from agree import summarize, worse  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
PAIRS = 6
SEED = 5
REPS = 2


def build(src, build_dir):
    """Builds src/tdcbench's tdc_bench in build_dir; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(src, "tdcbench"),
                        "-B", build_dir], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "tdc_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "tdc_bench")


def run(binary, workload, work):
    """Runs one workload; returns the JSON line tdc_bench prints last.

    tdc_bench exits 1 after that line when an operation failed, so the
    exit status is not checked; the line's "correct" says it. The
    failures tdc_bench printed go to stderr here.
    """
    p = subprocess.run([binary, f"--workload={workload}", f"--seed={SEED}",
                        f"--reps={REPS}", f"--work={work}"],
                       capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{binary} --workload={workload} exited {p.returncode} "
                 f"without a result:\n{p.stderr[-4000:]}")
    for line in p.stderr.splitlines():
        if "FAIL" in line:
            print(f"{workload}: {line}", file=sys.stderr)
    return result


def verdict(base, head):
    """Compares one workload's runs; returns (rows, violations).

    `base` and `head` hold the result lines of the runs, pair by pair.
    A row gives each side's median and quartiles, the ratio of the
    medians (head / base) and the pairs the head won; ties count for
    neither side.

    >>> def line(kips=1e4, op_ms=100.0, setup_s=1.0, peak_rss_mb=50.0,
    ...          failed=0):
    ...     m = {"kips": kips, "op_ms": op_ms, "setup_s": setup_s,
    ...          "peak_rss_mb": peak_rss_mb}
    ...     return {"correct": failed == 0, "attempted": 10,
    ...             "failed": failed,
    ...             "metrics": {k: {"value": v} for k, v in m.items()}}
    >>> def check(base, head):
    ...     for v in verdict(base, head)[1] or ["pass"]:
    ...         print(v)
    >>> base = [line()] * 6
    >>> rows, _ = verdict(base, [line(kips=1.1e4)] + [line()] * 5)
    >>> print(rows[0])
    kips             10000 [10000, 10000]      10000 [10000, 10250]  1.000  1/6
    >>> check(base, [line()] * 6)
    pass

    A 30% drop in kips breaks its 25% bound:

    >>> check(base, [line(kips=7e3)] * 6)
    kips: head median 7000 is 30.0% worse than base 10000 (bound 25%)

    peak_rss_mb may grow by 20%, and for op_ms higher is worse:

    >>> check(base, [line(peak_rss_mb=59.5)] * 6)
    pass
    >>> check(base, [line(peak_rss_mb=60.5)] * 6)
    peak_rss_mb: head median 60.5 is 21.0% worse than base 50 (bound 20%)
    >>> check(base, [line(op_ms=130.0)] * 6)
    op_ms: head median 130 is 30.0% worse than base 100 (bound 25%)

    Every head run must be correct, even where the base failed as much,
    and the head may not fail a larger share of operations than the base:

    >>> failing = [line(failed=1)] + [line()] * 5
    >>> check(failing, failing)
    1 of 6 head run(s) not correct
    >>> check(failing, [line(failed=2)] + [line()] * 5)
    1 of 6 head run(s) not correct
    head failed 2 of 60 operation(s), base 1 of 60
    """
    def cell(s):
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    rows, violations = [], []
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sb, sh = summarize(b), summarize(h)
        wins = sum(worse(x, y, m["better"]) < 0 for x, y in zip(b, h))
        rows.append(f"{name:<12} {cell(sb):>24}  {cell(sh):>24}  "
                    f"{sh['median'] / sb['median']:.3f}  {wins}/{len(h)}")
        w = worse(sb["median"], sh["median"], m["better"])
        if w > bound:
            violations.append(
                f"{name}: head median {sh['median']:.6g} is {w:.1%} worse "
                f"than base {sb['median']:.6g} (bound {bound:.0%})")
    incorrect = sum(not r["correct"] for r in head)
    if incorrect:
        violations.append(f"{incorrect} of {len(head)} head run(s) "
                          f"not correct")
    fb, fh = (sum(r["failed"] for r in runs) for runs in (base, head))
    ab, ah = (sum(r["attempted"] for r in runs) for runs in (base, head))
    if fh * ab > fb * ah:
        violations.append(f"head failed {fh} of {ah} operation(s), "
                          f"base {fb} of {ab}")
    return rows, violations


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: python3 tests/bench_times.py <base-rev>")
    rev = sys.argv[1]
    workloads = [w["name"] for w in SPEC["workloads"]]
    t0 = time.time()
    with tempfile.TemporaryDirectory(prefix="bench-times-") as tmp:
        base_src = os.path.join(tmp, "src")
        os.mkdir(base_src)
        head_build = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or
            os.path.join(ROOT, ".bench_build"))
        try:
            tree = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                  stdout=subprocess.PIPE, check=True).stdout
            subprocess.run(["tar", "-x", "-C", base_src], input=tree,
                           check=True)
            sides = {"base": build(base_src, os.path.join(tmp, "build")),
                     "head": build(ROOT, head_build)}
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit(f"bench_times: cannot set up both sides: {e}")
        work = os.path.join(tmp, "work")
        print(f"built both sides in {time.time() - t0:.0f} s",
              file=sys.stderr)

        runs = {s: {w: [] for w in workloads} for s in sides}
        t1 = time.time()
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w in workloads:
                for s in order:
                    runs[s][w].append(run(sides[s], w, work))
            print(f"pair {i + 1}/{PAIRS} done at {time.time() - t1:.0f} s",
                  file=sys.stderr)

    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':>24}  "
          f"{'head median [q1, q3]':>24}  ratio  head wins")
    violations = []
    for w in workloads:
        rows, bad = verdict(runs["base"][w], runs["head"][w])
        for row in rows:
            print(f"{w:<15} {row}")
        violations += [f"{w}: {v}" for v in bad]
    print(f"{PAIRS} pairs of {rev} (base) and the checkout (head), "
          f"seed {SEED}, --reps={REPS}; {time.time() - t1:.0f} s of runs, "
          f"{time.time() - t0:.0f} s in all")
    for v in violations:
        print(f"FAIL {v}")
    print("FAIL" if violations else "OK: every metric within its bound")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
