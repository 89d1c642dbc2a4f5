#!/usr/bin/env python3
"""Builds tdc_bench from source and runs it.

From the root of the repository:

    python3 tdcbench/run.py --workload spec-hit --seed 5 --seconds 25 \
        --trace 0
    python3 tdcbench/run.py            # every workload, one child each

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset,
and is configured once and rebuilt incrementally on every call. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Scratch files live under <build>/work and are removed when the
run ends.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "tdc_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="one workload; default: all")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full report here")
    args = p.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"tdc_bench: build failed: {e}")

    cmd = [os.path.join(build_dir, "tdc_bench"),
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--work={os.path.join(build_dir, 'work')}"]
    if args.workload:
        cmd.append(f"--workload={args.workload}")
    if args.trace:
        cmd += ["--trace",
                f"--trace-out={os.path.join(build_dir, 'bench-trace.json')}"]
    if args.out:
        cmd.append(f"--out={args.out}")
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
