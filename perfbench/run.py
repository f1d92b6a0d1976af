#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest [--seed 1]

Run from the root of the repository. The benchmark package is built in
release mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`);
build output goes to standard error. A run's last line of standard
output is its result JSON, and its exit status is the benchmark's.

`--selftest` makes two traced runs with the same seed on every workload
and checks that they report identical solver counts and allocations.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-cold", "paper-warm"]
COUNT_UNITS = ("count", "bytes", "bits")


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(target, "release", "aov-perfbench")


def bench_cmd(exe, workload, seed, seconds, trace):
    return [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def traced_counts(exe, workload, seed):
    out = subprocess.run(bench_cmd(exe, workload, seed, 1, 1), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run.py: traced run of {workload} exited {out.returncode}")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def selftest(exe, seed):
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_counts(exe, workload, seed) for _ in range(2))
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not diff else f"DIFFER {diff}"))
        ok = ok and not diff
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    exe = build()
    if args.selftest:
        return selftest(exe, args.seed)
    cmd = bench_cmd(exe, args.workload, args.seed, args.seconds, args.trace)
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
