#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each named workload and prints, for
every metric, the median of the runs and the distance between the first
and third quartile as a share of that median (the spread the bounds in
BENCHMARK.json are checked against).

    python3 perfbench/spread.py --workloads kernels-native zagd-mixed \
        --seeds 1 2 3 4 5 --seconds 10 [--trace 0] [--binary PATH]

Run it from the repository root. Without --binary the benchmark is run
through `cargo run --release`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--binary")
    a = ap.parse_args()
    cmd = [a.binary] if a.binary else [
        "cargo", "run", "--quiet", "--release",
        "--manifest-path", "perfbench/Cargo.toml", "--"]
    ok = True
    for w in a.workloads:
        values = {}
        for seed in a.seeds:
            result = run_once(cmd, w, seed, a.seconds, a.trace)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"{w} ({len(a.seeds)} runs of {a.seconds} s)")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<26} median {med:14.6f}  iqr/median {spread:7.4f}  "
                  f"min {min(v):.6f}  max {max(v):.6f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
