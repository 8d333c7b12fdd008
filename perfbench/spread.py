"""Every workload, each in a fresh process, and the spread of its metrics.

    python3 perfbench/spread.py [--seeds 1,2,...] [--workloads a,b] [--seconds s]

Runs run.py once per (workload, seed), one process at a time, and prints
each run's end-to-end metrics with their units and its failed_ratio. Then,
for each metric, the median and the quartile distance as a share of the
median, next to the metric's bound in BENCHMARK.json; it exits 1 if a job
failed or a spread exceeds its bound. With one seed it is the one command
that runs the whole benchmark.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = args.seeds.split(",")
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            failed_ratio = result["failed"] / result["attempted"]
            print(f"{workload} seed={seed} exit={proc.returncode} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_ratio={failed_ratio:.4g} ratio, " + ", ".join(
                      f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"] if len(seeds) > 1 else []:
            q1, med, q3 = statistics.quantiles(values[metric["name"]], n=4)
            share = (q3 - q1) / med
            ok &= share <= metric["bound"]
            print(f"  {workload} {metric['name']}: median {med:.4g} {metric['unit']}, "
                  f"spread {share:.3f} (bound {metric['bound']}, a third {metric['bound'] / 3:.3f})"
                  f"{'  <-- above a third' if share > metric['bound'] / 3 else ''}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
