"""Run every workload over several seeds and write a results record.

    python3 bench/record.py --out RESULTS.json [--seeds 1,2,...] [--seconds 30]

Each seed is one run of `bench/run.py` per workload, with tracing off; one
traced run per workload at the default seed adds the per-layer metrics. The
record holds, per workload and metric, the median, quartiles, sample count and
unit over the seeds, and the machine, interpreter and commit it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, RUN_SECONDS, quartiles
from workloads import DEFAULT_SEED, WORKLOADS


def run_once(workload, seed, seconds, traced):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(results):
    """Per metric: median, quartiles, n, unit, IQR as a share of the median, values."""
    out = {}
    for metric, first in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        out[metric] = {
            "median": median, "q1": q1, "q3": q3, "n": len(values), "unit": first["unit"],
            "spread": (q3 - q1) / median if median else None, "values": values,
        }
    return out


def machine():
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": model, "commit": commit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    record = {**machine(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        traced = run_once(workload, DEFAULT_SEED, args.seconds, True)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": summary(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload:26s} {metric:14s} median {s['median']:.6g} {s['unit']} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}, spread {s['spread']:.3f})",
                  flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(w["failed"] == 0 for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
