"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steady.py --runs 10 [--out FILE]

Runs ``bench/run.py`` (tracing off) with seeds 1..runs on each workload of
BENCHMARK.json, with its ``run_seconds``, and prints each run's end-to-end
metrics and fail_frac; with two or more runs also, per metric, the median and
the spread (third minus first quartile, as a share of the median) next to the
metric's bound.  ``--out`` also writes them as JSON.  ``--runs 1`` is the
one command that prints every end-to-end metric for every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "environment": run.environment(),
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed_jobs = incorrect_runs = 0
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed_jobs += result["failed"]
            incorrect_runs += not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4g} {result['metrics'][k]['unit']}" for k, v in values.items())
                + f", fail_frac {result['failed'] / result['attempted']:.4g} "
                f"({result['failed']}/{result['attempted']} jobs)", flush=True)
        summary["workloads"][workload] = {"attempted": attempted, "failed_jobs": failed_jobs,
                                          "incorrect_runs": incorrect_runs, "metrics": {}}
        if args.runs < 2:
            continue
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary["workloads"][workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals,
            }
            flag = "" if spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"  {workload:18s} {name:12s} median {med:.4g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
