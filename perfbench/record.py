"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/record.py --workloads readme,bitlevel --runs 10 \\
        --first-seed 1 --out perfbench/baseline.json

Each run is a separate ``run.py`` process, so runs share nothing but the
file cache.  For every metric the summary gives the median and quartiles of the
runs and the spread, (q3 - q1) / median.  The output file also records
the machine facts, so a before/after pair of files can be compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, machine_facts
from workloads import WORKLOADS


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file for the runs and their summary")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    record = {"machine": machine_facts(), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if isinstance(v["value"], (int, float))), flush=True)
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) > 1 and all(isinstance(v, (int, float)) for v in values):
                summary[metric] = {"unit": first["unit"], **summarise(values)}
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "seeds": [r["seed"] for r in runs],
            "summary": summary,
        }
        for metric, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:9s} {metric:30s} median={s['median']:.6g} spread={spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
