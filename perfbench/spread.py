#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload mc_batch --seeds 1-10 [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints for each
metric the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.  ``--json``
writes every run's result object, with its ``record``, and the summary
to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        records = [json.loads(l[len("record "):]) for l in lines if l.startswith("record ")]
        result["record"] = records[-1] if records else None
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values)}
        print(f"{name:<30} median {summary[name]['median']:>12.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
