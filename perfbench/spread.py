"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--save FILE]

Run from the repository root. Runs ``run.py --trace 0`` once per seed
0..runs-1 on each workload and prints, per end-to-end metric, the median and
the spread (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``: the figure each metric's bound in
BENCHMARK.json is judged against. Any run that fails or reports
``correct: false`` stops the script with exit code 1. ``--save`` merges the
medians and spreads into a summary file (``baseline.json`` keeps them under
``spread``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                    default=sorted(workloads.WORKLOADS))
    ap.add_argument("--save", help="merge medians and spreads into this JSON file")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    summary = {}
    for name in args.workload:
        values = {}
        for seed in range(args.runs):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                   name, "--seed", str(seed), "--trace", "0"],
                                  capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: run failed\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
                return 1
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()),
                flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name][metric] = {"median": med, "spread": (q3 - q1) / med}
            print(f"  {metric:<12} median {med:.4g}  spread {(q3 - q1) / med:.3f}"
                  f"  over {len(vals)} seeds", flush=True)

    if args.save:
        saved = {"workloads": {}}
        if os.path.exists(args.save):
            with open(args.save, encoding="utf-8") as fh:
                saved = json.load(fh)
        for name, stats in summary.items():
            saved["workloads"].setdefault(name, {})["spread"] = {"runs": args.runs, **stats}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
