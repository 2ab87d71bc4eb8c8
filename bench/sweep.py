"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 bench/sweep.py --workloads lp-mix,pseudopoly --seeds 1-10 \
        --seconds 40 --out bench/out/sweep.json

Runs ``bench/run.py`` once per (workload, seed), one after another, and
writes every run's result line plus, per workload and metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  With ``--trace 1``
it summarises the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="like 1-10 or 3,5,7")
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    report = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform()},
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {name: summarise(v) for name, v in values.items()}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:<12} {name:<34} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
