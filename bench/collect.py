"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench_runs.json
    python3 bench/collect.py --workloads sweep80 --seeds 1-5

Runs ``bench/run.py`` once per (workload, seed), one at a time, with the
run length from BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to a third of the metric's bound.  With
--out it also writes every run's result and environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    log = [line for line in lines[:-1] if not line.startswith(("env ", "layer_map "))]
    return {"seed": seed, "env": env, "log": log, "result": json.loads(lines[-1])}


def _summarize(runs, bounds) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run and the summary here as JSON")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_one_run(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['result']['correct']}",
                  file=sys.stderr)
        summary = _summarize(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload} ({len(runs)} seeds)")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = "" if s["bound"] is None else f"  (bound/3 {s['bound'] / 3:.4f})"
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']:8s} "
                  f"IQR/median {spread}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
