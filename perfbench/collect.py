#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--traced-seed 1] [--baseline FILE]
                                 [--out perfbench/results/BENCH_<n>.json]

For each workload and seed it runs ``perfbench/run.py`` untraced for
BENCHMARK.json's run_seconds, then reports, for every end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the
median.  A spread above a third of the metric's bound is flagged.  With
--baseline, every median is compared with that earlier report's, and a
median worse than it by more than the bound is flagged.  With
--traced-seed one traced run per workload adds the per-layer metrics.
Run from the root of the checkout; exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("run_record "):])
    return record, json.loads(lines[-1])


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--baseline", default=None, help="an earlier report to compare medians with")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            record, result = run_once(name, seed, seconds, 0)
            runs.append({"record": record, "result": result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for metric, bound in bounds.items():
            vals = [r["result"]["metrics"][metric]["value"] for r in runs]
            s = summarise(vals, bound)
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread"
            steady &= not flag
            print(f"  {metric:14s} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}", flush=True)
            if baseline and name in baseline["workloads"]:
                old = baseline["workloads"][name]["end_to_end"][metric]["median"]
                worse = (s["median"] - old) / old
                if better[metric] == "higher":
                    worse = -worse
                s["worse_than_baseline"] = worse
                drift = "" if worse <= bound else "  <-- worse than baseline"
                steady &= not drift
                print(f"  {'':14s} baseline {old:10.4f}  worse by {worse:+.4f}{drift}", flush=True)
        if args.traced_seed is not None:
            record, result = run_once(name, args.traced_seed, seconds, 1)
            entry["traced"] = {"record": record, "result": result}
        report["workloads"][name] = entry
    report["steady"] = steady
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
