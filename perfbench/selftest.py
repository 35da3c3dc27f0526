#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of the checkout; takes a few minutes.  It checks that:

* a smoke-sized untraced run of every workload (the two BENCHMARK.json
  declares and alpha_orbit and alpha_mass) passes verification and prints
  exactly the end-to-end metrics of BENCHMARK.json, with their units;
* two traced runs with one seed print exactly the per-layer metrics, with
  identical counts, and the bypass predictions hold;
* a corrupted digit (alpha_orbit, stream_routes, cli_readme) and a
  shifted mass (alpha_mass, cli_readme) are caught, with failed
  operations, and the pooled closed-form mass check rejects a pool
  5 sigma off;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXACT = (".calls", ".count", "hit_ratio", "backward_cap_hits")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, inject=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit code 0")
    if proc.returncode != 0:
        print(proc.stderr)
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == RESULT_KEYS, f"{what}: result has exactly {sorted(RESULT_KEYS)}")
    return res


def units(res):
    return {k: v["unit"] for k, v in res["metrics"].items()}


def closed_form_checks():
    """The pooled closed-form mass check rejects a pool 5 sigma off.

    A corrupted CLI estimate is caught earlier, by its disagreement with
    measure_of, so this check is exercised directly.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    mass, n, err = workloads.LOG_1_PLUS_G, 16, 0.03   # err is three sigma
    sigma = err / 3 / n ** 0.5                         # of the pool's mean

    def passes(shift):
        return workloads.within_closed_form([(mass + shift, err)] * n, mass, 4)

    check(passes(3 * sigma) and not passes(5 * sigma),
          "a pool of mass estimates 5 sigma off the closed form is caught, 3 sigma is not")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # every workload, including the two BENCHMARK.json does not declare
    names = ["alpha_orbit", "stream_routes", "alpha_mass", "cli_readme"]

    traced = {}
    for name in names:
        res = result_of(run(name, 0), f"{name} untraced")
        if res:
            check(res["correct"] and res["failed"] == 0, f"{name}: verification passes")
            check(units(res) == e2e, f"{name}: end-to-end names and units match BENCHMARK.json")
            check(all(v["value"] > 0 for v in res["metrics"].values()),
                  f"{name}: end-to-end metrics are nonzero")
        first = result_of(run(name, 1), f"{name} traced")
        second = result_of(run(name, 1), f"{name} traced again")
        if first and second:
            check(first["correct"], f"{name}: traced run passes verification")
            check(units(first) == layer, f"{name}: per-layer names and units match BENCHMARK.json")
            counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(EXACT)}
                      for r in (first, second)]
            check(counts[0] == counts[1], f"{name}: per-layer counts repeat exactly")
            traced[name] = {k: v["value"] for k, v in first["metrics"].items()}

    if len(traced) == len(names):
        check(traced["stream_routes"]["reals.Surd.calls"] == 0, "stream_routes builds no surd")
        check(traced["alpha_mass"]["reals.Surd.calls"] == 0, "alpha_mass builds no surd")
        check(traced["alpha_mass"]["induced.induced_step.calls"] == 0,
              "alpha_mass makes no induced walk")
        check(traced["alpha_orbit"]["shift_space.walks_per_tau_step"] == 2.0,
              "alpha_orbit walks twice per tau_step")

    for name, kind in (("alpha_orbit", "digit"), ("stream_routes", "digit"),
                       ("alpha_mass", "mass"), ("cli_readme", "digit"),
                       ("cli_readme", "mass")):
        res = result_of(run(name, 0, inject=kind), f"{name} with a corrupted {kind}")
        if res:
            check(res["failed"] > 0 and not res["correct"],
                  f"{name}: corrupted {kind} is caught ({res['failed']}/{res['attempted']} failed)")

    closed_form_checks()

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(names[0], 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "without the library source the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
