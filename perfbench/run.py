#!/usr/bin/env python3
"""cfrow benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its ``src/`` directory.  The workload's inputs come from --seed.  Every
operation's output is checked against an independent route outside the
timed section; a raised CfrowError or a mismatch counts as a failed
operation.

--trace 0 repeats passes over the workload's operations until --seconds
have passed and prints the end-to-end metrics, with every time scaled
to a reference host speed (see end_to_end).  --trace 1 runs the
workload's fixed number of operations twice, untraced then traced, and
prints the per-layer metrics; its spans go to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 2         # passes per run; the host speed is measured per pass
MIN_OPS = 100          # operations per pass, so the 90th percentile has 10 beyond it
HARD_STOP_S = 120.0    # stop even short of MIN_PASSES, to end within the run limit
KERNEL_EVERY_S = 0.02  # operation time between two timings of the host kernel
KERNEL_SETUP_RUNS = 50   # timings before, between and after the set-up phases
# host_kernel's time on an uncontended core of the host BENCH_0 was taken
# on (2-core x86-64, Python 3.11.7); timed figures are scaled to this speed
KERNEL_REF_S = 3.3e-4

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inject", choices=["digit", "mass"], default=None,
                   help="corrupt every output before it is checked (self-test)")
    return p.parse_args(argv)


def load_library():
    """Import cfrow from this checkout's src/, then the benchmark modules."""
    src = ROOT / "src"
    if not (src / "cfrow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {src}")
    sys.path.insert(0, str(src))
    import cfrow

    if Path(cfrow.__file__).resolve().parent != (src / "cfrow").resolve():
        sys.exit(f"perfbench: imported cfrow from {cfrow.__file__}, not {src}")
    # the quadrature path imports scipy lazily; its import is set-up work
    import scipy.integrate  # noqa: F401

    import workloads

    return workloads


def host_kernel():
    """Fixed pure-Python work of the library's kind: Fraction, big-integer,
    tuple and dict operations, and nothing from cfrow, so no change to
    the library alters its time; only the host's speed does."""
    s, d, acc = 0, {}, []
    for i in range(1, 120):
        f = Fraction(i, 7) + Fraction(3, i)
        s += (i * 12345678901234567) // 97
        d[i % 17] = f
        acc.append((s % 1000, f.numerator))
    return len(acc) + len(d)


def time_kernel():
    t0 = time.perf_counter()
    host_kernel()
    return time.perf_counter() - t0


def host_scale(kernel_times):
    """Factor that takes times measured alongside these kernel timings to
    the reference host speed: below 1 when the host ran slowly."""
    return KERNEL_REF_S / statistics.fmean(kernel_times)


def set_up(name, seed):
    """(workloads module, workload, set-up seconds at the reference speed,
    set-up seconds as measured) for one fresh set-up.

    host_kernel is timed before, between and after its three phases;
    that time is not counted as set-up."""
    kernel = []
    phases = []

    def phase(fn):
        kernel.extend(time_kernel() for _ in range(KERNEL_SETUP_RUNS))
        t0 = time.perf_counter()
        out = fn()
        phases.append(time.perf_counter() - t0)
        return out

    wmod = phase(load_library)
    if name not in wmod.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; one of {sorted(wmod.WORKLOADS)}")
    wl = phase(lambda: wmod.WORKLOADS[name](seed))
    phase(wl.warm_up)
    kernel.extend(time_kernel() for _ in range(KERNEL_SETUP_RUNS))
    wall = sum(phases)
    return wmod, wl, wall * host_scale(kernel), wall


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self):
        self.ops = []            # per execution: [op index, seconds, verified items or None]
        self.errors = Counter()  # CfrowError class -> failed executions

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(rec[2] is None for rec in self.ops)

    def fail_ops(self, indices):
        """Mark every execution of these operations failed (pooled checks)."""
        for rec in self.ops:
            if rec[0] in indices:
                rec[2] = None

    def items(self):
        return sum(rec[2] or 0 for rec in self.ops)


def run_ops(wmod, wl, indices, inject, tally, kernel=None):
    """Run and check each operation once; returns the seconds timed.

    With a `kernel` list, time host_kernel into it after every
    KERNEL_EVERY_S of operation time, so its timings sample the host's
    speed evenly over the operations."""
    from cfrow.errors import CfrowError

    clock = time.perf_counter
    busy = since_kernel = 0.0
    for i in indices:
        item = wl.item(i)
        items = None
        t0 = clock()
        try:
            out = wl.run(item)
        except CfrowError as exc:
            dt = clock() - t0
            tally.errors[type(exc).__name__] += 1
        else:
            dt = clock() - t0
            if inject:
                out = wl.corrupt(out, inject)
            try:
                items = wl.verify(i, item, out)
            except wmod.Mismatch:
                pass
        tally.ops.append([i, dt, items])
        busy += dt
        since_kernel += dt
        if kernel is not None and since_kernel >= KERNEL_EVERY_S:
            kernel.append(time_kernel())
            since_kernel = 0.0
    if kernel is not None and since_kernel > 0:
        kernel.append(time_kernel())
    return busy


def end_to_end(wmod, wl, seconds, inject, setup_s):
    """Repeat passes over the workload's first pass_ops operations until
    `seconds` have passed and at least MIN_PASSES have run.

    On a shared host the speed of the same code moves by 1.5x and more
    over milliseconds to minutes.  So host_kernel is timed between the
    operations of each pass, and the pass's operation times are scaled
    by host_scale of those timings: every timed figure is at the
    reference host speed.  An operation's latency is the mean of its
    scaled times; a mean, because the scale is one too.
    """
    if wl.pass_ops < MIN_OPS:
        sys.exit(f"perfbench: {wl.name} has {wl.pass_ops} operations per pass, "
                 f"fewer than {MIN_OPS}")
    tally = Tally()
    ops = range(wl.pass_ops)
    scaled = {i: [] for i in ops}   # op index -> seconds at the reference speed
    kernel_all = []
    t_start = time.perf_counter()
    passes = 0
    while True:
        kernel = []
        first = tally.attempted
        run_ops(wmod, wl, ops, inject, tally, kernel)
        scale = host_scale(kernel)
        for i, dt, _ in tally.ops[first:]:
            scaled[i].append(dt * scale)
        kernel_all += kernel
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and passes >= MIN_PASSES):
            break
    tally.fail_ops(wl.finish())
    lat_ms = [1000 * statistics.fmean(v) for v in scaled.values()]
    wall_s = sum(rec[1] for rec in tally.ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (tally.items() / sum(sum(v) for v in scaled.values()), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"pass_ops": len(ops), "passes": passes, "timed_s": wall_s,
             "wall_items_per_s": tally.items() / wall_s,
             "kernel_median_us": 1e6 * statistics.median(kernel_all),
             "kernel_timings": len(kernel_all)}
    return tally, metrics, extra


def per_layer(wmod, wl, inject, name, seed):
    from tracer import Tracer, install_cfrow_spans

    ops = range(wl.trace_ops)
    untraced = Tally()
    untraced_s = run_ops(wmod, wl, ops, inject, untraced)
    wl.finish()

    tr = Tracer()
    install_cfrow_spans(tr)
    if tr.missing:
        tr.uninstall()
        # a metric of a target that is gone would read 0, the best value
        sys.exit(f"perfbench: the library no longer has {', '.join(tr.missing)}; "
                 "update perfbench/tracer.py")
    tally = Tally()
    try:
        traced_s = run_ops(wmod, wl, ops, inject, tally)
    finally:
        tr.uninstall()
    tally.fail_ops(wl.finish())

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    tr.write_spans(spans_path)
    metrics = layer_metrics(tr, tally, traced_s / untraced_s)
    extra = {"trace_ops": len(ops), "spans_written": len(tr.spans),
             "spans_dropped": tr.dropped, "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, metrics, extra


def layer_metrics(tr, tally, overhead_ratio):
    calls, self_s, total_s, tally_ = tr.calls, tr.self_s, tr.total_s, tr.tally

    def us_per_call(name):
        return 1e6 * total_s[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("reals.Surd", "natural_ext.ito_step", "regions.AlphaRegion.contains",
                 "regions.AlphaRegion.contains_rational", "digits.enclosure"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    for name in ("regions.CellRegion.contains", "regions.SExpansionRegion.contains"):
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    for name in ("natural_ext.ito_backstep", "regions.RectRegion.contains",
                 "induced.induced_step", "induced.backward_induced_step",
                 "shift_space.tau_step", "exact.Mat2Z.matmul", "measure.measure_of",
                 "cli.main"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("reals.Surd", "induced.induced_step", "shift_space.tau_step",
                 "cfe.cfe_direct", "cfe.cfe_by_contraction", "cfe.cfe_convergents_report",
                 "farey_maps.farey_expansion", "contraction.contract", "gcf.convergents",
                 "measure.quadrature", "cli.main"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    steps = calls["induced.induced_step"]
    m["induced.slow_steps_per_record"] = (ratio(tally_["induced.slow_steps"], steps), "1")
    m["induced.walks_per_digit"] = (ratio(steps, tally.items()), "1")
    m["induced.backward_cap_hits"] = (
        tr.errors[("induced.backward_induced_step", "BackwardCapExceeded")], "count")
    m["shift_space.walks_per_tau_step"] = (
        ratio(tr.edges[("shift_space.tau_step", "induced.induced_step")],
              calls["shift_space.tau_step"]), "1")
    m["contraction.us_per_digit"] = (
        ratio(1e6 * self_s["contraction.contract"], tally_["contraction.digits"]), "us")
    samples = tally_["measure.samples"]
    m["measure.sampler_us_per_sample"] = (ratio(1e6 * self_s["measure.measure_of"], samples), "us")
    m["measure.hit_ratio"] = (ratio(tally_["measure.hits"],
                                    calls["regions.AlphaRegion.contains_rational"]), "1")
    for err in ("CapExceeded", "BoundaryUndecidable", "BackwardCapExceeded"):
        m[f"errors.{err}.count"] = (tally.errors[err], "count")
    m["fail_ratio"] = (ratio(tally.failed, tally.attempted), "1")
    m["trace.overhead_ratio"] = (overhead_ratio, "1")
    return m


def git_commit():
    """Commit of the checkout, or "unknown" when it is not a git work tree
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    args = parse_args(argv)
    wmod, wl, setup_s, setup_wall_s = set_up(args.workload, args.seed)

    if args.trace:
        tally, metrics, extra = per_layer(wmod, wl, args.inject, args.workload, args.seed)
    else:
        tally, metrics, extra = end_to_end(wmod, wl, args.seconds, args.inject, setup_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "input_size": wl.input_size(),
        "setup_wall_s": setup_wall_s,
        "errors": dict(tally.errors),
        **extra,
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
