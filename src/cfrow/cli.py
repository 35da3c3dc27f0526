"""Command-line surface.

Subcommands: expand, contract, cfe, orbit, entropy, region-info,
sweep-alpha.  Structured results are JSON (sorted keys), orbit and
sweep tracks are CSV.  Stochastic runs without --seed read their seed
from CFROW_SEED (default 0), only when they run, and always record seed
and sample count in the output.
Exit codes: 0 success, 2 domain/usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import contraction, measure
from .cfe import cfe_convergents_report, cfe_direct
from .errors import CfrowError, IndexBeyondExpansion
from .farey_maps import alpha_orbit_digits, farey_expansion
from .gcf import Gcf, convergents, encode_digit
from .induced import induced_step
from .natural_ext import OmegaPoint, orbit_csv_rows
from .reals import floor_of, parse_real, rcf_digits
from .regions import AlphaRegion, build_alpha_region, region_from_spec
from .shift_space import tau_orbit

# alpha's first digit from which a Monte Carlo estimate of its region is
# mostly the parity of the snaps' digit counts (`measure.measure_of`)
_PARITY_A1 = 20


def _seed(args) -> int:
    """--seed, or else CFROW_SEED, read only by the subcommands that sample."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("CFROW_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CfrowError(f"CFROW_SEED={text!r} is not an integer") from None


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _note_small_alpha(region):
    """One note on stderr on the estimate of an alpha region below about
    1/20, whose first digit a1 is _PARITY_A1 or more; stdout is left as
    it is."""
    if isinstance(region, AlphaRegion) and region.alpha_list[0] >= _PARITY_A1:
        print(f"note: {region.name} has first digit a1 = {region.alpha_list[0]} >= {_PARITY_A1}: "
              "its Monte Carlo estimate mostly measures the parity of the 10^12 snaps' "
              "digit counts, not the region's mass", file=sys.stderr)


def cmd_expand(args) -> int:
    x = parse_real(args.x)
    n = args.n
    if args.kind == "rcf":
        digits = rcf_digits(x).prefix(n)
        _emit({"kind": "rcf", "x": args.x, "digits": [encode_digit(d) for d in digits]})
        return 0
    if args.kind in ("farey", "lehner"):
        # the Lehner expansion of x, translated back from x + 1, is its
        # Farey expansion
        g = farey_expansion(x, n)
        _emit({**g.as_dict(n + 1), "kind": args.kind, "x": args.x})
        return 0
    if args.kind == "alpha":
        if args.alpha is None:
            raise CfrowError("--alpha is required for kind=alpha")
        alpha = parse_real(args.alpha)
        x0 = x - floor_of(x + 1 - alpha)  # reduce into [alpha-1, alpha)
        pairs = alpha_orbit_digits(alpha, x0, n)
        _emit(
            {
                "kind": "alpha",
                "alpha": args.alpha,
                "x": args.x,
                "signs": [s for s, _ in pairs],
                "digits": [d for _, d in pairs],
            }
        )
        return 0
    raise CfrowError(f"unknown expansion kind {args.kind}")


def _load_gcf(text: str) -> Gcf:
    if text == "-":
        text = sys.stdin.read()
    elif os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return Gcf.from_json(text)


def _entries(flag: str, text: str) -> list:
    """The comma-separated entries of `text`; an empty one, which would
    shift what every later entry means, is refused (CfrowError)."""
    entries = text.split(",")
    if "" in entries:
        raise CfrowError(
            f"{flag} {text!r} has an empty entry at position {entries.index('') + 1}")
    return entries


def cmd_contract(args) -> int:
    g = _load_gcf(args.gcf)
    idxs = [int(s) for s in _entries("--plan", args.plan)]
    plan = contraction.ContractionPlan(idxs)
    past = next((n for n in idxs if not g.has_pair(n)), None)
    if past is not None:
        raise IndexBeyondExpansion(
            f"plan index {past} is past the expansion, which has {g.length()} digit pairs")
    out = contraction.contract(g, plan)
    k_max = len(idxs) - 1
    pairs_n = k_max + 1
    scalars = contraction.seidel_scalars(g, plan, k_max)
    conv = convergents(out, k_max)[2:]
    _emit(
        {
            **out.as_dict(pairs_n),
            "plan": idxs,
            "scalars": [encode_digit(c) for c in scalars],
            "convergents": [[encode_digit(c.P), encode_digit(c.Q)] for c in conv],
        }
    )
    return 0


def cmd_cfe(args) -> int:
    region = region_from_spec(args.region)
    x = parse_real(args.x)
    z = OmegaPoint.from_values(x, Fraction(1))
    res = cfe_direct(region, z, args.digits - 1, args.cap)
    report = cfe_convergents_report(res)
    conv = res.convergents()
    _emit(
        {
            **res.digits.as_dict(args.digits),
            "region": region.describe(),
            "x": args.x,
            "convergents": [[c.P, c.Q] for c in conv],
            "verified": report["ok"],
        }
    )
    return 0


def _write_csv(path, header, rows):
    fh = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _coordinate(k: int, name: str, v) -> float:
    """float(v) of coordinate `name` in shift orbit row k; past the float range it is refused."""
    try:
        return float(v)
    except OverflowError:
        raise CfrowError(f"shift orbit row {k}: {name} is outside the float range") from None


def cmd_orbit(args) -> int:
    x = parse_real(args.x)
    y = parse_real(args.y)
    z = OmegaPoint.from_values(x, y)
    if args.space == "shift":
        if args.region is None:
            raise CfrowError("--space shift needs --region")
        region = region_from_spec(args.region)
        pts = tau_orbit(region, z, args.n - 1, args.cap)
        rows = []
        for k, p in enumerate(pts):
            X, Y = _coordinate(k, "X", p.X), _coordinate(k, "Y", p.Y)
            rows.append((k, X, X, Y, Y))
        _write_csv(args.csv, ["n", "X_lo", "X_hi", "Y_lo", "Y_hi"], rows)
        return 0
    if args.region:
        region = region_from_spec(args.region)
        rows = orbit_csv_rows(
            z, args.n, step=lambda cur: induced_step(region, cur, args.cap).z_next
        )
    else:
        rows = orbit_csv_rows(z, args.n)
    _write_csv(args.csv, ["n", "x_lo", "x_hi", "y_lo", "y_hi", "cell_a", "cell_b"], rows)
    return 0


def cmd_entropy(args) -> int:
    region = region_from_spec(args.region)
    ent, est = measure.entropy_of(
        region,
        tol=args.tol,
        method=args.method,
        seed=_seed(args),
        samples=args.samples,
    )
    _note_small_alpha(region)
    out = {"measure": est.value, "entropy": ent}
    out.update({k: v for k, v in est.as_dict().items() if k not in ("value",)})
    _emit(out)
    return 0


def cmd_region_info(args) -> int:
    region = region_from_spec(args.region)
    _emit(region.describe())
    return 0


def cmd_sweep_alpha(args) -> int:
    if not args.alphas.strip(","):
        raise CfrowError(f"--alphas {args.alphas!r} names no alpha")
    alphas = _entries("--alphas", args.alphas)
    seed = _seed(args)
    rows = []
    for i, atext in enumerate(alphas):
        alpha = parse_real(atext)
        region = build_alpha_region(alpha)
        ent, est = measure.entropy_of(region, seed=seed + i, samples=args.samples)
        _note_small_alpha(region)
        ent_err = ent * est.error_bound / est.value
        rows.append(
            (atext, est.value, est.error_bound, ent, ent_err, seed + i)
        )
    _write_csv(
        args.csv,
        ["alpha", "measure", "measure_err", "entropy", "entropy_err", "seed"],
        rows,
    )
    return 0


def positive(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    v = float(text)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite tolerance > 0")
    return v


def count(text: str) -> int:
    """argparse type of the count options: an int >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a count >= 1")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared
    by every `main` call: parsing leaves it unchanged, so callers must
    not change it either."""
    p = argparse.ArgumentParser(prog="cfrow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="digit expansions of a real input")
    pe.add_argument("--kind", choices=["rcf", "farey", "lehner", "alpha"], required=True)
    pe.add_argument("--x", required=True)
    pe.add_argument("--alpha", default=None)
    pe.add_argument("--n", type=count, default=10)
    pe.set_defaults(func=cmd_expand)

    pc = sub.add_parser("contract", help="contract a GCF along an index plan")
    pc.add_argument("--gcf", required=True, help="JSON digits, a path, or - for stdin")
    pc.add_argument("--plan", required=True, help="comma-separated indices")
    pc.set_defaults(func=cmd_contract)

    pf = sub.add_parser("cfe", help="contracted Farey expansion over a region")
    pf.add_argument("--region", required=True)
    pf.add_argument("--x", required=True)
    pf.add_argument("--digits", type=count, default=10)
    pf.add_argument("--cap", type=count, default=10**6)
    pf.set_defaults(func=cmd_cfe)

    po = sub.add_parser("orbit", help="orbit track as CSV")
    po.add_argument("--region", default=None)
    po.add_argument("--x", required=True)
    po.add_argument("--y", default="1")
    po.add_argument("--n", type=count, default=50)
    po.add_argument("--cap", type=count, default=10**6)
    po.add_argument("--csv", default="-")
    po.add_argument("--space", choices=["plane", "shift"], default="plane")
    po.set_defaults(func=cmd_orbit)

    pn = sub.add_parser("entropy", help="measure and entropy of a region")
    pn.add_argument("--region", required=True)
    pn.add_argument("--tol", type=positive, default=1e-8)
    pn.add_argument("--method", default="auto")
    pn.add_argument("--seed", type=int, default=None)
    pn.add_argument("--samples", type=count, default=200_000)
    pn.set_defaults(func=cmd_entropy)

    pr = sub.add_parser("region-info", help="describe a region spec")
    pr.add_argument("--region", required=True)
    pr.set_defaults(func=cmd_region_info)

    ps = sub.add_parser("sweep-alpha", help="measure/entropy sweep over alphas")
    ps.add_argument("--alphas", required=True)
    ps.add_argument("--samples", type=count, default=100_000)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--csv", default="-")
    ps.set_defaults(func=cmd_sweep_alpha)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CfrowError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
