"""Measure and entropy of induced regions.

The slow-map invariant density 1/(x+y-xy)^2 integrates in closed form
over rectangles:

    m([x0,x1]x[y0,y1]) = log( (y0+(1-y0)x1)(y1+(1-y1)x0)
                              / ((y0+(1-y0)x0)(y1+(1-y1)x1)) ),

so cell and rectangle regions get exact values, and the alpha
regions, known only by their membership oracle, seeded Monte Carlo
under the restriction of the measure to a covering union of
horizontal strips.  A singularisation region has the strip mass
log 2 (1 - mu_G(S)): the strip isomorphism carries the slow measure
on the top strip to log 2 times the Gauss measure mu_G, so each
rectangle of the area S, read in the fast-map coordinates where S is
defined, takes off the log of its exact Gauss ratio
(`gauss_rect_ratio`).
A sample is two floats, and it stands for the point of rationals that
`Fraction.limit_denominator(10**12)` snaps them to.  The sampler only
draws; Monte Carlo asks the region's sample membership,
`contains_sample(x, y)`, with no Fraction per sample.  An alpha region
answers a sample whose two floats lie in a product of cylinders that
its walker has classified from the floats alone (the snap is monotone
and fixes the ends of the region's table intervals, so the estimate is
the walker's, bit for bit), and builds readers of the snaps' canonical
digits (`digits.SnapReader`: one resumable integer Euclid loop per
coordinate, started on its first read) only for the other samples,
for its walker `contains_rational`.  That walker reads y first and x
only when it asks, so most of those samples never start x's loop.  A
rectangle region reads every sample through the two readers.
Cell and rectangle regions also take quadrature and Monte Carlo, as
cross-checks of their closed form.  All three methods read one list of
rectangles, clamped to the unit square (`induced.RectRegion.rects`, or
a cell region's cells), and Monte Carlo samples the membership of the
`RectRegion` of that list.  Quadrature is pure Python: a
global adaptive tensor Gauss-Legendre rule of orders 6 and 12 (after
Genz and Malik, J. Comput. Appl. Math. 6, 1980) integrates the density
in both variables, splitting its worst piece until the estimated
errors meet the tolerance, and raises CapExceeded rather than return
an estimate that misses it.  A method a region's class lacks raises
NoMeasurePath; no other method answers in its place.
Entropy is pi^2 / (6 m(R)) by definition; orbit growth statistics are a
separate observable used to cross-check it.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSampleCount, BadTolerance, CapExceeded, CfrowError, NoMeasurePath, NonIntegrable
from .induced import CellRegion, OmegaRegion, RectRegion, Region, induced_products
from .natural_ext import OmegaPoint
from .regions import AlphaRegion, SExpansionRegion


def rect_mass_exact(x0, x1, y0, y1) -> float:
    """Slow-map measure of a rectangle, as log of an exact rational."""
    if x0 == x1 or y0 == y1:
        return 0.0
    if x0 == 0 and y0 == 0:
        raise NonIntegrable("rectangle touches the origin")
    return math.log(rect_mass_ratio(x0, x1, y0, y1))


def rect_mass_ratio(x0, x1, y0, y1) -> Fraction:
    """exp(mass) as an exact rational, for identities checked exactly."""
    x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
    num = (y0 + (1 - y0) * x1) * (y1 + (1 - y1) * x0)
    den = (y0 + (1 - y0) * x0) * (y1 + (1 - y1) * x1)
    return num / den


def gauss_rect_ratio(x0, x1, y0, y1) -> Fraction:
    """The exact rational whose log is log 2 times a rectangle's fast-map
    invariant probability."""
    x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
    return (1 + x1 * y1) * (1 + x0 * y0) / ((1 + x1 * y0) * (1 + x0 * y1))


def gauss_rect_mass(x0, x1, y0, y1) -> float:
    """Fast-map invariant probability of a rectangle."""
    return math.log(gauss_rect_ratio(x0, x1, y0, y1)) / math.log(2)


def _cell_rects(region) -> list:
    rects = []
    for a, b in region.cells:
        if a is None and b is None:
            raise NonIntegrable("whole square is not a proper region")
        x0, x1 = (Fraction(1, a + 1), Fraction(1, a)) if a else (Fraction(0), Fraction(1))
        y0, y1 = (Fraction(1, b + 1), Fraction(1, b)) if b else (Fraction(0), Fraction(1))
        rects.append((x0, x1, y0, y1))
    return rects


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    error_bound: float
    method: str
    seed: int | None = None
    samples: int | None = None

    def as_dict(self):
        out = {"value": self.value, "error_bound": self.error_bound, "method": self.method}
        if self.seed is not None:
            out["seed"] = self.seed
            out["samples"] = self.samples
        return out


def _region_rects(region: Region):
    if isinstance(region, CellRegion):
        return _cell_rects(region)
    if isinstance(region, RectRegion):
        return list(region.rects)
    return None


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on
    [-1, 1]: each node is a root of P_n found by Newton's method from
    its Chebyshev-like guess, with P_n and P_n' from the three-term
    recurrence."""
    rule = []
    for i in range(1, n + 1):
        x, dx = math.cos(math.pi * (i - 0.25) / (n + 0.5)), 1.0
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            if abs(dx) <= 1e-15:  # converging quadratically: x is exact
                break            # and the weight reads P_n' at x
            dx = p1 / dp
            x -= dx
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(rule)


def _tensor_gauss(n: int, x0: float, x1: float, y0: float, y1: float) -> float:
    """The n x n tensor Gauss-Legendre rule for the density
    1/(x+y-xy)^2 on [x0,x1]x[y0,y1]; both variables are integrated
    numerically, so the rule stays independent of `rect_mass_exact`."""
    rule = _gauss_legendre(n)
    hx, cx = (x1 - x0) / 2, (x1 + x0) / 2
    hy, cy = (y1 - y0) / 2, (y1 + y0) / 2
    ys = [(cy + hy * v, w) for v, w in rule]
    total = 0.0
    for u, wu in rule:
        x = cx + hx * u
        row = 0.0
        for y, wv in ys:
            d = x + (1 - x) * y
            row += wv / (d * d)
        total += wu * row
    return total * hx * hy


_GAUSS_ORDER = 6        # pieces are estimated at orders 6 and 12
_MAX_PIECES = 2000      # per rectangle


def _gauss_piece(x0, x1, y0, y1):
    """(-error, value, x0, x1, y0, y1) of one piece, as the heap of
    `_adaptive_gauss` orders them: the value is the order-2n estimate
    and the error its distance from the order-n one."""
    lo = _tensor_gauss(_GAUSS_ORDER, x0, x1, y0, y1)
    hi = _tensor_gauss(2 * _GAUSS_ORDER, x0, x1, y0, y1)
    return -abs(hi - lo), hi, x0, x1, y0, y1


def _adaptive_gauss(x0, x1, y0, y1, tol: float):
    """(value, error) of the density over one rectangle by global
    adaptive subdivision: the pieces sit on a heap by their error, and
    the worst one is halved across its wider side until the errors sum
    to at most tol.  Past _MAX_PIECES pieces it raises CapExceeded,
    never returning an estimate that misses tol."""
    pieces = [_gauss_piece(float(x0), float(x1), float(y0), float(y1))]
    err = -pieces[0][0]
    while err > tol:
        if len(pieces) >= _MAX_PIECES:
            raise CapExceeded(
                f"quadrature of [{x0},{x1}]x[{y0},{y1}] kept an error of {err:.3g} "
                f"> tol {tol:.3g} after {_MAX_PIECES} pieces")
        e, _, a0, a1, b0, b1 = heapq.heappop(pieces)
        if a1 - a0 >= b1 - b0:
            m = (a0 + a1) / 2
            halves = (_gauss_piece(a0, m, b0, b1), _gauss_piece(m, a1, b0, b1))
        else:
            m = (b0 + b1) / 2
            halves = (_gauss_piece(a0, a1, b0, m), _gauss_piece(a0, a1, m, b1))
        err += e
        for piece in halves:
            heapq.heappush(pieces, piece)
            err -= piece[0]
        if err <= tol:  # the running sum drifts; settle on an exact one
            err = -math.fsum(p[0] for p in pieces)
    return math.fsum(p[1] for p in pieces), err


def _quadrature(rects, tol: float) -> MeasureEstimate:
    """Cross-check of the closed-form masses: each rectangle integrated
    to its share tol/len(rects) by `_adaptive_gauss`."""
    share = tol / max(len(rects), 1)
    total = 0.0
    err = 0.0
    for rect in rects:
        v, e = _adaptive_gauss(*rect, share)
        total += v
        err += e
    return MeasureEstimate(total, max(err, tol), "quadrature")


_METHODS = ("auto", "exact", "exact-integral", "quadrature", "monte-carlo")


def _require_method(region: Region, method: str, has: tuple):
    """Raise NoMeasurePath unless method is "auto" or one of has."""
    if method != "auto" and method not in has:
        raise NoMeasurePath(
            f"region {region.name} has no {method} measure; it has {', '.join(has)}")


def measure_of(region: Region, tol: float = 1e-9, method: str = "auto",
               seed: int | None = None, samples: int = 200_000) -> MeasureEstimate:
    """Slow-map measure of a region.

    The methods each region class has ("auto" picks the first):

    * cell and rectangle regions: "exact" (alias "exact-integral"),
      "quadrature" and "monte-carlo";
    * singularisation regions: "exact" (strip mass minus the log of
      each area rectangle's Gauss ratio);
    * the one-parameter alpha regions: "monte-carlo" (seeded).  Below
      alpha of about 1/20 this is not an estimate of the mass: the
      walker decides a top-strip sample at the first of y's digits b2,
      b3, ... that is >= alpha's first digit a1, which a random y shows
      only after about 1/log2(1 + 1/a1) digits, and a 10**12 snap of y
      has about 23, so most samples are decided by the parity of the
      snap's digit count (`AlphaRegion._odd_depth`).

    A method the region's class lacks raises NoMeasurePath, a
    quadrature `tol` that is not a finite float > 0 raises BadTolerance,
    and a Monte Carlo `samples` that is not an int >= 1 raises
    BadSampleCount.
    """
    if method not in _METHODS:
        raise CfrowError(f"unknown measure method {method!r}; known: {', '.join(_METHODS)}")
    if method == "quadrature" and not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise BadTolerance(f"quadrature tol {tol!r} is not a finite float > 0")
    if isinstance(region, OmegaRegion):
        raise NonIntegrable("the full square has infinite mass")
    if isinstance(region, SExpansionRegion):
        _require_method(region, method, ("exact", "exact-integral"))
        total = rect_mass_exact(0, 1, Fraction(1, 2), 1)
        for r in region.area.rects:
            total -= math.log(gauss_rect_ratio(*r))
        return MeasureEstimate(total, 1e-15, "exact-integral")
    rects = _region_rects(region)
    if rects is not None:
        for x0, x1, y0, y1 in rects:
            if x0 == 0 and y0 == 0:
                raise NonIntegrable("region touches the origin")
        if not rects or all(x0 == x1 or y0 == y1 for x0, x1, y0, y1 in rects):
            raise NonIntegrable("region has zero area: not inducible")
        if method in ("auto", "exact", "exact-integral"):
            val = sum(rect_mass_exact(*r) for r in rects)
            return MeasureEstimate(val, 1e-15, "exact-integral")
        if method == "monte-carlo":
            # cross-check of the exact masses: y must be bounded away from 0
            y_min = min(y0 for _, _, y0, _ in rects)
            if y_min == 0:
                raise NonIntegrable("Monte Carlo path needs y bounded away from 0")
            return _strip_monte_carlo(y_min, RectRegion(rects).contains_sample,
                                      seed if seed is not None else 0, samples)
        return _quadrature(rects, tol)
    if isinstance(region, AlphaRegion):
        _require_method(region, method, ("monte-carlo",))
        return _strip_monte_carlo(_alpha_window(region), region.contains_sample,
                                  seed if seed is not None else 0, samples)
    raise NonIntegrable(f"no measure path for region {region.name}")


def _strip_sampler(y_min: Fraction):
    """The sampler of the invariant measure restricted to y > y_min:
    `sample(rng)` draws one point by inverse CDF in x then in y and
    returns its two coordinates as floats, x in [0, 1] and y clamped to
    [y_min, 1].  A sample stands for the rationals with denominator at
    most `digits.SNAP_DEN` that `limit_denominator` snaps the floats to;
    the region reads the draw (`contains_sample`), so the sampler builds
    nothing.  The float constants of the strip are computed once, here."""
    y0 = float(y_min)
    inv_y0 = 1.0 / y0
    one_minus_y0 = 1.0 - y0

    def sample(rng: random.Random):
        u = rng.random()
        # x-marginal: (1-y0)/(y0 + (1-y0)x); CDF ~ log((y0+(1-y0)x)/y0)
        x = y0 * (inv_y0 ** u - 1.0) / one_minus_y0
        v = rng.random()
        # conditional CDF on [y0, 1]: (1/(x+y0(1-x)) - 1/(x+y(1-x))) normalised;
        # at y = 1 the denominator x + (1-x) is 1
        a = x + y0 * (1 - x)
        inv_a = 1.0 / a
        t = inv_a + v * (1.0 - inv_a)
        y = (1.0 / t - x) / (1.0 - x) if x != 1.0 else 1.0
        # both floats are finite and >= 0 by construction; y is clamped
        # to [y0, 1] (by comparisons: min(max(y, y0), 1.0) gives the same
        # float at several times the cost)
        return x, y0 if y < y0 else 1.0 if y > 1.0 else y

    return sample


def _strip_monte_carlo(y_min: Fraction, hit, seed: int, samples: int) -> MeasureEstimate:
    """Seeded Monte Carlo under the measure restricted to the strip
    y > y_min: the strip's exact mass times the share of `samples`
    points of `_strip_sampler(y_min)` whose float coordinates x, y
    satisfy `hit(x, y)`, a region's `contains_sample`."""
    if type(samples) is not int or samples < 1:
        raise BadSampleCount(f"Monte Carlo samples {samples!r} is not an int >= 1")
    rng = random.Random(seed)
    sample = _strip_sampler(y_min)
    w_mass = rect_mass_exact(0, 1, y_min, 1)
    hits = 0
    for _ in range(samples):
        if hit(*sample(rng)):
            hits += 1
    p = hits / samples
    sigma = w_mass * math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return MeasureEstimate(w_mass * p, 3 * sigma, "monte-carlo", seed=seed, samples=samples)


def _alpha_window(region: AlphaRegion) -> Fraction:
    """y_min of the strips H_1, ..., H_a the region reaches: those with
    a < 1/alpha.  The largest such a is ceil(1/alpha) - 1, read exactly
    off alpha's digits: the first one, a1 = floor(1/alpha), less one
    when alpha is 1/a1."""
    a1 = region.alpha_list[0]
    a_max = a1 - 1 if region.alpha == Fraction(1, a1) else a1
    return Fraction(1, max(1, a_max) + 1)


def entropy_of(region: Region, tol: float = 1e-9, method: str = "auto",
               seed: int | None = None, samples: int = 200_000):
    """pi^2 / (6 m(R)); returns (entropy, MeasureEstimate).  A Monte
    Carlo estimate of 0, no sample a member, raises NonIntegrable."""
    est = measure_of(region, tol=tol, method=method, seed=seed, samples=samples)
    if est.value == 0:
        raise NonIntegrable(
            f"no sample of {est.samples} hit region {region.name}, so its measure "
            f"estimate is 0 and its entropy infinite; raise --samples")
    return math.pi**2 / (6 * est.value), est


def log_of_big(n: int) -> float:
    """log of a positive integer too large for float conversion."""
    if n <= 0:
        raise ValueError("need a positive integer")
    bl = n.bit_length()
    if bl <= 900:
        return math.log(n)
    shift = bl - 64
    return math.log(n >> shift) + shift * math.log(2)


def empirical_denominator_growth(region: Region, z: OmegaPoint, n: int, cap: int = 10**6) -> float:
    """(1/n) log of the bottom-left entry of the n-th accumulated
    induced product: the orbit's denominator growth exponent."""
    prods = induced_products(region, z, n, cap)
    s_n = prods[-1][1].c
    return log_of_big(s_n) / n
