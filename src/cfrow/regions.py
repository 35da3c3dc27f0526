"""Catalog of named regions.

Three families:

* digit cells: the horizontal strips H_b (top strip b = 1 selects
  convergent denominators q_n), vertical strips V_a, and rectangles
  V_{a-lam} n H_{lam+1};

* complements of singularisation areas: an area S, a finite union of
  rational rectangles inside the right half (x >= 1/2) disjoint from
  its fast-map image, is the `RectRegion` of its rectangles in the
  fast-map coordinates where S is defined, and its region holds the
  top-strip points whose pull-back through the strip isomorphism
  misses S, so its induced expansions skip exactly the orbit visits
  to S;

* the one-parameter regions realising the maps x |-> 1/|x| - floor(1/|x|+1-alpha):
  a point of the top strip belongs iff the number of backward top-strip
  steps needed to see an x-coordinate below alpha is odd, and for
  alpha <= 1/2 the part of that set with x >= alpha is additionally
  slid down-right through its full cell range.  One walker decides this
  for digit streams and for exact rationals alike: it pulls both
  coordinates' digits through readers that start at their first digits
  a1 and b1, only as far as it needs them (for rationals y's first, and
  x's only on the slide path or when a comparison runs off y's digits),
  and orders the pulled-back digits against alpha's with `digits.order`,
  the one comparator; an irrational alpha is read by its preperiod and
  period, and its tail compared with x's by their recurrence states.
  A Monte Carlo sample whose y lies in an interval that y's first
  digits settle is answered from its float before any Euclid step.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction

from .digits import Cons, LazyDigits, Reader, fraction_digits, order
from .errors import (
    BackwardCapExceeded,
    BadRegionSpec,
    BoundaryUndecidable,
    InvalidSingularisationArea,
    OutOfDomain,
)
from .exact import INF
from .induced import CellRegion, OmegaRegion, RectRegion, Region, fraction_rects
from .natural_ext import OmegaPoint
from .reals import RealRep, as_real, is_rational, surd_digits


def region_omega() -> Region:
    return OmegaRegion()


def region_h1() -> Region:
    return region_h(1)


def region_h(b: int) -> Region:
    return CellRegion([(None, b)], name=f"h{b}", altered=(b == 1))


def region_v(a: int) -> Region:
    return CellRegion([(a, None)], name=f"v{a}")


def region_cell(a: int, lam: int) -> Region:
    """V_{a-lam} n H_{lam+1}: index-a visits at slide offset lam."""
    if a < 1 or lam < 0 or lam >= a:
        raise ValueError("need a >= 1 and 0 <= lam < a")
    return CellRegion([(a - lam, lam + 1)], name=f"cell{a},{lam}", altered=(lam == 0 and a == 1))


# -- singularisation-area regions -----------------------------------------


def _interiors_meet(r, s) -> bool:
    """Do closed rectangles r and s, each (x0, x1, y0, y1), share an interior point?"""
    return max(r[0], s[0]) < min(r[1], s[1]) and max(r[2], s[2]) < min(r[3], s[3])


def _fast_map_image(r):
    """The image of a right-half rectangle under the fast map
    (x, y) |-> (1/x - 1, 1/(1+y)): a rectangle with rational corners."""
    x0, x1, y0, y1 = r
    return 1 / x1 - 1, 1 / x0 - 1, Fraction(1, 1 + y1), Fraction(1, 1 + y0)


class SingularisationArea(RectRegion):
    """A singularisation area S in the fast-map coordinates (t, v) where
    it is defined: a finite union of closed rational rectangles inside
    the right half strip t >= 1/2, no two sharing an interior point, and
    S disjoint from its fast-map image (condition (b), checked exactly on
    the image's rational corners, `gauss_image_rects`).  The area is the
    `RectRegion` of its rectangles, so `rects` is its one list: membership
    of (t, v) readers (`contains_rational`), the S-expansion region's
    exclusion test and the region's mass in `measure` all read it."""

    def __init__(self, rects):
        rects = fraction_rects(rects)
        for x0, x1, y0, y1 in rects:
            if x0 > x1 or y0 > y1:
                raise InvalidSingularisationArea("a", "degenerate rectangle")
            if x0 < Fraction(1, 2) or x1 > 1 or y0 < 0 or y1 > 1:
                raise InvalidSingularisationArea(
                    "a", f"rectangle [{x0},{x1}]x[{y0},{y1}] not within the right half"
                )
        if any(_interiors_meet(r, s) for i, r in enumerate(rects) for s in rects[i + 1:]):
            raise InvalidSingularisationArea("a", "overlapping rectangles")
        if any(_interiors_meet(_fast_map_image(r), s) for r in rects for s in rects):
            raise InvalidSingularisationArea("b", "area overlaps its own image")
        super().__init__(rects, "S")

    def contains_value(self, x, y) -> bool:
        """Exact membership of a point with exact rational/quadratic coords."""
        return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in self.rects)

    def gauss_image_rects(self):
        return [_fast_map_image(r) for r in self.rects]


class SExpansionRegion(Region):
    """Top-strip region whose induced expansions realise the
    singularisation of regular expansions over the area S.

    A top-strip point z with digit streams x = [0;a1,a2,...] and
    y = [0;1,b2,b3,...] is pulled back through one fast-map preimage of
    the strip isomorphism to the point ([0;b2,a1,a2,...], [0;b3,b4,...])
    in S's own coordinates, and z is excluded iff that point lies in S:
    the area answers on readers of those digits, with no point built.
    """

    unit_s = True
    altered = True

    def __init__(self, area: SingularisationArea, name="s-expansion"):
        self.area = area
        self.name = name

    def contains(self, z: OmegaPoint) -> bool:
        if z.yd.head() != 1:
            return False
        y = z.yd.tail()
        # b2 = INF pulls x back to 0, outside the right half: a member
        return not self.area.contains_rational(Reader([], Cons(y.head(), z.xd)), Reader([], y.tail()))

    def first_in_run(self, z: OmegaPoint, m: int):
        return None  # run points have b >= 2, below the top strip

    def describe(self) -> dict:
        return {
            "name": self.name,
            "altered": True,
            "area": [[str(v) for v in r] for r in self.area.rects],
        }


def build_s_expansion_region(area) -> Region:
    if not isinstance(area, SingularisationArea):
        area = SingularisationArea(area)
    return SExpansionRegion(area)


# -- alpha regions ----------------------------------------------------------


class _Pulled:
    """Reader of the pulled-back digits [b_{j+1}, ..., b2, x...] for
    `digits.order`: b_{j+1}, ..., b2 are read already at y.got[j], ...,
    y.got[1], and x's digits are copied from x's reader, or read by it,
    only when the comparison runs off those it holds."""

    __slots__ = ("got", "src", "_x", "_j")

    def __init__(self, y, j: int, x):
        self.got, self.src, self._x, self._j = y.got[j:0:-1], x, x, j

    def more(self):
        x, n = self._x, len(self.got) - self._j
        if n == len(x.got) and x.src is not None:
            x.more()
        self.got += x.got[n:]
        if x.src is None:
            self.src = None

    def state(self, k: int):
        return self._x.state(k - self._j) if k > self._j else None


# the depth-2 intervals for b2 = k past this are together under 1/(64 a1)
# wide, so the table stops there however large a1 is
_DECIDED_K = 64
# the b2 = 1 interval starts at [0; 1, 1, M + 1], not at its infimum 1/2,
# whose canonical digits are [2]; the y between, 2.5e-7 wide, go through
# the walker
_DECIDED_M = 10**6


def _float_at_least(v: Fraction) -> float:
    f = float(v)
    return f if Fraction(f) >= v else math.nextafter(f, math.inf)


def _float_at_most(v: Fraction) -> float:
    f = float(v)
    return f if Fraction(f) <= v else math.nextafter(f, -math.inf)


def _decided_table(a1: int, back_cap: int):
    """The top-strip y-intervals whose digits settle `_odd_depth` before
    x is read, for alpha's first digit a1: depth 1 (a member) on
    [(a1+1)/(a1+2), 1], where b2 > a1 or y = 1, and depth 2 (no member) on
    [k/(k+1), (kA+1)/((k+1)A+1)], A = a1 + 1, where b2 = k < a1 and b3 > a1
    or y ends after b2.  A depth needs back_cap >= depth, or the walker
    raises.  Returns the float bounds, flat and ascending, as [lo, hi)
    pairs: lo is the least float >= the interval's left end and hi the
    float after the greatest float <= its right end; and per interval the
    answer and the largest denominator of its two ends."""
    spans = []
    if back_cap >= 2:
        A = a1 + 1
        for k in range(1, min(a1, _DECIDED_K + 1)):
            lo = Fraction(_DECIDED_M + 2, 2 * _DECIDED_M + 3) if k == 1 else Fraction(k, k + 1)
            spans.append((lo, Fraction(k * A + 1, (k + 1) * A + 1), False))
    if back_cap >= 1:
        spans.append((Fraction(a1 + 1, a1 + 2), Fraction(1), True))
    ends, answers = [], []
    for lo, hi, member in spans:
        f_lo, f_hi = _float_at_least(lo), _float_at_most(hi)
        if f_lo <= f_hi:
            ends += [f_lo, math.nextafter(f_hi, math.inf)]
            answers.append((member, max(lo.denominator, hi.denominator)))
    return ends, answers


class AlphaRegion(Region):
    """Region inducing the map x |-> 1/|x| - floor(1/|x| + 1 - alpha).

    For a top-strip point with streams x = [0;a1,a2,...] and
    y = [0;1,b2,b3,...], the j-th backward top-strip preimage has
    x-coordinate [0;b_{j+1},...,b2,a1,a2,...]; membership asks for the
    parity of the least j making that value < alpha.  Points below the
    top strip belong iff sliding them back up-left lands in the part of
    the member set with x >= alpha (only possible when alpha <= 1/2).

    One walker decides both `contains` (digit streams) and
    `contains_rational` (readers of rationals): each comparison is one
    `digits.order` of the pulled-back digits (a `_Pulled` reader) against
    alpha's reader, built once.  It reads x and y through readers
    (`digits.Reader`, `digits.SnapReader`), and pulls a digit only when a
    comparison runs off the digits read so far.  Every y reader starts
    at the point's own b1, so b_{j+1} sits at index j; the walker never
    reads b1 itself.  An irrational alpha is read by its period:
    `alpha_list` holds its preperiod and one period and `period` the
    period's length (0 for a rational alpha, whose list is complete).
    An alpha whose preperiod and period run past `back_cap` digits,
    which no comparison may match, keeps its first back_cap + 1 digits
    and period None.

    With a1 = alpha_list[0], y's digits alone settle the walker in two
    families of top-strip points, each a closed y-interval whose ends
    have small denominators and lie in it: depth 1, a member, where
    b2 > a1 or y = 1, which is [(a1+1)/(a1+2), 1]; and depth 2, no member,
    where b2 = k < a1 and b3 > a1 or y ends after b2, which is
    [k/(k+1), (k(a1+1)+1)/((k+1)(a1+1)+1)] (for k = 1 the table starts at
    [0; 1, 1, 10**6 + 1], since 1/2 reads [2]).  A snap is monotone and
    fixes such ends, so `contains_rational` answers an unstarted
    `SnapReader` y whose float lies in one, between exact float bounds
    built once (`_decided_table`), before its Euclid loop starts; every
    other point goes through the walker.
    """

    unit_s = True
    altered = True

    def __init__(self, alpha: RealRep, back_cap: int = 2000, name=None):
        if not (0 < alpha <= 1):
            raise OutOfDomain(f"alpha = {alpha} outside (0, 1]")
        self.alpha = alpha
        if is_rational(alpha):
            self.alpha_list, self.period = fraction_digits(as_real(alpha)), 0
            self._alpha_reader = Reader(self.alpha_list)
        else:
            src = surd_digits(alpha)
            found = src.period(back_cap)
            if found is None:  # no comparison may match this many digits
                self.alpha_list, self.period = src.buf[:back_cap + 1], None
            else:
                m, p = found
                self.alpha_list, self.period = src.buf[:m + p], p
            self._alpha_reader = Reader(list(self.alpha_list), LazyDigits(None, 0, _memo=src))
        self.slides = alpha <= Fraction(1, 2)
        self.back_cap = back_cap
        self._decided_ends, self._decided = _decided_table(self.alpha_list[0], back_cap)
        self.name = name or f"alpha:{alpha}"

    def _below(self, y, j: int, x) -> bool:
        """Is [0; b_{j+1}, ..., b2, x...] below alpha, with b2, ...,
        b_{j+1} read already at y.got[1], ..., y.got[j]?

        One `digits.order` of the pulled-back digits against alpha's.
        Once the match has run through alpha's preperiod and period inside
        x, their tails are tested once by their states, so a pulled-back x
        equal to an irrational alpha is decided.  Past `back_cap` equal
        leading digits the comparison raises BackwardCapExceeded.
        """
        pulled = _Pulled(y, j, x) if j else x
        test_at = j + len(self.alpha_list) if self.period else 0
        try:
            return order(pulled, self._alpha_reader, test_at, self.back_cap) < 0
        except BoundaryUndecidable:
            raise BackwardCapExceeded(
                f"{self.name}: comparison against alpha undecided") from None

    def _odd_depth(self, x, y) -> bool:
        """Parity of the least backward depth j whose pulled-back
        x-coordinate is < alpha.  y alone answers depth 1 when b2 > a1 or
        y = 1, and depth 2 when b2 < a1 and b3 > a1 or y ends after b2:
        the two families `contains_rational` reads off a snap's float."""
        a1 = self.alpha_list[0]
        bs = y.got
        for j in range(1, self.back_cap + 1):
            if len(bs) <= j:  # b_{j+1} not read yet
                if y.src is not None:
                    y.more()
                    bs = y.got
                if len(bs) <= j:
                    return j % 2 == 1  # preimage x-coordinate is 0 < alpha
            b = bs[j]
            if b != a1:  # decided at the first digit, as _below would
                if b > a1:
                    return j % 2 == 1
            elif self._below(y, j, x):
                return j % 2 == 1
        raise BackwardCapExceeded(
            f"parity search for {self.name} exceeded {self.back_cap} backward steps"
        )

    def _slid(self, c, x, y) -> bool:
        """Membership of a point below the top strip, slid back up-left
        to the top-strip point with digits x = (c, ...) and (1, b2, ...),
        where y's reader still holds b1 in place of the 1: its source
        cell must sit at or right of alpha."""
        a1 = self.alpha_list[0]
        if c > a1 or (c == a1 and self._below(y, 0, x)):
            return False
        return self._odd_depth(x, y)

    def contains(self, z: OmegaPoint) -> bool:
        if z.yd.head() == 1:
            return self._odd_depth(Reader([], z.xd), Reader([], z.yd))
        return self._run_member(z)

    def first_in_run(self, z: OmegaPoint, m: int):
        return 1 if self._run_member(z) else None

    def _run_member(self, z: OmegaPoint) -> bool:
        """Membership of the points (a1-k, b1+k) of z's run that lie
        below the top strip, k = 0 included when b1 >= 2, and none on the
        x = 0 line (a1 = INF).  It is one answer for all of them: each
        slides back to the same c = a1+b1-1 with both tails fixed."""
        a1, b1 = z.xd.head(), z.yd.head()
        if a1 is INF or b1 is INF or not self.slides:
            return False
        c = a1 + b1 - 1
        return self._slid(c, Reader([c], z.xd), Reader([], z.yd))

    def contains_rational(self, x, y) -> bool:
        """contains() for the point with rational coordinates read by x
        and y: readers of their canonical digit lists, such as the Monte
        Carlo sampler's `digits.SnapReader`s or `digits.Reader(list)` for a
        complete list.  The same walker pulls only the digits it needs,
        y's first: x's reader is started only on the slide path or when a
        comparison against alpha runs off the digits of y, so a top-strip
        point decided by y alone leaves x unread.  An unstarted snap y
        whose float lies in one of the two families of `_odd_depth` is
        answered before its reader starts, when its max_den admits the
        interval's ends.  y = 0 (no digits) is no member; x = 0 is one
        only where `contains` finds it in the top strip.  Below the top
        strip x's reader is left holding the slid point's first digit c."""
        t = y.src
        if type(t) is float:  # an unstarted snap: its float may settle the walker
            i = bisect_right(self._decided_ends, t)
            if i & 1:
                member, den = self._decided[i >> 1]
                if den <= y.max_den:
                    return member
        if not y.got and y.src is not None:
            y.more()
        if not y.got:
            return False
        b1 = y.got[0]
        if b1 == 1:
            return self._odd_depth(x, y)
        if not self.slides:
            return False
        if not x.got and x.src is not None:
            x.more()
        if not x.got:
            return False
        c = x.got[0] + b1 - 1
        x.got = [c] + x.got[1:]
        return self._slid(c, x, y)

    def describe(self) -> dict:
        return {"name": self.name, "altered": True, "alpha": str(self.alpha)}


def build_alpha_region(alpha: RealRep, back_cap: int = 2000) -> Region:
    return AlphaRegion(alpha, back_cap=back_cap)


# -- region spec parsing -----------------------------------------------------


def _parse_frac(s):
    from .reals import parse_real

    return parse_real(str(s))


def region_from_spec(spec) -> Region:
    """Region from the JSON spec or its shorthand string form.

    Shorthands: "omega", "h1", "h:2", "v:3", "cell:3,1", "alpha:1/2",
    or inline JSON like {"builder": "alpha", "params": {"alpha": "1/4"}}.
    A spec that does not parse, names no known builder or lacks one of
    its parameters raises BadRegionSpec.
    """
    if isinstance(spec, Region):
        return spec
    try:
        return _region_from_spec(spec)
    except KeyError as exc:
        raise BadRegionSpec(f"region spec {spec!r} lacks the key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise BadRegionSpec(f"bad region spec {spec!r}: {exc}") from exc


def _rects(items):
    """The rectangles (x0, x1, y0, y1) of a spec's "rects" list, whose
    entries each give "x" and "y" as lists of exactly two rational
    corners (surd corners are not read yet).  Any other entry or corner
    raises BadRegionSpec naming it."""
    out = []
    for i, r in enumerate(items):
        corners = []
        for axis in ("x", "y"):
            pair = r[axis]
            if not isinstance(pair, list) or len(pair) != 2:
                raise BadRegionSpec(f"rects entry {i}: {axis} = {pair!r} is not a list of two corners")
            for k, text in enumerate(pair):
                try:
                    v = _parse_frac(text)
                except (ArithmeticError, ValueError, OutOfDomain):
                    v = None
                if v is None or not is_rational(v):
                    raise BadRegionSpec(f"rects entry {i}: corner {axis}[{k}] = {text!r} is not a rational")
                corners.append(as_real(v))
        out.append(tuple(corners))
    return out


# builder name -> the region it builds from its params
_BUILDERS = {
    "omega": lambda p: region_omega(),
    "h1": lambda p: region_h1(),
    "h": lambda p: region_h(int(p["b"])),
    "v": lambda p: region_v(int(p["a"])),
    "cell": lambda p: region_cell(int(p["a"]), int(p["lam"])),
    "alpha": lambda p: build_alpha_region(_parse_frac(p["alpha"])),
    "s_expansion": lambda p: build_s_expansion_region(_rects(p["rects"])),
}

# shorthand "name" or "name:v1,v2" -> the params of builder `name` its
# values fill, in order.  The last value takes the rest of the text, so
# an alpha may be written with commas ("alpha:[0;2,3]").
_SHORTHANDS = {"omega": (), "h1": (), "h": ("b",), "v": ("a",), "cell": ("a", "lam"),
               "alpha": ("alpha",)}


def _region_from_spec(spec) -> Region:
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("{"):
            return _region_from_spec(json.loads(s))
        name, colon, text = s.partition(":")
        keys = _SHORTHANDS.get(name)
        if keys is None or bool(colon) != bool(keys):
            raise BadRegionSpec(f"unknown region spec {spec!r}")
        values = text.split(",", len(keys) - 1) if keys else []
        if len(values) != len(keys):
            raise ValueError(f"{name} takes {len(keys)} values, got {len(values)}")
        spec = {"builder": name, "params": dict(zip(keys, values))}
    obj = dict(spec)
    builder = obj.get("builder")
    if builder is not None:
        if builder not in _BUILDERS:
            raise BadRegionSpec(f"unknown region builder {builder!r}")
        return _BUILDERS[builder](obj.get("params", {}))
    if "cells" in obj and obj["cells"]:
        cells = [(c.get("a"), c.get("b")) for c in obj["cells"]]
        return CellRegion(cells, name="cells", altered=bool(obj.get("altered", False)))
    if "rects" in obj and obj["rects"]:
        return RectRegion(_rects(obj["rects"]))
    raise BadRegionSpec(f"unintelligible region spec: {spec!r}")
