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
  A Monte Carlo sample is two floats: one whose floats lie in a product
  of cylinders that the walker itself has classified is answered from
  them (`contains_sample`), and only the others are read by the walker,
  through snap readers built for it.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right
from fractions import Fraction

from .digits import (
    SNAP_DEN,
    Cons,
    DigitStream,
    LazyDigits,
    Reader,
    SnapReader,
    digits_fraction,
    fraction_digits,
    order,
)
from .errors import (
    BackwardCapExceeded,
    BadRegionSpec,
    BoundaryUndecidable,
    InvalidSingularisationArea,
    OutOfDomain,
)
from .exact import INF, _continuant
from .induced import CellRegion, OmegaRegion, RectRegion, Region, fraction_rects
from .reals import RealRep, as_real, is_rational, parse_real, surd_digits


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
    the image's rational corners, `_fast_map_image`).  The area is the
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

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        if yd.head() != 1:
            return False
        y = yd.tail()
        # b2 = INF pulls x back to 0, outside the right half: a member
        return not self.area.contains_rational(Reader([], Cons(y.head(), xd)), Reader([], y.tail()))

    def first_in_run(self, xd: DigitStream, yd: DigitStream, m: int):
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


# a class of last digits [lo, hi] spans [.., lo] to [.., hi, 1, _FAR],
# inside hi's cylinder, or to [.., max(lo, _FAR)] when hi is unbounded
# or past _FAR
_FAR = 10**6
# y's first three digits and x's first two are classified, no more
_Y_DEPTH, _X_DEPTH = 3, 2
# a product of cylinder classes that its first run leaves undecided is
# classified further only when it is at least 1/_SPAN in area, counted
# over the members its leaves are copied to; smaller ones go through the
# walker
_SPAN = 2**14
# and a class is split into its first _MEMBERS members at most
_MEMBERS = 64
# (alpha_list, period, back_cap) -> cylinder table, the latest used last
_TABLES = {}
_TABLES_KEPT = 32


class _PastPrefix(Exception):
    """A `_Prefix` reader was read past its digits."""


class _Prefix:
    """Reader of a cylinder's first digits that raises _PastPrefix when
    read past them: a walker run on such readers that returns gives its
    answer for every point whose digits begin so."""

    __slots__ = ("got", "src")

    def __init__(self, got: list):
        self.got, self.src = got, self

    def more(self):
        raise _PastPrefix(self)

    def state(self, k: int):
        return None


def _classes(crit, shift: int = 0):
    """The digits d >= 1 that no comparison of d + shift with a value in
    crit tells apart, as (lo, hi) classes ascending; the last has hi None."""
    out, lo = [], 1
    for v in sorted(crit):
        v -= shift
        if v >= lo:
            if v > lo:
                out.append((lo, v - 1))
            out.append((v, v))
            lo = v + 1
    out.append((lo, None))
    return out


def _width(prefix: list, lo: int, hi):
    """(n, m): the union of the cylinders [prefix..., d], d in [lo, hi],
    is an interval n/m wide."""
    _, _, q0, q1 = _continuant(prefix)
    if hi is None:
        return 1, q1 * (lo * q1 + q0)
    return hi + 1 - lo, (lo * q1 + q0) * ((hi + 1) * q1 + q0)


def _wide(width, other=(1, 1)) -> bool:
    """Is a product of intervals these wide at least 1/_SPAN in area?"""
    return _SPAN * width[0] * other[0] >= width[1] * other[1]


def _members(prefix: list, lo: int, hi, other=(1, 1)):
    """The digits d of the class [lo, hi], ascending, as long as the
    cylinder [prefix..., d] times an interval `other` wide is `_wide`."""
    d = lo
    while (hi is None or d <= hi) and d < lo + _MEMBERS and _wide(_width(prefix, d, d), other):
        yield d
        d += 1


def _float_beside(p: int, q: int, up: bool) -> float:
    """The least float >= p/q (up) or the greatest float <= p/q; int
    true division is correctly rounded."""
    f = p / q
    n, d = f.as_integer_ratio()
    if n * q != p * d and (n * q < p * d) == up:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _leaf(prefix: list, lo: int, hi, answer):
    """The leaf of the class [lo, hi] of digits after prefix: (near, far,
    answer), two canonical digit lists beginning so whose closed interval
    lies inside the union of the cylinders [prefix..., d], d in [lo, hi]:
    [prefix..., lo] and [prefix..., hi, 1, _FAR], or [prefix..., max(lo,
    _FAR)] for a class unbounded or past _FAR."""
    # a last digit 1 is not canonical: that cylinder holds only longer lists
    near = prefix + ([1, _FAR] if lo == 1 and prefix else [lo])
    return near, prefix + ([hi, 1, _FAR] if hi is not None and hi < _FAR else [max(lo, _FAR)]), answer


def _float_table(leaves):
    """Leaves (near, far, answer), disjoint, as float bounds for
    `bisect_right`: flat and ascending [lo, hi) pairs, lo the least float
    >= the lesser end and hi the float after the greatest float <= the
    other, and per pair the answer.  A sample's snap fixes only the
    rationals of denominator <= SNAP_DEN, so a leaf with an end past that
    is dropped, and so is a leaf that holds no float."""
    spans = []
    for near, far, answer in leaves:
        lesser, greater = sorted((digits_fraction(near), digits_fraction(far)))
        (p, q), (r, s) = lesser.as_integer_ratio(), greater.as_integer_ratio()
        if max(q, s) <= SNAP_DEN:
            spans.append((_float_beside(p, q, True), _float_beside(r, s, False), answer))
    ends, answers = [], []
    for lo, hi, answer in sorted(spans, key=lambda span: span[0]):
        if lo <= hi:
            ends += [lo, math.nextafter(hi, math.inf)]
            answers.append(answer)
    return ends, answers


class _Cylinders:
    """Builds an alpha region's cylinder table by running its walker on
    `_Prefix` readers of product cylinders [b1..bk] x [a1..am].

    The walker compares a point's digit only with alpha's digits (<, =, >
    and the fold d +- 1 = e), with 1 (`digits.ends_with`) and, for x's
    first digit a below the top strip, through c = a + b1 - 1 likewise.
    So the digits that no such comparison tells apart form one class
    (`_classes`), and one run on its least member answers for all of
    them: a y class that settles the walker is a leaf; one that needs x
    gets an x list of its own leaves; one that needs more of y is split
    into its members, each followed by the next digit's classes, and
    since the members are alike, the leaves found under the least are
    copied to the others.  b1 is split at once below the top strip,
    where x's classes depend on it.  A member's own point, which none of
    the longer cylinders holds, is a leaf when the walker answers it
    from y alone.  Products too narrow to pay for more runs (`_SPAN`,
    `_MEMBERS`) are left to the walker, and so is a run that raises
    BackwardCapExceeded, which raises there as before."""

    def __init__(self, region):
        self.region = region
        crit = {1} | {e + k for e in region.alpha_list for k in (-1, 0, 1)} - {0}
        self.classes = functools.cache(lambda shift: _classes(crit, shift))

    def run(self, ys: list, xs: list, ended: bool = False):
        """The walker on the cylinder [ys...] x [xs...], or on the point
        y = [ys...] when ended: its answer, or "y" or "x" for the prefix
        it reads past, or None when it raises."""
        y, x = Reader(list(ys)) if ended else _Prefix(list(ys)), _Prefix(list(xs))
        try:
            return self.region.contains_rational(x, y)
        except _PastPrefix as exc:
            return "y" if exc.args[0] is y else "x"
        except BackwardCapExceeded:
            return None

    def table(self):
        out = []
        if self.region.slides:
            # x's classes below the top strip depend on b1; past a1 + 1,
            # where c > a1 whatever x is, the walker answers at once
            for b1 in _members([], 1, self.region.alpha_list[0] + 1):
                self.y_leaves([], b1, b1, out)
        else:
            self.y_leaves([], 1, 1, out)
            self.y_leaves([], 2, None, out)
        return _float_table(out)

    def y_leaves(self, prefix: list, lo: int, hi, out: list, copies: int = 1):
        """Adds the leaves of y's class [lo, hi] after prefix, which are
        copied to as many members of the classes before it."""
        ys = prefix + [lo]
        n, m = _width(prefix, lo, hi)
        wy = n * copies, m
        # y alone settles the walker only in the top strip, b1 = 1; below
        # it the first thing read is x's first digit
        if not _wide(wy) and ys[0] > 1:
            return
        got = self.run(ys, [])
        if got in ("x", "y") and not _wide(wy):
            return
        if got == "x":
            # below _Y_DEPTH, x's classes that need more of y are settled
            # in the members' x lists
            stop, xs = len(ys) < _Y_DEPTH, []
            for x_lo, x_hi in self.classes(ys[0] - 1):
                if self.x_leaves(ys, wy, [], x_lo, x_hi, xs, stop):
                    break
            else:
                if xs:
                    out.append(_leaf(prefix, lo, hi, _float_table(xs)))
                return
            got = "y"
        if got == "y":
            if len(ys) < _Y_DEPTH:
                ds, first, k = list(_members(prefix, lo, hi, (copies, 1))), [], len(prefix)
                self.member(ys, first, copies * len(ds))
                for d in ds:
                    out += [(near[:k] + [d] + near[k + 1:], far[:k] + [d] + far[k + 1:], answer)
                            for near, far, answer in first]
        elif got is not None:
            out.append(_leaf(prefix, lo, hi, got))

    def member(self, ys: list, out: list, copies: int):
        """Adds the leaves of the cylinder [ys...] that needs y's next
        digit, and of its own point [ys...] when the walker answers it
        from y alone.  The leaf of the last, unbounded class then reaches
        the point, if it answers alike: the lists between are that
        class's."""
        classes, start = self.classes(0), len(out)
        for c_lo, c_hi in classes:
            self.y_leaves(ys, c_lo, c_hi, out, copies)
        # a last digit 1 is not canonical
        point = self.run(ys, [], ended=True) if ys[0] == 1 and (ys[-1] > 1 or len(ys) == 1) else None
        if type(point) is bool:
            leaf = _leaf(ys, classes[-1][0], None, point)
            try:
                out[out.index(leaf, start)] = leaf[0], ys, point
            except ValueError:
                out.append((ys, ys, point))

    def x_leaves(self, ys: list, wy, prefix: list, lo: int, hi, out: list, stop: bool) -> bool:
        """Adds the x leaves of x's class [lo, hi] after prefix, under y's
        cylinder [ys...], wy wide; with stop, it stops at the first run
        that reads past ys and returns True."""
        if not _wide(_width(prefix, lo, hi), wy):
            return False
        got = self.run(ys, prefix + [lo])
        if got == "y":
            return stop
        if got == "x":
            if len(prefix) + 1 < _X_DEPTH:
                for d in _members(prefix, lo, hi, wy):
                    for c_lo, c_hi in self.classes(0):
                        if self.x_leaves(ys, wy, prefix + [d], c_lo, c_hi, out, stop):
                            return True
        elif got is not None:
            out.append(_leaf(prefix, lo, hi, got))
        return False


def _cylinder_table(region):
    """The region's cylinder table, from the bounded module cache: it
    depends only on alpha's digits, period and back_cap."""
    key = (tuple(region.alpha_list), region.period, region.back_cap)
    table = _TABLES.pop(key, None) or _Cylinders(region).table()
    _TABLES[key] = table
    if len(_TABLES) > _TABLES_KEPT:
        del _TABLES[next(iter(_TABLES))]
    return table


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
    and period None.  `contains` and the run test make the walker's
    first test on a point's streams before they build readers: a
    top-strip b2 past alpha's first digit is depth 1, a slid c past it
    no member, and a region that does not slide has no run member.

    A Monte Carlo sample's floats are first looked up in a cylinder
    table that the walker builds itself (`_Cylinders`): it classifies
    product cylinders [b1..bk] x [a1..am], k <= 3 and m <= 2, on prefix
    readers that raise when read past, and keeps each one it decides as a
    closed interval whose ends are canonical lists beginning so.  A snap
    is monotone and fixes such ends when their denominators are at most
    `digits.SNAP_DEN` (`digits.SnapReader`), so a sample whose floats lie
    in one, between exact float bounds, is answered before any reader is
    built (`contains_sample`).  The table depends only on alpha's digits
    and back_cap; it is built on the first sample, and kept in a bounded
    module cache shared by equal regions.
    """

    unit_s = True
    altered = True

    def __init__(self, alpha: RealRep, back_cap: int = 2000, name=None):
        alpha = as_real(alpha)
        if not (0 < alpha <= 1):
            raise OutOfDomain(f"alpha = {alpha} outside (0, 1]")
        self.alpha = alpha
        if is_rational(alpha):
            self.alpha_list, self.period = fraction_digits(alpha), 0
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
        self._table = None  # the cylinder table, fetched on the first sample
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
        x-coordinate is < alpha.  A digit b_{j+1} other than a1 decides
        depth j at once, from y alone; b_{j+1} = a1 asks `_below`, which
        may read on into x."""
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

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        if yd.head() == 1:
            # the walker's first test, before it builds readers: a b2 past
            # alpha's first digit, or y = 1 with no b2, is depth 1 (at
            # back_cap 0 the walker raises instead)
            if yd.tail().head() > self.alpha_list[0] and self.back_cap:
                return True
            return self._odd_depth(Reader([], xd), Reader([], yd))
        return self._run_member(xd, yd)

    def first_in_run(self, xd: DigitStream, yd: DigitStream, m: int):
        return 1 if self._run_member(xd, yd) else None

    def _run_member(self, xd: DigitStream, yd: DigitStream) -> bool:
        """Membership of the points (a1-k, b1+k) of (xd, yd)'s run that lie
        below the top strip, k = 0 included when b1 >= 2, and none on the
        x = 0 line (a1 = INF).  It is one answer for all of them: each
        slides back to the same c = a1+b1-1 with both tails fixed.  A c
        past alpha's first digit is no member, the first test of `_slid`,
        made here before any reader is built."""
        if not self.slides:
            return False
        a1, b1 = xd.head(), yd.head()
        if a1 is INF or b1 is INF:
            return False
        c = a1 + b1 - 1
        if c > self.alpha_list[0]:
            return False
        return self._slid(c, Reader([c], xd), Reader([], yd))

    def contains_sample(self, x: float, y: float) -> bool:
        """Membership of a Monte Carlo sample: the point whose coordinates
        are the snaps of the floats x, y >= 0 (`digits.SnapReader`).  One
        bisect of y in the region's cylinder table (`_Cylinders`) gives
        the walker's answer, or a list of x-intervals that a bisect of x
        may answer from; only a sample the table does not answer builds
        readers, for `contains_rational`."""
        ends, answers = self._table or self._cylinders()
        i = bisect_right(ends, y)
        if i & 1:
            answer = answers[i >> 1]
            if type(answer) is bool:
                return answer
            ends, answers = answer
            i = bisect_right(ends, x)
            if i & 1:
                return answers[i >> 1]
        return self.contains_rational(SnapReader._of(x), SnapReader._of(y))

    def _cylinders(self):
        self._table = _cylinder_table(self)
        return self._table

    def contains_rational(self, x, y) -> bool:
        """contains() for the point with rational coordinates read by x
        and y: readers of their canonical digit lists, such as
        `digits.SnapReader`s of a sample or `digits.Reader(list)` for a
        complete list.  This is the walker: it pulls only the digits it
        needs, y's first, and starts x's reader only on the slide path or
        when a comparison against alpha runs off the digits of y, so a
        top-strip point decided by y alone leaves x unread.  y = 0 (no
        digits) is no member; x = 0 is one only where `contains` finds it
        in the top strip.  Below the top strip x's reader is left holding
        the slid point's first digit c."""
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
                    v = parse_real(str(text))
                except (ValueError, OutOfDomain):
                    v = None
                if v is None or not is_rational(v):
                    raise BadRegionSpec(f"rects entry {i}: corner {axis}[{k}] = {text!r} is not a rational")
                corners.append(v)
        out.append(tuple(corners))
    return out


def _alpha(text: str) -> RealRep:
    """The alpha of a spec; one that does not parse is a BadRegionSpec."""
    try:
        return parse_real(text)
    except OutOfDomain as exc:
        raise BadRegionSpec(f"bad alpha: {exc}") from exc


# builder name -> the region it builds from its params
_BUILDERS = {
    "omega": lambda p: region_omega(),
    "h1": lambda p: region_h1(),
    "h": lambda p: region_h(int(p["b"])),
    "v": lambda p: region_v(int(p["a"])),
    "cell": lambda p: region_cell(int(p["a"]), int(p["lam"])),
    "alpha": lambda p: build_alpha_region(_alpha(str(p["alpha"]))),
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
