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
  them (`count_samples`), and only the others are read by the walker,
  through snap readers built for it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
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


def _overlap(r, s):
    """The lesser side of the overlap of closed rectangles r and s, each
    (x0, x1, y0, y1): >= 0 iff they meet, > 0 iff their interiors do."""
    return min(min(r[1], s[1]) - max(r[0], s[0]), min(r[3], s[3]) - max(r[2], s[2]))


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
    the image's rational corners, `_fast_map_image`; `meets_image` if the
    closed ones still touch).  The area is the `RectRegion` of its
    rectangles, so `rects` is its one list: membership of (t, v) readers
    (`contains_rational`), the S-expansion region's exclusion test and
    the region's mass in `measure` all read it."""

    def __init__(self, rects):
        rects = fraction_rects(rects)
        for x0, x1, y0, y1 in rects:
            if x0 > x1 or y0 > y1:
                raise InvalidSingularisationArea("a", "degenerate rectangle")
            if x0 < Fraction(1, 2) or x1 > 1 or y0 < 0 or y1 > 1:
                raise InvalidSingularisationArea(
                    "a", f"rectangle [{x0},{x1}]x[{y0},{y1}] not within the right half"
                )
        if any(_overlap(r, s) > 0 for i, r in enumerate(rects) for s in rects[i + 1:]):
            raise InvalidSingularisationArea("a", "overlapping rectangles")
        image = max((_overlap(_fast_map_image(r), s) for r in rects for s in rects), default=-1)
        if image > 0:
            raise InvalidSingularisationArea("b", "area overlaps its own image")
        super().__init__(rects, "S")
        self.meets_image = image >= 0  # closed S and its closed image share a point


class SExpansionRegion(Region):
    """Top-strip region whose induced expansions realise the
    singularisation of regular expansions over the area S.

    A top-strip point z with digit streams x = [0;a1,a2,...] and
    y = [0;1,b2,b3,...] is pulled back through one fast-map preimage of
    the strip isomorphism to the point ([0;b2,a1,a2,...], [0;b3,b4,...])
    in S's own coordinates, and z is excluded iff that point lies in S:
    the area answers on readers of those digits, with no point built.
    The landing after z's run pulls back to the fast-map image of z's
    pull-back, if that lies in S; so after a miss a walk takes the next
    landing for a visit unasked, unless the closed area touches its
    closed image, as {[1/2,1]x[0,1/2], [3/4,1]x[1/2,2/3]} does at v = 2/3.
    """

    name = "s-expansion"
    unit_s = True
    altered = True

    def __init__(self, area: SingularisationArea):
        self.area = area
        self.visit_after_miss = not area.meets_image

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
# a cylinder table's work: its build stops after this many walker runs
# and leaves written; a product under 1/_BUDGET**2 in area is not run,
# and a leaf is copied only to members at least 1/_BUDGET as wide
_BUDGET = 1000
# (alpha_list, period, back_cap) -> cylinder table, the latest used last
_TABLES = {}
_TABLES_KEPT = 32


class _PastPrefix(Exception):
    """A `_Prefix` reader was read past its digits."""


class _Prefix:
    """Reader of a cylinder's first digits that raises _PastPrefix when
    read past them: a walker run on such readers that returns gives its
    answer for every point whose digits begin so.  Its src is only a mark
    that more digits may follow, not the reader itself, which would make
    each reader a cycle only the collector frees."""

    __slots__ = ("got", "src")

    def __init__(self, got: list):
        self.got, self.src = got, True

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


def _width(q0: int, q1: int, lo: int, hi) -> float:
    """The width of the cylinders [prefix..., d], d in [lo, hi], for a
    prefix of continuant denominators q0, q1."""
    return 1 / (q1 * (lo * q1 + q0)) if hi is None else (hi + 1 - lo) / ((lo * q1 + q0) * ((hi + 1) * q1 + q0))


def _float_beside(p: int, q: int, up: bool) -> float:
    """The least float >= p/q (up) or the greatest float <= p/q; int
    true division is correctly rounded."""
    f = p / q
    n, d = f.as_integer_ratio()
    if n * q != p * d and (n * q < p * d) == up:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _tails(q0: int, q1: int, lo: int, hi, prefixed: bool):
    """What the ends of the leaf of the class [lo, hi] add to a prefix of
    continuant denominators q0, q1 (`_FAR`; a last 1 is not canonical, so
    [1, _FAR] after a prefix), or None when an end passes SNAP_DEN."""
    tails = [1, _FAR] if lo == 1 and prefixed else [lo], [hi, 1, _FAR] if hi is not None and hi < _FAR else [max(lo, _FAR)]
    for ds in tails:
        a, b = q0, q1
        for d in ds:
            a, b = b, d * b + a
        if b > SNAP_DEN:
            return None
    return tails


def _float_table(leaves):
    """Leaves (near, far, answer), disjoint, as float bounds for
    `bisect_right`: flat and ascending [lo, hi) pairs, lo the least float
    >= the lesser end and hi the float after the greatest float <= the
    other, and per pair the answer.  A sample's snap fixes only the
    rationals of denominator <= SNAP_DEN, so a leaf with an end past that
    is dropped, and so is a leaf that holds no float."""
    spans = []
    for near, far, answer in leaves:
        (_, p, _, q), (_, r, _, s) = _continuant(near), _continuant(far)  # in lowest terms
        if p * s > r * q:
            p, q, r, s = r, s, p, q
        if max(q, s) <= SNAP_DEN:
            spans.append((_float_beside(p, q, True), _float_beside(r, s, False), answer))
    ends, answers = [], []
    for lo, hi, answer in sorted(spans, key=lambda span: span[0]):
        if lo <= hi:
            ends += [lo, math.nextafter(hi, math.inf)]
            answers.append(answer)
    return ends, answers


def _merged(a, b):
    """The float table of the leaves of two disjoint float tables."""
    spans = sorted(zip(a[0][::2] + b[0][::2], a[0][1::2] + b[0][1::2], a[1] + b[1]), key=lambda span: span[0])
    return [t for span in spans for t in span[:2]], [span[2] for span in spans]


def _carved(ends, sides):
    """The float table of nested y leaves, given by `_float_table` with
    their sides: a float gets the x list of the innermost that holds it."""
    out, open_, at = ([], []), [], None
    for lo, hi, side in sorted(zip(ends[::2], ends[1::2], sides), key=lambda s: (s[0], -s[1])) + [(math.inf,) * 3]:
        while open_ and open_[-1][0] <= lo:
            end, xs = open_.pop()
            if at < end and xs[1]:
                out[0].extend((at, end))
                out[1].append(xs)
            at = end
        if open_ and at < lo and open_[-1][1][1]:
            out[0].extend((at, lo))
            out[1].append(open_[-1][1])
        open_.append((hi, getattr(side, "xs", None)))
        at = lo
    return out


class _Side:
    """One side of a product [b1..bk] x [a1..am]: its digit classes, whose
    least members are its digits and the others its copies, and its
    share, its own cylinders' width, since each copy costs its own leaves.
    A y side keeps its x leaves, leaf ends and kids, the side whose x
    leaves it shares, and its parent's answer at its own point."""

    __slots__ = ("path", "q0", "q1", "share", "xs", "ends", "kids", "up", "point")

    def __init__(self, path: list, q0: int = 0, q1: int = 1):
        self.path, self.q0, self.q1, self.share = path, q0, q1, _width(q0, q1, *path[-1])
        self.xs = self.ends = self.kids = self.up = self.point = None

    def kid(self, c):  # followed by the class c, an unbounded last class cut to its least
        lo, hi = self.path[-1]
        return _Side(self.path[:-1] + [(lo, hi or lo), c], self.q1, lo * self.q1 + self.q0)

    def fits(self) -> bool:
        return _tails(self.q0, self.q1, *self.path[-1], len(self.path) > 1) is not None

    def copies(self):
        """The ends (near, far) of the side's leaf per copy, least first,
        while a copy is 1/_BUDGET as wide or more and its ends fit; none
        for a last class past _FAR, whose leaf is one point."""
        path, least = self.path, _BUDGET * self.q1 * (self.q1 + self.q0)

        def walk(prefix, q0, q1):
            if len(prefix) == len(path) - 1:
                tails = q1 * (q1 + q0) <= least and _tails(q0, q1, *path[-1], bool(prefix))
                if tails:
                    yield prefix + tails[0], prefix + tails[1]
                return
            for d in range(path[len(prefix)][0], path[len(prefix)][1] + 1):
                fits = False
                for fits in walk(prefix + [d], q1, d * q1 + q0):
                    yield fits
                if not fits:  # a larger member has a narrower cylinder
                    return

        if path[-1][0] < _FAR:
            yield from walk([], 0, 1)


class _Cylinders:
    """Builds an alpha region's cylinder table by running its walker on
    `_Prefix` readers of product cylinders [b1..bk] x [a1..am].

    The walker compares a point's digit only with alpha's digits (<, =, >
    and the fold d +- 1 = e), with 1 (`digits.ends_with`) and, for x's
    first digit a below the top strip, through c = a + b1 - 1 likewise.
    So the digits that no such comparison tells apart form one class
    (`_classes`), and one run on the least members of a product of
    classes answers for all of it; its leaves are copied to the others.

    The undecided products wait in a heap, the widest first.  One that
    needs y's next digit alone is split into y's classes, each run at
    once, as x's first classes are once y needs x.  One that needs x's
    next digit is split in x, and one that needs y's splits its y side,
    whose kids share its x leaves and are y leaves nested in it once they
    have their own (`_carved`).  A member's own point, which no longer
    cylinder holds, is a leaf when the walker answers it from y alone.
    The build stops after _BUDGET walker runs and leaves written; no
    product whose leaf ends pass SNAP_DEN is queued, and a run that
    raises BackwardCapExceeded leaves its product to the walker."""

    def __init__(self, region):
        self.region = region
        crit = {1} | {e + k for e in region.alpha_list for k in (-1, 0, 1)} - {0}
        self.classes = functools.cache(lambda shift: _classes(crit, shift))
        self.work = 0

    def run(self, ys: list, xs: list, ended: bool = False):
        """The walker on the cylinder [ys...] x [xs...], or on the point
        y = [ys...] when ended: its answer, or "y" or "x" for the prefix
        it reads past, or None when it raises."""
        self.work += 1
        y, x = Reader(list(ys)) if ended else _Prefix(list(ys)), _Prefix(list(xs))
        try:
            return self.region.contains_rational(x, y)
        except _PastPrefix as exc:
            return "y" if exc.args[0] is y else "x"
        except BackwardCapExceeded:
            return None

    def table(self):
        self.heap, self.order, self.top, self.points, self.lists = [], itertools.count(), [], {}, []
        self.y_run(_Side([(1, 1)]))
        if not self.region.slides:
            self.y_run(_Side([(2, None)]))
        # below the top strip each b1 of a slide is a product of its own, to
        # a1 + 1 (past it c > a1 whatever x is) and _BUDGET (past it too small)
        for b1 in range(2, min(self.region.alpha_list[0] + 1, _BUDGET) + 1 if self.region.slides else 2):
            self.push(_width(0, 1, b1, b1), self.y_run, _Side([(b1, b1)]))
        while self.heap and self.work < _BUDGET:
            _, _, step, args = heapq.heappop(self.heap)
            step(*args)
        for y in self.lists:  # each after its up
            up = y.up.xs if y.up else ([], [])
            y.xs = _merged(up, _float_table(y.xs)) if y.xs else up
        top = _float_table(self.top + [(list(ys), list(ys), point) for ys, point in self.points.items()])
        return _merged(top, _carved(*_float_table([(*ends, y) for y in self.lists if y.ends for ends in y.ends])))

    def push(self, share: float, step, *args):
        heapq.heappush(self.heap, (-share, next(self.order), step, args))

    def take(self, items) -> list:  # as many as the budget has left, spent
        got = list(itertools.islice(items, max(0, _BUDGET - self.work)))
        self.work += len(got)
        return got

    def y_run(self, y: _Side):
        ys = [lo for lo, _ in y.path]
        got = self.run(ys, [])
        if got == "x":
            y.xs = []
            self.lists.append(y)
            for c in self.classes(ys[0] - 1):
                if self.work < _BUDGET:
                    self.x_run(y, _Side([c]), now=True)
        elif got == "y":
            self.push(y.share, self.y_split, y, ys)
        elif got is not None:
            ends = self.take(y.copies())
            if ends and y.point == got and y.path[-1][1] is None:
                # the leaf of y's last class reaches its members' points,
                # which answer alike: the lists between are that class's
                self.points.pop(tuple(ys[:-1]), None)
                ends = [(near, near[:-1]) for near, _ in ends]
            self.top += [(near, far, got) for near, far in ends]

    def y_split(self, y: _Side, ys: list, up=None):
        """Splits y into its kids, each run at once, or sharing up's x leaves."""
        point = None
        if not up and ys[0] == 1 and (ys[-1] > 1 or len(ys) == 1):  # a last digit 1 is not canonical
            point = self.run(ys, [], ended=True)
            if type(point) is bool and self.take([ys]):
                self.points[tuple(ys)] = point
        # a kid sharing x leaves is worth it only if a product on it can be
        y.kids = [kid for kid in map(y.kid, self.classes(0)) if (not up or kid.share * _BUDGET**2 >= 1) and kid.fits()]
        for kid in y.kids:
            kid.point, kid.up, kid.xs = point, up, [] if up else None
            if up:
                self.lists.append(kid)
            elif self.work < _BUDGET:
                self.y_run(kid)
        return y.kids

    def x_run(self, y: _Side, xs: _Side, now: bool = False):
        """Queues the product y x xs, or runs it now."""
        if y.share * xs.share * _BUDGET**2 < 1 or not xs.fits():
            return
        if not now:
            return self.push(y.share * xs.share, self.x_run, y, xs, True)
        got = self.run([lo for lo, _ in y.path], [lo for lo, _ in xs.path])
        if got == "x":
            for c in self.classes(0):
                self.x_run(y, xs.kid(c))
        elif got == "y":
            for kid in y.kids or self.y_split(y, None, y):
                self.x_run(kid, xs)
        elif got is not None:
            if y.ends is None:  # its first own x leaves: its own y leaf
                y.ends = self.take(y.copies())
            y.xs += self.take((near, far, got) for near, far in xs.copies())


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

    The landing after z's run has y = [0;1,a1,b2,...], so its depth-j
    candidate is z's depth-(j-1) one: its least depth is 1 if z's x is
    below alpha and one more than z's otherwise.  So after a missed
    landing a walk's run has no member and its next landing is a visit,
    and after a visit the walker's first test decides (`after_visit`).
    Skipping the search, a walk may answer where `contains` would pass a
    small back_cap and raise; each record it returns is the default's.

    A Monte Carlo sample's floats are first looked up in a cylinder
    table that the walker builds itself (`_Cylinders`): it classifies
    product cylinders [b1..bk] x [a1..am], widest first under a budget, on
    prefix readers that raise when read past, and keeps each one it decides
    as a closed interval whose ends are canonical lists beginning so.  A snap
    is monotone and fixes such ends when their denominators are at most
    `digits.SNAP_DEN` (`digits.SnapReader`), so a sample whose floats lie
    in one, between exact float bounds, is answered before any reader is
    built (`count_samples`).  The table depends only on alpha's digits
    and back_cap; it is built on the first sample, and kept in a bounded
    module cache shared by equal regions.
    """

    unit_s = True
    altered = True
    visit_after_miss = True

    def __init__(self, alpha: RealRep, back_cap: int = 2000):
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
            self._alpha_reader = Reader(list(self.alpha_list), LazyDigits(src))
        self.slides = alpha <= Fraction(1, 2)
        self.back_cap = back_cap
        self._table = None  # the cylinder table, fetched on the first sample
        self.name = f"alpha:{alpha}"

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

    def after_visit(self, xd: DigitStream, yd: DigitStream):
        """The walker's first test, on the slid x = [c, a2, ...], c = a1 +
        b1 - 1, of a run from a visit: below alpha, the run has no member
        and its landing is one; else its points are members (for alpha >
        1/2 such an x has a1 = 1, no run) and its landing is not."""
        a1 = self.alpha_list[0]
        c = xd.head() + yd.head() - 1
        below = c > a1 if c != a1 else self._below(None, 0, Reader([c], xd))
        return (None if below else 1), below

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
        are the snaps of the floats x, y >= 0 (`digits.SnapReader`), as
        `count_samples` counts it."""
        return self.count_samples(((x, y),)) == 1

    def count_samples(self, samples) -> int:
        """How many of the Monte Carlo samples, (x, y) pairs of floats
        >= 0 each standing for the point of their snaps, are members.
        One bisect of y in the region's cylinder table (`_Cylinders`)
        gives the walker's answer, or a list of x-intervals that a bisect
        of x may answer from; only a sample the table does not answer
        builds readers, for the walker `contains_rational`."""
        ends, answers = self._table or self._cylinders()
        walker = self.contains_rational
        hits = 0
        for x, y in samples:
            i = bisect_right(ends, y)
            if i & 1:
                answer = answers[i >> 1]
                if type(answer) is bool:
                    hits += answer
                    continue
                x_ends, x_answers = answer
                i = bisect_right(x_ends, x)
                if i & 1:
                    hits += x_answers[i >> 1]
                    continue
            if walker(SnapReader._of(x), SnapReader._of(y)):
                hits += 1
        return hits

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
