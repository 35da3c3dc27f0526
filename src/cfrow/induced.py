"""Induced transformations of the slow planar map over subregions.

A Region answers membership from a point's two digit streams,
`contains(xd, yd)`, exactly: unions of digit cells from leading digits,
unions of rectangles by comparing the point's digits with each corner's
(`digits.order`, so a point on an edge is decided too), and the regions
of `regions` through their own walkers.  The induced engine walks the
slow map, accumulates the branch-matrix product A_R between visits, and
exposes induced steps (a record's N is the hitting time), accumulated
products and the three integer digit maps built from consecutive
matrices.  The digit-pair formula lives in one place, `digit_pair`; the
CFE route, the digit maps and the shift space all read their digits
through it.

The forward walk moves one partial-quotient run at a time: inside the
partial quotient a1 the slow orbit walks the cells (a1-k, b1+k) with
every other digit fixed, the Gauss map being the jump transformation of
the Farey tent map.  `Region.first_in_run` names the first run point in
the region, if any, and the walk applies A0^k = ((1,0),(k,1)) for a hit
inside the run or A0^(a1-1) A1 = ((0,1),(1,a1)) for the whole run, then
asks `contains` once at the run's top-strip landing.  The x = 0 line is
the run a1 = INF, which never ends: a None there ends the walk at once.
A walk keeps A_R as four ints, and so does its record (`InducedRecord.A`
builds the `Mat2Z` when read).  The walk carries no point and no values:
it moves the two streams (xd, yd) by `natural_ext.run_move`, the move
`ito_jump` makes too, and asks membership of them.  It builds one
OmegaPoint per record, the landing, which takes the start's values, if
any, moved by A_R, exactly the walk's product.  A backward walk is the
forward walk of the mirrored point (`backward_induced_step`).

A walk also decides a run and its landing from the landing before,
where its region can: from a record's landing, which alone is marked
a visit (`OmegaPoint._visit`), by `Region.after_visit`, and after a
missed landing, by `Region.visit_after_miss`.  Alpha and S-expansion
regions can (`regions`); every other region, mirrored ones too, asks.

A region whose visits a forward walk decides from x alone
(`Region.x_only`: every `CellRegion`, and an empty `RectRegion`) is
visited or not by x's digits only: past the start, a cell walk asks
membership only at top-strip landings, where y's head is 1, and along
their runs, whose cells (a1-k, 1+k) follow from a1.  Once such a walk
has gone NEVER_ENTERS_AFTER slow steps without a visit it watches x's
recurrence state: a state that repeats with no visit in between proves
the orbit never enters, and the walk raises NeverEnters, a CapExceeded,
instead of walking on to the cap.  A walk that reaches the x = 0 line,
where x stays 0, in a region that holds no point of it
(`Region.meets_x_zero` False: a cell needs a finite a1) raises
NeverEnters there at once, without asking `first_in_run`.

Multi-record readers read the records through `induced_orbit`, which
keeps the records it walks on their start point, for the last region
asked.  The two CFE routes and the shift orbit from one point therefore
walk its induced orbit once between them; `induced_step` itself keeps
nothing, so a point holds the records walked from it and no chain of
later points' records.

The boundary fix for orbits launched on the top edge is structural
here: points evolve symbolically, and the non-canonical tails the
symbolic map produces make digit-based membership agree with the
"adjusted" induced system on closures of the cells.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, starmap

from .digits import DigitStream, Reader, SnapReader, fraction_digits, order, surd_steps, tail_state
from .errors import BackwardCapExceeded, CapExceeded, NeverEnters
from .exact import INF, IDENTITY, Mat2Z, reversed_product
from .natural_ext import OmegaPoint, run_move


# slow steps without a visit before an x-only walk watches for a repeated x-state
NEVER_ENTERS_AFTER = 10_000


class Region:
    """Membership oracle over the unit square."""

    altered: bool = False      # uses the top-edge-adjusted induced map
    unit_s: bool = False       # guarantees s_R(z) = 1 for z in R
    meets_x_zero: bool = True  # False: no point of the x = 0 line is a member
    x_only: bool = False       # forward walks decide visits from x alone
    visit_after_miss: bool = False  # a walk's landing after a missed landing is a visit
    name: str = "region"

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        """Is the point with digit streams (xd, yd) in the region?"""
        raise NotImplementedError

    def after_visit(self, xd: DigitStream, yd: DigitStream):
        """(k, visit) for a walk at (xd, yd) whose run starts from a visit:
        1 or None as `first_in_run` would say, and whether the run's
        landing is a member; or None, as here, to ask them."""
        return None

    def mirrored(self) -> "Region":
        """{(y, x) : (x, y) in the region}; by default a `_Mirrored`."""
        return _Mirrored(self)

    def first_in_run(self, xd: DigitStream, yd: DigitStream, m: int):
        """The least k in 1..m whose run point, the k-th slow image
        (a1-k, b1+k) of the point (xd, yd), is in the region, or None;
        m < a1, and a1 is INF on the x = 0 line, whose run never ends.
        This default asks `contains` at each run point in turn, so any
        region is answered correctly; a region that can decide a whole
        run at once overrides it, exactly."""
        a1 = xd.head()
        for k in range(1, m + 1):
            if self.contains(*run_move(xd, yd, a1, k)):
                return k
        return None

    def describe(self) -> dict:
        return {"name": self.name, "altered": self.altered}


class InducedRecord:
    """One induced step: return/hitting time N, the branch product
    A_R = A_eps1 ... A_epsN with entries ((u, t), (s, r)), and the
    landing point.  The entries are kept as four ints, and `A` builds
    their `Mat2Z` when it is read.  Every construction checks s >= 1 and
    0 <= u <= s (AssertionError).  Records compare N and A by value and
    the landing by identity, as points compare (`OmegaPoint` has no
    `__eq__`), so two walks from one point give unequal records.  They
    are not hashable and are read-only by convention."""

    __slots__ = ("N", "u", "t", "s", "r", "z_next")

    def __new__(cls, N: int, A: Mat2Z, z_next: OmegaPoint):
        return cls._of(N, *A, z_next)

    @classmethod
    def _of(cls, N, u, t, s, r, z_next):
        """The record of a walk's four entries, without a `Mat2Z`."""
        if not (s >= 1 and 0 <= u <= s):
            raise AssertionError(f"matrix entry bounds violated: u={u}, s={s}")
        rec = object.__new__(cls)
        rec.N, rec.u, rec.t, rec.s, rec.r, rec.z_next = N, u, t, s, r, z_next
        return rec

    @property
    def A(self) -> Mat2Z:
        return Mat2Z(self.u, self.t, self.s, self.r)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.N, self.u, self.t, self.s, self.r, self.z_next)
                == (other.N, other.u, other.t, other.s, other.r, other.z_next))

    def __repr__(self):
        return f"InducedRecord(N={self.N}, A={self.A!r}, z_next={self.z_next!r})"


def induced_step(region: Region, z: OmegaPoint, cap: int) -> InducedRecord:
    """Advance to the next visit of the region, accumulating A_R.

    Works for z inside the region (return-time semantics) and outside
    it (hitting semantics) alike.  The walk moves one partial-quotient
    run per iteration (see the module docstring); the record's N counts
    slow steps all the same.
    """
    contains, first_in_run = region.contains, region.first_in_run
    xd, yd = z.xd, z.yd  # the walk carries the two streams, no point
    # (k, visit), the run's first hit and its landing, known without asking
    known = region.after_visit(xd, yd) if z._visit is region else None
    after_miss = (None, True) if region.visit_after_miss else None
    a, b, c, d = 1, 0, 0, 1
    n = 0
    watch_from = NEVER_ENTERS_AFTER if region.x_only else cap
    first = None
    while n < cap:
        a1 = xd.head()
        if a1 > 1:
            if a1 is INF and not region.meets_x_zero:  # x stays 0 off the region
                raise NeverEnters(f"orbit never enters {region.name}: it has reached "
                                  f"the x = 0 line after {n} steps")
            k = first_in_run(xd, yd, min(a1 - 1, cap - n)) if known is None else known[0]
            if k is not None:  # A_R @ A0^k
                n, a, c = n + k, a + k * b, c + k * d
                xd, yd = run_move(xd, yd, a1, k)
                break
            if a1 is INF:  # the x = 0 line: a run without end, and no visit in reach
                raise _cap_exceeded(region, cap)
        n += a1
        if n > cap:
            raise _cap_exceeded(region, cap)
        a, b, c, d = b, a + a1 * b, d, c + a1 * d  # A_R @ A0^(a1-1) A1
        xd, yd = run_move(xd, yd, a1, a1)
        if (contains(xd, yd) if known is None else known[1]):
            break
        known = after_miss
        if n >= watch_from:
            # a region that reads only x: the walk from a repeated x-state
            # repeats, so no visit in between means none ever
            if first is None:
                first = state = tail_state(xd, 0)
                if first is None:
                    watch_from = cap  # x is rational: the x = 0 line ends the walk
            else:
                state = surd_steps(state, (a1,))
                if state == first:
                    raise NeverEnters(f"orbit never enters {region.name}: its x-state "
                                      f"repeats after {n} steps with no visit")
    else:
        raise _cap_exceeded(region, cap)
    # the landing takes z's values, if any, moved by A_R, the walk's product
    w = OmegaPoint(xd, yd) if z._x0 is None and z._y0 is None else z._moved(xd, yd, (a, b, c, d))
    w._visit = region
    return InducedRecord._of(n, a, b, c, d, w)


def _cap_exceeded(region: Region, cap: int) -> CapExceeded:
    return CapExceeded(f"orbit did not enter {region.name} within {cap} steps")


def induced_orbit(region: Region, z: OmegaPoint, cap: int):
    """The induced records from z, one per visit, without end.

    The records walked are kept on z, for the last region asked (by
    identity): a later walk from z for the same region reads them first
    and walks on from the last landing only past their end.  The cap
    reads as in a fresh walk: a kept record whose N exceeds `cap` raises
    the walk's own CapExceeded, and a walk that raises keeps only the
    records it found, so a larger cap walks on.
    """
    kept = z._orbit
    if kept is not None and kept[0] is region:
        recs = kept[1]
    else:
        recs = []
        z._orbit = (region, recs)
    k = 0
    while True:
        if k < len(recs):
            rec = recs[k]
            if rec.N > cap:
                raise _cap_exceeded(region, cap)
        else:
            rec = induced_step(region, recs[-1].z_next if recs else z, cap)
            recs.append(rec)
        yield rec
        k += 1


def induced_records(region: Region, z: OmegaPoint, n: int, cap: int):
    """Records of the first n induced steps from z."""
    return list(islice(induced_orbit(region, z, cap), n))


def induced_products(region: Region, z: OmegaPoint, n: int, cap: int):
    """[(N_k, A^R_[0,k])] for k = 0..n: cumulative times and products."""
    out = [(0, IDENTITY)]
    for rec in induced_records(region, z, n, cap):
        total, acc = out[-1]
        out.append((total + rec.N, acc @ rec.A))
    return out


def digit_pair(s_prev: int, rec: InducedRecord, nxt: InducedRecord):
    """The digit pair (alpha, beta) of two consecutive induced records.

    With A_k = ((u_k, t_k), (s_k, r_k)) the record `rec`, `nxt` the one
    after it and s_prev the s-entry of the one before,

        alpha = -det(A_k) s_{k-1} s_{k+1},
        beta  =  s_k u_{k+1} + r_k s_{k+1}.

    Every digit pair in the library comes from here; the shift space is
    the case s = 1 throughout.
    """
    return ((rec.t * rec.s - rec.u * rec.r) * s_prev * nxt.s,
            rec.s * nxt.u + rec.r * nxt.s)


def backward_induced_step(region: Region, z: OmegaPoint, cap: int):
    """Preimage under the induced map: (record, z_prev), or None when the
    backward orbit certifiably never visits the region: the forward walk
    of sigma z = (y, x) through the mirrored region, T^-1 being sigma T
    sigma, with None for its NeverEnters.  Its product M folds the branch
    matrices backwards, so A_R is `reversed_product(M)`."""
    try:
        rec = induced_step(region.mirrored(), z.mirrored(), cap)
    except NeverEnters:
        return None
    except CapExceeded:
        raise BackwardCapExceeded(f"no backward visit of {region.name} within {cap} steps") from None
    A = reversed_product((rec.u, rec.t, rec.s, rec.r))
    return InducedRecord._of(rec.N, *A, z), rec.z_next.mirrored()


def d_map(region: Region, z: OmegaPoint, cap: int) -> int:
    """s-entry of the matrix at the induced preimage; 1 when there is
    provably none (the y = 0 line off the region, or a repeated y-state);
    BackwardCapExceeded at `cap`."""
    back = backward_induced_step(region, z, cap)
    return 1 if back is None else back[0].s


def digit_maps(region: Region, z: OmegaPoint, cap: int):
    """(d_R, alpha_R, beta_R) at z: d_R by the backward search, and
    (alpha_R, beta_R) = digit_pair(d_R, own record, next record)."""
    rec0, rec1 = induced_records(region, z, 2, cap)
    d = d_map(region, z, cap)
    return (d,) + digit_pair(d, rec0, rec1)


class _Mirrored(Region):
    """The mirror of a region: it swaps each point it is asked about."""

    meets_x_zero = False

    def __init__(self, region: Region):
        self.region, self.name = region, region.name

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        return self.region.contains(yd, xd)


class OmegaRegion(Region):
    unit_s = True
    name = "omega"

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        return True

    def mirrored(self) -> Region:
        return self

    def first_in_run(self, xd: DigitStream, yd: DigitStream, m: int):
        return 1


class CellRegion(Region):
    """Finite union of digit cells; conditions read the leading digits.

    Each member of `cells` is a pair (a, b) with None meaning
    unconstrained, so (None, 1) is the top strip and (2, None) a
    vertical strip; any other index must be an int >= 1 (ValueError).
    """

    x_only = True  # y's head is 1 at every landing
    meets_x_zero = False

    def __init__(self, cells, name="cells", altered=False):
        self.cells = [tuple(c) for c in cells]
        for ca, cb in self.cells:
            for v in (ca, cb):
                if v is not None and (type(v) is not int or v < 1):
                    raise ValueError(f"cell index {v!r} is neither None nor an int >= 1")
        self.name = name
        self.altered = altered
        self.unit_s = self.cells == [(None, 1)]

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        a, b = xd.head(), yd.head()
        if a is INF or b is INF:
            return False
        for ca, cb in self.cells:
            if (ca is None or ca == a) and (cb is None or cb == b):
                return True
        return False

    def mirrored(self) -> Region:
        return CellRegion([(b, a) for a, b in self.cells], self.name, self.altered)

    def first_in_run(self, xd: DigitStream, yd: DigitStream, m: int):
        """Solves a1 - k = ca and b1 + k = cb per cell."""
        a1, b1 = xd.head(), yd.head()
        if a1 is INF or b1 is INF:
            return None
        best = None
        for ca, cb in self.cells:
            if ca is not None:
                k = a1 - ca
                if cb is not None and b1 + k != cb:
                    continue
            else:
                k = 1 if cb is None else cb - b1
            if 1 <= k <= m and (best is None or k < best):
                best = k
        return best

    def describe(self) -> dict:
        return {"name": self.name, "altered": self.altered, "cells": self.cells}


def fraction_rects(rects) -> list:
    """The rectangles (x0, x1, y0, y1) with their corners cast to
    Fraction: the one place a rectangle's corners are cast."""
    return [(Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)) for x0, x1, y0, y1 in rects]


class RectRegion(Region):
    """Finite union of closed rational rectangles, decided exactly by
    `digits.order`: the point's x and y digits are compared with each
    corner's canonical digits, so a point on an edge is decided too.

    The constructor normalises the rectangles once into `rects`, the one
    list every reader reads: corners cast to Fraction (`fraction_rects`),
    a degenerate rectangle (x0 > x1 or y0 > y1) refused with ValueError,
    each rectangle clamped to the unit square and dropped when it misses
    it, since every point lies inside the square.  Membership, the x = 0
    flag, `describe()` and every mass in `measure` read this list, so a
    set gets one membership and one mass however its rectangles are
    written."""

    def __init__(self, rects, name="rects"):
        rects = fraction_rects(rects)
        for x0, x1, y0, y1 in rects:
            if x0 > x1 or y0 > y1:
                raise ValueError("degenerate rectangle")
        self.rects = [
            tuple(Fraction(min(max(v, 0), 1)) for v in r)
            for r in rects
            if r[0] <= 1 and r[1] >= 0 and r[2] <= 1 and r[3] >= 0
        ]
        self.name = name
        self.meets_x_zero = any(x0 == 0 for x0, _, _, _ in self.rects)
        self.x_only = not self.rects  # no member: no visit, whatever x is
        self._corners = [tuple(Reader(fraction_digits(v)) for v in r) for r in self.rects]

    def mirrored(self) -> Region:
        return RectRegion([(y0, y1, x0, x1) for x0, x1, y0, y1 in self.rects], self.name)

    def contains(self, xd: DigitStream, yd: DigitStream) -> bool:
        return self.contains_rational(Reader([], xd), Reader([], yd))

    def contains_sample(self, x: float, y: float) -> bool:
        """Membership of a Monte Carlo sample: the point whose coordinates
        are the snaps of the floats x, y >= 0 (`digits.SnapReader`)."""
        return self.contains_rational(SnapReader._of(x), SnapReader._of(y))

    def count_samples(self, samples) -> int:
        """How many of the Monte Carlo samples, (x, y) pairs of floats,
        are members (`contains_sample`)."""
        return sum(starmap(self.contains_sample, samples))

    def contains_rational(self, x, y) -> bool:
        """Membership of the point whose coordinates the readers x and y
        read: `digits.Reader`s of a point's streams (`contains`) or a
        Monte Carlo sample's `digits.SnapReader`s."""
        for x0, x1, y0, y1 in self._corners:
            if order(x, x0) >= 0 and order(x, x1) <= 0 and order(y, y0) >= 0 and order(y, y1) <= 0:
                return True
        return False

    def describe(self) -> dict:
        return {
            "name": self.name,
            "rects": [[str(v) for v in r] for r in self.rects],
        }
