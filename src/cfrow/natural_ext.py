"""Planar natural extensions on the unit square.

Points carry the partial-quotient streams of both coordinates; the maps
act symbolically on digits (one O(1) edit per coordinate per move).

Slow map (first coordinate is the tent map):

    a1 > 1:  ([0;a1,a2,...], [0;b1,...])  ->  ([0;a1-1,a2,...], [0;1+b1,b2,...])
    a1 = 1:  ([0;1,a2,...],  [0;b1,...])  ->  ([0;a2,...],      [0;1,b1,b2,...])

Its invariant density is 1/(x + y - xy)^2 (infinite mass at the origin).
The fast (two-sided shift) map moves one whole partial quotient:
([0;a1,a2,...],[0;b1,...]) -> ([0;a2,...],[0;a1,b1,...]) with invariant
probability density 1/(log2 (1+xy)^2).

Exact coordinate values (Fraction or Surd) are optional and lazy.  A
slow step by the branch matrix C, A0 = ((1,0),(1,1)) or A1 =
((0,1),(1,1)) (a backward step by C's inverse), acts as x' = C^-1 . x
and y' = C . y.  So over moves C1, ..., Ck x moves by P = C1...Ck and y
by Ck...C1, which is A1 P^T A1^-1 (`exact.reversed_product`), since each
such C has A1 C^T A1^-1 = C.  A point keeps base values (x0, y0), taken
at one moment of its way, and one product P, with x = P^-1 . x0 and
y = reversed_product(P) . y0.  Matrices are the 4-tuples (a, b, c, d)
of ((a, b), (c, d)) that `exact.Mat2Z` is, multiplied by `exact._mul`.
A move by C (`ito_jump` passes a whole run's product) sets P' = P C, or
starts from the values, P' = C, when they are all read or absent.  No
Fraction or Surd is built until `x_val` or `y_val` is read, which
applies the product once and caches the value.  The slow map's inverse
is the map seen through the swap (x, y) -> (y, x), `OmegaPoint.mirrored`.
The fast map moves y by its matrix ((0,1),(1,a1)) itself, not by its
reverse, so `gauss_ne_step` builds its image from the read values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digits import Cons, DigitStream
from .errors import OutOfDomain
from .exact import IDENTITY, INF, RationalInterval, _mul, reversed_product
from .reals import RealRep, Surd, as_real, is_rational, rcf_digits

_PENDING = object()  # value not yet computed from the base value


def _mobius(m, v):
    """(a*v + b)/(c*v + d), exact, with v a Fraction or Surd.

    The image is in its value's one type: a Surd's image is what
    `Surd.mobius` makes (a Fraction under a map of determinant 0), and
    a rational v's is a Fraction, built once from v's numerator and
    denominator."""
    a, b, c, d = m
    if isinstance(v, Surd):
        return v.mobius(a, b, c, d)
    n, k = v.numerator, v.denominator
    return Fraction(a * n + b * k, c * n + d * k)


@dataclass(frozen=True)
class CellIndex:
    """z lies in V_a (x-strip) and H_b (y-strip); indices may be INF on
    the coordinate axes."""

    a: object
    b: object


class OmegaPoint:
    """A point of the square as a pair of digit streams.

    `x_val`/`y_val` are optional exact coordinate values (Fraction or
    Surd), None when the point was built from streams alone.  The point
    stores a base value per coordinate and one integer product P, which
    takes x's base to x and, reversed, y's base to y (see the module
    docstring); the first read applies it and caches the value, and moves
    from a point whose values are all read start from those values.  A
    value is rational iff its base is, so enclosures of irrational points
    read the streams without building a value.  The y-stream is whatever the symbolic dynamics
    produced and is deliberately NOT re-canonicalised: a trailing
    [...,1, inf] tail encodes a boundary point of the cell the orbit
    logic needs it to be in.

    `_orbit` keeps the induced records walked from the point, as
    (region, records) for the last region asked; `induced.induced_orbit`
    alone reads and writes it.  `_visit` is the region whose induced
    record landed on the point, set by `induced.induced_step` alone: a
    walk from the point for that region starts from a visit.
    """

    __slots__ = ("xd", "yd", "_x0", "_y0", "_p", "_x", "_y", "_orbit", "_visit")

    def __init__(self, xd: DigitStream, yd: DigitStream, x_val=None, y_val=None):
        self.xd = xd
        self.yd = yd
        self._x0 = self._x = x_val
        self._y0 = self._y = y_val
        self._p = IDENTITY
        self._orbit = self._visit = None

    @staticmethod
    def from_values(x: RealRep, y: RealRep) -> "OmegaPoint":
        x, y = as_real(x), as_real(y)
        return OmegaPoint(rcf_digits(x), rcf_digits(y), x, y)

    @staticmethod
    def from_streams(xd, yd) -> "OmegaPoint":
        return OmegaPoint(xd, yd)

    @property
    def x_val(self):
        v = self._x
        if v is _PENDING:
            a, b, c, d = self._p
            v = self._x = _mobius((d, -b, -c, a), self._x0)  # P^-1, up to det = +-1
        return v

    @property
    def y_val(self):
        v = self._y
        if v is _PENDING:
            v = self._y = _mobius(reversed_product(self._p), self._y0)
        return v

    def _moved(self, xd: DigitStream, yd: DigitStream, c) -> "OmegaPoint":
        """The point with streams (xd, yd) reached by the slow moves whose
        product is c (P' = P c): a branch matrix, a run's product or a
        walk's A_R."""
        w = OmegaPoint.__new__(OmegaPoint)
        w.xd = xd
        w.yd = yd
        w._orbit = w._visit = None
        x, y = self._x, self._y
        if x is _PENDING or y is _PENDING:
            w._x0, w._y0, w._p = self._x0, self._y0, _mul(self._p, c)
        else:  # every value read or absent: start from the values
            w._x0, w._y0, w._p = x, y, c
        w._x = None if w._x0 is None else _PENDING
        w._y = None if w._y0 is None else _PENDING
        return w

    def mirrored(self) -> "OmegaPoint":
        """The point (y, x), reading no value: the bases swap, and P becomes
        y's inverse product adj(reversed_product(P)), whose reverse is P^-1."""
        w = OmegaPoint.__new__(OmegaPoint)
        w.xd, w.yd, w._x0, w._y0, w._x, w._y = self.yd, self.xd, self._y0, self._x0, self._y, self._x
        u, t, s, r = reversed_product(self._p)
        w._p, w._orbit, w._visit = (r, -t, -s, u), None, None
        return w

    def cell(self) -> CellIndex:
        return CellIndex(self.xd.head(), self.yd.head())

    def x_enclosure(self, depth: int = 40) -> RationalInterval:
        if self._x is not None and is_rational(self._x0):
            return RationalInterval.point(self.x_val)
        return self.xd.enclosure(depth)

    def y_enclosure(self, depth: int = 40) -> RationalInterval:
        if self._y is not None and is_rational(self._y0):
            return RationalInterval.point(self.y_val)
        return self.yd.enclosure(depth)

    def __repr__(self):
        return f"OmegaPoint(x~{self.xd.prefix(4)}, y~{self.yd.prefix(4)})"


def ito_step(z: OmegaPoint) -> OmegaPoint:
    """One step of the slow planar map, symbolically: `ito_jump(z, 1)`."""
    return ito_jump(z, 1)


def ito_jump(z: OmegaPoint, k: int) -> OmegaPoint:
    """k slow steps inside z's partial quotient a1 as one move, for
    1 <= k <= a1: the streams move by `run_move`, and the values by
    A0^k = ((1,0),(k,1)) for k < a1 or, for the whole run k = a1, by
    A0^(a1-1) A1 = ((0,1),(1,a1))."""
    a1 = z.xd.head()
    xd, yd = run_move(z.xd, z.yd, a1, k)
    return z._moved(xd, yd, (1, 0, k, 1) if k < a1 else (0, 1, 1, a1))


def run_move(xd: DigitStream, yd: DigitStream, a1, k: int):
    """The streams (xd', yd') k slow steps on from (xd, yd), whose x
    has the partial quotient a1 = xd.head(), for 1 <= k <= a1.  The
    steps walk the cells (a1-k, b1+k) with every other digit fixed; the
    whole run k = a1 lands in the top strip at ([0;a2,...],
    [0;1,b1+a1-1,b2,...]).  On the x = 0 line a1 = INF: the run never
    ends, x's stream stays as it is and y's head grows by k
    (y |-> y/(1+ky)).  A `Cons` stream is read through its slots, which
    hold its head and tail when the head is not INF; any other stream,
    and an INF head, is read by `head()` and `tail()`."""
    if k < a1:
        if a1 is not INF:
            xd = Cons(a1 - k, xd._tail if type(xd) is Cons else xd.tail())
        grow = k
    else:
        xd = xd._tail if type(xd) is Cons else xd.tail()
        if a1 == 1:
            return xd, Cons(1, yd)
        grow = a1 - 1
    if type(yd) is Cons and yd._head is not INF:
        y = Cons(yd._head + grow, yd._tail)
    else:
        y = Cons(yd.head() + grow, yd.tail())
    return (xd, y) if k < a1 else (xd, Cons(1, y))


def ito_backstep(z: OmegaPoint) -> OmegaPoint:
    """The inverse step, the forward step of the mirrored point."""
    return ito_step(z.mirrored()).mirrored()


def gauss_ne_step(w: OmegaPoint) -> OmegaPoint:
    """One step of the fast two-sided shift, built from w's read values:
    y moves by ((0,1),(1,a1)) itself, not by its reverse as in a slow move."""
    a1 = w.xd.head()
    if a1 is INF:
        return w
    x, y = w.x_val, w.y_val
    return OmegaPoint(w.xd.tail(), Cons(a1, w.yd),
                      None if x is None else _mobius((a1, -1, -1, 0), x),
                      None if y is None else _mobius((0, 1, 1, a1), y))


def mu_bar_density(x, y):
    """Invariant density of the slow planar map, exact on rationals."""
    x, y = Fraction(x), Fraction(y)
    d = x + y - x * y
    if d == 0:
        raise OutOfDomain("density singular at the origin")
    return 1 / d**2


def nu_g_density(x, y) -> float:
    """Invariant probability density of the fast map."""
    return 1.0 / (math.log(2) * float((1 + Fraction(x) * Fraction(y)) ** 2))


def _float_enclosure(ds: DigitStream, depth: int):
    """(lo, hi), the floats of the ends of `ds.enclosure(depth)`, read
    digit by digit and without a Fraction.  After d digits the value
    lies between p1/q1 and (p0+p1)/(q0+q1), and so do the ends at every
    depth past d; int true division rounds correctly and rounding is
    monotone, so once these two give one float, every deeper end does too,
    and the first d at which they agree ends the reading (Gosper's rule
    of emitting a digit once both ends agree on it).  A stream that ends
    within the depth is its value, p1/q1."""
    p0, p1, q0, q1 = 1, 0, 0, 1
    for a in ds.prefix(depth):
        if a is INF:
            v = p1 / q1
            return v, v
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1 >> 25:  # below 2**25 the ends are over 2**-51 apart: two floats
            lo = p1 / q1
            if lo == (p0 + p1) / (q0 + q1):
                return lo, lo
    lo, hi = p1 / q1, (p0 + p1) / (q0 + q1)
    return (lo, hi) if lo <= hi else (hi, lo)


def orbit_csv_rows(z: OmegaPoint, n: int, depth: int = 40, step=ito_step):
    """Rows (k, x_lo, x_hi, y_lo, y_hi, cell_a, cell_b) for k = 0..n-1
    along the orbit of `step` (the slow map by default).  The bounds are
    the floats of the ends of `x_enclosure(depth)` and
    `y_enclosure(depth)`: a coordinate with a rational value is that
    value's float, and any other is read from its stream only as deep as
    its ends' floats need (`_float_enclosure`)."""
    rows = []
    cur = z
    for k in range(n):
        if cur._x is not None and is_rational(cur._x0):
            x_lo = x_hi = float(cur.x_val)
        else:
            x_lo, x_hi = _float_enclosure(cur.xd, depth)
        if cur._y is not None and is_rational(cur._y0):
            y_lo = y_hi = float(cur.y_val)
        else:
            y_lo, y_hi = _float_enclosure(cur.yd, depth)
        c = cur.cell()
        rows.append((k, x_lo, x_hi, y_lo, y_hi, "inf" if c.a is INF else c.a, "inf" if c.b is INF else c.b))
        cur = step(cur)
    return rows
