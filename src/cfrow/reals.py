"""Exact real inputs: rationals and real quadratic irrationals.

Each exact value has one type: a rational is a `Fraction`, and a surd
(p + q*sqrt(d))/r is always irrational (q != 0).  Surd arithmetic with a
rational result (x - x, x times its conjugate), `Surd.mobius` and
`parse_real` give the equal Fraction.  A surd supports field arithmetic,
exact comparison and exact floor, which is all the interval maps need.
Orbits of quadratic irrationals stay inside one field Q(sqrt(d)), so
every map iteration and digit extraction below is exact.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .digits import DigitStream, LazyDigits, SurdDigits, digits_fraction, from_fraction
from .errors import OutOfDomain


@functools.lru_cache(maxsize=4096)
def _square_free_split(d: int):
    """(s, d0) with d = s^2 d0 and d0 square-free up to trial-division
    bound (complete for any square factor below 10^5).

    Memoised: every surd of a field shares its d, so the trial division
    runs once per distinct d rather than once per construction.  Two
    fields whose d's this bound leaves apart are still identified by
    `_operands`."""
    s = 1
    f = 2
    while f * f <= min(d, 10**10):
        if f > 10**5:
            break
        ff = f * f
        while d % ff == 0:
            d //= ff
            s *= f
        f += 1 if f == 2 else 2
    return s, d


class Surd:
    """The irrational (p + q*sqrt(d)) / r with integers p, q != 0, r > 0 and
    non-square d > 0; a rational value is a Fraction (see `_surd`)."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if not q:
            raise ValueError(f"q = 0 makes the rational {p}/{r}, a Fraction, not a surd")
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"d={d} must be a positive non-square")
        s, d = _square_free_split(d)
        q *= s
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        self.p, self.q, self.r, self.d = p, q, r, d

    def mobius(self, a: int, b: int, c: int, d: int):
        """(a*x + b)/(c*x + d) for integers a, b, c, d, as one construction:
        a Surd, or the Fraction a/c (= b/d) when a*d = b*c."""
        p, q, r, dd = self.p, self.q, self.r, self.d
        # ((A + B sqrt(dd)) / (C + E sqrt(dd)), times the conjugate of the denominator
        A, B, C, E = a * p + b * r, a * q, c * p + d * r, c * q
        q2 = B * C - A * E  # q r (a d - b c)
        if q2:
            return Surd(A * C - B * E * dd, q2, C * C - E * E * dd, dd)
        return Fraction(A * C - B * E * dd, C * C - E * E * dd)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _surd(ap * br + bp * ar, aq * br + bq * ar, ar * br, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _surd(ap * br - bp * ar, aq * br - bq * ar, ar * br, d)

    def __rsub__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _surd(bp * ar - ap * br, bq * ar - aq * br, ar * br, d)

    def __mul__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _surd(ap * bp + aq * bq * d, ap * bq + aq * bp, ar * br, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # r / (p + q sqrt(d)) = r (p - q sqrt(d)) / (p^2 - q^2 d), where p^2 != q^2 d
        p, q, r, d = self.p, self.q, self.r, self.d
        return Surd(r * p, -r * q, p * p - q * q * d, d)

    def __truediv__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        return _quotient(*ops)

    def __rtruediv__(self, other):
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _quotient(d, bp, bq, br, ap, aq, ar)

    # -- order -------------------------------------------------------------

    def _cmp(self, other) -> int:
        ops = _operands(self, other)
        if ops is NotImplemented:
            return NotImplemented
        d, ap, aq, ar, bp, bq, br = ops
        return _sign(ap * br - bp * ar, aq * br - bq * ar, d)  # ar * br > 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, Surd):
            try:
                return self._cmp(other) == 0
            except ValueError:  # irrationals of two fields are never equal
                return False
        if isinstance(other, (int, Fraction)):  # an irrational equals no rational
            return False
        return NotImplemented

    def __hash__(self):
        # (p/r, q^2 d/r^2, sign q) fixes the value whatever d's square part
        return hash((Fraction(self.p, self.r), Fraction(self.q * self.q * self.d, self.r * self.r),
                     self.q > 0))

    def floor(self) -> int:
        """Exact floor, no floats: s = isqrt(q^2 d) < |q| sqrt(d) < s + 1, so
        p + q sqrt(d) lies between consecutive integers, and no k*r between them."""
        s = math.isqrt(self.q * self.q * self.d)
        return (self.p + s) // self.r if self.q > 0 else (self.p - s - 1) // self.r

    def __float__(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def __repr__(self):
        return f"({self.p}+{self.q}*sqrt({self.d}))/{self.r}"


def _surd(p: int, q: int, r: int, d: int):
    """(p + q*sqrt(d))/r in its one type: the Surd, or the Fraction p/r when q = 0."""
    return Surd(p, q, r, d) if q else Fraction(p, r)


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), exactly (q = 0 included)."""
    if p == 0:
        return (q > 0) - (q < 0)
    if (p > 0) == (q > 0):
        return 1 if p > 0 else -1
    lhs, rhs = p * p, q * q * d
    if p > 0:  # q <= 0: sign of p^2 - q^2 d
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def _operands(a: Surd, b):
    """(d, p, q, r, p', q', r'): a = (p + q sqrt(d))/r and b = (p' + q' sqrt(d))/r'
    over one field, or NotImplemented.  Builds no Surd."""
    if isinstance(b, Surd):
        if a.d == b.d:
            return a.d, a.p, a.q, a.r, b.p, b.q, b.r
        # one field iff d1*d2 is a square k^2; then sqrt(d1) = (k/d2) sqrt(d2),
        # and both are written over the smaller d
        k = math.isqrt(a.d * b.d)
        if k * k != a.d * b.d:
            raise ValueError(f"mixed surd fields sqrt({a.d}) and sqrt({b.d})")
        if a.d < b.d:
            return a.d, a.p, a.q, a.r, b.p * a.d, b.q * k, b.r * a.d
        return b.d, a.p * b.d, a.q * k, a.r * b.d, b.p, b.q, b.r
    if isinstance(b, int):
        return a.d, a.p, a.q, a.r, b, 0, 1
    if isinstance(b, Fraction):
        return a.d, a.p, a.q, a.r, b.numerator, 0, b.denominator
    return NotImplemented


def _quotient(d, ap, aq, ar, bp, bq, br):
    """((ap + aq sqrt(d))/ar) / ((bp + bq sqrt(d))/br), as one construction."""
    n = bp * bp - bq * bq * d
    if n == 0:
        raise ZeroDivisionError("division by zero")
    # times the conjugate (bp - bq sqrt(d)) of the divisor
    return _surd(br * (ap * bp - aq * bq * d), br * (aq * bp - ap * bq), ar * n, d)


#: Exact real input: Fraction or Surd.
RealRep = object


def as_real(v) -> RealRep:
    """An outside value in its one exact type: a Surd as it is, else its Fraction."""
    return v if isinstance(v, Surd) else Fraction(v)


def floor_of(x: RealRep) -> int:
    if isinstance(x, Surd):
        return x.floor()
    return math.floor(Fraction(x))


def is_rational(x: RealRep) -> bool:
    return not isinstance(x, Surd)


def golden_fraction() -> Surd:
    """g = (sqrt(5) - 1)/2, the fractional part of the golden ratio."""
    return Surd(-1, 1, 2, 5)


def rcf_digits(x: RealRep) -> DigitStream:
    """Canonical partial-quotient stream of x in [0, 1].

    Rational inputs terminate (INF padding); irrational quadratic inputs
    yield the eventually periodic expansion lazily and exactly.  The
    rational tie-break keeps the shorter form, e.g. 1/2 -> [0; 2].

    An irrational x is written (P + sqrt(D))/Q with Q | D - P^2, and the
    digits come from the classical integer recurrence (Perron), run by
    the stream's `digits.SurdDigits` source: the reciprocal of
    (P + sqrt(D))/Q is (-P + sqrt(D))/((D - P^2)/Q), its floor needs only
    isqrt(D), and subtracting the digit a is P -= a*Q.  No Surd and no
    float is made per digit.
    """
    if is_rational(x):
        xf = Fraction(x)
        if not 0 <= xf <= 1:
            raise OutOfDomain(f"{xf} outside [0, 1]")
        return from_fraction(xf)
    return LazyDigits(None, 0, _memo=surd_digits(x))


def surd_digits(x: Surd) -> SurdDigits:
    """The `SurdDigits` source of an irrational x in (0, 1): x written
    (P + sqrt(D))/Q with Q | D - P^2."""
    if x < 0 or x > 1:
        raise OutOfDomain(f"{x} outside [0, 1]")
    # (p + q sqrt(d))/r = (P + sqrt(D))/Q with D = q^2 d, P = +-p, Q = +-r
    D = x.q * x.q * x.d
    P, Q = (x.p, x.r) if x.q > 0 else (-x.p, -x.r)
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    return SurdDigits(P, Q, D)


_SQRT_RE = re.compile(
    r"^\(?"
    r"(?:(?P<p>[+-]?\d+)(?=[+-]))?"
    r"(?P<sign>[+-])?(?:(?P<q>\d+)\*)?"
    r"sqrt\((?P<d>\d+)\)"
    r"(?P<tail>[+-]\d+)?"
    r"\)?(?:/(?P<r>\d+))?$"
)
# "[a0;a1,...,an]": an integer a0, then digits >= 1 with no empty entry
_CF_RE = re.compile(r"\[(?P<a0>[+-]?\d+)(?:;(?P<digits>0*[1-9]\d*(?:,0*[1-9]\d*)*))?\]")


def parse_real(text: str) -> RealRep:
    """Parse CLI-facing real syntax into an exact value.

    Accepted forms: "p/q", plain integers, "[0;a1,a2,...]", "sqrt(d)",
    "sqrt(d)-k", "(p+q*sqrt(d))/r", and the named constant "g" (alias
    "phi-frac") for (sqrt(5)-1)/2; "(1+0*sqrt(5))/2" is the Fraction 1/2,
    and a square d gives a Fraction too: "sqrt(4)" is 2.
    Continued-fraction digits after a0 other than ints >= 1, and a zero
    denominator, raise OutOfDomain.
    """
    t = text.strip().replace(" ", "")
    if t in ("g", "phi-frac", "golden"):
        return golden_fraction()
    if t.startswith("["):
        m = _CF_RE.fullmatch(t)
        if not m:
            raise OutOfDomain(f"cannot parse real {text!r}: a continued fraction takes "
                              "an integer a0, then digits >= 1 with no empty entry")
        ds = m.group("digits")
        return int(m.group("a0")) + digits_fraction([int(s) for s in ds.split(",")] if ds else [])
    if "sqrt" in t:
        m = _SQRT_RE.match(t)
        if not m:
            raise OutOfDomain(f"cannot parse real {text!r}")
        p = int(m.group("p") or 0) + int(m.group("tail") or 0)
        q = int((m.group("sign") or "") + (m.group("q") or "1"))
        r = int(m.group("r") or 1)
        d = int(m.group("d"))
    elif "/" in t:
        num, den = t.split("/")
        p, q, r, d = int(num), 0, int(den), 0  # q = 0: `_surd` gives the Fraction p/r
    else:
        return Fraction(int(t))
    if r == 0:
        raise OutOfDomain(f"cannot parse real {text!r}: zero denominator")
    k = math.isqrt(d)
    if k * k == d:  # a square d: the value is rational
        return Fraction(p + q * k, r)
    return _surd(p, q, r, d)
