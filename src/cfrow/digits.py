"""Lazy, replayable partial-quotient streams for numbers in [0, 1].

A stream yields the partial quotients a1, a2, ... of x = [0; a1, a2, ...].
Finite expansions are padded with INF: x = [0; a1, ..., an, inf, inf, ...],
so 0 = [0; inf, ...] and 1 = [0; 1, inf, ...].  Streams are immutable;
the symbolic interval maps only ever need three O(1) edits (replace the
head, drop the head, push a new head), so a cons-cell view over a shared
memoised source is the natural representation.  `prefix` reads a run of
digits as a list without a head/tail step per digit: cons cells are
walked directly and a memoised view slices its buffer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BoundaryUndecidable
from .exact import INF, RationalInterval


class DigitStream:
    """Immutable view of an infinite digit sequence (INF-padded)."""

    __slots__ = ()

    def head(self):
        raise NotImplementedError

    def tail(self) -> "DigitStream":
        raise NotImplementedError

    # -- derived helpers -------------------------------------------------

    def digit(self, i: int):
        """i-th digit, 0-based (digit(0) is a1)."""
        s = self
        for _ in range(i):
            s = s.tail()
        return s.head()

    def prefix(self, n: int):
        """First n digits as a list (may contain INF)."""
        out = []
        s = self
        for _ in range(n):
            out.append(s.head())
            s = s.tail()
        return out

    def push(self, d) -> "DigitStream":
        return Cons(d, self)

    def replace_head(self, d) -> "DigitStream":
        return Cons(d, self.tail())

    def __iter__(self):
        s = self
        while True:
            yield s.head()
            s = s.tail()

    # -- numerics ---------------------------------------------------------

    def enclosure(self, depth: int) -> RationalInterval:
        """Rational interval guaranteed to contain the value.

        Consumes up to `depth` digits.  If the expansion terminates
        within that window the interval is a point (the exact value).
        """
        # value = (a*t + b)/(c*t + d) with t = remaining tail in [0, 1]
        a, b, c, d = 1, 0, 0, 1
        s = self
        for _ in range(depth):
            h = s.head()
            if h is INF:
                return RationalInterval.point(Fraction(b, d))
            a, b, c, d = b, a + b * h, d, c + d * h
            s = s.tail()
        lo = Fraction(b, d)
        hi = Fraction(a + b, c + d)
        if lo > hi:
            lo, hi = hi, lo
        return RationalInterval(lo, hi)

    def exact_value(self, cap: int = 10_000):
        """Exact Fraction if the stream terminates within cap digits, else None."""
        iv = self.enclosure(cap)
        return iv.lo if iv.is_point() else None

    def is_zero(self) -> bool:
        return self.head() is INF


class Cons(DigitStream):
    __slots__ = ("_head", "_tail")

    def __init__(self, head, tail: DigitStream):
        self._head = head
        self._tail = tail

    def head(self):
        return self._head

    def tail(self) -> DigitStream:
        if self._head is INF:
            return self  # INF-padding is absorbing
        return self._tail

    def prefix(self, n: int):
        out = []
        s = self
        while type(s) is Cons:
            if len(out) >= n:
                return out
            h = s._head
            if h is INF:
                return out + [INF] * (n - len(out))
            out.append(h)
            s = s._tail
        return out + s.prefix(n - len(out))


class _Memo:
    """Shared memoised buffer over a one-shot digit iterator."""

    __slots__ = ("buf", "src")

    def __init__(self, src):
        self.buf = []
        self.src = src

    def at(self, i: int):
        while len(self.buf) <= i:
            if self.src is None:
                return INF
            try:
                self.buf.append(next(self.src))
            except StopIteration:
                self.src = None
                return INF
        return self.buf[i]


class LazyDigits(DigitStream):
    """View into a memoised digit source starting at index `start`."""

    __slots__ = ("_memo", "_start")

    def __init__(self, source, start: int = 0, _memo=None):
        self._memo = _memo if _memo is not None else _Memo(iter(source))
        self._start = start

    def head(self):
        return self._memo.at(self._start)

    def tail(self) -> DigitStream:
        if self.head() is INF:
            return self
        return LazyDigits(None, self._start + 1, _memo=self._memo)

    def prefix(self, n: int):
        if n <= 0:
            return []
        i = self._start
        memo = self._memo
        memo.at(i + n - 1)  # fills the buffer, or stops where the source ends
        out = memo.buf[i : i + n]
        return out + [INF] * (n - len(out)) if len(out) < n else out


def _make_zero():
    z = Cons.__new__(Cons)
    z._head = INF
    z._tail = z
    return z


ZERO_STREAM = _make_zero()


def from_digits(seq) -> DigitStream:
    """Stream from an explicit finite digit list (INF-padded afterwards)."""
    out = ZERO_STREAM
    for d in reversed(list(seq)):
        out = Cons(d, out)
    return out


def fraction_digits(x: Fraction):
    """Canonical partial quotients [a1, ..., an] of a rational x in [0, 1],
    as a list of ints (empty for 0)."""
    digits = []
    p, q = x.numerator, x.denominator
    # [0; a1, a2, ...] by the Euclidean algorithm on q/p, p/q', ...
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return digits


def digits_fraction(ds) -> Fraction:
    """The rational [0; a1, ..., an] of a finite digit list: the inverse
    of fraction_digits (0 for the empty list)."""
    p, q = 0, 1
    for a in reversed(ds):
        p, q = q, a * q + p
    return Fraction(p, q)


def snapped_digits(t: float, max_den: int = 10**12) -> list:
    """fraction_digits(Fraction(t).limit_denominator(max_den)) for a float
    t >= 0, by one Euclidean loop on t's exact integer ratio.

    Convergents are followed while their denominator stays within
    max_den; then the last convergent p1/q1 or the semiconvergent
    (p0 + k*p1)/(q0 + k*q1) with the largest allowed k is kept,
    whichever is nearer to t, the convergent on a tie (as the stdlib
    does).  t lies between the two, at distance d/(q1*den) from the
    convergent, so the test is one integer comparison.  Only
    denominators are tracked; no Fraction is made.
    """
    n, den = t.as_integer_ratio()
    a0, d = divmod(n, den)
    # t = [a0; a1, ...]; fraction_digits lists [0, a0, a1, ...] when a0 > 0
    ds = [0, a0] if a0 else []
    n = den
    q0, q1 = 0, 1  # denominators of the last two convergents
    while d:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            k = (max_den - q0) // q1
            if 2 * d * (q0 + k * q1) > den:
                ds.append(k)
            break
        ds.append(a)
        q0, q1 = q1, q2
        n, d = d, n - a * d
    if len(ds) > 1 and ds[-1] == 1:  # canonical form: [..., b, 1] is [..., b + 1]
        ds.pop()
        ds[-1] += 1
    return ds


def from_fraction(x) -> DigitStream:
    """Canonical partial quotients of a rational x in [0, 1]."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    return from_digits(fraction_digits(x))


def compare(xs: DigitStream, ys: DigitStream, cap: int = 4000) -> int:
    """Exact order of the values of two streams: -1, 0 or +1.

    Works by refining enclosures in lockstep, which is insensitive to
    non-canonical tails such as [...,b,1,inf] vs [...,b+1,inf].  Raises
    BoundaryUndecidable if the values cannot be separated within cap
    digits and neither terminates (i.e. they are equal irrationals or
    adversarially close).
    """
    step = 8
    depth = step
    while depth <= cap:
        ix = xs.enclosure(depth)
        iy = ys.enclosure(depth)
        if ix.hi < iy.lo:
            return -1
        if iy.hi < ix.lo:
            return 1
        if ix.is_point() and iy.is_point():
            v, w = ix.lo, iy.lo
            return (v > w) - (v < w)
        depth += step
    raise BoundaryUndecidable(f"values not separated within {cap} digits")


def lt(xs: DigitStream, ys: DigitStream, cap: int = 4000) -> bool:
    return compare(xs, ys, cap) < 0
