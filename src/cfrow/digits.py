"""Lazy, replayable partial-quotient streams for numbers in [0, 1].

A stream yields the partial quotients a1, a2, ... of x = [0; a1, a2, ...].
Finite expansions are padded with INF: x = [0; a1, ..., an, inf, inf, ...],
so 0 = [0; inf, ...] and 1 = [0; 1, inf, ...].  Streams are immutable;
the symbolic interval maps only ever need three O(1) edits (replace the
head, drop the head, push a new head), so a cons-cell view over a shared
memoised source is the natural representation.  `prefix` reads a run of
digits as a list without a head/tail step per digit: cons cells are
walked directly and a memoised view slices its buffer; `enclosure` reads
its window that way too.  A digit list is evaluated by the one
continuant, `exact._continuant`: `enclosure` and `digits_fraction` read
its matrix.

Monte Carlo samples are floats snapped to nearby rationals, at the one
snap denominator `SNAP_DEN`.  A sample stays two floats until a
membership test needs its digits; they then come from a `SnapReader`, a
resumable integer Euclid loop that exposes a digit only once the snap's
end rule can no longer change it, so a test that decides on the first
digits leaves the rest of the expansion undone.  A reader holds its
float in `src` until its first read, which starts the loop, so a
coordinate the test never asks about costs no Euclid step; it takes
only a finite float >= 0 and an int max_den >= 1, and raises ValueError
for anything else.  The snap is monotone and fixes the rationals of
denominator <= max_den, so a float between two such rationals snaps
between them: an alpha region answers a sample whose two floats lie in
a product of cylinders its walker has classified, with ends of
denominator <= SNAP_DEN, before any reader is built.  `snapped_digits`
is such a reader read to its end.

Numbers are compared exactly by their digits: `order` reads two
`Reader`s in the alternating lexicographic order of continued
fractions, folding the one non-canonical tail [..., b, 1] = [..., b+1].
It is the one comparator: rectangle membership orders a point's digits
against each corner's, and alpha-region membership orders a point's
pulled-back digits against alpha's.
A quadratic irrational's digits come from a `SurdDigits` source, which
also reports the state of its integer recurrence, so two equal quadratic
tails are recognised by their states instead of being read forever.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundaryUndecidable
from .exact import INF, RationalInterval, _continuant

# the denominator bound of a Monte Carlo sample's snap
SNAP_DEN = 10**12


class DigitStream:
    """Immutable view of an infinite digit sequence (INF-padded)."""

    __slots__ = ()

    def head(self):
        raise NotImplementedError

    def tail(self) -> "DigitStream":
        raise NotImplementedError

    # -- derived helpers -------------------------------------------------

    def prefix(self, n: int):
        """First n digits as a list (may contain INF)."""
        out = []
        s = self
        for _ in range(n):
            out.append(s.head())
            s = s.tail()
        return out

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
        # value = (p0*t + p1)/(q0*t + q1) with t = remaining tail in [0, 1]
        ds = self.prefix(depth)
        p0, p1, q0, q1 = _continuant(ds)
        lo = Fraction(p1, q1)
        if ds and ds[-1] is INF:  # INF pads a finished expansion to the end
            return RationalInterval.point(lo)
        hi = Fraction(p0 + p1, q0 + q1)
        if lo > hi:
            lo, hi = hi, lo
        return RationalInterval(lo, hi)


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


class _Raising:
    """Stands in for a memo source that raised: every later read raises
    the same error again, with its original traceback."""

    __slots__ = ("exc", "tb")

    def __init__(self, exc: Exception):
        self.exc, self.tb = exc, exc.__traceback__

    def __next__(self):
        raise self.exc.with_traceback(self.tb)


class _Memo:
    """Shared memoised buffer over a sequence: a list is the whole
    sequence, kept as `buf` itself, and any other iterable is `src`,
    read only as far as a caller asks and None once it has ended.
    `at(i)` is item i, or INF past the end; `has(i)` asks if there is
    one.  `LazyDigits` views a `_Memo`, where INF is the padding;
    `SurdDigits`, `gcf.Gcf` and `contraction.ContractionPlan` are
    `_Memo`s, whose items are never INF.  A source that raised has not
    ended: every read past the items it gave raises its error again."""

    __slots__ = ("buf", "src")

    def __init__(self, src):
        if type(src) is list:
            self.buf, self.src = src, None
        else:
            self.buf, self.src = [], iter(src)

    def at(self, i: int):
        while len(self.buf) <= i:
            if self.src is None:
                return INF
            try:
                self.buf.append(next(self.src))
            except StopIteration:
                self.src = None
                return INF
            except Exception as exc:
                if type(self.src) is not _Raising:
                    self.src = _Raising(exc)
                raise
        return self.buf[i]

    def has(self, i: int) -> bool:
        """Is there an item i, for i >= 0?"""
        return i < len(self.buf) or self.at(i) is not INF


class LazyDigits(DigitStream):
    """View into a memoised digit source (a `_Memo`, or an iterable of
    digits) from its first digit.  `head` and `tail` read a digit the
    buffer holds directly; only a read past it goes through `_Memo.at`."""

    __slots__ = ("_memo", "_start")

    def __init__(self, source):
        self._memo = source if isinstance(source, _Memo) else _Memo(source)
        self._start = 0

    def head(self):
        i, memo = self._start, self._memo
        buf = memo.buf
        return buf[i] if i < len(buf) else memo.at(i)

    def tail(self) -> DigitStream:
        i, memo = self._start, self._memo
        buf = memo.buf
        if (buf[i] if i < len(buf) else memo.at(i)) is INF:
            return self
        t = LazyDigits.__new__(LazyDigits)
        t._memo, t._start = memo, i + 1
        return t

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
    _, p, _, q = _continuant(ds)
    return Fraction(p, q)


class SnapReader:
    """The canonical digits of Fraction(t).limit_denominator(max_den) for
    a finite float t >= 0, read lazily by one resumable Euclid loop on
    t's exact integer ratio; no float and no Fraction enters a digit
    decision, t being only the input to `as_integer_ratio`.  Any other t
    (an int, a negative number, inf or nan) raises ValueError.

    It follows the reader protocol of the alpha walker: `got` holds the
    digits exposed so far, `src` is the Euclid remainder they continue
    from (None once `got` is complete), and `more()` exposes at least one
    more digit or completes the list.  Building a reader only stores t:
    `src` holds the float until the first `more()`, which splits it into
    its integer ratio, so a reader the walker never asks costs no Euclid
    step.  The state is the remainder pair and the denominators q0, q1 of
    the last two convergents.

    Convergents are followed while their denominator stays within
    max_den; then the last convergent or the semiconvergent
    (p0 + k*p1)/(q0 + k*q1) with the largest allowed k is kept, whichever
    is nearer to t, the convergent on a tie (as the stdlib does).  t lies
    between the two, at distance d/(q1*den) from the convergent, so the
    test is one integer comparison.  A kept list ending [..., b, 1] is
    written canonically [..., b + 1].  That end rule can change only the
    last two digits, so a digit is exposed once a digit other than 1
    follows it, or two digits follow it; until then it waits in `ahead`.

    The snap is monotone and fixes every rational p/q with q <= max_den:
    a nearest point of a set never moves down as t moves up, and p/q is
    its own nearest point.  So t >= p/q snaps to a rational >= p/q, and
    t <= p/q to one <= p/q: a float inside a closed interval whose ends
    have denominators <= max_den snaps inside it.  The alpha regions'
    cylinder tables rest on this: an interval with ends of denominator
    <= SNAP_DEN inside a product of cylinders the walker decides answers
    every sample whose floats lie inside it, before any reader is built.
    A max_den below 1 admits no rational at all (`limit_denominator`
    refuses it too) and raises ValueError, as a bad t does.
    """

    __slots__ = ("got", "src", "ahead", "max_den", "_n", "_den", "_q0", "_q1")

    def __init__(self, t: float, max_den: int = SNAP_DEN):
        # a float is told from a started loop's int remainder by its type
        if type(t) is not float or not 0.0 <= t < math.inf:
            raise ValueError(f"a snap reads a finite float >= 0, not {t!r}")
        if type(max_den) is not int or max_den < 1:
            raise ValueError(f"a snap needs an int max_den >= 1, not {max_den!r}")
        self.got, self.ahead, self.src, self.max_den = [], (), t, max_den

    @classmethod
    def _of(cls, t: float) -> "SnapReader":
        """The reader of t at max_den SNAP_DEN, without the checks: for a
        caller whose t is a finite float >= 0 by construction."""
        r = object.__new__(cls)
        r.got, r.ahead, r.src, r.max_den = [], (), t, SNAP_DEN
        return r

    def more(self):
        """Expose at least one more digit, or complete `got`."""
        got, d, max_den = self.got, self.src, self.max_den
        if type(d) is float:  # the first read: t = [a0; a1, ...]
            n, den = d.as_integer_ratio()
            a0, d = divmod(n, den)
            # the canonical list is [0, a0, a1, ...] when a0 > 0
            self.ahead = ahead = [0, a0] if a0 else []
            n, q0, q1, self._den = den, 0, 1, den
            if not d:
                return self._finish()
        else:
            ahead, n, q0, q1 = self.ahead, self._n, self._q0, self._q1
        while True:
            a, r = divmod(n, d)
            q2 = q0 + a * q1
            if q2 > max_den:
                k = (max_den - q0) // q1
                if 2 * d * (q0 + k * q1) > self._den:
                    ahead.append(k)
                return self._finish()
            if not r:
                ahead.append(a)
                return self._finish()
            n, d, q0, q1 = d, r, q1, q2
            # the end rule can no longer reach the digits before an a other than 1
            if ahead and a != 1:
                got += ahead
                ahead.clear()
                ahead.append(a)
                break
            ahead.append(a)
            if len(ahead) == 3:  # two digits follow ahead[0]
                got.append(ahead.pop(0))
                break
        self._n, self.src, self._q0, self._q1 = n, d, q0, q1

    def state(self, k: int):
        """None: a snapped sample is rational, so it has no tail state."""
        return None

    def read_all(self) -> list:
        """The complete digit list."""
        while self.src is not None:
            self.more()
        return self.got

    def _finish(self):
        ahead = self.ahead
        if len(ahead) > 1 and ahead[-1] == 1:  # [..., b, 1] is [..., b + 1]
            ahead.pop()
            ahead[-1] += 1
        self.got += ahead
        ahead.clear()
        self.src = None


def snapped_digits(t: float, max_den: int = SNAP_DEN) -> list:
    """fraction_digits(Fraction(t).limit_denominator(max_den)) for a float
    t >= 0: a `SnapReader` read to its end."""
    return SnapReader(t, max_den).read_all()


def from_fraction(x) -> DigitStream:
    """Canonical partial quotients of a rational x in [0, 1]."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    return from_digits(fraction_digits(x))


# -- quadratic sources and the exact comparator ------------------------------


def _quadratic_digits(P: int, Q: int, D: int):
    """Partial quotients of (P + sqrt(D))/Q in (0, 1), with Q | D - P^2."""
    s = math.isqrt(D)  # s < sqrt(D) < s + 1, D not a square
    while True:
        P, Q = -P, (D - P * P) // Q  # the reciprocal; Q still divides D - P^2
        a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        yield a
        P -= a * Q


def surd_steps(state, digits):
    """The state (P, Q, D) of a quadratic tail (P + sqrt(D))/Q after it
    has read `digits`: the tail t reads a and becomes 1/t - a."""
    P, Q, D = state
    for a in digits:
        P, Q = -P, (D - P * P) // Q
        P -= a * Q
    return P, Q, D


class SurdDigits(_Memo):
    """The memoised partial quotients of a quadratic irrational
    (P + sqrt(D))/Q in (0, 1) with Q | D - P^2: the memo source of
    `reals.rcf_digits`' stream, filled by the integer recurrence of
    `_quadratic_digits`.

    It also reports the recurrence's state: `state(i)` is the triple
    (P', Q', D) with [0; a_{i+1}, a_{i+2}, ...] = (P' + sqrt(D))/Q'.
    Within one source, equal tails have equal states, and by Lagrange's
    theorem the states repeat, so `period()` finds the preperiod and
    period.  A state is computed over the buffered digits when it is
    asked for, from the start or from the last state asked for, which is
    the one state kept; reading digits stores nothing more."""

    __slots__ = ("start", "_last")

    def __init__(self, P: int, Q: int, D: int):
        super().__init__(_quadratic_digits(P, Q, D))
        self.start = (P, Q, D)
        self._last = (0, self.start)

    def state(self, i: int):
        k, st = self._last
        if i < k:
            k, st = 0, self.start
        if i > k:
            self.at(i - 1)
            st = surd_steps(st, self.buf[k:i])
            self._last = (i, st)
        return st

    def period(self, limit: int):
        """(m, p): the digits from index m on repeat with the least
        period p, and m is the least such index; None when m + p is more
        than limit + 1 (a period can be about sqrt(D) digits long)."""
        state = self.start
        seen = {}
        i = 0
        while state not in seen:
            if i > limit:
                return None
            seen[state] = i
            state = surd_steps(state, (self.at(i),))
            i += 1
        m = seen[state]
        return m, i - m


def tail_state(s: DigitStream, k: int):
    """The state (P, Q, D) of s's tail after k digits, or None when those
    digits do not come from a `SurdDigits`.  Cells pushed onto a surd
    stream are stepped back through the recurrence: the tail
    [0; c, t...] is 1/(c + t)."""
    pushed = []
    while type(s) is Cons:
        if s._head is INF:
            return None
        if k:
            k -= 1
        else:
            pushed.append(s._head)
        s = s._tail
    if type(s) is not LazyDigits or type(s._memo) is not SurdDigits:
        return None
    P, Q, D = s._memo.state(s._start + k)
    for c in reversed(pushed):
        P = -(c * Q + P)
        Q = (D - P * P) // Q
    return P, Q, D


def same_number(s, t) -> bool:
    """Are two states (P, Q, D), from any sources, one number?  The
    number is P/Q + sign(Q) sqrt(D/Q^2); None, no state, is never equal."""
    if s is None or t is None:
        return False
    P, Q, D = s
    R, S, E = t
    return P * S == R * Q and D * S * S == E * Q * Q and (Q > 0) == (S > 0)


class Reader:
    """A reader of a stream's digits: `got` holds the digits read so far,
    as ints, and `src` the stream they are read from (None when they are
    complete).  `more()` appends at least one digit to `got` or completes
    it, and never rewrites a digit already read, so a caller may replace
    `got[0]`; a read that runs short is enlarged geometrically.
    `SnapReader` follows the same protocol for Monte Carlo samples, and
    `Reader(list)` is a complete digit list.  `state(k)` is the
    `tail_state` of the tail after k >= 1 digits, or None (a rational,
    or a stream with no surd source there)."""

    __slots__ = ("got", "src")

    def __init__(self, got: list, src: DigitStream = None):
        self.got, self.src = got, src

    def more(self):
        n = len(self.got)
        read = self.src.prefix(max(4, 2 * n))
        if read[-1] is INF:  # src has terminated
            while read and read[-1] is INF:
                read.pop()
            self.src = None
        if n:
            self.got += read[n:]  # keeps got[0], which the caller may have replaced
        else:
            self.got = read

    def state(self, k: int):
        return None if self.src is None else tail_state(self.src, k)


def ends_with(r, i: int, tail: list) -> bool:
    """Do the digits of reader r after index i read `tail`, then end?"""
    while r.src is not None and len(r.got) <= i + 1 + len(tail):
        r.more()
    return r.src is None and r.got[i + 1:] == tail


def order(x, y, test_at: int = 0, cap: int = 4000) -> int:
    """Exact order of the numbers two readers' digits spell: -1, 0 or +1
    as x < y, x = y or x > y.

    The digits are compared in the alternating lexicographic order of
    continued fractions, the end of a finite expansion playing an
    infinite digit: at the first difference, index i, the bigger digit
    spells the smaller number when i is even.  The one pair of digit
    lists with one value, [..., b, 1] and [..., b + 1], is folded at that
    difference.  A number is a target when it is a rational's complete
    canonical list or a quadratic irrational read from its `SurdDigits`;
    two matching quadratic tails never differ, so after `test_at` >= 1
    equal digits (0: never) the two readers' tail states are compared
    once, and equal states mean equal numbers.  A comparison that matches more
    than `cap` digits without deciding raises BoundaryUndecidable."""
    xs, ys = x.got, y.got
    i = 0
    while True:
        if i < len(xs):
            da = xs[i]
        elif x.src is not None:
            x.more()
            xs = x.got
            continue
        else:
            da = None
        if i < len(ys):
            db = ys[i]
        elif y.src is not None:
            y.more()
            ys = y.got
            continue
        else:
            db = None
        if da != db:
            break
        if da is None:
            return 0
        i += 1
        if i == test_at:
            sx = x.state(i)  # y's state is asked for only when x has one
            if sx is not None and same_number(sx, y.state(i)):
                return 0
        if i > cap:
            raise BoundaryUndecidable(f"values not separated within {cap} digits")
    if da is not None and db is not None:  # y first: a canonical target reads no more of x
        if da + 1 == db and ends_with(y, i, []) and ends_with(x, i, [1]):
            return 0
        if db + 1 == da and ends_with(y, i, [1]) and ends_with(x, i, []):
            return 0
    x_big = db is not None and (da is None or da > db)
    return -1 if x_big == (i % 2 == 0) else 1


def compare(xs: DigitStream, ys: DigitStream, cap: int = 4000) -> int:
    """Exact order of the values of two streams, -1, 0 or +1: `order` on
    readers of both, their tail states compared after the first digit.
    Two equal streams that are neither finite nor surd streams raise
    BoundaryUndecidable past cap digits."""
    return order(Reader([], xs), Reader([], ys), 1, cap)
