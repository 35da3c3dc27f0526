"""Exact arithmetic core: the point at infinity, 2x2 integer matrices
and rational interval enclosures.

A matrix is one type, `Mat2Z`, the tuple (a, b, c, d) of ((a, b), (c,
d)) that walks, points and induced records carry as four ints, so a
plain 4-tuple is read as one too.  The product lives here, `_mul`, which
`Mat2Z.__matmul__` and `natural_ext` share, and so does the continuant
of a digit list, `_continuant`, the product of ((0,1),(1,a)) over its
digits, which the digit enclosures, the cylinder widths of alpha regions
and the Farey matrices read.  A matrix acts on a coordinate as a Moebius
transformation through `natural_ext._mobius`, the one evaluator.
Everything here is exact; no floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class _Infinity:
    """The single point at infinity of the extended rationals.

    Also reused as the "infinite partial denominator / digit" sentinel:
    it compares greater than every rational and absorbs shifts by
    integers (INF + 1 == INF - 1 == INF), which is exactly the
    arithmetic the digit conventions need.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    # Order: greater than everything finite.
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("cfrow-inf")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self

    def __neg__(self):
        raise ValueError("negative infinity is not a value here")


INF = _Infinity()


def _mul(m, n):
    """The product of two matrices (a, b, c, d), as a plain tuple."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class Mat2Z(NamedTuple):
    """A 2x2 matrix ((a, b), (c, d)) with exact integer (or rational)
    entries; construction does not require a nonzero determinant."""

    a: object
    b: object
    c: object
    d: object

    def det(self):
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z._make(_mul(self, other))

    def __repr__(self):
        return f"Mat2Z({self.a}, {self.b}, {self.c}, {self.d})"


IDENTITY = Mat2Z(1, 0, 0, 1)


def _continuant(ds):
    """(p0, p1, q0, q1), the product of ((0,1),(1,a)) over the digits a
    of ds up to the first INF: p1/q1 = [0; a1, ..., an] and p0/q0 the
    convergent before it."""
    p0, p1, q0, q1 = 1, 0, 0, 1
    for a in ds:
        if a is INF:
            break
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
    return p0, p1, q0, q1


def reversed_product(m):
    """Ck...C1 from m = (u, t, s, r) = C1...Ck, for a word over the slow
    map's A0 = ((1,0),(1,1)), A1 = ((0,1),(1,1)) and their inverses: each
    has A1 C^T A1^-1 = C, so Ck...C1 = A1 m^T A1^-1 = ((r-t, t), (s+r-u-t, u+t))."""
    u, t, s, r = m
    return (r - t, t, s + r - u - t, u + t)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v) -> "RationalInterval":
        v = Fraction(v)
        return RationalInterval(v, v)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"
