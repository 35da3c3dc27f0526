import random
from fractions import Fraction

import pytest

from cfrow.reals import Surd

NON_SQUARES = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26]


def random_surd(rng: random.Random, d: int | None = None) -> Surd:
    """Random quadratic irrational in (0, 1)."""
    if d is None:
        d = rng.choice(NON_SQUARES)
    while True:
        p = rng.randint(-40, 40)
        q = rng.choice([i for i in range(-12, 13) if i])
        r = rng.randint(1, 40)
        x = Surd(p, q, r, d)
        x = x - x.floor()
        if 0 < x < 1:
            return x


def random_rich_surd(rng: random.Random, d: int | None = None, depth: int = 300,
                     min_big: int = 45) -> Surd:
    """Random quadratic irrational whose expansion has plenty of partial
    quotients >= 2 in its first `depth` digits (so vertical-strip orbits
    have enough visits)."""
    from cfrow.reals import rcf_digits

    while True:
        x = random_surd(rng, d)
        digs = rcf_digits(x).prefix(depth)
        if sum(1 for a in digs if a >= 2) >= min_big:
            return x


def random_surd_with_digit(rng: random.Random, digit: int, count: int = 15,
                           depth: int = 250) -> Surd:
    """Random quadratic irrational with at least `count` occurrences of
    the given partial quotient among its first `depth` digits."""
    from cfrow.reals import rcf_digits

    while True:
        x = random_surd(rng)
        digs = rcf_digits(x).prefix(depth)
        if sum(1 for a in digs if a == digit) >= count:
            return x


def surd_from_periodic_digits(digits) -> Surd:
    """The quadratic irrational with purely periodic expansion
    [0; digits, digits, ...]: the attracting fixed point of the digit
    block's matrix action."""
    import math

    a, b, c, d = 1, 0, 0, 1
    for q in digits:
        a, b, c, d = b, a + b * q, d, c + d * q
    # x = (a x + b)/(c x + d), positive root
    disc = (d - a) ** 2 + 4 * b * c
    assert math.isqrt(disc) ** 2 != disc, "digit block gave a rational point"
    x = Surd(a - d, 1, 2 * c, disc)
    assert 0 < x < 1
    return x


def random_periodic_surd(rng: random.Random, length=6, max_digit=4,
                         require=None) -> Surd:
    """Random purely periodic quadratic irrational, optionally forcing
    some digit values to appear in the period."""
    while True:
        digits = [rng.randint(1, max_digit) for _ in range(length)]
        if require is not None and not all(v in digits for v in require):
            continue
        return surd_from_periodic_digits(digits)


def random_stream_digits(rng: random.Random, n: int, max_digit: int = 32) -> list:
    """n partial quotients drawn by the Gauss-Kuzmin law, each at most
    max_digit: the digits of a typical point, for stream-only points."""
    out = []
    while len(out) < n:
        u = 2.0 ** rng.random() - 1.0
        if u > 0 and 1 <= int(1.0 / u) <= max_digit:
            out.append(int(1.0 / u))
    return out


def assert_as_checked(g, n: int, ints: bool = True):
    """The first n pairs of g, read, are exactly what the checking
    constructor `Gcf(...)` makes of them: equal values of equal types,
    every digit a plain int when `ints`."""
    from cfrow.gcf import Gcf

    assert len(g.pairs(n)) == n
    checked = Gcf(list(g.buf)).buf
    assert checked == g.buf
    assert [tuple(map(type, p)) for p in checked] == [tuple(map(type, p)) for p in g.buf]
    if ints:
        assert all(type(a) is int and type(b) is int for a, b in g.buf)


def transpose(m):
    """The transpose of a `Mat2Z`."""
    from cfrow.exact import Mat2Z

    return Mat2Z(m.a, m.c, m.b, m.d)


# -- the backward slow map and induced step, walked one slow step at a time --
# Independent oracles of `ito_backstep` and `backward_induced_step`, which
# walk the mirrored point forward: neither reads `mirrored`.

_A0_INV = (1, 0, -1, 1)
_A1_INV = (-1, 1, 1, 0)


def backstep_by_digits(z):
    """The inverse slow step by its three digit cases: b1 = 1 undoes an
    A1 step, any other b1 an A0 step, and on the y = 0 line (b1 = INF)
    x |-> x/(1+x) keeps y at 0."""
    from cfrow.digits import Cons
    from cfrow.exact import INF

    b1 = z.yd.head()
    if b1 == 1:
        return z._moved(Cons(1, z.xd), z.yd.tail(), _A1_INV)
    a1 = z.xd.head()
    xd = Cons(a1 + 1, z.xd.tail()) if a1 is not INF else z.xd
    if b1 is INF:
        return z._moved(xd, z.yd, _A0_INV)
    return z._moved(xd, Cons(b1 - 1, z.yd.tail()), _A0_INV)


def meets_y_zero(region) -> bool:
    """Does the region hold a point of the y = 0 line?  Read off each
    class's own membership: omega holds all of it, a rectangle set holds
    it where a rectangle reaches y = 0, and no cell, alpha or S-expansion
    region does, as each of their members has a finite b1."""
    from cfrow.induced import OmegaRegion, RectRegion

    if isinstance(region, OmegaRegion):
        return True
    if isinstance(region, RectRegion):
        return any(y0 == 0 for _, _, y0, _ in region.rects)
    return False


def slow_backward_induced_step(region, z, cap):
    """`backward_induced_step` by the slow backward map, one step at a
    time: (record, z_prev), None once the walk stands on the y = 0 line
    of a region that misses it, or BackwardCapExceeded after `cap` steps.
    Each step back undoes a forward step with branch digit [b1 == 1],
    whose matrix joins A_R on the left."""
    from cfrow.errors import BackwardCapExceeded
    from cfrow.exact import INF
    from cfrow.induced import InducedRecord

    meets = meets_y_zero(region)
    cur = z
    a, b, c, d = 1, 0, 0, 1
    for n in range(1, cap + 1):
        b1 = cur.yd.head()
        if b1 is INF and not meets:
            return None
        if b1 == 1:
            a, b, c, d = c, d, a + c, b + d  # A1 @ A_R
        else:
            c, d = a + c, b + d  # A0 @ A_R
        cur = backstep_by_digits(cur)
        if region.contains(cur.xd, cur.yd):
            return InducedRecord._of(n, a, b, c, d, z), cur
    raise BackwardCapExceeded(f"no backward visit of {region.name} within {cap} steps")


@pytest.fixture
def rng():
    return random.Random(20260810)
