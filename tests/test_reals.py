from fractions import Fraction

import pytest

from cfrow.digits import compare, from_digits, from_fraction
from cfrow.errors import OutOfDomain
from cfrow.exact import INF
from cfrow.reals import Surd, golden_fraction, parse_real, rcf_digits

from conftest import random_surd


def test_golden_identity():
    g = golden_fraction()
    assert g * g == 1 - g
    assert 1 / g == 1 + g
    assert 0 < g < 1


def test_surd_field_ops(rng):
    for _ in range(50):
        x = random_surd(rng, 7)
        y = random_surd(rng, 7)
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert -(-x) == x
        fx = float(x)
        assert abs(float(x + y) - (fx + float(y))) < 1e-9


def test_floor_exact(rng):
    for _ in range(200):
        x = random_surd(rng)
        k = rng.randint(-5, 5)
        shifted = x + k
        n = shifted.floor()
        assert n <= shifted < n + 1
        assert n == k  # x in (0,1)


def test_floor_huge_coefficients():
    big = 10**250
    x = Surd(big, 1, 3, 2)
    assert x.floor() == (big + 1) // 3  # sqrt(2) contributes 1.41..., isqrt part 1


def test_rcf_digits_quadratics():
    assert rcf_digits(parse_real("sqrt(2)-1")).prefix(6) == [2] * 6
    assert rcf_digits(golden_fraction()).prefix(6) == [1] * 6
    s3 = parse_real("sqrt(3)-1")
    assert rcf_digits(s3).prefix(6) == [1, 2, 1, 2, 1, 2]


def test_rcf_digits_rational_conventions():
    assert rcf_digits(Fraction(1, 2)).prefix(2) == [2, INF]
    assert rcf_digits(Fraction(0)).prefix(1) == [INF]
    assert rcf_digits(Fraction(1)).prefix(2) == [1, INF]
    assert rcf_digits(Fraction(2, 5)).prefix(3) == [2, 2, INF]


def test_rcf_digits_domain():
    with pytest.raises(OutOfDomain):
        rcf_digits(Fraction(3, 2))


def test_digit_roundtrip_value(rng):
    for _ in range(40):
        x = random_surd(rng)
        digs = rcf_digits(x).prefix(30)
        val = Fraction(0)
        for a in reversed(digs):
            val = Fraction(1, a + val)
        assert abs(float(val) - float(x)) < 1e-9


def test_parse_real_forms():
    assert parse_real("2/7") == Fraction(2, 7)
    assert parse_real("[0;2,2]") == Fraction(2, 5)
    assert parse_real("sqrt(2)-1") == Surd(-1, 1, 1, 2)
    assert parse_real("(-1+sqrt(5))/2") == golden_fraction()
    assert parse_real("g") == golden_fraction()
    assert parse_real("2*sqrt(2)-2") == Surd(-2, 2, 1, 2)
    with pytest.raises(OutOfDomain):
        parse_real("sqrt(two)")


def test_stream_compare_handles_noncanonical_tails():
    assert compare(from_digits([1, 1]), from_digits([2])) == 0
    assert compare(from_digits([3, 1]), from_digits([4])) == 0
    assert compare(from_digits([2]), from_digits([2, 3])) > 0
    assert compare(rcf_digits(parse_real("sqrt(2)-1")), from_fraction(Fraction(1, 2))) < 0


def test_stream_compare_matches_value_order(rng):
    for _ in range(300):
        a = Fraction(rng.randint(0, 64), 64)
        b = Fraction(rng.randint(0, 64), 64)
        got = compare(from_fraction(a), from_fraction(b))
        assert got == (a > b) - (a < b)


def test_enclosure_shrinks(rng):
    x = random_surd(rng)
    s = rcf_digits(x)
    prev = s.enclosure(2)
    for depth in (4, 8, 16, 32):
        cur = s.enclosure(depth)
        assert cur.lo >= prev.lo and cur.hi <= prev.hi
        assert cur.contains(Fraction(float(x)).limit_denominator(10**12)) or cur.width < Fraction(1, 10**10)
        prev = cur


def test_field_identity_beyond_trial_division():
    # 100003 is a prime above the trial-division bound, so the first d
    # keeps its square factor; d1*d2 a square still makes one field
    a = Surd(0, 1, 1, 2 * 100003**2)
    b = Surd(0, 100003, 1, 2)
    assert a.d != b.d
    assert a == b
    assert hash(a) == hash(b)
    assert a - b == 0 and b - a == 0
    assert a + b == 2 * b and a * b == 2 * 100003**2
    with pytest.raises(ValueError, match="mixed surd fields"):
        Surd(0, 1, 1, 2) + Surd(0, 1, 1, 3)


def test_mobius_matches_field_arithmetic(rng):
    for _ in range(30):
        x = random_surd(rng)
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d == b * c:
            continue
        assert x.mobius(a, b, c, d) == (a * x + b) / (c * x + d)
