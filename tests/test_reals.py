import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfrow.digits import compare, from_digits, from_fraction
from cfrow.errors import OutOfDomain
from cfrow.exact import INF
from cfrow.reals import Surd, _sign, golden_fraction, parse_real, rcf_digits

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
        assert cur.contains(Fraction(float(x)).limit_denominator(10**12)) or cur.hi - cur.lo < Fraction(1, 10**10)
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


# surds over Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5), with d written both
# square-free and not (8 = 4 * 2, 20 = 4 * 5); q is never 0
_SURD_D = st.sampled_from([2, 3, 5, 8, 20])
_SURD_Q = st.integers(-6, 6).filter(bool)


@st.composite
def surds(draw):
    return Surd(draw(st.integers(-40, 40)), draw(_SURD_Q), draw(st.integers(1, 30)), draw(_SURD_D))


@st.composite
def surd_and_comparand(draw):
    """A surd and a value to compare it with: an int, a bool, a Fraction
    or a surd drawn apart from it, or a number written from its own
    p, q and r, so that equal values are drawn often."""
    x = draw(surds())
    k = draw(st.integers(1, 4))
    near = [Fraction(x.p, x.r), x.p // x.r, Surd(k * x.p, k * x.q, k * x.r, x.d),
            Surd(x.p, x.q, x.r + 1, x.d)]
    if x.q % 2 == 0:  # the same value written over 4d
        near.append(Surd(x.p, x.q // 2, x.r, 4 * x.d))
    other = draw(st.one_of(st.integers(-5, 5), st.booleans(),
                           st.fractions(min_value=-5, max_value=5, max_denominator=30),
                           surds(), st.sampled_from(near)))
    return x, other


@given(surd_and_comparand())
@settings(max_examples=400, deadline=None)
def test_surd_equality_agrees_with_the_comparison(pair):
    """`==` answers an int or Fraction comparand of a surd, which is
    irrational, False before it compares; every answer equals
    `_cmp(other) == 0`, from either side, and is False where `_cmp`
    raises (two surds of different fields, which are never equal).
    Equal values hash equal."""
    x, other = pair
    try:
        want = x._cmp(other) == 0
    except ValueError:
        want = False
    assert (x == other) is want
    assert (other == x) is want
    assert (x != other) is not want
    if want:
        assert hash(x) == hash(other)


def test_surds_of_different_fields_are_unequal():
    """`==` and `in` answer across fields; arithmetic and order still raise."""
    r2, r3 = Surd(0, 1, 1, 2), Surd(0, 1, 1, 3)
    assert (r2 == r3) is False and (r2 != r3) is True
    assert r2 not in [r3, Surd(1, 1, 2, 5)] and r2 in [r3, Surd(0, 1, 2, 8)]
    with pytest.raises(ValueError, match="mixed surd fields"):
        r2 < r3  # noqa: B015
    with pytest.raises(ValueError, match="mixed surd fields"):
        r2 - r3


def test_rational_surd_equals_its_fraction():
    """A surd form with a rational value is its Fraction; a Surd with
    q = 0 is refused, and a Surd equals no rational."""
    for text, want in (("(3+0*sqrt(5))/2", Fraction(3, 2)), ("(4+0*sqrt(7))/2", 2),
                       ("(1+0*sqrt(3))", True)):
        got = parse_real(text)
        assert type(got) is Fraction and got == want and hash(got) == hash(want)
    for p, r, d in ((3, 2, 5), (4, 2, 7), (1, 1, 3), (0, 1, 2)):
        with pytest.raises(ValueError, match="q = 0"):
            Surd(p, 0, r, d)
    assert golden_fraction() != Fraction(-1, 2) and golden_fraction() != 0
    assert golden_fraction() != True  # noqa: E712
    assert Surd(-1, 1, 2, 5) == Surd(-2, 1, 4, 20)  # g, with d = 20 split to 4 * 5


# -- the integer digit recurrence and construction-free comparisons -----------


def reference_digits(x: Surd, n: int):
    """Partial quotients by field arithmetic: invert, floor, subtract."""
    out = []
    cur = x
    for _ in range(n):
        y = cur.inverse()
        a = y.floor()
        out.append(a)
        cur = y - a
    return out


def engine_surd(rng, d_max=10**7):
    """Random irrational in (0, 1) over d up to d_max, often with square
    factors in d, with either sign of q and a wide range of p and r."""
    while True:
        d = rng.randint(2, d_max)
        if rng.random() < 0.4:
            s = rng.randint(2, 60)
            d = s * s * rng.randint(2, max(2, d_max // (s * s)))
        if math.isqrt(d) ** 2 == d:
            continue
        q = rng.choice([1, -1]) * rng.randint(1, 40)
        x = Surd(rng.randint(-10**6, 10**6), q, rng.randint(1, 5000), d)
        x = x - x.floor()
        if 0 < x < 1:
            return x


class SurdCount:
    """Counts Surd constructions while installed."""

    def __init__(self, monkeypatch):
        self.n = 0
        init = Surd.__init__

        def counted(s, *args):
            self.n += 1
            init(s, *args)

        monkeypatch.setattr(Surd, "__init__", counted)


def test_rcf_digits_match_field_arithmetic():
    rng = random.Random(2031)
    signs = set()
    for i in range(2000):
        x = engine_surd(rng, 10**7 if i % 2 else 10**3)
        signs.add(x.q > 0)
        assert rcf_digits(x).prefix(80) == reference_digits(x, 80), x
    assert signs == {True, False}


def test_rcf_digits_square_factors_and_both_signs():
    for x in (Surd(-4, 2, 1, 8), Surd(7, -3, 5, 45), Surd(1, 1, 2, 12),
              Surd(-3000, 1, 1, 9 * 10**6 + 7), Surd(4, -1, 7, 2 * 49)):
        x = x - x.floor()
        assert rcf_digits(x).prefix(120) == reference_digits(x, 120)
    # (P + sqrt(D))/Q with Q = P^2 - D: the reciprocal has denominator -1,
    # where the floor needs the Q < 0 rule
    seen = 0
    for D in range(2, 80):
        if math.isqrt(D) ** 2 == D:
            continue
        for P in range(math.isqrt(D) + 1, math.isqrt(D) + 8):
            x = Surd(P, 1, P * P - D, D)
            if 0 < x < 1:
                seen += 1
                assert rcf_digits(x).prefix(40) == reference_digits(x, 40)
                assert rcf_digits(Surd(-P, -1, D - P * P, D)).prefix(40) == reference_digits(x, 40)
    assert seen > 100


def test_rcf_digits_build_no_surd(monkeypatch):
    rng = random.Random(5)
    xs = [engine_surd(rng) for _ in range(20)]
    count = SurdCount(monkeypatch)
    for x in xs:
        rcf_digits(x).prefix(100)
    assert count.n == 0


def reference_sign(p, q, d):
    """Sign of p + q sqrt(d) by squaring each side of p = -q sqrt(d)."""
    if q == 0:
        return (p > 0) - (p < 0)
    # p + q sqrt(d) > 0 iff q sqrt(d) > -p
    if q > 0:
        return 1 if -p < 0 or q * q * d > p * p else -1
    return 1 if p > 0 and p * p > q * q * d else -1


def test_cmp_and_sub_match_negated_sum():
    rng = random.Random(11)
    for i in range(2000):
        a = engine_surd(rng, 10**5)
        b = rng.choice([
            Surd(rng.randint(-10**6, 10**6), rng.randint(-40, 40) or 1, rng.randint(1, 5000), a.d),
            Surd(rng.randint(-9, 9), rng.randint(-9, 9) or 1, rng.randint(1, 9), a.d),
            a + Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            a,
            rng.randint(-3, 3),
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)),
        ])
        if i % 40 == 0:  # the same field written over d * 100003^2, beyond trial division
            b = Surd(rng.randint(-9, 9), rng.randint(-9, 9) or 1, rng.randint(1, 9),
                     a.d * 100003**2)
        old = a + (-b)
        new = a - b
        assert type(new) is type(old) and new == old
        if isinstance(old, Surd):
            assert (new.p, new.q, new.r, new.d) == (old.p, old.q, old.r, old.d)
            p, q, d = old.p, old.q, old.d
        else:  # b = a, or a plus a rational: a rational difference
            p, q, d = old.numerator, 0, a.d
        sign = _sign(p, q, d)  # r > 0
        assert a._cmp(b) == sign == reference_sign(p, q, d)
        assert (b - a) == -old
        assert (a < b) == (sign < 0) and (a == b) == (sign == 0)


def test_comparisons_build_no_surd(monkeypatch):
    rng = random.Random(3)
    xs = [engine_surd(rng) for _ in range(50)]
    ys = [Surd(rng.randint(-50, 50), rng.randint(1, 9), rng.randint(1, 50), x.d) for x in xs]
    count = SurdCount(monkeypatch)
    for x, y in zip(xs, ys):
        x < Fraction(1, 3), x >= 0, x > 1, x == Fraction(2, 5), x <= 7
        x < y, x == y, x.floor(), y.floor(), _sign(x.p, x.q, x.d)
    assert count.n == 0


def test_sub_is_one_construction(monkeypatch):
    rng = random.Random(4)
    x, y = engine_surd(rng), engine_surd(rng)
    y = Surd(y.p, y.q, y.r, x.d)
    count = SurdCount(monkeypatch)
    x - y, x - 3, x - Fraction(1, 7), 2 - x
    assert count.n == 4


# -- one type per exact value --------------------------------------------------


def exact_pair(v, d):
    """(u, w) with v = u + w sqrt(d), for d square-free: the reference
    value of a Fraction, an int or a Surd of the field Q(sqrt d)."""
    if isinstance(v, Surd):
        assert v.d == d
        return Fraction(v.p, v.r), Fraction(v.q, v.r)
    assert type(v) in (int, Fraction)
    return Fraction(v), Fraction(0)


def pair_ops(x, y, d):
    """Sum, differences, product and quotients of two reference pairs."""
    (u1, w1), (u2, w2) = x, y
    out = {"+": (u1 + u2, w1 + w2), "-": (u1 - u2, w1 - w2), "r-": (u2 - u1, w2 - w1),
           "*": (u1 * u2 + w1 * w2 * d, u1 * w2 + w1 * u2)}
    for key, (a, b) in (("/", (x, y)), ("r/", (y, x))):
        n = b[0] ** 2 - b[1] ** 2 * d  # times the conjugate of the divisor
        if n:
            out[key] = ((a[0] * b[0] - a[1] * b[1] * d) / n, (a[1] * b[0] - a[0] * b[1]) / n)
    return out


@st.composite
def same_field_pair(draw):
    """(d, a, b, ms): a surd a over the square-free d (written over d or
    4d), b of its field, often one whose sum, difference, product or
    quotient with a is rational (a itself, written over d or 4d, a plus
    a Fraction, a Fraction minus a, a multiple of a's conjugate, an int
    or a Fraction), and integer Moebius maps, one of determinant 0."""
    d = draw(st.sampled_from([2, 3, 5]))
    a = Surd(draw(st.integers(-40, 40)), draw(_SURD_Q), draw(st.integers(1, 30)),
             d * draw(st.sampled_from([1, 4])))
    shift = draw(st.fractions(min_value=-5, max_value=5, max_denominator=30))
    k = draw(st.integers(-3, 3).filter(bool))
    b = draw(st.sampled_from([
        Surd(draw(st.integers(-40, 40)), draw(_SURD_Q), draw(st.integers(1, 30)), d),
        a, Surd(2 * a.p, a.q, 2 * a.r, 4 * a.d), a + shift, shift - a,
        Surd(k * a.p, -k * a.q, a.r, a.d), draw(st.integers(-5, 5)), shift]))
    entries = st.integers(-6, 6)
    c, e = draw(entries), draw(entries)
    ms = [draw(st.tuples(entries, entries, entries, entries)), (k * c, k * e, c, e),
          (0, 1, 1, 0), (0, 0, 0, 1)]
    return d, a, b, ms


def assert_one_type(got, want, d):
    """got has the exact value want = (u, w), and is a Fraction exactly
    when w = 0 (a Surd otherwise)."""
    assert type(got) is (Fraction if want[1] == 0 else Surd), (got, want)
    assert exact_pair(got, d) == want


@given(same_field_pair())
@settings(max_examples=600, deadline=None)
def test_field_arithmetic_gives_one_type_per_value(case):
    """+, -, * and / of a surd with a value of its field give the exact
    value, a Fraction exactly when it is rational; so does every integer
    Moebius map (determinant 0 included) and `parse_real` of a surd
    form (q = 0 included)."""
    d, a, b, ms = case
    ua, wa = exact_pair(a, d)
    want = pair_ops((ua, wa), exact_pair(b, d), d)
    got = {"+": a + b, "-": a - b, "r-": b - a, "*": a * b}
    for key, op in (("/", lambda: a / b), ("r/", lambda: b / a)):
        if key in want:
            got[key] = op()
        else:
            with pytest.raises(ZeroDivisionError):
                op()
    assert set(got) == set(want)
    for key in want:
        assert_one_type(got[key], want[key], d)
    assert_one_type(b + a, want["+"], d)
    assert_one_type(b * a, want["*"], d)
    for m in ms:
        c0, c1, c2, c3 = m
        image = pair_ops((c0 * ua + c1, c0 * wa), (c2 * ua + c3, c2 * wa), d).get("/")
        if image is None:  # c2 = c3 = 0
            with pytest.raises(ZeroDivisionError):
                a.mobius(*m)
        else:
            assert_one_type(a.mobius(*m), image, d)
    # parse_real of (p+q*sqrt(d))/r, q = 0 included
    p, q, r = a.p, a.q if isinstance(b, Surd) else 0, a.r
    text = f"({p}{'+' if q >= 0 else '-'}{abs(q)}*sqrt({d}))/{r}"
    assert_one_type(parse_real(text), (Fraction(p, r), Fraction(q, r)), d)


@pytest.mark.parametrize("text", ["[0;2,-1]", "[0;0,5]", "[0;3,0,2]", "[0;2,,3]", "[0;0]",
                                  "[0;]", "[0;2,3", "[0;x]", "1/0", "-3/0", "sqrt(5)/0",
                                  "(1+2*sqrt(5))/0"])
def test_parse_real_refuses_malformed_continued_fractions_and_zero_denominators(text):
    """After a0 a continued fraction takes integers >= 1 with no empty
    entry, and no form may divide by 0: each is OutOfDomain naming the
    text, not a value read past the bad entry or a ZeroDivisionError."""
    with pytest.raises(OutOfDomain, match=re.escape(repr(text))):
        parse_real(text)


def test_parse_real_continued_fraction_forms():
    assert parse_real("[0;2,3]") == Fraction(3, 7)
    assert parse_real("[1;2]") == Fraction(3, 2) and parse_real("[-1;2]") == Fraction(-1, 2)
    assert parse_real("[2]") == 2 and parse_real("[ 0 ; 1, 1 ]") == Fraction(1, 2)
