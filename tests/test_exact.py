import operator
from fractions import Fraction
from functools import reduce

from hypothesis import assume, given, strategies as st

from cfrow.exact import IDENTITY, Mat2Z, RationalInterval, reversed_product
from cfrow.natural_ext import _mobius

A0 = Mat2Z(1, 0, 1, 1)
A1 = Mat2Z(0, 1, 1, 1)


def mat_product(ms) -> Mat2Z:
    """Left-to-right product of a nonempty sequence of matrices: the
    oracle the products below are checked against."""
    return reduce(operator.matmul, ms)


def act(m: Mat2Z, z):
    """m's Moebius action, through the one evaluator `natural_ext._mobius`."""
    return _mobius((m.a, m.b, m.c, m.d), z)


def at_pole(m: Mat2Z, z) -> bool:
    return m.c * z + m.d == 0


def test_identity_action():
    assert act(IDENTITY, Fraction(3, 7)) == Fraction(3, 7)


def test_basic_evaluation():
    assert act(Mat2Z(0, 1, 1, 2), Fraction(0)) == Fraction(1, 2)


def test_products():
    assert mat_product([IDENTITY, IDENTITY]) == IDENTITY
    assert mat_product([A0, A1]) == Mat2Z(0, 1, 1, 2)
    m = mat_product([A0] * 7)
    assert m == Mat2Z(1, 0, 7, 1)


nonzero = st.integers(-30, 30).filter(lambda v: v != 0)
entries = st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                    st.integers(-20, 20), st.integers(-20, 20))
mats = entries.map(lambda t: Mat2Z(*t)).filter(lambda m: m.det() != 0)
points = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(mats, nonzero, points)
def test_scalar_multiples_act_identically(m, r, z):
    assume(not at_pole(m, z))
    assert act(Mat2Z(r * m.a, r * m.b, r * m.c, r * m.d), z) == act(m, z)


@given(mats, mats, points)
def test_action_is_a_homomorphism(m1, m2, z):
    assume(not at_pole(m2, z) and not at_pole(m1, act(m2, z)))
    assert act(m1 @ m2, z) == act(m1, act(m2, z))


@given(st.lists(mats, min_size=1, max_size=6))
def test_determinant_multiplicative(ms):
    prod = mat_product(ms)
    expected = 1
    for m in ms:
        expected *= m.det()
    assert prod.det() == expected


def _mul2(m, n):
    """The 2x2 product of two 4-tuples ((a, b), (c, d)), written out."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# the slow map's branch matrices A0, A1 and their inverses, as 4-tuples
branches = st.sampled_from([(1, 0, 1, 1), (0, 1, 1, 1), (1, 0, -1, 1), (-1, 1, 1, 0)])


@given(st.lists(branches, max_size=40))
def test_reversed_product_is_the_product_of_the_reversed_word(word):
    forward = backward = (1, 0, 0, 1)
    for c in word:
        forward = _mul2(forward, c)
    for c in reversed(word):
        backward = _mul2(backward, c)
    assert reversed_product(forward) == backward


def test_adjugate_inverts_as_action():
    """The adjugate ((d, -b), (-c, a)), which `OmegaPoint.x_val` applies
    as P^-1, undoes the action."""
    m = Mat2Z(2, 3, 1, 4)
    z = Fraction(5, 9)
    assert act(Mat2Z(m.d, -m.b, -m.c, m.a), act(m, z)) == z


def test_interval_predicates():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.contains(Fraction(2, 5))
    assert RationalInterval.point(Fraction(1, 2)).is_point()
