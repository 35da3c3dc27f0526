"""The list fast path of digit streams: `prefix` on cons cells and on
memoised views must equal the generic head/tail walk."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfrow.digits import (
    ZERO_STREAM,
    Cons,
    DigitStream,
    LazyDigits,
    Reader,
    SnapReader,
    compare,
    digits_fraction,
    fraction_digits,
    from_digits,
    from_fraction,
    order,
    snapped_digits,
    same_number,
    tail_state,
)
from cfrow.errors import BoundaryUndecidable
from cfrow.exact import INF, RationalInterval
from cfrow.reals import golden_fraction, rcf_digits

from conftest import random_surd


def walk(stream, n):
    """The generic prefix: n head/tail steps."""
    return DigitStream.prefix(stream, n)


def advanced(stream, k):
    for _ in range(k):
        stream = stream.tail()
    return stream


def sample_streams(rng):
    x = random_surd(rng)
    lazy = rcf_digits(x)
    yield lazy
    yield advanced(rcf_digits(x), rng.randint(1, 40))
    yield LazyDigits(iter([3, 1, 4, 1, 5]))
    yield advanced(LazyDigits(iter([3, 1, 4, 1, 5])), 3)
    yield from_digits([rng.randint(1, 9) for _ in range(rng.randint(0, 30))])
    yield from_fraction(Fraction(rng.randint(0, 997), 997))
    # cells pushed onto a memoised view, as the slow maps build them
    s = rcf_digits(random_surd(rng))
    for _ in range(rng.randint(1, 12)):
        s = Cons(rng.randint(1, 6), s)
    yield s
    yield Cons(7, advanced(LazyDigits(iter([2, 2])), 1))
    yield ZERO_STREAM


@pytest.mark.parametrize("make", [
    lambda: ZERO_STREAM,
    lambda: from_digits([1, 2]),
    lambda: LazyDigits(iter([1, 2])),
    lambda: rcf_digits(Fraction(2, 7)),
    lambda: Cons(4, LazyDigits(iter([]))),
])
def test_prefix_zero_is_empty(make):
    assert make().prefix(0) == []


def test_prefix_pads_with_inf_past_termination():
    assert from_digits([3, 4]).prefix(5) == [3, 4, INF, INF, INF]
    assert LazyDigits(iter([1, 2])).prefix(4) == [1, 2, INF, INF]
    assert advanced(LazyDigits(iter([1, 2])), 5).prefix(3) == [INF] * 3
    assert Cons(6, LazyDigits(iter([1]))).prefix(4) == [6, 1, INF, INF]
    assert ZERO_STREAM.prefix(2) == [INF, INF]
    assert rcf_digits(Fraction(1)).prefix(3) == [1, INF, INF]


def test_prefix_equals_head_tail_walk(rng):
    for _ in range(40):
        for s in sample_streams(rng):
            for n in (1, 2, 7, rng.randint(0, 500), 500):
                assert s.prefix(n) == walk(s, n)


def enclosure_by_steps(stream, depth):
    """The head/tail enclosure loop `enclosure` used before it read its
    window with one `prefix`, kept as its oracle."""
    a, b, c, d = 1, 0, 0, 1
    s = stream
    for _ in range(depth):
        h = s.head()
        if h is INF:
            return RationalInterval.point(Fraction(b, d))
        a, b, c, d = b, a + b * h, d, c + d * h
        s = s.tail()
    lo, hi = Fraction(b, d), Fraction(a + b, c + d)
    return RationalInterval(min(lo, hi), max(lo, hi))


def test_enclosure_equals_head_tail_loop(rng):
    for _ in range(20):
        for s in sample_streams(rng):
            for depth in (0, 1, 2, 7, rng.randint(0, 200)):
                got, want = s.enclosure(depth), enclosure_by_steps(s, depth)
                assert (got.lo, got.hi) == (want.lo, want.hi)


def test_shared_memo_survives_overlapping_prefixes():
    rng = random.Random(7)
    for _ in range(20):
        x = random_surd(rng)
        want = rcf_digits(x).prefix(600)
        base = rcf_digits(x)
        views = [advanced(base, k) for k in (0, 1, 5, 17, 60)]
        for _ in range(30):
            k = rng.randrange(len(views))
            got = views[k].prefix(rng.randint(0, 300))
            got[:] = [0] * len(got)  # callers own the returned list
        offsets = (0, 1, 5, 17, 60)
        for off, v in zip(offsets, views):
            assert v.prefix(540) == want[off : off + 540]
            assert walk(v, 100) == want[off : off + 100]
        assert base.prefix(600) == want


def test_fraction_digits_is_euclid():
    assert fraction_digits(Fraction(0)) == []
    assert fraction_digits(Fraction(1)) == [1]
    assert fraction_digits(Fraction(2, 5)) == [2, 2]
    assert fraction_digits(Fraction(13, 31)) == [2, 2, 1, 1, 2]
    for x in (Fraction(0), Fraction(1, 2), Fraction(355, 1130)):
        assert from_fraction(x).prefix(8) == walk(from_digits(fraction_digits(x)), 8)
    rng = random.Random(3)
    for x in [Fraction(0), Fraction(1), Fraction(2), Fraction(7, 3)] + [
        Fraction(rng.randrange(0, 10**k + 1), 10**k) for k in range(1, 30)
    ]:
        assert digits_fraction(fraction_digits(x)) == x


def limited(t, max_den=10**12):
    """The stdlib snap: the nearest rational with denominator <= max_den."""
    return fraction_digits(Fraction(t).limit_denominator(max_den))


def seeded_floats(rng, n):
    """n floats: half uniform, half powers of uniform ones down to 1e-30."""
    floats = [rng.random() for _ in range(n // 2)]
    while len(floats) < n:
        t = rng.random() ** rng.randint(2, 60)
        if t >= 1e-30:
            floats.append(t)
    return floats


def test_snapped_digits_equals_limit_denominator_on_seeded_floats():
    for t in seeded_floats(random.Random(2024), 200_000):
        assert snapped_digits(t) == limited(t), t


@pytest.mark.parametrize("max_den", [1, 2, 7, 1000, 2**20, 10**6, 10**15])
def test_snapped_digits_other_bounds(max_den):
    rng = random.Random(max_den)
    for _ in range(3000):
        t = rng.random() ** rng.choice([1, 1, 3, 20])
        assert snapped_digits(t, max_den) == limited(t, max_den), t


EDGE_FLOATS = [0.0, 1.0, 1 - 2**-53, 1e-300, 4e-13, 2.5e-13, 6e-13, 1 + 2**-52, 2.0, 2.5]
# the semiconvergent replaces a 5 by a 3; the kept [..., 3, 1] folds to [..., 4]
SEMICONVERGENT, FOLD = 0.4494910647887381, 0.13436424411240122


def test_snapped_digits_edge_floats():
    rng = random.Random(5)
    # floats whose own denominator is within the bound snap to themselves
    dyadic = [0.5, 0.375, 2**-39] + [rng.randrange(1, 2**39) / 2**39 for _ in range(200)]
    for t in EDGE_FLOATS + dyadic:
        assert snapped_digits(t) == limited(t), t
    for t in dyadic:
        assert snapped_digits(t) == fraction_digits(Fraction(t))
    assert snapped_digits(0.0) == []
    assert snapped_digits(1.0) == [1]
    assert snapped_digits(1 - 2**-53) == [1]
    assert snapped_digits(2.5e-13) == []  # below 1/(2*10**12): the nearest is 0
    assert snapped_digits(6e-13) == [10**12]


def test_snapped_digits_semiconvergent_fold_and_tie():
    # the semiconvergent ends in 3 where t's own expansion has 5
    t = SEMICONVERGENT
    got, full = snapped_digits(t), fraction_digits(Fraction(t))
    assert got == limited(t)
    assert got[:-1] == full[: len(got) - 1] and (got[-1], full[len(got) - 1]) == (3, 5)
    # the kept rational ends [..., 3, 1], written canonically [..., 4]
    t = FOLD
    got, full = snapped_digits(t), fraction_digits(Fraction(t))
    assert got == limited(t)
    n = len(got)
    assert got[:-1] == full[: n - 1] and full[n - 1 : n + 1] == [3, 1] and got[-1] == 4
    # ties keep the convergent: 3/4 is as near to 1 as to 1/2, 2^-(j+1) to 0 as to 2^-j
    assert snapped_digits(0.75, 2) == limited(0.75, 2) == [1]
    assert snapped_digits(0.5, 1) == limited(0.5, 1) == []
    for j in range(1, 60):
        assert snapped_digits(2.0 ** -(j + 1), 2**j) == limited(2.0 ** -(j + 1), 2**j) == []


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 10**12), st.integers(-3, 3))
def test_snap_is_monotone_and_fixes_small_denominators(t, q, dp):
    # a float on one side of a rational p/q with q <= max_den snaps to
    # that side of it (or onto it): random p/q near t, and t's own
    # convergents and semiconvergents, which fall on both sides of it
    snapped, exact = digits_fraction(snapped_digits(t)), Fraction(t)
    near = [Fraction(min(max(round(exact * q) + dp, 0), q), q)]
    own = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in fraction_digits(exact):
        # (p0 + j p1)/(q0 + j q1): j = a is the next convergent, and the
        # largest j within the bound the semiconvergent the snap weighs
        for j in {1, a // 2, a, (10**12 - q0) // q1}:
            if 1 <= j <= a:
                own.append(Fraction(p0 + j * p1, q0 + j * q1))
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
    for r in near + [c for c in own if c.denominator <= 10**12]:
        if exact >= r:
            assert snapped >= r, (t, r)
        if exact <= r:
            assert snapped <= r, (t, r)


def read_in_steps(t, max_den, rng):
    """Read t's snap in random increments, sometimes finished by one
    `read_all`: each `more()` exposes a digit or completes the list, and
    every exposed prefix is final."""
    want = limited(t, max_den)
    r = SnapReader(t, max_den)
    while True:
        assert r.got == want[: len(r.got)], (t, max_den)
        if r.src is None:
            break
        if rng.random() < 0.1:
            r.read_all()
        for _ in range(rng.randint(1, 3)):
            if r.src is not None:
                n = len(r.got)
                r.more()
                assert len(r.got) > n or r.src is None
    assert r.got == want and not r.ahead, (t, max_den)


@pytest.mark.parametrize("max_den", [10**12, 1, 2, 7, 1000, 2**20, 10**6, 10**15])
def test_snap_reader_exposes_only_final_digits(max_den):
    rng = random.Random(max_den)
    floats = seeded_floats(rng, 10_000) + EDGE_FLOATS + [SEMICONVERGENT, FOLD]
    for t in floats:
        read_in_steps(t, max_den, rng)
    # ties keep the convergent
    for t, tie_den in [(0.75, 2), (0.5, 1)] + [(2.0 ** -(j + 1), 2**j) for j in range(1, 60)]:
        read_in_steps(t, tie_den, rng)


def test_snap_reader_holds_back_the_folded_digit():
    # the 3 that becomes 4 is held back until the list is complete
    n = len(snapped_digits(FOLD))
    r = SnapReader(FOLD)
    while r.src is not None:
        assert len(r.got) < n
        r.more()
    assert r.got[-1] == 4
    assert SnapReader(0.0).read_all() == [] and SnapReader(1.0).read_all() == [1]


@pytest.mark.parametrize("t", [-0.5, -1e-300, math.inf, math.nan, 3, Fraction(1, 3)])
def test_snap_reader_reads_only_finite_floats_from_0(t):
    # a negative float would give a non-canonical list ([0, -1, 2] for
    # -0.5), and an int would be taken for a started Euclid remainder
    with pytest.raises(ValueError):
        SnapReader(t)
    with pytest.raises(ValueError):
        snapped_digits(t)


@pytest.mark.parametrize("max_den", [0, -3, 2.5, None])
def test_snap_reader_needs_max_den_at_least_1(max_den):
    # under max_den 0 no rational is admitted: limit_denominator refuses
    # it, and a snap must not read 0.3 as 0
    with pytest.raises(ValueError):
        Fraction(0.3).limit_denominator(0)
    with pytest.raises(ValueError, match="max_den"):
        SnapReader(0.3, max_den)
    with pytest.raises(ValueError, match="max_den"):
        snapped_digits(0.3, max_den)
    assert snapped_digits(0.3, 1) == [] and snapped_digits(0.7, 1) == [1]


def test_snap_reader_starts_on_its_first_read():
    r = SnapReader(0.3)
    assert (r.got, r.ahead, r.src) == ([], (), 0.3)
    r.more()
    assert r.got == [3] and type(r.src) is int
    assert SnapReader(-0.0).read_all() == []


def test_lazy_digits_source_error_is_raised_on_every_read():
    def source():
        yield 3
        yield 1
        raise ValueError("digit source broke")

    s = LazyDigits(source())
    for _ in range(3):
        with pytest.raises(ValueError, match="digit source broke"):
            s.prefix(5)
        with pytest.raises(ValueError, match="digit source broke"):
            s.tail().tail().head()
    assert s.prefix(2) == [3, 1] and s.tail().head() == 1


# -- the exact comparator against the enclosure route ---------------------------


def enclosure_order(xs, ys, cap=256):
    """The enclosure route, the comparator's oracle: refine both streams'
    enclosures in lockstep until they separate or both are points; None
    when they have not separated within cap digits (equal irrationals)."""
    for depth in (8, 16, 32, 64, 128, cap):
        ix, iy = xs.enclosure(depth), ys.enclosure(depth)
        if ix.hi < iy.lo:
            return -1
        if iy.hi < ix.lo:
            return 1
        if ix.is_point() and iy.is_point():
            return (ix.lo > iy.lo) - (ix.lo < iy.lo)
    return None


def cons(digits, tail=ZERO_STREAM):
    for d in reversed(digits):
        tail = Cons(d, tail)
    return tail


def finite_digits(rng):
    """Short random digit lists, a third of them ending [..., b, 1]."""
    ds = [rng.randint(1, 4) for _ in range(rng.randint(0, 7))]
    if ds and rng.random() < 0.33:
        ds.append(1)
    return ds


def test_compare_equals_enclosure_route_on_finite_streams(rng):
    seen = set()
    for _ in range(3000):
        a, b = finite_digits(rng), finite_digits(rng)
        if rng.random() < 0.3:  # share a prefix, so the difference comes late
            b = a[: rng.randint(0, len(a))] + b
        xs, ys = cons(a), cons(b)
        got = compare(xs, ys)
        assert got == enclosure_order(xs, ys) == -compare(ys, xs)
        assert got == (digits_fraction(a) > digits_fraction(b)) - (digits_fraction(a) < digits_fraction(b))
        seen.add(got)
    assert seen == {-1, 0, 1}


def test_compare_folds_noncanonical_tails():
    for a, b in (([1, 1], [2]), ([3, 1], [4]), ([2, 5, 1], [2, 6]), ([1, 1, 1], [1, 2]),
                 ([4, 1, 1], [4, 2])):
        assert compare(cons(a), cons(b)) == 0 == compare(cons(b), cons(a))
        assert order(Reader(a), Reader(b)) == 0
    assert compare(cons([1]), cons([1, 1])) == 1  # 1 > 1/2


def surd_tail_streams(rng):
    """Pairs (xs, ys, equal) of streams over surd tails: the same tail
    pushed under different cell structure, the same value read from two
    sources, and unrelated tails."""
    t = random_surd(rng)
    k = rng.randint(0, 30)
    head = rcf_digits(t).prefix(k)
    # one number, three structures: a plain view, cells pushed on a view,
    # and a source built from the exact tail value
    tail_value = t
    for a in head:
        tail_value = 1 / tail_value - a
    pre = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
    plain = cons(pre, rcf_digits(t))
    pushed = cons(pre + head, advanced(rcf_digits(t), k))
    fresh = cons(pre + head, rcf_digits(tail_value))
    yield plain, pushed, True
    yield pushed, fresh, True
    yield cons([rng.randint(1, 3)]), pushed, False
    other = random_surd(rng)
    yield plain, cons(pre, rcf_digits(other)), other.d == t.d and other == t
    near = list(head[:rng.randint(0, k)]) + [rng.randint(1, 6)]
    yield pushed, cons(pre + near, rcf_digits(other)), False


def test_compare_equals_enclosure_route_on_surd_tails(rng):
    seen = set()
    for _ in range(300):
        for xs, ys, equal in surd_tail_streams(rng):
            got = compare(xs, ys)
            want = enclosure_order(xs, ys)
            if want is None:
                assert equal and got == 0
            else:
                assert got == want
            assert got == -compare(ys, xs)
            seen.add(got)
    assert seen == {-1, 0, 1}


def test_tail_state_steps_back_through_pushed_cells(rng):
    for _ in range(50):
        t = random_surd(rng)
        s = rcf_digits(t)
        k = rng.randint(0, 20)
        pushed = cons(s.prefix(k), advanced(rcf_digits(t), k))
        for i in (0, 1, k, k + 3):
            assert same_number(tail_state(pushed, i), tail_state(s, i))
    assert tail_state(from_digits([1, 2, 3]), 1) is None
    assert tail_state(LazyDigits(iter([1, 2])), 0) is None


def test_compare_without_a_state_is_capped():
    def ones():
        while True:
            yield 1

    with pytest.raises(BoundaryUndecidable):
        compare(LazyDigits(ones()), LazyDigits(ones()), cap=200)
    g = rcf_digits(golden_fraction())
    with pytest.raises(BoundaryUndecidable):  # one side has no state to compare
        compare(g, LazyDigits(ones()), cap=200)
    assert compare(g, advanced(rcf_digits(golden_fraction()), 5)) == 0
