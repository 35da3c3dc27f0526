"""The list fast path of digit streams: `prefix` on cons cells and on
memoised views must equal the generic head/tail walk."""

import random
from fractions import Fraction

import pytest

from cfrow.digits import (
    ZERO_STREAM,
    Cons,
    DigitStream,
    LazyDigits,
    fraction_digits,
    from_digits,
    from_fraction,
)
from cfrow.exact import INF
from cfrow.reals import rcf_digits

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
