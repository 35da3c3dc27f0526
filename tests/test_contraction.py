import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfrow.contraction import (
    ContractionPlan,
    contract,
    is_contractable,
    seidel_check,
    seidel_scalars,
)
from cfrow.digits import from_digits
from cfrow.errors import NotContractable
from cfrow.farey_maps import farey_expansion
from cfrow.gcf import Gcf, convergents, partial_pq

from conftest import assert_as_checked, random_stream_digits, random_surd
from test_gcf import partial_det


def harmonic_gcf() -> Gcf:
    def gen():
        yield (1, 1)
        n = 1
        while True:
            yield (n, n + 1)
            n += 1

    return Gcf(gen)


def even_plan() -> ContractionPlan:
    def gen():
        k = 0
        while True:
            yield 2 * k
            k += 1

    return ContractionPlan(gen)


EXPECTED_EVEN_DIGITS = [
    (1, 1), (3, 8), (-30, 87), (-420, 275), (-1890, 623),
    (-5544, 1179), (-12870, 1991), (-25740, 3107),
]


def test_worked_even_contraction_digits():
    cc = contract(harmonic_gcf(), even_plan())
    assert cc.pairs(8) == EXPECTED_EVEN_DIGITS


def test_worked_scalars():
    cs = seidel_scalars(harmonic_gcf(), even_plan(), 5)
    assert cs == [1, 1, 3, 15, 105, 945]


def test_plain_index_list_reads_as_its_plan():
    """contract, seidel_scalars and seidel_check take a plain index list
    as the ContractionPlan of it."""
    g = harmonic_gcf()
    idxs = [0, 2, 3, 5, 8, 9]
    plan = ContractionPlan(idxs)
    assert contract(g, idxs).pairs(6) == contract(g, plan).pairs(6)
    assert seidel_scalars(g, idxs, 5) == seidel_scalars(g, plan, 5)
    assert seidel_check(g, idxs, 5) is seidel_check(g, plan, 5) is True


def test_worked_scaled_convergent_pairs():
    g = harmonic_gcf()
    cc = contract(g, even_plan())
    orig = convergents(g, 10)[2:]
    new = convergents(cc, 5)[2:]
    cs = seidel_scalars(g, even_plan(), 5)
    for k in range(6):
        assert tuple(new[k]) == (cs[k] * orig[2 * k].P, cs[k] * orig[2 * k].Q)


def test_plan_validation():
    with pytest.raises(ValueError):
        ContractionPlan([3, 1])
    with pytest.raises(ValueError):
        ContractionPlan([-1, 2])
    p = ContractionPlan([0, 2, 5])
    assert p.index(-2) == -2 and p.index(1) == 2
    with pytest.raises(ValueError, match="^empty contraction plan$"):
        ContractionPlan([])
    # a lazy plan is not read when it is made, so an empty one is no error
    empty = ContractionPlan(lambda: iter([]))
    assert contract(harmonic_gcf(), empty).pairs(3) == []


def test_is_contractable():
    assert is_contractable(harmonic_gcf(), 20)
    assert is_contractable(Gcf.rcf([1] * 30), 25)
    # a partial denominator block that vanishes: b1 = 1, a1 = -1 gives
    # Q_[1,1] = 1 then Q_[1,2]... build one with Q_[2,2] = 0 impossible
    # (beta != 0 needed); use b2 = 1, a2 = -1 so Q_[2,3] = b3 - 1 at b3 = 1
    bad = Gcf([(1, 1), (1, 1), (-1, 1), (-1, 1)])
    assert not is_contractable(bad, 3)


def test_farey_expansions_contractable(rng):
    for _ in range(10):
        x = random_surd(rng)
        fe = farey_expansion(x, 32)
        assert is_contractable(fe, 30)


def test_identity_plan_is_digit_identity():
    g = harmonic_gcf()
    ident = contract(g, ContractionPlan(lambda: iter(range(10**9))))
    assert ident.pairs(8) == g.pairs(8)


def test_callable_plan_is_called_once():
    calls = []

    def source():
        calls.append(1)
        return iter(range(0, 10**9, 2))

    g = harmonic_gcf()
    plan = ContractionPlan(source)
    assert contract(g, plan).pairs(8) == EXPECTED_EVEN_DIGITS
    assert seidel_scalars(g, plan, 5) == [1, 1, 3, 15, 105, 945]
    assert len(calls) == 1


def test_finite_callable_plan_stops_as_the_list_plan_does():
    g = harmonic_gcf()
    want = contract(g, ContractionPlan([0, 2, 4])).pairs(6)
    assert len(want) == 3
    assert contract(g, ContractionPlan(lambda: iter([0, 2, 4]))).pairs(6) == want
    with pytest.raises(IndexError):
        ContractionPlan(lambda: iter([0, 2, 4])).index(3)


def test_callable_plan_checks_order_as_read():
    plan = ContractionPlan(lambda: iter([0, 3, 3]))
    assert plan.index(1) == 3
    with pytest.raises(ValueError, match="increasing"):
        plan.index(2)


def test_not_contractable_names_block():
    bad = Gcf([(1, 1), (1, 1), (-1, 1), (-1, 1)])
    with pytest.raises(NotContractable):
        contract(bad, ContractionPlan([0, 3])).pairs(2)


def test_not_contractable_raises_on_every_read():
    # the lazy contraction's generator dies with the error; the expansion
    # must not read as if it ended there
    c = contract(Gcf([(1, 1), (1, 1), (-1, 1), (-1, 1)]), ContractionPlan([0, 3]))
    for _ in range(3):
        with pytest.raises(NotContractable, match=r"block \[2,3\]"):
            c.pairs(2)
        with pytest.raises(NotContractable):
            c.has_pair(1)
    assert c.pair(0) == (1, 1)
    assert c.length() is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_seidel_property_random(data):
    length = data.draw(st.integers(6, 30))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            min_size=length,
            max_size=length,
        )
    )
    g = Gcf(pairs)
    count = data.draw(st.integers(1, min(8, length - 1)))
    idxs = sorted(data.draw(st.permutations(range(length - 1)))[:count])
    assert seidel_check(g, ContractionPlan(idxs), count - 1)


def test_scalars_match_bruteforce_products(rng):
    for _ in range(30):
        length = rng.randint(8, 30)
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(length)]
        g = Gcf(pairs)
        count = rng.randint(2, min(8, length - 1))
        idxs = sorted(rng.sample(range(length - 1), count))
        plan = ContractionPlan(idxs)
        cs = seidel_scalars(g, plan, count - 1)
        brute = [1]
        for j in range(count - 1):
            prev = idxs[j - 1] if j >= 1 else -1
            brute.append(brute[-1] * partial_pq(g, prev + 2, idxs[j])[1])
        assert cs == brute


def test_reduced_fraction_equality(rng):
    for _ in range(20):
        length = rng.randint(8, 25)
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(length)]
        g = Gcf(pairs)
        count = rng.randint(2, min(6, length - 1))
        idxs = sorted(rng.sample(range(length - 1), count))
        cc = contract(g, ContractionPlan(idxs))
        orig = convergents(g, max(idxs))[2:]
        new = convergents(cc, count - 1)[2:]
        for k in range(count):
            a = new[k].as_fraction()
            b = orig[idxs[k]].as_fraction()
            assert a == b


def _block_formula_pairs(g: Gcf, idxs, count):
    """Pairs 0..count-1 of the contraction by the per-digit block formula,
    each block read on its own; a vanishing Q-factor raises
    NotContractable(m, n), the back factor tested before the forward one."""

    def n(j):
        return j if j < 0 else idxs[j]

    def q_or_raise(m, last):
        q = partial_pq(g, m, last)[1]
        if q == 0:
            raise NotContractable(m, last)
        return q

    out = []
    for k in range(-1, count - 1):
        if k + 1 >= len(idxs) or not g.has_pair(n(k + 1)):
            break
        det = partial_det(g, n(k - 1) + 2, n(k) + 1)
        q_back = q_or_raise(n(k - 2) + 2, n(k - 1))
        q_fwd = q_or_raise(n(k) + 2, n(k + 1))
        out.append((-det * q_back * q_fwd, partial_pq(g, n(k - 1) + 2, n(k + 1))[1]))
    return out


def _random_plan(rng, top):
    """A strictly increasing plan in [0, top], often starting at 0 and
    often with adjacent indices."""
    idxs = [0 if rng.random() < 0.4 else rng.randint(0, 3)]
    while len(idxs) < 8 and idxs[-1] < top:
        idxs.append(idxs[-1] + (1 if rng.random() < 0.4 else rng.randint(2, 4)))
    return idxs


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("lazy", [False, True])
def test_one_pass_contract_equals_the_block_formula(rng, fractions, lazy):
    # b = 0 digits make vanishing blocks common
    if fractions:
        alphas = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
        betas = [0, 1, 2, Fraction(1, 3), Fraction(-1, 2)]
    else:
        alphas, betas = [1, -1, 2, -3], [0, 1, 1, 2, 3]
    raised = agreed = 0
    for _ in range(150):
        pairs = [(rng.choice(alphas), rng.choice(betas)) for _ in range(rng.randint(1, 16))]
        idxs = _random_plan(rng, len(pairs) + 2)
        count = rng.randint(1, len(idxs) + 1)

        def fresh():
            return Gcf((lambda: iter(pairs)) if lazy else pairs)

        try:
            want = _block_formula_pairs(fresh(), idxs, count)
        except NotContractable as exc:
            raised += 1
            with pytest.raises(NotContractable) as got:
                contract(fresh(), ContractionPlan(idxs)).pairs(count)
            assert (got.value.m, got.value.n) == (exc.m, exc.n)
            continue
        agreed += 1
        assert contract(fresh(), ContractionPlan(idxs)).pairs(count) == want
    assert raised >= 10 and agreed >= 10


def test_contract_reads_the_source_only_as_deep_as_the_pairs_read(rng):
    for _ in range(40):
        pulled = []

        def source():
            k = 0
            while True:
                pulled.append(k)
                yield (rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
                k += 1

        idxs = _random_plan(rng, 30)
        cc = contract(Gcf(source), ContractionPlan(idxs))
        for k in range(1, len(idxs) + 1):
            cc.pairs(k)
            # pair k - 1 reads up to n_{k-1}; nothing past n_{k-1} + 1
            assert idxs[k - 1] + 1 <= len(pulled) <= idxs[k - 1] + 2


def test_contract_pairs_are_the_checked_ones(rng):
    # the lazy output skips the checking constructor: its pairs must be
    # what that constructor makes of them, plain ints from int sources
    for i in range(16):
        x = random_surd(rng) if i % 2 else from_digits(random_stream_digits(rng, 400))
        fe = farey_expansion(x, 300)
        plan = sorted(rng.sample(range(301), rng.randint(1, 120)))
        assert_as_checked(contract(fe, ContractionPlan(plan)), len(plan))
    alphas = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    betas = [1, 2, Fraction(1, 3), Fraction(-1, 2)]
    checked = 0
    for _ in range(100):
        g = Gcf([(rng.choice(alphas), rng.choice(betas)) for _ in range(12)])
        plan = [n for n in _random_plan(rng, 11) if n <= 11]
        try:
            assert_as_checked(contract(g, ContractionPlan(plan)), len(plan), ints=False)
            checked += 1
        except NotContractable:
            pass
    assert checked >= 30


@pytest.mark.parametrize("fractions", [False, True])
def test_buffered_contract_equals_the_lazy_one(rng, fractions):
    # contract reads the plan's and the source's buffers directly while
    # they hold the index; a list source and plan fill both at once, lazy
    # ones are read as far as asked, so the two must agree pair for pair,
    # name the same vanishing block, and stop at the same index
    if fractions:
        alphas = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
        betas = [0, 1, 2, Fraction(1, 3), Fraction(-1, 2)]
    else:
        alphas, betas = [1, -1, 2, -3], [0, 1, 1, 2, 3]
    raised = short = 0
    for _ in range(150):
        pairs = [(rng.choice(alphas), rng.choice(betas)) for _ in range(rng.randint(1, 16))]
        idxs = _random_plan(rng, len(pairs) + 2)
        count = rng.randint(1, len(idxs) + 2)
        buffered = contract(Gcf(pairs), ContractionPlan(idxs))
        lazy = contract(Gcf(lambda: iter(pairs)), ContractionPlan(lambda: iter(idxs)))
        try:
            want = buffered.pairs(count)
        except NotContractable as exc:
            raised += 1
            with pytest.raises(NotContractable) as got:
                lazy.pairs(count)
            assert (got.value.m, got.value.n) == (exc.m, exc.n)
            continue
        assert lazy.pairs(count) == want
        assert [tuple(map(type, p)) for p in lazy.pairs(count)] == [tuple(map(type, p)) for p in want]
        if len(want) < count:  # the plan ran past the expansion, or ended
            short += 1
            assert lazy.length() == buffered.length() == len(want)
    assert raised >= 10 and short >= 10


def test_contract_reads_a_plan_filled_while_it_runs():
    # a lazy plan read ahead of the contraction, and past it, by another
    # reader of the same buffers: the output is the list plan's
    pairs = [(1, 2), (1, 3), (-1, 2), (1, 1), (2, 5), (1, 2), (-1, 3), (1, 4)]
    want = contract(Gcf(pairs), ContractionPlan([0, 2, 3, 6])).pairs(4)
    g = Gcf(lambda: iter(pairs))
    plan = ContractionPlan(lambda: iter([0, 2, 3, 6]))
    c = contract(g, plan)
    assert c.pairs(1) == want[:1]
    assert plan.index(2) == 3 and g.pair(5) == (1, 2)
    assert c.pairs(5) == want and c.length() == 4


def test_contract_returns_an_integral_fraction_as_an_int():
    # a result formed from Fraction digits is normalised by _num: the last
    # partial denominator here is the Fraction 3, and comes back as the int
    F = Fraction
    g = Gcf(list(zip([1, F(1, 2), -1, F(3, 4), 2, 1, F(-2, 3), 1],
                     [0, 2, F(5, 3), 1, 3, F(1, 2), 2, 4])))
    got = contract(g, ContractionPlan([0, 2, 3, 6])).pairs(4)
    assert got == [(1, 0), (F(5, 6), F(7, 3)), (F(3, 4), F(29, 12)), (F(10, 9), 3)]
    assert got == _block_formula_pairs(g, [0, 2, 3, 6], 4)
    assert [tuple(map(type, p)) for p in got] == [
        (int, int), (Fraction, Fraction), (Fraction, Fraction), (Fraction, int)]
