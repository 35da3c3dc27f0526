import json
import random
from fractions import Fraction

import pytest

from cfrow.errors import (
    AdjacentPositions,
    BadRange,
    IndexBeyondExpansion,
    NotSingularisable,
)
from cfrow.exact import INF, Mat2Z
from cfrow.gcf import (
    ConvergentPair,
    Gcf,
    _block,
    _num,
    classify_farey_index,
    convergents,
    digits_from_convergents,
    evaluate_finite,
    partial_matrix,
    partial_pq,
    singularise,
    validate_srcf,
)
from cfrow.reals import rcf_digits

from conftest import random_surd


def partial_det(g: Gcf, m: int, n: int):
    """det B_[m,n] = (-1)^(n-m+1) a_m ... a_n, from the entries of the
    library's block loop; the empty range gives 1."""
    p0, p1, q0, q1 = _block(g, m, n)
    return _num(p0 * q1 - p1 * q0)


def harmonic_gcf() -> Gcf:
    """a0 = 1, b0 = 1, and (a_n, b_n) = (n, n+1) for n >= 1."""

    def gen():
        yield (1, 1)
        n = 1
        while True:
            yield (n, n + 1)
            n += 1

    return Gcf(gen)


HARMONIC_CONVERGENTS = [
    (1, 1), (3, 2), (11, 8), (53, 38), (309, 222), (2119, 1522),
    (16687, 11986), (148329, 106542), (1468457, 1054766), (16019531, 11506538),
]


def test_worked_example_convergents():
    cs = convergents(harmonic_gcf(), 9)[2:]
    assert [(c.P, c.Q) for c in cs] == HARMONIC_CONVERGENTS


def test_fibonacci_convergents():
    cs = convergents(Gcf.rcf([1, 1, 1, 1]), 4)[2:]
    assert [(c.P, c.Q) for c in cs] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]


def test_inf_beta_truncates():
    g = Gcf([(1, 5), (1, INF), (1, 7)])
    assert g.length() == 1
    assert evaluate_finite(g) == 5
    with pytest.raises(IndexBeyondExpansion):
        convergents(g, 1)


def test_single_pair_value_uses_matrix_convention():
    # [b0/a0;] = (b0 + 0)/a0 by the index -1 seeds: B_[-1,0].0 = b0/a0
    assert evaluate_finite(Gcf([(1, 5)])) == 5
    assert evaluate_finite(Gcf([(2, 5)])) == Fraction(5, 2)
    assert [tuple(c) for c in convergents(Gcf([(1, 5)]), 0)[2:]] == [(5, 1)]


def test_evaluate_finite():
    assert evaluate_finite(Gcf([(1, 0), (1, 2), (1, 2)])) == Fraction(2, 5)
    g = harmonic_gcf()
    prefix = Gcf(g.pairs(4))
    val = evaluate_finite(prefix)
    assert val == Fraction(53, 38)


def test_partial_matrix_seeds_and_blocks():
    g = harmonic_gcf()
    assert partial_matrix(g, -1, -1) == Mat2Z(0, 1, 1, 0)
    m = partial_matrix(g, 2, 4)
    assert m.d == 87  # bottom-right block entry
    assert partial_pq(g, 2, 4) == (48, 87)
    # columns of B_[-1,n] are consecutive convergents
    cs = convergents(g, 6)
    m = partial_matrix(g, -1, 6)
    assert (m.b, m.d) == tuple(cs[8])
    assert (m.a, m.c) == tuple(cs[7])


def test_partial_matrix_single_digit():
    g = Gcf.rcf([3, 1, 4])
    assert partial_matrix(g, 1, 1) == Mat2Z(0, 1, 1, 3)
    assert partial_matrix(g, 0, 0) == Mat2Z(0, 1, 1, 0)


def test_partial_pq_empty_range_conventions():
    g = harmonic_gcf()
    assert partial_pq(g, 1, 0) == (0, 1)
    assert partial_pq(g, -1, -2) == (0, 1)
    assert partial_det(g, 1, 0) == 1
    with pytest.raises(BadRange):
        partial_pq(g, 3, 1)


def test_partial_matrix_walks_its_block_once(monkeypatch):
    walks = []
    through = Gcf._through

    def counted(self, m, n):
        walks.append((m, n))
        return through(self, m, n)

    monkeypatch.setattr(Gcf, "_through", counted)
    g = harmonic_gcf()
    for f in (partial_matrix, partial_pq, partial_det):
        walks.clear()
        f(g, 2, 6)
        assert walks == [(2, 6)], f.__name__


def test_block_functions_agree_on_empty_ranges_and_minus_one():
    g = harmonic_gcf()
    for m in (-1, 0, 1, 4):
        assert partial_matrix(g, m, m - 1) == Mat2Z(1, 0, 0, 1)
        assert partial_pq(g, m, m - 1) == (0, 1)
        assert partial_det(g, m, m - 1) == 1
        with pytest.raises(BadRange):
            partial_matrix(g, m, m - 2)
    for n in range(-1, 5):
        M = partial_matrix(g, -1, n)
        assert (M.a, M.c) == partial_pq(g, -1, n - 1)
        assert (M.b, M.d) == partial_pq(g, -1, n)
        assert M.det() == partial_det(g, -1, n)


def test_partial_det_formula(rng):
    for _ in range(30):
        pairs = [(rng.choice([1, -1, 2, 3]), rng.randint(1, 5)) for _ in range(8)]
        g = Gcf(pairs)
        m, n = sorted(rng.sample(range(8), 2))
        assert partial_det(g, m, n) == partial_matrix(g, m, n).det()


def test_determinant_identity_against_digit_product(rng):
    for _ in range(20):
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(12)]
        g = Gcf(pairs)
        det = partial_matrix(g, -1, 11).det()
        prod = 1
        for a, _ in pairs:
            prod *= a
        assert abs(det) == prod


def test_digits_from_convergents_roundtrip(rng):
    g = Gcf.rcf([2, 2, 2])
    back = digits_from_convergents(convergents(g, 3)[2:])
    assert back.pairs(4) == [(1, 0), (1, 2), (1, 2), (1, 2)]
    h = harmonic_gcf()
    back = digits_from_convergents(convergents(h, 6)[2:])
    assert back.pairs(7) == h.pairs(7)
    for _ in range(25):
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(10)]
        g = Gcf(pairs)
        back = digits_from_convergents(convergents(g, 9)[2:])
        assert back.pairs(10) == g.pairs(10)


def test_fibonacci_pairs_recover_all_ones():
    g = digits_from_convergents([(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)])
    assert g.pairs(5) == [(1, 0), (1, 1), (1, 1), (1, 1), (1, 1)]


def test_validate_srcf():
    assert validate_srcf(Gcf.rcf([1] * 8)).kind == "RCF"
    srcf = Gcf([(1, 0), (1, 3), (-1, 4), (1, 2)])
    assert validate_srcf(srcf).kind == "SRCF"
    bad = Gcf([(1, 1), (3, 8), (-30, 87)])
    v = validate_srcf(bad)
    assert v.kind == "Neither" and "alpha" in v.reason
    # (iii) violation: alpha_{n+1} + beta_n < 1
    bad2 = Gcf([(1, 0), (1, 1), (-1, 2)])
    assert validate_srcf(bad2).kind == "Neither"


def test_validate_srcf_window_report():
    def gen():
        while True:
            yield (1, 1)

    v = validate_srcf(Gcf(gen), depth=50)
    assert v.kind == "RCF"
    assert "depth" in v.condition_iv


def test_srcf_convergents_reduced(rng):
    from math import gcd

    for _ in range(20):
        digits = [rng.randint(1, 6) for _ in range(12)]
        g = Gcf.rcf(digits)
        for c in convergents(g, 12)[2:]:
            assert gcd(abs(c.P), abs(c.Q)) == 1


def test_singularise_example():
    g = Gcf.rcf([2, 1, 3])
    s = singularise(g, [1])
    assert s.pairs(3) == [(1, 0), (1, 3), (-1, 4)]
    assert evaluate_finite(s) == evaluate_finite(g) == Fraction(4, 11)


def test_singularise_empty_positions():
    g = Gcf.rcf([2, 1, 3])
    assert singularise(g, []).pairs(4) == g.pairs(4)


def test_singularise_removes_requested_convergents(rng):
    for _ in range(40):
        digits = [rng.randint(1, 4) for _ in range(14)]
        g = Gcf.rcf(digits)
        cs = [tuple(c) for c in convergents(g, 14)[2:]]
        # eligible positions: beta_{n+1} = 1, i.e. digit a_{n+1} = 1
        eligible = [n for n in range(12) if g.pair(n + 1)[1] == 1]
        positions = []
        for p in eligible:
            if rng.random() < 0.6 and (not positions or p > positions[-1] + 1):
                positions.append(p)
        if not positions:
            continue
        s = singularise(g, positions)
        new = [tuple(c) for c in convergents(s, 14 - len(positions))[2:]]
        expected = [c for i, c in enumerate(cs) if i not in positions]
        assert new == expected


def test_singularise_chain_positions():
    g = Gcf.rcf([2, 1, 5, 1, 7, 3])
    s = singularise(g, [1, 3])
    assert evaluate_finite(s) == evaluate_finite(g)
    cs = [tuple(c) for c in convergents(g, 6)[2:]]
    new = [tuple(c) for c in convergents(s, 4)[2:]]
    assert new == [c for i, c in enumerate(cs) if i not in (1, 3)]


def test_singularise_errors():
    g = Gcf.rcf([2, 2, 3])
    with pytest.raises(NotSingularisable):
        singularise(g, [1]).pairs(3)
    with pytest.raises(AdjacentPositions):
        singularise(Gcf.rcf([1] * 8), [2, 3]).pairs(5)


def test_mediant_interleaving(rng):
    # odd-indexed convergents decrease, even increase, mediants in between
    for _ in range(60):
        digits = [rng.randint(1, 5) for _ in range(10)]
        g = Gcf.rcf(digits)
        cs = convergents(g, 10)[2:]
        x = cs[-1].as_fraction()
        p = [c.P for c in cs]
        q = [c.Q for c in cs]
        for n in range(0, 3):
            i = 2 * n + 1
            if i + 1 >= len(digits) - 1:
                break
            # descending chain above x
            chain = [Fraction(lam * p[i + 1] + p[i], lam * q[i + 1] + q[i])
                     for lam in range(digits[i + 1], -1, -1)]
            assert all(a < b for a, b in zip(chain, chain[1:]))
            assert x < chain[0]
            # ascending chain below x
            j = 2 * n
            chain = [Fraction(lam * p[j + 1] + p[j], lam * q[j + 1] + q[j])
                     for lam in range(0, digits[j + 1] + 1)]
            assert all(a < b for a, b in zip(chain, chain[1:]))
            assert chain[-1] < x


def test_classify_farey_index():
    assert classify_farey_index([2, 2, 2], 3) == (1, 1)
    assert classify_farey_index([3, 1, 2], 0) == (0, 0)
    assert classify_farey_index([1] * 6, 5) == (5, 0)
    assert classify_farey_index(rcf_digits(Fraction(1, 3)), 7) == (1, 4)
    # a finite list ends as INF would: the rest of n stays in lam
    assert classify_farey_index([2, 3], 10) == (2, 5)
    assert classify_farey_index([], 4) == (0, 4)
    with pytest.raises(IndexBeyondExpansion):
        classify_farey_index([2, 2], -1)


def test_classify_consistency_with_digit_sums(rng):
    for _ in range(30):
        x = random_surd(rng)
        digs = rcf_digits(x)
        pref = digs.prefix(12)
        n = rng.randint(0, sum(pref[:6]))
        j, lam = classify_farey_index(digs, n)
        assert sum(pref[:j]) + lam == n
        assert 0 <= lam < pref[j]


def test_json_roundtrip():
    g = Gcf([(1, 0), (-1, 2), (Fraction(3, 2), 5)])
    text = json.dumps(g.as_dict(g.length()), sort_keys=True)
    back = Gcf.from_json(text)
    assert back.pairs(3) == g.pairs(3)
    g2 = Gcf([(1, 4), (1, INF)])
    assert Gcf.from_json(json.dumps(g2.as_dict(2), sort_keys=True)).length() == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"alpha":[1,2,3],"beta":[1,2]}', "alpha has 3 digits but beta 2"),
        ('{"alpha":[1,2]}', "a GCF is"),
        ("[1,2]", "a GCF is"),
        ('{"alpha":"12","beta":[1,2]}', "a GCF is"),
        ('{"alpha":[1,null],"beta":[1,2]}', "digit None"),
        ('{"alpha":[1,2],"beta":[true,2]}', "digit True"),
        ('{"alpha":[1,2],"beta":[1,[2]]}', "digit \\[2\\]"),
    ],
)
def test_from_json_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        Gcf.from_json(text)


def test_zero_numerator_rejected_for_every_source():
    pairs = [(1, 2), (3, 1), (Fraction(0, 5), 4), (1, 5)]
    text = json.dumps({"alpha": [1, 3, 0, 1], "beta": [2, 1, 4, 5]})
    lazy = Gcf(lambda: iter(pairs))
    assert lazy.pair(1) == (3, 1)
    for read in (lambda: Gcf(pairs), lambda: lazy.pair(2), lambda: Gcf.from_json(text)):
        with pytest.raises(ValueError, match="partial numerator 0 at index 2$"):
            read()


def test_callable_source_is_called_once():
    calls = []

    def source():
        calls.append(1)
        return iter([(1, 2), (1, 3), (1, 4)])

    g = Gcf(source)
    assert g.length() is None and g.pair(0) == (1, 2)
    assert g.pairs(5) == [(1, 2), (1, 3), (1, 4)] and g.length() == 3
    assert not g.has_pair(3) and len(calls) == 1


def test_library_pairs_list_is_kept_as_the_buffer():
    """`Gcf._of` keeps a list as the whole expansion, not a copy of it;
    an iterator is read only as far as a caller asks."""
    pairs = [(1, 2), (1, 3)]
    g = Gcf._of(pairs)
    assert g.buf is pairs and g.length() == 2
    lazy = Gcf._of(iter(pairs))
    assert lazy.length() is None and lazy.pair(0) == (1, 2) and lazy.buf == [(1, 2)]


# -- buffered digit access, against per-index references ---------------------


def _normalised(v):
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f


def _random_digit(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-2, -1, 1, 2, 3, 5])
    if kind == 1:
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3]))
    return Fraction(2 * rng.choice([-1, 1, 3]), 2)  # integral Fraction


def _random_source(rng, kind):
    """(source, reference pairs, eager?, finite?) for one source kind; the
    reference is the pair list a Gcf must serve, cut before the first INF
    partial denominator, with integral digits as ints."""
    raw = [(_random_digit(rng), _random_digit(rng)) for _ in range(rng.randint(0, 9))]
    if kind.endswith("inf"):
        raw.insert(rng.randint(0, len(raw)), (1, INF))
    ref = []
    for a, b in raw:
        if b is INF:
            break
        ref.append((_normalised(a), _normalised(b)))
    if kind.startswith("list"):
        return raw, ref, True, True
    if kind == "endless":
        head = [(1, 1)] + raw

        def gen():
            yield from head
            k = 2
            while True:
                yield (-1, k)
                k += 1

        ref = [(_normalised(a), _normalised(b)) for a, b in head]
        ref += [(-1, k) for k in range(2, 60)]
        return gen, ref, False, False
    return (lambda: iter(raw)), ref, False, True


@pytest.mark.parametrize("kind", ["list", "list-inf", "lazy", "lazy-inf", "endless"])
def test_buffered_access_equals_per_index_reference(rng, kind):
    for _ in range(40):
        source, ref, eager, finite = _random_source(rng, kind)
        g = Gcf(source)
        L = len(ref) if finite else None
        reached = -1  # highest index any call has asked a lazy source for
        top = len(ref) + 3 if finite else 50
        for _ in range(25):
            op = rng.choice(["pair", "has_pair", "pairs", "length"])
            k = rng.randint(-3, top)
            if op == "pair":
                if k == -1 or 0 <= k < len(ref):
                    got = g.pair(k)
                    want = (1, 0) if k == -1 else ref[k]
                    assert got == want
                    assert [type(v) for v in got] == [type(v) for v in want]
                else:
                    with pytest.raises(IndexBeyondExpansion, match=f"at index {k}$"):
                        g.pair(k)
                reached = max(reached, k)
            elif op == "has_pair":
                assert g.has_pair(k) == (k == -1 or 0 <= k < len(ref))
                reached = max(reached, k)
            elif op == "pairs":
                assert g.pairs(k) == ref[:max(k, 0)]
                reached = max(reached, k - 1)
            else:
                known = finite and (eager or reached >= len(ref))
                assert g.length() == (L if known else None)


def test_num_keeps_ints_and_reduces_integral_fractions():
    from cfrow.gcf import _num

    for v in (0, 7, -3, 10**40):
        assert type(_num(v)) is int and _num(v) == v
    assert type(_num(Fraction(6, 3))) is int and _num(Fraction(6, 3)) == 2
    assert type(_num(Fraction(-4, 1))) is int and _num(Fraction(-4, 1)) == -4
    assert _num(Fraction(3, 4)) == Fraction(3, 4)
    assert type(_num(Fraction(3, 4))) is Fraction
    assert _num(INF) is INF
    assert Gcf([(Fraction(4, 2), 3)]).pair(0) == (2, 3)
    assert type(Gcf([(Fraction(4, 2), 3)]).pair(0)[0]) is int


def _random_srcf_pairs(rng, length, fractions):
    if fractions:
        digit = lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        return [(digit(), digit()) for _ in range(length)]
    pairs = [(1, rng.randint(0, 3))]
    for _ in range(1, length):
        a = rng.choice([1, -1]) if pairs[-1][1] >= 2 else 1
        pairs.append((a, rng.randint(1, 4)))
    return pairs


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("lazy", [False, True])
def test_partial_pq_and_det_equal_the_block_product(rng, fractions, lazy):
    for _ in range(12):
        pairs = _random_srcf_pairs(rng, rng.randint(1, 8), fractions)
        L = len(pairs)

        def block(k):
            if k == -1:
                return Mat2Z(0, 1, 1, 0)
            a, b = pairs[k]
            return Mat2Z(0, a, 1, b)

        for m in range(-1, L + 2):
            for n in range(m - 1, L + 2):
                # a fresh expansion per range, so each call starts its fill cold
                g = Gcf((lambda: iter(pairs)) if lazy else pairs)
                if n == m - 1:
                    assert partial_pq(g, m, n) == (0, 1)
                    assert partial_det(g, m, n) == 1
                    continue
                if n >= L:
                    first_missing = max(m, L)
                    for f in (partial_pq, partial_det):
                        with pytest.raises(IndexBeyondExpansion,
                                           match=f"at index {first_missing}$"):
                            f(Gcf((lambda: iter(pairs)) if lazy else pairs), m, n)
                    continue
                M = block(m)
                for k in range(m + 1, n + 1):
                    M = M @ block(k)
                assert partial_pq(g, m, n) == (M.b, M.d)
                assert partial_det(g, m, n) == M.det()
                assert partial_matrix(g, m, n) == M


def test_partial_pq_below_minus_one_raises():
    g = Gcf([(1, 2), (1, 3)])
    assert partial_pq(g, -2, -3) == (0, 1)
    for f in (partial_pq, partial_det):
        with pytest.raises(IndexBeyondExpansion, match="at index -2$"):
            f(g, -2, 1)


def _convergents_by_hand(pairs):
    """(P_k, Q_k), k = -2..n, by the recurrence on Fractions, each entry
    then normalised by `_num`."""
    P0, P1, Q0, Q1 = Fraction(0), Fraction(1), Fraction(1), Fraction(0)
    out = [(0, 1), (1, 0)]
    for a, b in pairs:
        P0, P1 = P1, b * P1 + a * P0
        Q0, Q1 = Q1, b * Q1 + a * Q0
        out.append((_num(P1), _num(Q1)))
    return out


def test_int_convergents_are_plain_pairs_of_ints(rng):
    # an int pair is built as the tuple it is, without _num: it must still
    # be a ConvergentPair of ints, with its fields and its fraction
    for _ in range(30):
        pairs = [(rng.choice([1, -1, 2, 5]), rng.randint(1, 9)) for _ in range(rng.randint(1, 25))]
        cs = convergents(Gcf(pairs), len(pairs) - 1)
        want = _convergents_by_hand(pairs)
        assert cs == want
        for c, (P, Q) in zip(cs, want):
            assert type(c) is ConvergentPair and type(c.P) is int and type(c.Q) is int
            assert (c.P, c.Q) == (P, Q) == tuple(c)
            assert c.as_fraction() == (INF if Q == 0 else Fraction(P, Q))


def test_fraction_convergents_are_normalised_as_before(rng):
    # Fraction digits give Fraction entries, except where one is integral,
    # which comes back as an int
    F = Fraction
    cs = convergents(Gcf([(1, F(1, 2)), (F(1, 2), 2), (2, F(3, 2))]), 2)[2:]
    assert cs == [(F(1, 2), 1), (F(3, 2), 2), (F(13, 4), 5)]
    assert [tuple(map(type, c)) for c in cs] == [(Fraction, int), (Fraction, int), (Fraction, int)]
    kinds = set()
    for _ in range(30):
        pairs = [(F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])), F(rng.randint(1, 6), rng.choice([1, 3])))
                 for _ in range(rng.randint(1, 12))]
        cs = convergents(Gcf(pairs), len(pairs) - 1)
        want = _convergents_by_hand(pairs)
        assert cs == want
        assert [tuple(map(type, c)) for c in cs] == [tuple(map(type, c)) for c in want]
        assert all(type(c) is ConvergentPair for c in cs)
        kinds.update(type(v) for c in cs for v in c)
    assert kinds == {int, Fraction}
