from fractions import Fraction

import pytest

from cfrow.digits import DigitStream, from_digits
from cfrow.errors import OutOfDomain, ZeroInput
from cfrow.exact import IDENTITY, INF, Mat2Z
from cfrow.farey_maps import (
    _FAREY_PAIRS,
    A0,
    A1,
    a_matrix,
    a_matrix_backward,
    a_matrix_forward,
    alpha_orbit_digits,
    alpha_step,
    epsilon_stream,
    farey_expansion,
    farey_step,
    gauss_step,
)
from cfrow.gcf import convergents, validate_srcf
from cfrow.reals import as_real, floor_of, golden_fraction, parse_real, rcf_digits

from conftest import assert_as_checked, random_stream_digits, random_surd, transpose

G = golden_fraction()
S2 = parse_real("sqrt(2)-1")


def a_matrix_forward_bruteforce(x, n: int) -> Mat2Z:
    """A_[0,n] as the literal product of the branch matrices A_eps1 ... A_epsn."""
    out = IDENTITY
    for e in epsilon_stream(x).prefix(n):
        out = out @ a_matrix(e)
    return out


def test_farey_step_examples():
    eps, x1 = farey_step(G)
    assert eps == 1 and x1 == G
    assert farey_step(Fraction(0)) == (0, 0)
    eps, x1 = farey_step(S2)
    assert eps == 0
    assert rcf_digits(x1).prefix(4) == [1, 2, 2, 2]
    with pytest.raises(OutOfDomain):
        farey_step(Fraction(3, 2))


def test_gauss_step_examples():
    a, x1 = gauss_step(S2)
    assert a == 2 and x1 == S2
    a, x1 = gauss_step(Fraction(0))
    assert a is INF and x1 == 0
    assert gauss_step(Fraction(2, 5)) == (2, Fraction(1, 2))


def test_gauss_is_jump_transformation(rng):
    for _ in range(20):
        x = random_surd(rng)
        a, gx = gauss_step(x)
        cur = x
        for j in range(a - 1):
            assert not cur > Fraction(1, 2)  # stays in the low branch
            _, cur = farey_step(cur)
        eps, cur = farey_step(cur)
        assert eps == 1
        assert cur == gx
        assert floor_of(1 / x) == a  # the jump's length


def test_alpha_step_examples():
    sign, d, x1 = alpha_step(Fraction(1, 2), G - 1)
    assert (sign, d) == (-1, 3) and x1 == G - 1
    sign, d, x1 = alpha_step(Fraction(1, 2), Fraction(2, 5))
    assert (sign, d, x1) == (1, 3, Fraction(-1, 2))
    with pytest.raises(ZeroInput):
        alpha_step(Fraction(1, 2), Fraction(0))
    with pytest.raises(OutOfDomain):
        alpha_step(Fraction(1, 2), Fraction(3, 5))
    with pytest.raises(OutOfDomain):
        alpha_step(Fraction(0), Fraction(1, 3))


def test_alpha_one_is_gauss(rng):
    for _ in range(25):
        x = random_surd(rng)
        sign, d, x1 = alpha_step(Fraction(1), x)
        a, gx = gauss_step(x)
        assert (sign, d, x1) == (1, a, gx)


def test_alpha_orbit_stays_in_domain(rng):
    for alpha in (Fraction(1, 4), Fraction(9, 20), Fraction(7, 10)):
        for _ in range(10):
            x = random_surd(rng)
            x0 = x - (x + 1 - alpha).floor()
            cur = x0
            for _ in range(15):
                _, _, cur = alpha_step(alpha, cur)
                assert alpha - 1 <= cur < alpha


def test_epsilon_factorisation(rng):
    for _ in range(30):
        x = random_surd(rng)
        digits = rcf_digits(x).prefix(10)
        eps = epsilon_stream(x).prefix(sum(digits[:4]))
        expected = []
        for a in digits:
            expected.extend([0] * (a - 1) + [1])
            if len(expected) >= len(eps):
                break
        assert eps == expected[: len(eps)]


def test_epsilon_factorisation_large_corpus(rng):
    # 10^3 random quadratic irrationals, branch digits to depth 200
    for _ in range(1000):
        x = random_surd(rng)
        digits = rcf_digits(x)
        eps = epsilon_stream(digits).prefix(200)
        expected = []
        s = digits
        while len(expected) < 200:
            a = s.head()
            expected.extend([0] * (a - 1) + [1])
            s = s.tail()
        assert eps == expected[:200]


def spelled_epsilons(x, n: int) -> list:
    """eps_1 ... eps_n spelled out from the partial quotients as
    0^(a1-1) 1 0^(a2-1) 1 ..., with zeros past the end of a rational;
    a run is cut at n, so a huge partial quotient is not written out."""
    out = []
    for a in (x if isinstance(x, DigitStream) else rcf_digits(x)):
        if a is INF or len(out) >= n:
            break
        out += [0] * min(a - 1, n - len(out)) + [1]
    return (out + [0] * n)[:n]


def test_epsilon_prefix_equals_stream_prefix(rng):
    # the stream's prefix is the literal spelling 0^(a-1) 1 of the partial
    # quotients: rationals (which end in zeros), surds, and streams: cons
    # cells (finite, one with a huge digit) and memoised views over generators
    xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(355, 1130), Fraction(1, 10**6)]
    xs += [Fraction(rng.randrange(0, 10**k + 1), 10**k) for k in range(1, 20)]
    xs += [G, S2] + [random_surd(rng) for _ in range(30)]
    xs += [from_digits([3, 1, 10**9, 2]), from_digits([1] * 50)]
    xs += [from_digits([rng.randint(1, 9) for _ in range(rng.randint(0, 60))]) for _ in range(30)]
    xs += [rcf_digits(random_surd(rng)) for _ in range(10)]
    for x in xs:
        for n in (0, 1, 2, 5, 17, 64, 211):
            assert epsilon_stream(x).prefix(n) == spelled_epsilons(x, n), (x, n)


def test_epsilon_matches_dynamics(rng):
    for _ in range(10):
        x = random_surd(rng)
        eps = epsilon_stream(x).prefix(40)
        cur = x
        got = []
        for _ in range(40):
            e, cur = farey_step(cur)
            got.append(e)
        assert got == eps


def test_farey_expansion_examples():
    assert farey_expansion(G, 5).pairs(6) == [(1, 0)] + [(1, 1)] * 5
    fe = farey_expansion(S2, 6)
    assert fe.pairs(7) == [(1, 1), (-1, 1), (1, 2), (-1, 1), (1, 2), (-1, 1), (1, 2)]
    assert validate_srcf(fe).kind == "SRCF"
    assert farey_expansion(Fraction(0), 3).pairs(4) == [(1, 1), (-1, 2), (-1, 2), (-1, 2)]


def test_farey_expansion_pairs_are_the_checked_branch_digit_pairs(rng):
    # the pairs come from a table and skip the checking constructor: they
    # must be the branch-digit formula's, plain ints it leaves unchanged
    xs = [random_surd(rng) for _ in range(6)]
    xs += [from_digits(random_stream_digits(rng, 400)) for _ in range(6)]
    xs += [G, S2, Fraction(0), Fraction(2, 7)]
    for x in xs:
        for n in (0, 1, 2, 7, 60, 300):
            fe = farey_expansion(x, n)
            assert fe.length() == n + 1
            assert_as_checked(fe, n + 1)
            eps = epsilon_stream(x).prefix(n + 1)
            assert fe.pairs(n + 1) == [(1, 1 - eps[0])] + [
                (2 * e - 1, 2 - f) for e, f in zip(eps, eps[1:])]


def _farey_pairs_by_table(x, n):
    """Pairs 0..n of the Farey expansion from the branch digits, looked
    up in `_FAREY_PAIRS`: the oracle of the run-by-run construction."""
    eps = epsilon_stream(x).prefix(n + 1)
    return [(1, 1 - eps[0])] + [_FAREY_PAIRS[2 * e + f] for e, f in zip(eps, eps[1:])]


def test_farey_expansion_built_run_by_run_equals_the_branch_digit_table(rng):
    # the runs are built by list repetition; every n is checked, so each
    # run's last index, and n on either side of it, is among them, up to
    # well past the last partial quotient a stream or a rational has
    streams = []
    while len(streams) < 12:  # Gauss-Kuzmin digits, half with a1 = 1
        ds = random_stream_digits(rng, 40)
        if (ds[0] == 1) == (len(streams) % 2 == 0):
            streams.append(ds)
    streams += [[32] * 3 + [1] * 4, [1, 32, 1, 2]]
    cases = [(from_digits(ds), sum(ds) + 40) for ds in streams]
    surds = [parse_real(s) for s in ("sqrt(7)-2", "sqrt(2)-1", "g", "sqrt(19)-4")]
    cases += [(x, 250) for x in surds + [random_surd(rng) for _ in range(4)]]
    cases += [(Fraction(v), 40) for v in ("0", "1", "1/2", "3/7")]
    for x, top in cases:
        for n in range(top + 1):
            fe = farey_expansion(x, n)
            assert fe.length() == n + 1
            assert fe.pairs(n + 1) == _farey_pairs_by_table(x, n), (x, n)


def test_farey_expansion_converges_to_x(rng):
    # |x - P_n/Q_n| <= 1/(Q_n q_j) <= 1/Q_n for the slow expansion
    for _ in range(15):
        x = random_surd(rng)
        fe = farey_expansion(x, 40)
        c = convergents(fe, 40)[-1]
        assert abs(Fraction(float(x)).limit_denominator(10**12) - c.as_fraction()) <= Fraction(1, c.Q) + Fraction(1, 10**9)


def test_a_matrix_forward_examples():
    assert a_matrix_forward(S2, 0) == Mat2Z(1, 0, 0, 1)
    m = a_matrix_forward(S2, 3)
    assert (m.a, m.c) == (1, 3)
    m = a_matrix_forward(S2, 4)
    assert (m.a, m.c) == (1, 2)


def test_a_matrix_forward_matches_bruteforce(rng):
    for _ in range(20):
        x = random_surd(rng)
        for n in (0, 1, 2, 5, 9, 17):
            assert a_matrix_forward(x, n) == a_matrix_forward_bruteforce(x, n)
    # rational input, past termination
    for n in (0, 3, 8):
        assert a_matrix_forward(Fraction(2, 5), n) == a_matrix_forward_bruteforce(
            Fraction(2, 5), n
        )


def test_a_matrix_backward():
    assert a_matrix_backward(S2, 0) == Mat2Z(1, 0, 0, 1)
    assert a_matrix_backward(S2, 2) == A1 @ A0


def test_conjugation_identity(rng):
    for _ in range(12):
        x = random_surd(rng)
        for n in (1, 2, 5, 12):
            f = a_matrix_forward(x, n)
            b = a_matrix_backward(x, n)
            assert A1 @ transpose(f) == b @ A1


def test_farey_convergents_examples():
    """The left columns of A_[0,k] run through every convergent and
    every mediant in order of appearance."""
    fs = [a_matrix_forward(S2, k) for k in range(7)]
    assert [(f.a, f.c) for f in fs] == [(1, 0), (1, 1), (0, 1), (1, 3), (1, 2), (3, 7), (2, 5)]
    fs = [a_matrix_forward(G, k) for k in range(6)]
    assert [(f.a, f.c) for f in fs] == [(1, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]


def test_farey_convergents_are_expansion_convergents(rng):
    for _ in range(15):
        x = random_surd(rng)
        fc = [(f.a, f.c) for f in (a_matrix_forward(x, k) for k in range(13))]
        fe = farey_expansion(x, 12)
        cv = convergents(fe, 11)
        assert [(c.P, c.Q) for c in cv[1:]] == fc


def test_farey_convergents_interleave(rng):
    # consecutive values straddle x with shrinking gaps inside each run
    for _ in range(10):
        x = random_surd(rng)
        fc = [(f.a, f.c) for f in (a_matrix_forward(x, k) for k in range(1, 21))]
        vals = [Fraction(u, s) for u, s in fc]
        above = [v for v in vals if v > x]
        below = [v for v in vals if v < x]
        assert above == sorted(above, reverse=True)
        assert below == sorted(below)


def lehner_digits(y, n: int):
    """The first n pairs (b, e) of the Lehner expansion y = b + e/y' of
    y in [1, 2], by the Lehner map: (2, -1) and y' = 1/(2 - y) for
    y <= 3/2, else (1, 1) and y' = 1/(y - 1)."""
    out = []
    for _ in range(n):
        if y <= Fraction(3, 2):
            out.append((2, -1))
            y = as_real(1 / (2 - y))
        else:
            out.append((1, 1))
            y = as_real(1 / (y - 1))
    return out


def test_lehner_pairs(rng):
    """The Lehner pairs of x + 1 are x's Farey pairs (a_k, b_k)
    re-indexed: pair k is (b_k, a_{k+1}), and (b_0 + 1, a_1) at k = 0.
    `cfrow expand --kind lehner` prints the Farey pairs by this relation."""
    assert lehner_digits(G + 1, 4) == [(1, 1)] * 4
    assert lehner_digits(Fraction(1), 3) == [(2, -1)] * 3
    assert lehner_digits(S2 + 1, 4) == [(2, -1), (1, 1), (2, -1), (1, 1)]
    n = 12
    xs = [G, S2, Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)]
    xs += [random_surd(rng) for _ in range(30)]
    for _ in range(30):
        q = rng.randint(2, 400)
        xs.append(Fraction(rng.randint(1, q - 1), q))
    for x in xs:
        (a0, b0), *rest = farey_expansion(x, n + 1).pairs(n + 2)
        a = [a0] + [ak for ak, _ in rest]
        b = [b0] + [bk for _, bk in rest]
        want = [(b[0] + 1, a[1])] + [(b[k], a[k + 1]) for k in range(1, n + 1)]
        assert lehner_digits(x + 1, n + 1) == want, x
