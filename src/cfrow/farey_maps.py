"""The slow and fast interval maps and their expansions.

The tent map on [0, 1] splits at 1/2 with branch matrices
A_0 = [[1,0],[1,1]] and A_1 = [[0,1],[1,1]]; its binary branch digits
eps_n factor through the partial quotients as
eps_1 eps_2 ... = 0^(a1-1) 1 0^(a2-1) 1 ....  The Gauss map is its jump
transformation past 1/2, and the one-parameter family

    x |-> 1/|x| - floor(1/|x| + 1 - alpha)      on [alpha-1, alpha)

interpolates the classical variants.  All evaluation is exact on
rational and quadratic-surd inputs.

The branch matrices are `exact.Mat2Z` tuples, and their product over
eps_1 ... eps_n (`a_matrix_forward`) is read in closed form from the
continuant of the partial quotients, `exact._continuant`, not multiplied
out branch by branch.
"""

from __future__ import annotations

from fractions import Fraction

from .digits import DigitStream
from .errors import OutOfDomain, ZeroInput
from .exact import INF, IDENTITY, Mat2Z, _continuant, reversed_product
from .gcf import Gcf, classify_farey_index
from .reals import RealRep, as_real, floor_of, rcf_digits

A0 = Mat2Z(1, 0, 1, 1)
A1 = Mat2Z(0, 1, 1, 1)


def a_matrix(eps: int) -> Mat2Z:
    return A1 if eps else A0


def _check_unit(x: RealRep):
    if x < 0 or x > 1:
        raise OutOfDomain(f"{x} outside [0, 1]")


def farey_step(x: RealRep):
    """One tent-map step: (eps, x') with eps = [x > 1/2]."""
    x = as_real(x)
    _check_unit(x)
    if x > Fraction(1, 2):
        return 1, (1 - x) / x
    return 0, x / (1 - x)


def gauss_step(x: RealRep):
    """(a, x') with a = floor(1/x) (INF at 0) and x' = 1/x - a."""
    x = as_real(x)
    _check_unit(x)
    if x == 0:
        return INF, Fraction(0)
    inv = 1 / x
    a = floor_of(inv)
    return a, inv - a


def alpha_step(alpha: RealRep, x: RealRep):
    """(sign, d, x') for the parameterised map on [alpha-1, alpha)."""
    if not (0 < alpha <= 1):
        raise OutOfDomain(f"alpha = {alpha} outside (0, 1]")
    x = as_real(x)
    if x < alpha - 1 or x >= alpha:
        raise OutOfDomain(f"{x} outside [alpha-1, alpha)")
    if x == 0:
        raise ZeroInput("orbit terminated at 0")
    sign = 1 if x > 0 else -1
    ax = x if sign > 0 else -x
    inv = 1 / ax
    d = floor_of(inv + 1 - alpha)
    return sign, d, inv - d


def alpha_orbit_digits(alpha: RealRep, x: RealRep, n: int):
    """First n digit pairs (sign, d) of the alpha-expansion of x."""
    out = []
    cur = x
    for _ in range(n):
        sign, d, cur = alpha_step(alpha, cur)
        out.append((sign, d))
    return out


def epsilon_stream(x) -> "DigitStream":
    """Branch digits eps_1 eps_2 ... as a digit stream of 0/1.

    Accepts a RealRep or a partial-quotient stream.  A rational input
    ends at 0, which is a fixed point of the 0-branch, so the stream
    continues with zeros forever (never INF).
    """
    digits = x if isinstance(x, DigitStream) else rcf_digits(x)

    def gen():
        s = digits
        while True:
            a = s.head()
            if a is INF:
                while True:
                    yield 0
            for _ in range(a - 1):
                yield 0
            yield 1
            s = s.tail()

    from .digits import LazyDigits

    return LazyDigits(gen())


# (2 eps_k - 1, 2 - eps_{k+1}) at index 2 eps_k + eps_{k+1}
_FAREY_PAIRS = ((-1, 2), (-1, 1), (1, 2), (1, 1))
# a run's inner pairs (eps_k = 0), then its last, by the next run's eps
_INNER, _BEFORE_END, _END_LONG_NEXT, _END_ONE_NEXT = _FAREY_PAIRS


def farey_expansion(x, n: int) -> Gcf:
    """SRCF generated by the tent-map branch digits, n+1 digit pairs.

    Digits: a0 = 1, b0 = 1 - eps_1, and (a_k, b_k) = (2 eps_k - 1,
    2 - eps_{k+1}) for k >= 1, the `_FAREY_PAIRS` of the branch digits
    `epsilon_stream` spells.  They are built a partial quotient at a time,
    as eps = 0^(a1-1) 1 0^(a2-1) 1 ... makes them: b0 is 0 iff a1 = 1; a
    run a >= 2 gives a - 2 pairs (-1, 2) and then (-1, 1); each run ends
    with (1, 1) when the next partial quotient is 1 and with (1, 2)
    otherwise; past the end of a rational x (INF), eps is 0 and every
    pair is (-1, 2).  The partial quotients are read in prefixes, each
    long enough for half the pairs still missing.
    """
    digits = x if isinstance(x, DigitStream) else rcf_digits(x)
    ds = digits.prefix(2 + n // 2)
    pairs = [(1, 0 if ds[0] == 1 else 1)]
    start = 0
    while True:
        for a, b in zip(ds[start:], ds[start + 1:]):  # a run, then the next quotient
            if a > 1:
                rest = n + 1 - len(pairs)
                if a is INF or a - 2 >= rest:  # the run's inner pairs fill the rest
                    pairs += [_INNER] * rest
                    return Gcf._of(pairs)
                pairs += [_INNER] * (a - 2)
                pairs.append(_BEFORE_END)
            pairs.append(_END_ONE_NEXT if b == 1 else _END_LONG_NEXT)
            if len(pairs) > n:
                del pairs[n + 1:]
                return Gcf._of(pairs)
        start = len(ds) - 1
        ds = digits.prefix(len(ds) + 1 + (n + 1 - len(pairs)) // 2)


def a_matrix_forward(x, n: int) -> Mat2Z:
    """A_[0,n] = A_eps1 ... A_epsn via the convergent/mediant closed form:
    with n = a1 + ... + aj + lam, 0 <= lam < a_{j+1}, it is the continuant
    of a1, ..., aj times A0^lam = ((1,0),(lam,1))."""
    digits = x if isinstance(x, DigitStream) else rcf_digits(x)
    if n == 0:
        return IDENTITY
    j, lam = classify_farey_index(digits, n)
    p0, p, q0, q = _continuant(digits.prefix(j))
    return Mat2Z(lam * p + p0, p, lam * q + q0, q)


def a_matrix_backward(x, n: int) -> Mat2Z:
    """A_[n,0] = A_epsn ... A_eps1, the `reversed_product` of A_[0,n]."""
    return Mat2Z._make(reversed_product(a_matrix_forward(x, n)))
