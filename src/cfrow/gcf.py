"""Generalised continued fractions.

A GCF is the formal expression [b0/a0; a1/b1, a2/b2, ...] with partial
numerators a_n != 0 and partial denominators b_n, together with the
implicit index -1 pair (1, 0).  Digits are exact (int or Fraction); a
partial denominator equal to INF truncates the expansion at the
preceding index.  Convergents P_n/Q_n follow

    P_{n+1} = b_{n+1} P_n + a_{n+1} P_{n-1},   (P_-2, P_-1) = (0, 1),
    Q_{n+1} = b_{n+1} Q_n + a_{n+1} Q_{n-1},   (Q_-2, Q_-1) = (1, 0),

and are not reduced automatically.

Pairs are read once: an expansion is a `digits._Memo` of its pairs,
and a buffered pair is served straight from its `buf`.
Pairs from outside the library (`Gcf(...)`, `Gcf.rcf`, `Gcf.from_json`,
`singularise`, `digits_from_convergents`) enter through the generator
`_pairs`, which normalises each digit, raises on a partial numerator 0
and truncates at INF.  Pairs the library forms itself (the Farey
expansion, a contraction, both CFE routes) enter by `Gcf._of`, which
skips that check; its callers keep `_pairs`' invariant: digits as `_num`
leaves them (int digits stay ints), a != 0 and no INF.  There is one
block loop, `_block`, which fills the buffer once and walks a slice of
it to the four entries of B_[m,n] = B_m ... B_n; `partial_pq`,
`partial_matrix` and `contraction.contract` read it, and `convergents`
runs the same recurrence over one slice from index 0.  Plain int digits
stay ints throughout, and a value that is already an int is kept
without a `_num` call: `convergents` builds an int pair as the tuple it
is, and `contract` reads its plan's and its source's buffers directly
while they hold the index it asks for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .digits import _Memo
from .errors import (
    AdjacentPositions,
    BadRange,
    IndexBeyondExpansion,
    NotSingularisable,
    SingularPrefix,
)
from .exact import INF, Mat2Z


def _num(v):
    if type(v) is int or v is INF:
        return v
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f


def encode_digit(v):
    """JSON form of a digit: "inf" for INF, a string for a Fraction,
    an int as itself; `Gcf.from_json` reads all three back."""
    if v is INF:
        return "inf"
    return str(v) if isinstance(v, Fraction) else v


def _decode_digit(v):
    """The digit of a JSON value `encode_digit` writes: an int (not a
    bool), "inf" or a fraction string; anything else raises ValueError."""
    if v == "inf":
        return INF
    if isinstance(v, str):
        return Fraction(v)
    if type(v) is not int:
        raise ValueError(f"digit {v!r} is not an int, a fraction string or \"inf\"")
    return v


def _pairs(source):
    """The pairs of `source`, digits normalised by `_num` (an int is kept
    as it is), up to the first partial denominator INF, which truncates
    the expansion at the index before it; a partial numerator 0 raises."""
    for k, (a, b) in enumerate(source):
        if type(a) is not int:
            a = _num(a)
        if type(b) is not int:
            b = _num(b)
        if a == 0:
            raise ValueError(f"partial numerator 0 at index {k}")
        if b is INF:
            return
        yield (a, b)


class Gcf(_Memo):
    """Digit-pair sequence (a_n, b_n), n >= 0, finite or lazily generated.

    `source` is either a finite iterable of pairs, read to its end at
    once, or a zero-argument callable returning an iterator of pairs,
    called once and read as far as a caller asks.  Either way the pairs
    come through `_pairs` into the expansion's own `_Memo` buffer.
    """

    __slots__ = ()

    def __init__(self, source):
        super().__init__(_pairs(source()) if callable(source) else list(_pairs(source)))

    @classmethod
    def _of(cls, pairs) -> "Gcf":
        """The expansion of pairs the library formed itself, which skip
        `_pairs`: a list (kept, not copied) is the whole expansion, an
        iterator is read as far as a caller asks.  Every pair must be one
        `_pairs` would pass unchanged: digits as `_num` leaves them,
        a != 0, b not INF."""
        g = cls.__new__(cls)
        _Memo.__init__(g, pairs)
        return g

    @staticmethod
    def rcf(partial_quotients, b0=0) -> "Gcf":
        """Regular continued fraction [b0; a1, a2, ...]."""
        pairs = [(1, b0)] + [(1, a) for a in partial_quotients]
        return Gcf(pairs)

    def _through(self, m: int, n: int) -> list:
        """The buffered pairs of indices max(m, 0)..n, filled once;
        raises IndexBeyondExpansion at the first index of [m, n] that
        `pair` would reject."""
        if m < -1:
            raise IndexBeyondExpansion(f"no digit pair at index {m}")
        buf = self.buf
        if n >= len(buf) and not self.has(n):
            raise IndexBeyondExpansion(f"no digit pair at index {max(m, len(buf))}")
        return buf[max(m, 0):n + 1]

    def pair(self, n: int):
        buf = self.buf
        if 0 <= n < len(buf):
            return buf[n]
        if n == -1:
            return (1, 0)
        if n < -1 or not self.has(n):
            raise IndexBeyondExpansion(f"no digit pair at index {n}")
        return buf[n]

    def has_pair(self, n: int) -> bool:
        return n == -1 or n >= 0 and self.has(n)

    def length(self):
        """Number of digit pairs once the source is read to its end, else
        None."""
        return len(self.buf) if self.src is None else None

    def pairs(self, n: int):
        """Pairs for indices 0..n-1 (at most; stops at truncation)."""
        if n <= 0:
            return []
        self.at(n - 1)
        return self.buf[:n]

    # -- serialization ----------------------------------------------------

    def as_dict(self, n: int) -> dict:
        """{"alpha": [...], "beta": [...]} of the first n pairs, each
        digit in its JSON form (`encode_digit`)."""
        ps = self.pairs(n)
        return {
            "alpha": [encode_digit(a) for a, _ in ps],
            "beta": [encode_digit(b) for _, b in ps],
        }

    @staticmethod
    def from_json(text: str) -> "Gcf":
        """The expansion of {"alpha": [...], "beta": [...]}, two digit
        lists of one length; anything else raises ValueError."""
        obj = json.loads(text)
        if not (isinstance(obj, dict) and isinstance(obj.get("alpha"), list)
                and isinstance(obj.get("beta"), list)):
            raise ValueError('a GCF is {"alpha": [...], "beta": [...]}')
        alpha, beta = obj["alpha"], obj["beta"]
        if len(alpha) != len(beta):
            raise ValueError(f"alpha has {len(alpha)} digits but beta {len(beta)}")
        return Gcf(list(zip(map(_decode_digit, alpha), map(_decode_digit, beta))))


class ConvergentPair(NamedTuple):
    P: object
    Q: object

    def as_fraction(self):
        if self.Q == 0:
            return INF
        return Fraction(self.P, self.Q)


def convergents(g: Gcf, n: int):
    """ConvergentPairs for k = -2..n."""
    out = [ConvergentPair(0, 1), ConvergentPair(1, 0)]
    if n < 0:
        return out
    if not g.has(n):
        # the source has ended: its first missing index is the buffer's length
        raise IndexBeyondExpansion(f"expansion ends before index {len(g.buf)}")
    P0, P1, Q0, Q1 = 0, 1, 1, 0
    pair = tuple.__new__
    for a, b in g.buf[:n + 1]:
        P0, P1 = P1, b * P1 + a * P0
        Q0, Q1 = Q1, b * Q1 + a * Q0
        if type(P1) is int and type(Q1) is int:  # what _num would leave
            out.append(pair(ConvergentPair, (P1, Q1)))
        else:
            out.append(ConvergentPair(_num(P1), _num(Q1)))
    return out


def convergent(g: Gcf, n: int) -> ConvergentPair:
    return convergents(g, n)[-1]


def _block(g: Gcf, m: int, n: int):
    """(p0, p1, q0, q1), the entries of B_[m,n] = ((p0, p1), (q0, q1)),
    for n >= m - 1; the empty range n = m - 1 is the identity.

    The one block loop: the columns of B_[m,n] are (P, Q) of the blocks
    [m, n-1] and [m, n], run over one buffer slice.  Entries are not
    normalised by `_num`; a range past the expansion raises
    IndexBeyondExpansion at its first missing index, and m < -1 at m.
    """
    if n < m - 1:
        raise BadRange(f"range [{m}, {n}] shorter than empty")
    if n == m - 1:
        return (1, 0, 0, 1)
    # for m = -1 the seed is B_-1 itself, the pair (1, 0) of index -1
    p0, p1, q0, q1 = (0, 1, 1, 0) if m == -1 else (1, 0, 0, 1)
    for a, b in g._through(m, n):
        p0, p1 = p1, b * p1 + a * p0
        q0, q1 = q1, b * q1 + a * q0
    return (p0, p1, q0, q1)


def partial_matrix(g: Gcf, m: int, n: int) -> Mat2Z:
    """B_m B_{m+1} ... B_n, on the ranges `partial_pq` takes; the empty
    range n = m - 1 is the identity."""
    return Mat2Z._make(map(_num, _block(g, m, n)))


def partial_pq(g: Gcf, m: int, n: int):
    """(P_[m,n], Q_[m,n]) as a total function on ranges.

    The empty range n = m - 1 returns (0, 1); this convention is load
    bearing for the contraction digit formulas.
    """
    _, p, _, q = _block(g, m, n)
    return (_num(p), _num(q))


def evaluate_finite(g: Gcf, cap: int = 1_000_000):
    """Value of a finite (or INF-truncated) expansion in Q u {inf}."""
    n = -1
    while g.has_pair(n + 1):
        n += 1
        if n > cap:
            raise IndexBeyondExpansion("expansion is not finite")
    return convergent(g, n).as_fraction()


def digits_from_convergents(ps) -> Gcf:
    """Recover digit pairs from convergents (P_k, Q_k), k = 0..n.

    Inverts the recurrence via (a_{k+1}, b_{k+1}) = B_[-1,k]^{-1} (P_{k+1}, Q_{k+1}).
    """
    pairs = []
    prev2, prev1 = (0, 1), (1, 0)  # (P_-2, Q_-2), (P_-1, Q_-1)
    for k, (P, Q) in enumerate(ps):
        # B_[-1,k-1] has columns (P_{k-2}, Q_{k-2}), (P_{k-1}, Q_{k-1})
        det = prev2[0] * prev1[1] - prev1[0] * prev2[1]
        if det == 0:
            raise SingularPrefix(f"singular prefix matrix before index {k}")
        a = Fraction(prev1[1] * P - prev1[0] * Q, det)
        b = Fraction(-prev2[1] * P + prev2[0] * Q, det)
        if a == 0:
            raise SingularPrefix(f"recovered zero partial numerator at index {k}")
        pairs.append((a, b))
        prev2, prev1 = prev1, (P, Q)
    return Gcf(pairs)


@dataclass(frozen=True)
class SrcfVerdict:
    kind: str           # "RCF" | "SRCF" | "Neither"
    reason: str = ""
    depth_checked: int = 0
    condition_iv: str = ""  # "", "holds", f"verified up to depth d"


def validate_srcf(g: Gcf, depth: int = 200) -> SrcfVerdict:
    """Classify a digit sequence as RCF / SRCF / Neither on a window.

    Checks a0 = 1, a_n = +-1, b_n a positive integer for n >= 1, and
    a_{n+1} + b_n >= 1.  The tail condition a_{n+1} + b_n >= 2
    infinitely often is only decidable on a window; for infinite input
    the verdict carries a depth-qualified report.
    """
    a0, _ = g.pair(0)
    if a0 != 1:
        return SrcfVerdict("Neither", f"alpha_0 = {a0} != 1", 0)
    finite = g.length()
    limit = finite if finite is not None else depth
    all_plus_one = True
    last_ge2 = -1
    n = 1
    while n < limit and g.has_pair(n):
        a, b = g.pair(n)
        if a not in (1, -1):
            return SrcfVerdict("Neither", f"|alpha_{n}| != 1 (got {a})", n)
        if a != 1:
            all_plus_one = False
        if not isinstance(b, int) or b <= 0:
            return SrcfVerdict("Neither", f"beta_{n} = {b} not a positive integer", n)
        if g.has_pair(n + 1):
            a_next = g.pair(n + 1)[0]
            if a_next + b < 1:
                return SrcfVerdict("Neither", f"alpha_{n+1} + beta_{n} < 1 at n = {n}", n)
            if a_next + b >= 2:
                last_ge2 = n
        n += 1
    if finite is not None:
        cond_iv = "holds"  # vacuous for finite expansions
    elif last_ge2 >= 0:
        cond_iv = f"verified up to depth {n}"
    else:
        return SrcfVerdict("Neither", "alpha_{n+1} + beta_n >= 2 never seen in window", n)
    kind = "RCF" if all_plus_one else "SRCF"
    return SrcfVerdict(kind, "", n, cond_iv)


def singularise(g: Gcf, positions) -> Gcf:
    """Singularise a SRCF at every index in `positions` simultaneously.

    At each requested n the pair rewrite removes the n-th convergent;
    it needs b_{n+1} = 1 and a_{n+2} = 1, and no two requested positions
    may be adjacent.  `positions` may be any (possibly infinite)
    collection supporting `in`, e.g. a set or a membership-view object.
    """
    pos = positions
    if isinstance(positions, (list, tuple)):
        pos = set(positions)
        for p in pos:
            if p + 1 in pos:
                raise AdjacentPositions(f"positions {p} and {p+1} both requested")

    def gen():
        # a singularisation at j leaves -a_{j+1} pending as the partial
        # numerator of the next pair, whose denominator gains 1
        j, neg = 0, None
        while True:
            if j in pos:
                if j + 1 in pos:
                    raise AdjacentPositions(f"positions {j} and {j+1} both requested")
                # a chained position reads its next pair directly, so an
                # expansion ending right after it raises IndexBeyondExpansion
                if neg is None and not g.has_pair(j + 2):
                    raise NotSingularisable(j, "expansion too short")
                a_j, b_j = g.pair(j)
                a_next, b_next = g.pair(j + 1)
                if b_next != 1 or not g.has_pair(j + 2) or g.pair(j + 2)[0] != 1:
                    raise NotSingularisable(
                        j, f"needs beta_{j+1} = 1 and alpha_{j+2} = 1"
                    )
                yield (a_j, b_j + a_next) if neg is None else (neg, b_j + a_next + 1)
                neg = -a_next
                j += 2
            else:
                if not g.has_pair(j):
                    return
                a_j, b_j = g.pair(j)
                yield (a_j, b_j) if neg is None else (neg, b_j + 1)
                neg = None
                j += 1

    return Gcf(gen)


def classify_farey_index(rcf_digits, n: int):
    """Split n as a_1 + ... + a_j + lam with 0 <= lam < a_{j+1}.

    `rcf_digits` is a partial-quotient stream or list (a_1, a_2, ...);
    INF entries absorb every remaining n.
    """
    if n < 0:
        raise IndexBeyondExpansion("negative index")
    j = 0
    rest = n
    it = iter(rcf_digits)
    while True:
        try:
            a = next(it)
        except StopIteration:
            a = INF
        if a is INF or rest < a:
            return (j, rest)
        rest -= a
        j += 1
