"""Contraction of generalised continued fractions.

Given a contractable expansion and a strictly increasing index sequence
(n_k), contraction produces a new expansion whose convergents are the
chosen subsequence of the original convergents, up to the scalar chain

    c_k = prod_{j=0}^{k-1} Q_[n_{j-1}+2, n_j],

so (P'_k, Q'_k) = c_k (P_{n_k}, Q_{n_k}) as exact integer pairs.
Contractability means Q_[m+1,n] != 0 for all 0 <= m <= n, which is
checked lazily exactly as deep as the requested output.

`contract` reads each source pair once.  With block j the product
M_j = B_[n_{j-1}+2, n_j] and pivot p = n_k + 1 between blocks k and
k + 1 (Seidel/Perron; Jones & Thron 1980, section 2.4),

    B_[n_{k-1}+2, n_{k+1}] = M_k B_p M_{k+1},

so a'_{k+1} = det(M_k) a_p Q(M_{k-1}) Q(M_{k+1}) and b'_{k+1} is row 2
of M_k B_p times column 2 of M_{k+1}, where Q(M) is M's bottom-right
entry.  Output pair k + 1 walks block k + 1 alone and carries M_k's
second row, det(M_k) and Q(M_{k-1}) on to the next pair.  A plan and
an expansion are both `digits._Memo`s, so its plan index and pivot pair
are read straight from their `buf`s while those hold them, and through
`_Memo.at` and `_Memo.has` past them; the block itself is walked by
`gcf._block` through `Gcf._through`, the one checked slice.  An int
result is yielded as it is, and only a Fraction one goes through `_num`.
"""

from __future__ import annotations

from .digits import _Memo
from .errors import NotContractable
from .exact import INF
from .gcf import Gcf, _block, _num, convergents, partial_pq


def _increasing(indices):
    """The plan's indices, checked strictly increasing from n_0 >= 0."""
    prev = -1
    for k, n in enumerate(indices):
        if n <= prev:
            raise ValueError(f"plan must be strictly increasing and >= 0: n_{k} = {n}")
        yield n
        prev = n


class ContractionPlan(_Memo):
    """Strictly increasing indices n_0 < n_1 < ... with n_0 >= 0.

    `source` is either a finite iterable of indices, read to its end at
    once, or a zero-argument callable returning an iterator of them,
    called once and read as far as a caller asks.  Either way the
    indices come through `_increasing` into the plan's own buffer (a
    plan is a `digits._Memo` of its indices), so `index(k)` reads each
    at most once; it honours the n_k = k convention for k < 0.
    """

    __slots__ = ()

    def __init__(self, source):
        super().__init__(_increasing(source()) if callable(source) else list(_increasing(source)))
        if self.src is None and not self.buf:
            raise ValueError("empty contraction plan")

    def index(self, k: int) -> int:
        if k < 0:
            return k
        n = self.at(k)
        if n is INF:
            raise IndexError(f"plan has only {len(self.buf)} indices")
        return n


def _q_or_raise(g: Gcf, m: int, n: int):
    q = partial_pq(g, m, n)[1]
    if q == 0:
        raise NotContractable(m, n)
    return q


def is_contractable(g: Gcf, depth: int) -> bool:
    """Check Q_[m+1,n] != 0 for all 0 <= m <= n <= depth.

    Uses Q_[m+1,n] = (Q_n P_{m-1} - P_n Q_{m-1}) / det B_[-1,m]; the
    verdict is depth-qualified (a tail violation is undetectable from
    any finite window).
    """
    last = depth
    while last >= 0 and not g.has_pair(last):
        last -= 1
    conv = convergents(g, last)  # (P_k, Q_k) at conv[k + 2]
    for m in range(0, last + 1):
        P_m1, Q_m1 = conv[m + 1]
        for P_n, Q_n in conv[m + 2:]:
            # numerator of Q_[m+1,n]; the determinant factor never vanishes
            if Q_n * P_m1 - P_n * Q_m1 == 0:
                return False
    return True


def contract(g: Gcf, cplan) -> Gcf:
    """Contracted continued fraction of g with respect to the plan.

    Digit formula, for k >= -1 and n_k := k for k < 0:

        a'_{k+1} = -det(B_[n_{k-1}+2, n_k+1]) Q_[n_{k-2}+2, n_{k-1}] Q_[n_k+2, n_{k+1}]
        b'_{k+1} =  Q_[n_{k-1}+2, n_{k+1}]

    computed in one pass from the blocks M_j = B_[n_{j-1}+2, n_j] (see
    the module docstring): each output pair walks block k + 1 once.
    The output is lazy, and a list plan or source reads the same as a
    lazy one: it ends where the plan ends or where its next index runs
    past g, and digits are as `_num` leaves them (an integral Fraction
    is an int).  Raises NotContractable naming the vanishing block if g
    is not contractable deep enough.
    """
    if not isinstance(cplan, ContractionPlan):
        cplan = ContractionPlan(cplan)

    def gen():
        # both buffers only grow, so an index they hold is read directly;
        # past them the plan and the expansion are read as far as asked
        plan, buf = cplan.buf, g.buf
        # what later pairs read of M_k and M_{k-1}; M_-1 and M_-2 are
        # empty blocks, the identity
        n_k = -1
        det_k, r0, r1 = 1, 0, 1  # det M_k and its second row
        q_km1 = 1                # Q(M_{k-1})
        k = -1
        while True:
            if k + 1 < len(plan):
                n_kp1 = plan[k + 1]
            else:
                n_kp1 = cplan.at(k + 1)
                if n_kp1 is INF:
                    return
            if n_kp1 >= len(buf) and not g.has(n_kp1):
                return
            p = n_k + 1
            a_p, b_p = buf[p]
            p0, p1, q0, q1 = _block(g, p + 1, n_kp1)
            # Q(M_{k-1}) passed this test as Q(M_{k+1}) two steps back;
            # the block [m+1, n], m >= 0, is nonzero when g is contractable
            if q1 == 0:
                raise NotContractable(p + 1, n_kp1)
            # row 2 of M_k B_p, then its product with column 2 of M_{k+1}
            c0, c1 = r1, a_p * r0 + b_p * r1
            a, b = det_k * a_p * q_km1 * q1, c0 * p1 + c1 * q1
            yield (a if type(a) is int else _num(a), b if type(b) is int else _num(b))
            q_km1, det_k, r0, r1 = r1, p0 * q1 - p1 * q0, q0, q1
            n_k = n_kp1
            k += 1

    return Gcf._of(gen())


def seidel_scalars(g: Gcf, cplan, k_max: int):
    """The scalar chain c_k, k = 0..k_max, with c_k = 1 for k < 1."""
    if not isinstance(cplan, ContractionPlan):
        cplan = ContractionPlan(cplan)
    out = []
    c = 1
    for k in range(k_max + 1):
        if k >= 1:
            j = k - 1
            c = c * _q_or_raise(g, cplan.index(j - 1) + 2, cplan.index(j))
        out.append(c)
    return out


def seidel_check(g: Gcf, cplan, k_max: int) -> bool:
    """Exact Seidel identity (P'_k, Q'_k) = c_k (P_{n_k}, Q_{n_k})."""
    if not isinstance(cplan, ContractionPlan):
        cplan = ContractionPlan(cplan)
    contracted = contract(g, cplan)
    n_top = cplan.index(k_max)
    orig = convergents(g, n_top)
    new = convergents(contracted, k_max)
    cs = seidel_scalars(g, cplan, k_max)
    for k in range(k_max + 1):
        Pn, Qn = orig[cplan.index(k) + 2]
        Pk, Qk = new[k + 2]
        if Pk != cs[k] * Pn or Qk != cs[k] * Qn:
            return False
    return True
