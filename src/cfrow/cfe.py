"""Contracted Farey expansions, by two independent routes.

Route 1 (the defining construction): contract the Farey expansion of x
with respect to the plan n_k = N_{k+1} - 1 read off the induced orbit.
Its pairs 0..n read n + 1 records, as route 2 does, and the Farey pairs
up to index n_n, the deepest index the contraction reads.

Route 2 (the dynamical construction): read the digits straight from
consecutive induced-step matrices,

    (a_0, b_0)     = (s(z_0), u(z_0)),
    (a_1, b_1)     = (alpha_R(z_0)/d_R(z_0), beta_R(z_0)),
    (a_{k+1}, b_{k+1}) = (alpha_R(z_k), beta_R(z_k)),   k > 0.

alpha_R(z_0) carries d_R(z_0) as a factor, so d_0 cancels exactly: pair
k + 1 is `induced.digit_pair(s_{k-1}, A_k, A_{k+1})` with s_{-1} = 1,
and no backward search for d_0 is made.

The two must agree digit for digit; route 1 is kept as the oracle and
route 2 is the production path.  Both read one walk: their records come
from the induced orbit kept on z (`induced.induced_orbit`), so whichever
runs second walks only past the records the first one found.  They stay
independent in how digits are formed from those records: the
contraction plan over the Farey expansion of x in route 1, the digit
pairs of consecutive matrices in route 2.  The convergents of either satisfy
(P_k, Q_k) = c_k (u_{k+1}, s_{k+1}) with c_k the product of the first k
s-entries.

Both routes form their pairs from records and digits the library made,
so neither sends them back through the checks on outside input
(`gcf._pairs`): route 1 keeps the Farey expansion's and the
contraction's pairs, route 2 the pairs of `digit_pair`, and each enters
its expansion by `Gcf._of` (int digits, a != 0, no INF).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contraction import ContractionPlan, contract
from .errors import MismatchAt, OutOfDomain
from .farey_maps import farey_expansion
from .gcf import Gcf, convergents
from .induced import Region, digit_pair, induced_records
from .natural_ext import OmegaPoint
from .reals import is_rational


def _require_irrational(z: OmegaPoint):
    if z.x_val is not None and is_rational(z.x_val):
        raise OutOfDomain("contracted expansions need an irrational first coordinate")


def cfe_by_contraction(region: Region, z: OmegaPoint, n: int, cap: int) -> Gcf:
    """Route 1: formal contraction of the Farey expansion of x."""
    _require_irrational(z)
    # pair k reads plan indices up to n_k and Farey pairs up to index n_k,
    # so pairs 0..n need n + 1 records and Farey pairs 0..n_n
    plan = []
    total = 0
    for r in induced_records(region, z, n + 1, cap):
        total += r.N
        plan.append(total - 1)  # n_k = N_{k+1} - 1
    farey = farey_expansion(z.xd, plan[-1])
    contracted = contract(farey, ContractionPlan(plan))
    return Gcf._of(contracted.pairs(n + 1))


def cfe_direct(region: Region, z: OmegaPoint, n: int, cap: int) -> "CfeResult":
    """Route 2: digits from induced-step matrices; returns digits,
    convergents and the witnessing records."""
    _require_irrational(z)
    recs = induced_records(region, z, n + 1, cap)
    pairs = [(recs[0].s, recs[0].u)]
    s_prev = 1
    for rec, nxt in zip(recs, recs[1:]):
        pairs.append(digit_pair(s_prev, rec, nxt))
        s_prev = rec.s
    return CfeResult(digits=Gcf._of(pairs), records=recs)


@dataclass
class CfeResult:
    digits: Gcf
    records: list
    _convergents: list = field(default=None, init=False, compare=False, repr=False)

    def convergents(self):
        """(P_k, Q_k) for k = 0..(digit count - 1), computed on the first
        call and kept: later calls return the same list."""
        if self._convergents is None:
            self._convergents = convergents(self.digits, len(self.records) - 1)[2:]
        return self._convergents

    def scalars(self):
        """c_k = prod_{j<k} s(z_j), k = 0..(digit count - 1)."""
        out = []
        c = 1
        for k in range(len(self.records)):
            out.append(c)
            c *= self.records[k].s
        return out


def cfe_convergents_report(res: CfeResult):
    """Verify (P_k, Q_k) = c_k (u_{k+1}, s_{k+1}) exactly, which gives
    the reduced-fraction equality P_k/Q_k = u_{k+1}/s_{k+1} too; raises
    MismatchAt at the first index where it fails."""
    # A^R_[0,k] = A_0 ... A_k as four ints ((a, b), (c, d)), whose first
    # column (a, c) is (u_{k+1}, s_{k+1})
    a, b, c, d = 1, 0, 0, 1
    checked = 0
    for (P, Q), c_k, rec in zip(res.convergents(), res.scalars(), res.records):
        u, t, s, r = rec.u, rec.t, rec.s, rec.r
        a, b, c, d = a * u + b * s, a * t + b * r, c * u + d * s, c * t + d * r
        if P != c_k * a or Q != c_k * c:
            raise MismatchAt(checked, f"({P},{Q}) != {c_k}*({a},{c})")
        checked += 1
    return {"checked": checked, "ok": True}
