"""The conjugated two-sided-shift system over an induced region.

For regions on which every induced matrix has unit bottom-left entry
(so the top-left entry is 0 or 1), the coordinate change

    (x, y) |-> (x, (1-y)/y)   when u = 0,
    (x, y) |-> (x-1, 1-y)     when u = 1,

carries the induced map to

    (X, Y) |-> (alpha/X - beta, 1/(beta + alpha Y)),

with (alpha, beta) the digit pair at the current point, and carries the
induced measure to density 1/(mu(R) (1+XY)^2).  The map shifts the
bilateral digit string of (X, Y) by one slot.  The unit-s assumption
makes every s- and d-factor equal to 1, so the digit pair at a region
point w is `induced.digit_pair(1, A_R(w), A_R(next step))`, which is

    alpha(w) = -det(A_R(w)),        beta(w) = r_R(w) + u_R(next step).

One step therefore costs the next induced record, which `tau_orbit`
reads off the orbit kept on its start point, and two integer Moebius
maps (`natural_ext._mobius`), which keep each coordinate in its exact
type: an irrational coordinate stays one Surd, built once per step,
and a rational one one Fraction.  The unit-s condition is checked
once per orbit, by the coordinate change, and on every `tau_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FixedRay, NullSetPoint
from .induced import (
    InducedRecord,
    Region,
    backward_induced_step,
    digit_pair,
    induced_orbit,
    induced_records,
    induced_step,
)
from .natural_ext import OmegaPoint, _mobius
from .reals import as_real


def _require_unit_s(region: Region):
    if not region.unit_s:
        raise ValueError(
            f"{region.name}: shift construction needs unit bottom-left entries"
        )


@dataclass(slots=True)
class ShiftPoint:
    """Image of a region point z under the coordinate change, with its
    provenance kept so the dynamics can be driven exactly: `rec` is the
    induced record of z itself (the walk from z to its next visit), so
    the next shift step starts from rec.z_next and reads one record
    more.  A shift point belongs to the region it was built for."""

    X: object
    Y: object
    z: OmegaPoint
    rec: InducedRecord

    @property
    def u(self) -> int:
        """Branch of the coordinate change at z: the top-left entry of its record."""
        return self.rec.u


def _change(region: Region, z: OmegaPoint, pull) -> ShiftPoint:
    """The coordinate change at z; `pull()` returns z's own record."""
    _require_unit_s(region)
    if z.x_val is None or z.y_val is None:
        raise ValueError("shift coordinates need exact point values")
    rec = pull()
    x, y = z.x_val, z.y_val
    if rec.u == 0:
        if y == 0:
            raise NullSetPoint("y = 0 has no shift image on the u = 0 branch")
        return ShiftPoint(x, (1 - y) / y, z, rec)
    return ShiftPoint(x - 1, 1 - y, z, rec)


def _shift(w: ShiftPoint, pull) -> ShiftPoint:
    """One shift step from w; `pull()` returns the record after w.rec,
    and is called only once w is known to be off the fixed ray.  The new
    coordinates X' = (-beta X + alpha)/X and Y' = 1/(alpha Y + beta) are
    one Moebius map each (`natural_ext._mobius`), so an irrational
    coordinate costs one Surd construction and a rational one one
    Fraction.  The caller has checked the region's unit s-entries."""
    if w.X == 0:
        raise FixedRay("X = 0 is fixed")
    rec0 = w.rec
    rec1 = pull()
    alpha, beta = digit_pair(1, rec0, rec1)
    X1 = _mobius((-beta, alpha, 1, 0), w.X)
    Y1 = _mobius((0, 1, alpha, beta), w.Y)
    return ShiftPoint(X1, Y1, rec0.z_next, rec1)


def phi(region: Region, z: OmegaPoint, cap: int = 100000) -> ShiftPoint:
    """Coordinate change; needs exact coordinate values on z."""
    return _change(region, z, lambda: induced_step(region, z, cap))


def phi_inverse(region: Region, X, Y) -> OmegaPoint:
    """Inverse coordinate change, off the X = 0 ray, exact for X and Y
    of any exact type (int, Fraction, Surd)."""
    _require_unit_s(region)
    X, Y = as_real(X), as_real(Y)
    if X == 0:
        raise NullSetPoint("X = 0 is outside the inverse's domain")
    if X > 0:
        x, y = X, 1 / (Y + 1)
    else:
        x, y = X + 1, 1 - Y
    return OmegaPoint.from_values(x, y)


def tau_step(region: Region, w: ShiftPoint, cap: int = 100000) -> ShiftPoint:
    """One shift step: exact on quadratic/rational coordinates.  One
    induced walk, from w's landing point; w's own walk is w.rec."""
    _require_unit_s(region)
    return _shift(w, lambda: induced_step(region, w.rec.z_next, cap))


def tau_orbit(region: Region, z: OmegaPoint, n: int, cap: int = 100000):
    """[(X_k, Y_k)] shift points for k = 0..n from the region point z,
    read lazily off z's induced orbit (see `induced.induced_orbit`).
    The region's unit s-entries are checked once, by the coordinate
    change."""
    pull = induced_orbit(region, z, cap).__next__
    w = _change(region, z, pull)
    out = [w]
    for _ in range(n):
        w = _shift(w, pull)
        out.append(w)
    return out


def bilateral_digits(region: Region, z: OmegaPoint, m: int, n: int, cap: int = 100000):
    """(past, future) digit pairs around z.

    future[k] = (alpha, beta) at the k-th forward induced image of z,
    k = 0..n; past[k] the same at the (k+1)-st backward image,
    k = 0..m-1.  Where the backward orbit certifiably never visits the
    region again (it meets the y = 0 line off it, or its y-state
    repeats), the past stops; an empty past encodes Y = 0.
    """
    _require_unit_s(region)
    recs = induced_records(region, z, n + 2, cap)
    # back[k] is the record of the step from z_{-(k+1)} into z_{-k}
    back = []
    cur = z
    for _ in range(m):
        step = backward_induced_step(region, cur, cap)
        if step is None:
            break
        rec, cur = step
        back.append(rec)
    seq = back[::-1] + recs
    pairs = [digit_pair(1, rec, nxt) for rec, nxt in zip(seq, seq[1:])]
    k = len(back)
    return pairs[:k][::-1], pairs[k:]

