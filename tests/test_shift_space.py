import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cfrow.digits import ZERO_STREAM, from_digits
from cfrow.errors import FixedRay, NullSetPoint
from cfrow.exact import Mat2Z
from cfrow.farey_maps import alpha_step, gauss_step
from cfrow.gcf import Gcf, evaluate_finite
from cfrow.induced import InducedRecord, digit_maps, induced_step
from cfrow.natural_ext import OmegaPoint
from cfrow.regions import build_alpha_region, region_h1, region_v
from cfrow.reals import golden_fraction, parse_real
from cfrow.shift_space import (
    bilateral_digits,
    phi,
    phi_inverse,
    tau_orbit,
    tau_step,
)

from conftest import random_surd

S2 = parse_real("sqrt(2)-1")
G = golden_fraction()


def cylinder_contains(past, future, past_spec, future_spec) -> bool:
    """Do the bilateral digits extend the given finite digit words?"""
    if len(past_spec) > len(past) or len(future_spec) > len(future):
        return False
    return (
        list(past[: len(past_spec)]) == list(past_spec)
        and list(future[: len(future_spec)]) == list(future_spec)
    )


def top(x):
    return OmegaPoint.from_values(x, Fraction(1))


def test_phi_top_strip_branch():
    t = Fraction(2, 7)
    z = OmegaPoint.from_values(S2, 1 / (1 + t))
    w = phi(region_h1(), z)
    assert w.X == S2 and w.Y == t and w.u == 0


def test_phi_alpha_branch():
    R = build_alpha_region(Fraction(1, 2))
    w = phi(R, OmegaPoint.from_values(G, Fraction(2, 3)))
    assert w.X == G - 1 and w.Y == Fraction(1, 3) and w.u == 1


def test_phi_roundtrip(rng):
    h1 = region_h1()
    for _ in range(20):
        x = random_surd(rng)
        y = Fraction(rng.randint(1, 9), rng.randint(10, 18))
        y = y / 2 + Fraction(1, 2)  # inside the top strip
        z = OmegaPoint.from_values(x, y)
        w = phi(h1, z)
        z2 = phi_inverse(h1, w.X, w.Y)
        assert z2.x_val == x and z2.y_val == y


@pytest.mark.parametrize("region, u", [(build_alpha_region(Fraction(1, 4)), 1), (region_h1(), 0)])
def test_phi_inverse_round_trips_on_both_branches(region, u):
    """phi_inverse(region, X, Y) gives back z's values and types on the
    u = 1 branch (X < 0) and on the u = 0 branch (X > 0)."""
    z = OmegaPoint.from_values(parse_real("sqrt(3)-1"), 1)
    w = phi(region, z)
    assert w.u == u and (w.X < 0) == (u == 1)
    z2 = phi_inverse(region, w.X, w.Y)
    for got, want in ((z2.x_val, z.x_val), (z2.y_val, z.y_val)):
        assert type(got) is type(want) and got == want


def test_phi_inverse_null_ray():
    with pytest.raises(NullSetPoint):
        phi_inverse(region_h1(), Fraction(0), Fraction(1, 3))


def test_refuses_regions_without_unit_entries():
    with pytest.raises(ValueError):
        phi(region_v(2), top(S2))


def test_tau_is_fast_shift_on_top_strip(rng):
    h1 = region_h1()
    for _ in range(10):
        x = random_surd(rng)
        t = Fraction(rng.randint(0, 9), 10)
        z = OmegaPoint.from_values(x, 1 / (1 + t))
        w = phi(h1, z)
        w1 = tau_step(h1, w)
        a, gx = gauss_step(x)
        assert w1.X == gx
        assert w1.Y == 1 / (a + t)


def test_tau_alpha_first_coordinate(rng):
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 10)):
        R = build_alpha_region(alpha)
        for _ in range(5):
            x = random_surd(rng)
            orb = tau_orbit(R, top(x), 10)
            X = orb[0].X
            for k in range(10):
                _, _, X = alpha_step(alpha, X)
                assert orb[k + 1].X == X


def test_tau_conjugates_induced_map(rng):
    h1 = region_h1()
    for _ in range(10):
        x = random_surd(rng)
        z = OmegaPoint.from_values(x, Fraction(3, 4))
        w1 = tau_step(h1, phi(h1, z))
        z2 = induced_step(h1, z, 10**6).z_next
        w2 = phi(h1, z2)
        assert (w1.X, w1.Y) == (w2.X, w2.Y)


def test_fixed_ray():
    h1 = region_h1()
    w = phi(h1, OmegaPoint.from_values(S2, Fraction(1)))
    w.X = Fraction(0)
    with pytest.raises(FixedRay):
        tau_step(h1, w)
    # the ray is refused before the next record is asked for: from the
    # x = 0 line that walk would run to the cap
    on_x_zero = OmegaPoint.from_streams(ZERO_STREAM, from_digits([1]))
    w.rec = InducedRecord(1, Mat2Z(0, 1, 1, 1), on_x_zero)
    with pytest.raises(FixedRay):
        tau_step(h1, w)


def test_tau_step_checks_the_region_on_every_call():
    """`tau_step` refuses a region without unit bottom-left entries
    itself, before it walks: the check left the per-step shift, which
    `tau_orbit` runs after one check in the coordinate change."""
    w = phi(region_h1(), top(S2))
    v2 = region_v(2)
    with pytest.raises(ValueError, match="unit bottom-left entries"):
        tau_step(v2, w)
    with pytest.raises(ValueError, match="unit bottom-left entries"):
        tau_orbit(v2, top(S2), 3)


def test_bilateral_top_edge():
    past, future = bilateral_digits(region_h1(), top(S2), 5, 5)
    assert past == []
    assert future == [(1, 2)] * 6


def test_bilateral_shift_property(rng):
    h1 = region_h1()
    for _ in range(6):
        x = random_surd(rng)
        z = OmegaPoint.from_values(x, Fraction(3, 4))
        p0, f0 = bilateral_digits(h1, z, 3, 6)
        z1 = induced_step(h1, z, 10**6).z_next
        p1, f1 = bilateral_digits(h1, z1, 4, 5)
        assert f1 == f0[1:]
        assert p1[0] == f0[0]
        assert p1[1:] == p0[:3]


def test_bilateral_periodic_point():
    zp = phi_inverse(region_h1(), S2, S2)
    past, future = bilateral_digits(region_h1(), zp, 4, 4)
    assert past == [(1, 2)] * 4 and future == [(1, 2)] * 5


def test_cylinder_helper():
    past, future = [(1, 2)] * 3, [(1, 2)] * 4
    assert cylinder_contains(past, future, [(1, 2)], [(1, 2), (1, 2)])
    assert not cylinder_contains(past, future, [(1, 3)], [])


def test_tail_expansion_identity(rng):
    # X_n equals the value of the tail expansion [0/1; a_{n+1}/b_{n+1}, ...]
    h1 = region_h1()
    R = build_alpha_region(Fraction(1, 2))
    for region in (h1, R):
        for _ in range(5):
            x = random_surd(rng)
            z = top(x)
            orb = tau_orbit(region, z, 6)
            _, future = bilateral_digits(region, z, 0, 20)
            for n_idx in (0, 2, 5):
                tail_pairs = [(1, 0)] + list(future[n_idx : n_idx + 15])
                val = evaluate_finite(Gcf(tail_pairs))
                assert abs(float(val) - float(orb[n_idx].X)) < 1e-4


def test_density_invariance_monte_carlo():
    # pushforward under the exact fast map preserves rectangle masses
    rng = np.random.default_rng(99)
    n = 300_000
    u = rng.random(n)
    x = 2.0**u - 1.0
    v = rng.random(n)
    y = v / (1.0 + x * (1.0 - v))
    a = np.floor(1.0 / x)
    x1 = 1.0 / x - a
    y1 = 1.0 / (a + y)
    from cfrow.measure import gauss_rect_mass

    for rect in [(0.2, 0.5, 0.1, 0.4), (0.5, 0.9, 0.5, 0.9), (0.0, 0.3, 0.6, 1.0)]:
        x0, xx1, y0, yy1 = rect
        mass = gauss_rect_mass(*(Fraction(str(v)) for v in rect))
        p0 = ((x >= x0) & (x <= xx1) & (y >= y0) & (y <= yy1)).mean()
        p1 = ((x1 >= x0) & (x1 <= xx1) & (y1 >= y0) & (y1 <= yy1)).mean()
        sigma = math.sqrt(mass * (1 - mass) / n)
        assert abs(p0 - mass) < 4 * sigma
        assert abs(p1 - mass) < 4 * sigma


def test_alpha_region_shift_invariance_monte_carlo():
    # the closed-form shift over the alpha(1/2) region preserves the
    # empirical rectangle frequencies of region samples
    from cfrow.digits import Reader, digits_fraction, snapped_digits
    from cfrow.measure import _strip_sampler
    from cfrow.regions import build_alpha_region

    alpha = 0.5
    R = build_alpha_region(Fraction(1, 2))
    rng = random.Random(31)
    sample = _strip_sampler(Fraction(1, 2))
    X, Y = [], []
    target = 120_000
    while len(X) < target:
        xd, yd = (snapped_digits(t) for t in sample(rng))
        if R.contains_rational(Reader(xd), Reader(yd)):
            x, y = (float(digits_fraction(ds)) for ds in (xd, yd))
            if x < alpha:
                X.append(x)
                Y.append((1 - y) / y)
            else:
                X.append(x - 1)
                Y.append(1 - y)
    X = np.array(X)
    Y = np.array(Y)
    # digit pair read off the sign and size of X, then one shift step
    e = np.where(X > 0, 1.0, -1.0)
    d = np.floor(1.0 / np.abs(X) + 1 - alpha)
    X1 = 1.0 / np.abs(X) - d
    Y1 = 1.0 / (d + e * Y)
    n = len(X)
    for rect in [(-0.45, -0.1, 0.0, 0.6), (0.0, 0.4, 0.2, 1.0), (-0.3, 0.3, 0.0, 0.5)]:
        x0, x1r, y0, y1r = rect
        p0 = ((X >= x0) & (X <= x1r) & (Y >= y0) & (Y <= y1r)).mean()
        p1 = ((X1 >= x0) & (X1 <= x1r) & (Y1 >= y0) & (Y1 <= y1r)).mean()
        sigma = math.sqrt(max(p0 * (1 - p0), 1e-9) / n)
        assert abs(p0 - p1) < 3 * math.sqrt(2) * sigma + 1e-3


def test_digit_pair_helper(rng):
    # on a unit-s region d = 1, so the digit maps' pair is the shift digit
    h1 = region_h1()
    for _ in range(5):
        x = random_surd(rng)
        from cfrow.reals import rcf_digits

        assert digit_maps(h1, top(x), 100000)[1:] == (1, rcf_digits(x).head())


def test_tau_orbit_walks_once_per_step(rng, monkeypatch):
    import cfrow.induced as induced
    from cfrow.cfe import cfe_direct

    walks = []

    def counting_step(region, z, cap):
        walks.append(z)
        return induced_step(region, z, cap)

    def walks_of(run):
        monkeypatch.setattr(induced, "induced_step", counting_step)
        try:
            out = run()
        finally:
            monkeypatch.setattr(induced, "induced_step", induced_step)
        count = len(walks)
        walks.clear()
        return out, count

    n = 30
    regions = [region_h1()] + [build_alpha_region(a) for a in (
        Fraction(1, 2), Fraction(1, 4), Fraction(2, 5), Fraction(7, 10), S2, G)]
    for region in regions:
        for x, y in [(random_surd(rng), y) for _ in range(3)
                     for y in (Fraction(3, 4), Fraction(1), Fraction(2, 3))]:
            z = OmegaPoint.from_values(x, y)
            orb, count = walks_of(lambda: tau_orbit(region, z, n))
            assert count == n + 1
            # the records are kept on z: a second orbit walks nothing
            again, count = walks_of(lambda: tau_orbit(region, z, n))
            assert count == 0
            assert [(w.X, w.Y, w.rec) for w in again] == [(w.X, w.Y, w.rec) for w in orb]
            # nor does an orbit after cfe_direct, which walked the same records
            z2 = OmegaPoint.from_values(x, y)
            _, count = walks_of(lambda: cfe_direct(region, z2, n, 100000))
            assert count == n + 1
            after, count = walks_of(lambda: tau_orbit(region, z2, n))
            assert count == 0
            assert [(w.X, w.Y) for w in after] == [(w.X, w.Y) for w in orb]
            # the shift conjugates the induced map: tau^k(phi(z)) = phi(T_R^k(z))
            cur = z
            for w in orb:
                ref = phi(region, cur)
                assert (w.X, w.Y, w.u) == (ref.X, ref.Y, ref.u)
                assert w.z.xd.prefix(20) == cur.xd.prefix(20)
                assert w.rec.A == ref.rec.A
                cur = ref.rec.z_next
