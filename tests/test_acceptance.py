"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with -s to see them).  Every tolerance is
pinned here; exact means exact."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from cfrow.cfe import cfe_by_contraction, cfe_direct
from cfrow.contraction import ContractionPlan, contract, seidel_scalars
from cfrow.farey_maps import (
    A1,
    a_matrix_backward,
    a_matrix_forward,
    alpha_step,
    gauss_step,
)
from cfrow.gcf import Gcf, convergents
from cfrow.induced import induced_records
from cfrow.measure import (
    empirical_denominator_growth,
    entropy_of,
    gauss_rect_mass,
    log_of_big,
    measure_of,
)
from cfrow.natural_ext import OmegaPoint
from cfrow.regions import (
    build_alpha_region,
    build_s_expansion_region,
    region_cell,
    region_h,
    region_h1,
    region_omega,
    region_v,
)
from cfrow.reals import floor_of, golden_fraction, parse_real, rcf_digits
from cfrow.shift_space import phi, tau_orbit, tau_step

from conftest import random_periodic_surd, random_surd, transpose
from test_regions import GOOD_AREAS, s_expansion_routes

G = golden_fraction()
S2 = parse_real("sqrt(2)-1")
CAP = 10**6
LOG_GOLDEN_PLUS_1 = math.log((1 + math.sqrt(5)) / 2)


def top(x):
    return OmegaPoint.from_values(x, Fraction(1))


def report(num, desc, t0, bound=None):
    dt = time.time() - t0
    line = f"ACCEPTANCE {num}: PASS ({dt:.1f}s) - {desc}"
    if bound is not None:
        assert dt < bound, f"criterion {num} exceeded its {bound}s budget: {dt:.1f}s"
    print(line)


def harmonic_gcf() -> Gcf:
    def gen():
        yield (1, 1)
        n = 1
        while True:
            yield (n, n + 1)
            n += 1

    return Gcf(gen)


def test_criterion_1_worked_example_reproduction():
    t0 = time.time()
    g = harmonic_gcf()
    plan = ContractionPlan(lambda: iter(range(0, 10**9, 2)))
    cc = contract(g, plan)
    assert cc.pairs(8) == [
        (1, 1), (3, 8), (-30, 87), (-420, 275), (-1890, 623),
        (-5544, 1179), (-12870, 1991), (-25740, 3107),
    ]
    cs = seidel_scalars(g, plan, 5)
    assert cs == [1, 1, 3, 15, 105, 945]
    orig = convergents(g, 10)[2:]
    new = convergents(cc, 5)[2:]
    for k in range(6):
        assert tuple(new[k]) == (cs[k] * orig[2 * k].P, cs[k] * orig[2 * k].Q)
    report(1, "worked contraction example, digits/scalars/pairs exact", t0, bound=1.0)


def test_criterion_2_seidel_exact_oracle():
    t0 = time.time()
    rng = random.Random(1001)
    for trial in range(1000):
        length = rng.randint(8, 60)
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(length)]
        g = Gcf(pairs)
        k_count = rng.randint(1, min(41, length - 1))
        idxs = sorted(rng.sample(range(length - 1), k_count))
        plan = ContractionPlan(idxs)
        cc = contract(g, plan)
        orig = convergents(g, idxs[-1])[2:]
        new = convergents(cc, k_count - 1)[2:]
        cs = seidel_scalars(g, plan, k_count - 1)
        for k in range(k_count):
            assert new[k].P == cs[k] * orig[idxs[k]].P
            assert new[k].Q == cs[k] * orig[idxs[k]].Q
    report(2, "Seidel identity on 1000 random plans, integer-exact", t0, bound=60.0)


def test_criterion_3_top_strip_recovers_regular_expansions():
    t0 = time.time()
    rng = random.Random(1002)
    h1 = region_h1()
    for trial in range(500):
        x = random_surd(rng)
        res = cfe_direct(h1, top(x), 50, CAP)
        expected = [(1, 0)] + [(1, a) for a in rcf_digits(x).prefix(50)]
        assert res.digits.pairs(51) == expected
    report(3, "500 quadratic points: region-induced expansion == regular, depth 50", t0, bound=60.0)


def test_criterion_4_dual_route_equality():
    t0 = time.time()
    rng = random.Random(1003)
    regions = [
        region_omega(),
        region_h1(),
        region_h(2),
        region_v(2),
        region_cell(2, 0),
        build_alpha_region(Fraction(1, 2)),
        build_alpha_region(Fraction(1, 4)),
        build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))]),
    ]
    n_digits = 30
    for trial in range(200):
        x = random_periodic_surd(rng, length=6, max_digit=4, require=[1, 2])
        z = top(x)
        for R in regions:
            d1 = cfe_by_contraction(R, z, n_digits - 1, CAP).pairs(n_digits)
            d2 = cfe_direct(R, z, n_digits - 1, CAP).digits.pairs(n_digits)
            assert d1 == d2, (R.name, trial)
    report(4, "200 points x 8 regions x 30 digits: both constructions agree", t0, bound=300.0)


ALPHAS = [
    ("1/4", Fraction(1, 4), None),
    ("3/10", Fraction(3, 10), None),
    ("sqrt(2)-1", parse_real("sqrt(2)-1"), 2),
    ("9/20", Fraction(9, 20), None),
    ("1/2", Fraction(1, 2), None),
    ("g", golden_fraction(), 5),
    ("7/10", Fraction(7, 10), None),
    ("1", Fraction(1), None),
]


def _alpha_sample(rng, d):
    if d is None:
        return random_periodic_surd(rng, length=5, max_digit=5)
    # same quadratic field as alpha, avoiding all-ones tails
    while True:
        x = random_surd(rng, d)
        digs = rcf_digits(x).prefix(240)
        if any(a != 1 for a in digs[120:]):
            return x


def test_criterion_5_alpha_realisation():
    t0 = time.time()
    rng = random.Random(1004)
    steps = 30
    for label, alpha, d in ALPHAS:
        R = build_alpha_region(alpha)
        for trial in range(200):
            x = _alpha_sample(rng, d)
            z = top(x)
            # digit streams: region route vs direct one-map iteration
            res = cfe_direct(R, z, steps, CAP)
            pairs = res.digits.pairs(steps + 1)
            x0 = x - floor_of(x + 1 - alpha)  # x + 1 - alpha is a Fraction when x shares alpha's field
            cur = x0
            direct = []
            for _ in range(steps):
                sign, dd, cur = alpha_step(alpha, cur)
                direct.append((sign, dd))
            assert pairs[1 : steps + 1] == direct, (label, trial)
            # exact conjugacy of the shift projection with the one map
            orb = tau_orbit(R, z, steps)
            assert orb[0].X == x0
            X = x0
            for k in range(steps):
                _, _, X = alpha_step(alpha, X)
                assert orb[k + 1].X == X, (label, trial, k)
    report(5, "8 alphas x 200 points: digits and shift projection exact", t0, bound=600.0)


def test_criterion_6_singularisation_equivalence():
    t0 = time.time()
    rng = random.Random(1005)
    for rects in GOOD_AREAS:
        for trial in range(100):
            x = random_surd(rng)
            r_orbit, r_rewrite, r_region = s_expansion_routes(x, rects, 30)
            assert r_orbit == r_rewrite == r_region, (rects, trial)
    report(6, "5 areas x 100 points x 30 convergents: all three routes equal", t0, bound=300.0)


def test_criterion_7_measure_and_entropy():
    t0 = time.time()
    h1 = region_h1()
    est = measure_of(h1, tol=1e-7, method="quadrature")
    assert abs(est.value - math.log(2)) < 1e-6
    ent, _ = entropy_of(h1, tol=1e-7, method="quadrature")
    assert abs(ent - math.pi**2 / (6 * math.log(2))) < 1e-5
    R = build_alpha_region(Fraction(1, 2))
    mc = measure_of(R, seed=20260810, samples=1_000_000)
    # entropy on the constant branch forces mass log(1+g); 3 sigma
    assert abs(mc.value - LOG_GOLDEN_PLUS_1) < mc.error_bound
    ent_mc = math.pi**2 / (6 * mc.value)
    assert abs(ent_mc - math.pi**2 / (6 * LOG_GOLDEN_PLUS_1)) < 3 * ent_mc * (
        mc.error_bound / mc.value
    )
    report(7, "strip mass/entropy exact-tolerance; alpha(1/2) Monte Carlo in 3 sigma", t0, bound=300.0)


def _generic_cf_digits(rng, bits):
    p = rng.getrandbits(bits) | 1
    q = 1 << bits
    digits = []
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return digits


def test_criterion_8_denominator_growth_constant():
    t0 = time.time()
    rng = random.Random(1006)
    n = 10_000
    target = math.pi**2 / (12 * math.log(2))
    vals = []
    sample_digits = None
    for trial in range(100):
        digits = _generic_cf_digits(rng, 48_000)
        assert len(digits) > n
        if sample_digits is None:
            sample_digits = digits
        q_prev, q = 0, 1
        for a in digits[:n]:
            q_prev, q = q, a * q + q_prev
        vals.append(log_of_big(q) / n)
    mean = sum(vals) / len(vals)
    assert abs(mean - target) / target < 0.02
    # bridge to the orbit-statistic operation on one sample
    from cfrow.digits import from_digits

    z = OmegaPoint.from_streams(from_digits(sample_digits), from_digits([1]))
    m = 2000
    got = empirical_denominator_growth(region_h1(), z, m)
    q_prev, q = 0, 1
    for a in sample_digits[: m - 1]:
        q_prev, q = q, a * q + q_prev
    assert abs(got - log_of_big(q) / m) < 1e-12
    report(8, f"mean growth exponent {mean:.5f} within 2% of {target:.5f}", t0, bound=300.0)


def test_criterion_9_invariance_suites():
    t0 = time.time()
    rng = random.Random(1007)

    # matrix entry bounds on every record over a fresh corpus
    regions = [region_h1(), region_h(2), region_v(2), build_alpha_region(Fraction(1, 2))]
    for _ in range(25):
        x = random_periodic_surd(rng, length=6, max_digit=4, require=[1, 2])
        for R in regions:
            for rec in induced_records(R, top(x), 10, CAP):
                assert rec.s >= 1 and 0 <= rec.u <= rec.s

    # conjugation identity to depth 200
    for _ in range(10):
        x = random_surd(rng)
        for nn in (1, 7, 50, 200):
            f = a_matrix_forward(x, nn)
            b = a_matrix_backward(x, nn)
            assert A1 @ transpose(f) == b @ A1

    # the shift over the top strip IS the fast two-sided map, pointwise
    h1 = region_h1()
    for _ in range(40):
        x = random_surd(rng)
        t = Fraction(rng.randint(0, 20), 21)
        w = phi(h1, OmegaPoint.from_values(x, 1 / (1 + t)))
        w1 = tau_step(h1, w)
        a, gx = gauss_step(x)
        assert w1.X == gx and w1.Y == 1 / (a + t)

    # measure preservation of the fast map on a 4x4 rectangle grid, 3 sigma
    nrng = np.random.default_rng(20260810)
    n = 1_000_000
    u = nrng.random(n)
    xs = 2.0**u - 1.0
    v = nrng.random(n)
    ys = v / (1.0 + xs * (1.0 - v))
    a = np.floor(1.0 / xs)
    x1 = 1.0 / xs - a
    y1 = 1.0 / (a + ys)
    grid = [Fraction(i, 4) for i in range(5)]
    for i in range(4):
        for j in range(4):
            x0, xx1 = grid[i], grid[i + 1]
            y0, yy1 = grid[j], grid[j + 1]
            mass = gauss_rect_mass(x0, xx1, y0, yy1)
            inside = (
                (x1 >= float(x0)) & (x1 <= float(xx1))
                & (y1 >= float(y0)) & (y1 <= float(yy1))
            )
            sigma = math.sqrt(mass * (1 - mass) / n)
            assert abs(inside.mean() - mass) < 3 * sigma + 1e-4, (i, j)

    # mediant interleaving chains on 1000 random prefixes, exact
    for _ in range(1000):
        digits = [rng.randint(1, 5) for _ in range(10)]
        g = Gcf.rcf(digits)
        cs = convergents(g, 10)[2:]
        x = cs[-1].as_fraction()
        p = [c.P for c in cs]
        q = [c.Q for c in cs]
        for n_i in range(0, 3):
            i = 2 * n_i + 1
            if i + 1 >= len(digits) - 1:
                break
            desc = [Fraction(lam * p[i + 1] + p[i], lam * q[i + 1] + q[i])
                    for lam in range(digits[i + 1], -1, -1)]
            assert all(lo < hi for lo, hi in zip(desc, desc[1:]))
            assert x < desc[0]
            j = 2 * n_i
            asc = [Fraction(lam * p[j + 1] + p[j], lam * q[j + 1] + q[j])
                   for lam in range(0, digits[j + 1] + 1)]
            assert all(lo < hi for lo, hi in zip(asc, asc[1:]))
            assert asc[-1] < x

    report(9, "entry bounds, conjugation@200, shift=fast-map, 3-sigma grid, interleaving", t0)
