import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfrow import measure
from cfrow.digits import Reader, SnapReader, digits_fraction, fraction_digits, from_digits, snapped_digits
from cfrow.errors import (
    BadSampleCount,
    BadTolerance,
    CapExceeded,
    CfrowError,
    InvalidSingularisationArea,
    NoMeasurePath,
    NonIntegrable,
)
from cfrow.induced import CellRegion, RectRegion
from cfrow.measure import (
    MeasureEstimate,
    _alpha_window,
    _cell_rects,
    _gauss_legendre,
    _region_rects,
    _strip_monte_carlo,
    _strip_sampler,
    _strip_samples,
    empirical_denominator_growth,
    entropy_of,
    gauss_rect_mass,
    gauss_rect_ratio,
    log_of_big,
    measure_of,
    rect_mass_exact,
    rect_mass_ratio,
)
from cfrow.natural_ext import OmegaPoint
from cfrow.regions import (
    AlphaRegion,
    SingularisationArea,
    build_alpha_region,
    build_s_expansion_region,
    region_cell,
    region_from_spec,
    region_h,
    region_h1,
    region_omega,
    region_v,
)
from cfrow.reals import Surd, golden_fraction, parse_real

from test_regions import GOOD_AREAS, TABLE_ALPHAS, recorded_readers, started, y_families

G = golden_fraction()
LOG_GOLDEN_PLUS_1 = math.log(1 + (math.sqrt(5) - 1) / 2)


def test_top_strip_mass_exact_and_quadrature():
    h1 = region_h1()
    assert abs(measure_of(h1).value - math.log(2)) < 1e-14
    q = measure_of(h1, tol=1e-8, method="quadrature")
    assert abs(q.value - math.log(2)) < 1e-6


def test_window_mass_two_ways():
    # closed form against quadrature on the upper-right quarter
    R = RectRegion([(Fraction(1, 2), 1, Fraction(1, 2), 1)])
    exact = measure_of(R).value
    quad = measure_of(R, tol=1e-9, method="quadrature").value
    assert abs(exact - quad) < 1e-7
    assert abs(exact - rect_mass_exact(Fraction(1, 2), 1, Fraction(1, 2), 1)) < 1e-15


def test_h_family_masses():
    # m(H_b) = log((b+1)/b)
    for b in (1, 2, 3, 5):
        got = measure_of(region_h(b)).value
        assert abs(got - math.log((b + 1) / b)) < 1e-12
    # vertical and horizontal strips carry equal mass by symmetry
    for a in (1, 2, 4):
        assert abs(measure_of(region_v(a)).value - measure_of(region_h(a)).value) < 1e-12


def test_entropy_values():
    ent, est = entropy_of(region_h1())
    assert abs(ent - math.pi**2 / (6 * math.log(2))) < 1e-10
    ent2, _ = entropy_of(region_h(2))
    ratio = measure_of(region_h1()).value / measure_of(region_h(2)).value
    assert abs(ent2 / ent - ratio) < 1e-9


def test_cell_region_entropy_scaling():
    # half the mass doubles the entropy, functionally
    m1 = measure_of(region_h1()).value
    ent1, _ = entropy_of(region_h1())
    R = RectRegion([(0, 1, Fraction(1, 2), Fraction(3, 4))])
    m2 = measure_of(R).value
    ent2, _ = entropy_of(R)
    assert abs(ent1 * m1 - ent2 * m2) < 1e-9  # both equal pi^2/6


def test_rejects_bad_regions():
    with pytest.raises(NonIntegrable):
        measure_of(region_omega())
    with pytest.raises(NonIntegrable):
        measure_of(RectRegion([(0, Fraction(1, 2), 0, Fraction(1, 2))]))
    with pytest.raises(NonIntegrable):
        measure_of(RectRegion([(Fraction(1, 3), Fraction(1, 3), 0, 1)]))


def test_rejects_unknown_method():
    for region in (region_h1(), build_alpha_region(Fraction(1, 2))):
        with pytest.raises(CfrowError, match="unknown measure method 'bogus'"):
            measure_of(region, method="bogus")


def test_s_expansion_measure_exact():
    # log 2 times the Gauss measure of the area's complement, the strip
    # isomorphism's image of the slow measure on the top strip; measure_of
    # reads the same Gauss ratio of the area's rectangles, so the check
    # independent of it is the pulled-back oracle below
    rects = [(Fraction(1, 2), 1, 0, Fraction(1, 2))]
    R = build_s_expansion_region(rects)
    got = measure_of(R).value
    nu_s = gauss_rect_mass(*rects[0])
    assert abs(got - math.log(2) * (1 - nu_s)) < 1e-12


def pulled_back(rect):
    """The top-strip rectangle of the points whose pull-back through the
    strip isomorphism, ([0;b2,a1,a2,...], [0;b3,...]), lies in the
    fast-map rectangle rect = (t0, t1, v0, v1) of the right half: b2 = 1,
    x in [1/t1 - 1, 1/t0 - 1] and y = 1/(1 + 1/(1 + v)), v in [v0, v1]."""
    t0, t1, v0, v1 = (Fraction(c) for c in rect)
    return 1 / t1 - 1, 1 / t0 - 1, (1 + v0) / (2 + v0), (1 + v1) / (2 + v1)


def pulled_back_mass(rects) -> float:
    """The S-region's mass by the slow-map closed form: the strip mass
    minus each pulled-back rectangle's, in the area's order."""
    total = rect_mass_exact(0, 1, Fraction(1, 2), 1)
    for r in rects:
        total -= math.log(rect_mass_ratio(*pulled_back(r)))
    return total


def random_valid_areas(rng, count):
    """count random areas of one to three rectangles with corners in
    24ths of the right half, each passing SingularisationArea."""
    areas = []
    while len(areas) < count:
        rects = []
        for _ in range(rng.randint(1, 3)):
            x0, x1 = sorted(rng.sample(range(12, 25), 2))
            y0, y1 = sorted(rng.sample(range(25), 2))
            rects.append((Fraction(x0, 24), Fraction(x1, 24), Fraction(y0, 24), Fraction(y1, 24)))
        try:
            SingularisationArea(rects)
        except InvalidSingularisationArea:
            continue
        areas.append(rects)
    return areas


def test_s_expansion_mass_equals_the_pulled_back_oracle_bit_for_bit():
    areas = GOOD_AREAS + random_valid_areas(random.Random(24), 200)
    assert sum(len(rects) > 1 for rects in areas) >= 20
    for rects in areas:
        assert measure_of(build_s_expansion_region(rects)).value == pulled_back_mass(rects)


_RIGHT_HALF = st.fractions(Fraction(1, 2), 1, max_denominator=10**6)
_UNIT = st.fractions(0, 1, max_denominator=10**6)


@given(_RIGHT_HALF, _RIGHT_HALF, _UNIT, _UNIT)
def test_pulled_back_slow_ratio_is_the_gauss_ratio(t0, t1, v0, v1):
    rect = (min(t0, t1), max(t0, t1), min(v0, v1), max(v0, v1))
    assert rect_mass_ratio(*pulled_back(rect)) == gauss_rect_ratio(*rect)


@pytest.mark.parametrize("rects", GOOD_AREAS)
def test_s_expansion_mass_matches_monte_carlo_of_its_membership(rects):
    # the exact mass reads the area's rectangles and membership pulls each
    # point back to them: top-strip samples, snapped and read to the end,
    # hit the region in the share its mass gives
    R = build_s_expansion_region(rects)
    sample, rng, n = _strip_sampler(Fraction(1, 2)), random.Random(7), 10_000
    hits = 0
    for _ in range(n):
        xd, yd = (snapped_digits(t) for t in sample(rng))
        hits += R.contains(from_digits(xd), from_digits(yd))
    p = hits / n
    sigma = math.log(2) * math.sqrt(p * (1 - p) / n)
    assert abs(math.log(2) * p - measure_of(R).value) < 3 * sigma


def test_monte_carlo_estimate_of_0_has_no_entropy():
    with pytest.raises(NonIntegrable, match="no sample of 2 hit region alpha:1/50.*raise --samples"):
        entropy_of(build_alpha_region(Fraction(1, 50)), seed=1, samples=2)
    with pytest.raises(NonIntegrable, match="no sample of 3 hit region cell5,1"):
        entropy_of(region_cell(5, 1), method="monte-carlo", seed=1, samples=3)


def test_alpha_measure_constant_branch():
    # alpha in [g^2, g]: mass log(1+g); checked at 1/2 by Monte Carlo
    R = build_alpha_region(Fraction(1, 2))
    est = measure_of(R, seed=41, samples=60_000)
    assert est.method == "monte-carlo" and est.seed == 41
    assert abs(est.value - LOG_GOLDEN_PLUS_1) < est.error_bound + 0.003


def test_alpha_measure_uses_seed_deterministically():
    R = build_alpha_region(Fraction(1, 2))
    a = measure_of(R, seed=5, samples=5000)
    b = measure_of(R, seed=5, samples=5000)
    c = measure_of(R, seed=6, samples=5000)
    assert a.value == b.value
    assert a.value != c.value


def test_alpha_one_measure_is_strip():
    est = measure_of(build_alpha_region(Fraction(1)), seed=1, samples=4000)
    assert abs(est.value - math.log(2)) < 1e-12  # every strip sample is a member


def test_quadrature_vs_monte_carlo_on_cells():
    for region in (region_h1(), region_h(2), region_cell(2, 0)):
        exact = measure_of(region).value
        quad = measure_of(region, tol=1e-8, method="quadrature")
        mc = measure_of(region, method="monte-carlo", seed=17, samples=60_000)
        assert abs(quad.value - exact) < 1e-6
        assert abs(mc.value - exact) < mc.error_bound + 1e-3


def test_gauss_legendre_rules_are_exact_to_degree_2n_minus_1():
    for n in (6, 12):
        rule = _gauss_legendre(n)
        assert len(rule) == n
        for k in range(2 * n):
            want = 2 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(sum(w * x**k for x, w in rule) - want) < 1e-14, (n, k)


QUADRATURE_REGIONS = {
    "h1": region_h1(),
    "h2": region_h(2),
    "cell2,0": region_cell(2, 0),
    "upper-right": RectRegion([(Fraction(1, 2), 1, Fraction(1, 2), 1)]),
    "thin-x": RectRegion([(Fraction(1, 101), Fraction(1, 100), 0, 1)]),
    "thin-y": RectRegion([(0, 1, Fraction(1, 1001), Fraction(1, 1000))]),
    "two-rects": RectRegion([(Fraction(1, 2), 1, Fraction(1, 2), 1),
                             (Fraction(1, 101), Fraction(1, 100), 0, 1)]),
}


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("name", QUADRATURE_REGIONS)
def test_quadrature_meets_its_error_bound(name, tol):
    region = QUADRATURE_REGIONS[name]
    exact = sum(rect_mass_exact(*r) for r in _region_rects(region))
    est = measure_of(region, tol=tol, method="quadrature")
    assert est.method == "quadrature" and est.error_bound >= tol
    assert abs(est.value - exact) <= est.error_bound


def test_quadrature_past_its_piece_cap_raises():
    with pytest.raises(CapExceeded, match="after 2000 pieces"):
        measure_of(region_h1(), tol=1e-300, method="quadrature")


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_quadrature_refuses_a_tolerance_it_cannot_meet(monkeypatch, tol):
    # refused before any piece is integrated, not at the piece cap
    monkeypatch.setattr(measure, "_quadrature", None)
    with pytest.raises(BadTolerance, match="not a finite float > 0"):
        measure_of(region_h1(), tol=tol, method="quadrature")


@pytest.mark.parametrize("samples", [0, -5, 2.5, "10", True, None])
@pytest.mark.parametrize("spec", ["alpha:1/2", "h1"])
def test_monte_carlo_refuses_a_bad_sample_count(spec, samples):
    # typed and named, not a ZeroDivisionError, a math domain error or a
    # TypeError from inside the sampler
    with pytest.raises(BadSampleCount, match=f"samples {samples!r} is not an int >= 1"):
        measure_of(region_from_spec(spec), method="monte-carlo", seed=1, samples=samples)
    assert measure_of(region_from_spec(spec), method="monte-carlo", seed=1, samples=1).samples == 1


def test_quadrature_runs_without_scipy(monkeypatch):
    for name in ["scipy"] + [m for m in sys.modules if m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, name, None)
    est = measure_of(region_h1(), tol=1e-8, method="quadrature")
    assert est.method == "quadrature" and abs(est.value - math.log(2)) <= est.error_bound


# the method each (region class, method) pair answers with; None: refused
_METHOD_TABLE = {
    "cell": {"auto": "exact-integral", "exact": "exact-integral",
             "exact-integral": "exact-integral", "quadrature": "quadrature",
             "monte-carlo": "monte-carlo"},
    "rect": {"auto": "exact-integral", "exact": "exact-integral",
             "exact-integral": "exact-integral", "quadrature": "quadrature",
             "monte-carlo": "monte-carlo"},
    "s_expansion": {"auto": "exact-integral", "exact": "exact-integral",
                    "exact-integral": "exact-integral", "quadrature": None,
                    "monte-carlo": None},
    "alpha": {"auto": "monte-carlo", "exact": None, "exact-integral": None,
              "quadrature": None, "monte-carlo": "monte-carlo"},
}
_METHOD_REGIONS = {
    "cell": lambda: region_h(2),
    "rect": lambda: RectRegion([(Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))]),
    "s_expansion": lambda: build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))]),
    "alpha": lambda: build_alpha_region(Fraction(1, 2)),
}


@pytest.mark.parametrize("method", ["auto", "exact", "exact-integral", "quadrature", "monte-carlo"])
@pytest.mark.parametrize("kind", list(_METHOD_TABLE))
def test_measure_answers_only_with_the_method_asked(kind, method):
    region = _METHOD_REGIONS[kind]()
    want = _METHOD_TABLE[kind][method]
    if want is None:
        with pytest.raises(NoMeasurePath, match=f"no {method} measure"):
            measure_of(region, method=method, seed=3, samples=500)
    else:
        assert measure_of(region, method=method, seed=3, samples=500).method == want


def test_alpha_sweep_constant_branch():
    # mass log(1+g) across the whole flat stretch, and log 2 at the end
    g_sq = G * G
    for alpha in (g_sq, G):
        est = measure_of(build_alpha_region(alpha), seed=23, samples=60_000)
        assert abs(est.value - LOG_GOLDEN_PLUS_1) < est.error_bound + 0.004
    est1 = measure_of(build_alpha_region(Fraction(1)), seed=23, samples=10_000)
    assert abs(est1.value - math.log(2)) < 1e-12


def test_growth_exponent_golden():
    h1 = region_h1()
    z = OmegaPoint.from_values(G, Fraction(1))
    got = empirical_denominator_growth(h1, z, 500)
    assert abs(got - math.log(1 / float(G))) < 0.01


def test_growth_exponent_sqrt2():
    h1 = region_h1()
    z = OmegaPoint.from_values(parse_real("sqrt(2)-1"), Fraction(1))
    got = empirical_denominator_growth(h1, z, 500)
    assert abs(got - math.log(1 + math.sqrt(2))) < 0.01


def test_growth_exponent_single_step():
    h1 = region_h1()
    z = OmegaPoint.from_values(parse_real("sqrt(2)-1"), Fraction(1))
    assert empirical_denominator_growth(h1, z, 1) == 0.0  # s_1 = 1


def test_log_of_big():
    assert abs(log_of_big(10**400) - 400 * math.log(10)) < 1e-9
    n = 1 << 5000
    assert abs(log_of_big(n) - 5000 * math.log(2)) < 1e-9
    with pytest.raises(ValueError):
        log_of_big(0)


def reference_sample(rng, y_min):
    """The sampler's float draws, snapped by Fraction.limit_denominator."""
    y0 = float(y_min)
    u = rng.random()
    x = y0 * ((1.0 / y0) ** u - 1.0) / (1.0 - y0)
    v = rng.random()
    inv_a = 1.0 / (x + y0 * (1 - x))
    t = inv_a + v * (1.0 - inv_a)
    y = (1.0 / t - x) / (1.0 - x) if x != 1.0 else 1.0
    return (Fraction(x).limit_denominator(10**12),
            Fraction(min(max(y, y0), 1.0)).limit_denominator(10**12))


def reference_mc(hit, y_min, seed, samples):
    rng = random.Random(seed)
    w_mass = rect_mass_exact(0, 1, y_min, 1)
    hits = sum(1 for _ in range(samples) if hit(*reference_sample(rng, y_min)))
    p = hits / samples
    sigma = w_mass * math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return MeasureEstimate(w_mass * p, 3 * sigma, "monte-carlo", seed=seed, samples=samples)


def counter(hit):
    """The per-sample membership hit(x, y) as the count of a run's
    samples that `_strip_monte_carlo` takes."""
    def count(samples):
        return sum(1 for x, y in samples if hit(x, y))

    return count


def test_sampler_draws_the_samples_of_the_generator():
    # `_strip_samples` draws in batches of 1024 samples, which end on and
    # around these counts; its draws are those of n single samples, taken
    # in the same order, and a single sample draws two floats
    for s, y_min in enumerate((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 10**6 + 1))):
        sample = _strip_sampler(y_min)
        for n in (0, 1, 1023, 1024, 1025, 3000):
            rng, gen = random.Random(s), random.Random(s)
            drawn = [sample(rng) for _ in range(n)]
            assert drawn == list(_strip_samples(y_min, gen, n)), (y_min, n)
            assert rng.random() == gen.random()  # both drew as many floats
        one, ref = random.Random(s), random.Random(s)
        sample(one), ref.random(), ref.random()
        assert one.random() == ref.random()


def test_strip_mass_is_the_exact_strip_rectangle_mass():
    # a run whose count takes every sample estimates the strip's mass,
    # which must be rect_mass_exact's bit for bit
    def every(samples):
        return sum(1 for _ in samples)

    for a in list(range(1, 60)) + [10**3, 2 * 10**3, 10**6, 10**12]:
        y_min = Fraction(1, a + 1)
        est = _strip_monte_carlo(y_min, every, 0, 5)
        assert est.value == rect_mass_exact(0, 1, y_min, 1), a


COUNT_REGIONS = [build_alpha_region(alpha) for alpha in TABLE_ALPHAS + [Fraction(1, 10**6)]] + [
    RectRegion([(0, Fraction(2, 5), Fraction(2, 3), 1),
                (Fraction(1, 4), Fraction(3, 4), Fraction(1, 5), Fraction(1, 4))])]


@pytest.mark.parametrize("R", COUNT_REGIONS, ids=lambda R: R.name)
def test_count_samples_equals_the_sample_sum_and_the_started_walker(R):
    y_min = _alpha_window(R) if isinstance(R, AlphaRegion) else Fraction(1, 5)
    samples = list(_strip_samples(y_min, random.Random(11), 2000))
    samples += [(u, v) for u in (0.0, 0.25, 0.5, 1.0) for v in (float(y_min), 0.5, 1.0)]
    by_sample = [R.contains_sample(x, y) for x, y in samples]
    by_walker = [R.contains_rational(started(x), started(y)) for x, y in samples]
    assert by_sample == by_walker
    assert R.count_samples(iter(samples)) == sum(by_walker)
    assert R.count_samples(samples[:700]) == sum(by_walker[:700])
    assert R.count_samples([]) == 0


def test_sampler_draws_the_reference_samples():
    for y_min in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
        rng, ref = random.Random(12), random.Random(12)
        sample = _strip_sampler(y_min)
        for _ in range(4000):
            fx, fy = reference_sample(ref, y_min)
            xd, yd = (snapped_digits(t) for t in sample(rng))
            assert (xd, yd) == (fraction_digits(fx), fraction_digits(fy))


def test_monte_carlo_snap_is_lazy(monkeypatch):
    # the walker decides most samples on their first few digits, so the
    # samples' readers expand little more than those (a snap expanded to
    # the end has 23.0 / 23.7 digits per coordinate here); it reads y
    # first and x only when a comparison runs off y's digits, so most x
    # readers are never started.  A sample the cylinder table answers
    # builds no reader: it expands 0 digits and leaves x unstarted
    readers, samples = recorded_readers(monkeypatch), 20_000
    measure_of(build_alpha_region(G), seed=1, samples=samples)
    pairs = list(zip(readers[::2], readers[1::2]))  # contains_sample builds x, then y
    assert len(readers) == 2 * len(pairs) < 2 * samples
    for k, bound in ((0, 1.5), (1, 6)):
        expanded = sum(len(pair[k].got) + len(pair[k].ahead) for pair in pairs)
        assert expanded / samples <= bound, k
    x_started = sum(type(x.src) is not float for x, _ in pairs)
    assert samples - x_started >= samples / 2


@pytest.mark.parametrize("alpha", ["1/4", "2/5", "1/2", "g", "7/10", "1"])
def test_alpha_measure_matches_reference_samples(alpha):
    R = build_alpha_region(parse_real(alpha))
    y_min = Fraction(1, max(1, math.ceil(1 / float(R.alpha)) - 1) + 1)

    def hit(fx, fy):
        return fx > 0 and R.contains_rational(Reader(fraction_digits(fx)), Reader(fraction_digits(fy)))

    for seed in (1, 8, 30):
        assert measure_of(R, seed=seed, samples=1500) == reference_mc(hit, y_min, seed, 1500)


@pytest.mark.parametrize("alpha", TABLE_ALPHAS + [Fraction(1, 10**6)], ids=str)
def test_alpha_measure_equals_the_started_walker(alpha):
    # the oracle starts a reader of each of every sample's floats before
    # the walker sees them, so no sample is answered from its floats
    R = build_alpha_region(alpha)

    def hit(x, y):
        return R.contains_rational(started(x), started(y))

    for seed in (1, 4, 9, 331):
        est = measure_of(R, seed=seed, samples=2000)
        assert est == _strip_monte_carlo(_alpha_window(R), counter(hit), seed, 2000), seed


def y_family_ends(a1: int):
    """The float bounds of the two families of top-strip y-intervals that
    y's first digits settle before x is read (`test_regions.y_families`),
    flat and ascending as `bisect_right` reads them."""
    ends = []
    for lo, hi, _ in sorted(y_families(a1)):
        f_lo, f_hi = float(lo), float(hi)
        if Fraction(f_lo) < lo:
            f_lo = math.nextafter(f_lo, 2.0)
        if Fraction(f_hi) > hi:
            f_hi = math.nextafter(f_hi, -1.0)
        ends += [f_lo, math.nextafter(f_hi, 2.0)]
    return ends


@pytest.mark.parametrize("alpha", TABLE_ALPHAS, ids=str)
def test_alpha_samples_answered_from_floats(alpha, monkeypatch):
    # at seed 1 the cylinder table answers at least the share of samples
    # that the two y-families alone would; a sample answered from its
    # floats builds no reader
    R = build_alpha_region(alpha)
    family_ends = y_family_ends(R.alpha_list[0])
    rng, sample = random.Random(1), _strip_sampler(_alpha_window(R))
    readers = recorded_readers(monkeypatch)
    from_floats = in_families = 0
    for _ in range(20_000):
        x, y = sample(rng)
        in_families += bisect_right(family_ends, y) % 2
        built = len(readers)
        R.contains_sample(x, y)
        from_floats += len(readers) == built
    assert from_floats >= in_families, (from_floats, in_families)


def test_cell_monte_carlo_matches_reference_samples():
    region = region_cell(3, 1)
    rects = _cell_rects(region)

    def hit(fx, fy):
        return any(x0 <= fx <= x1 and y0 <= fy <= y1 for x0, x1, y0, y1 in rects)

    y_min = min(y0 for _, _, y0, _ in rects)
    for seed in (2, 9):
        est = measure_of(region, method="monte-carlo", seed=seed, samples=3000)
        assert est == reference_mc(hit, y_min, seed, 3000)
        assert 0 < est.value < measure_of(region_h(2)).value


def fraction_in_rects(rects):
    """The Fraction membership Monte Carlo sampled before it asked
    `RectRegion.contains_sample`, kept as its oracle: both floats'
    snaps read to their ends and compared with the corners as Fractions."""
    def in_rects(x, y):
        fx, fy = digits_fraction(snapped_digits(x)), digits_fraction(snapped_digits(y))
        return any(x0 <= fx <= x1 and y0 <= fy <= y1 for x0, x1, y0, y1 in rects)

    return in_rects


ORACLE_RECTS = [
    _cell_rects(region_h1()),
    _cell_rects(region_cell(3, 1)),
    _cell_rects(CellRegion([(2, None), (None, 3), (4, 4)])),
    [(Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))],
    [(Fraction(1, 2), 1, Fraction(1, 2), 1), (Fraction(1, 101), Fraction(1, 100), 0, 1)],
    [(0, Fraction(2, 5), Fraction(2, 3), 1),
     (Fraction(1, 4), Fraction(3, 4), Fraction(1, 5), Fraction(1, 4))],
]
EDGES = [0.0, 0.2, 0.25, 1 / 3, 0.4, 0.5, 2 / 3, 0.75, 1.0]  # snap to the corners


def rect_samples():
    """20 000 sampler draws, then every pair of EDGES."""
    sample, rng = _strip_sampler(Fraction(1, 5)), random.Random(5)
    for _ in range(20_000):
        yield sample(rng)
    for u in EDGES:
        for v in EDGES:
            yield u, v


def test_rect_reader_membership_equals_the_fraction_oracle():
    regions = [RectRegion(rects) for rects in ORACLE_RECTS]
    oracles = [fraction_in_rects(rects) for rects in ORACLE_RECTS]
    seen = set()
    for x, y in rect_samples():
        for R, oracle in zip(regions, oracles):
            got = R.contains_sample(x, y)
            assert got == oracle(x, y) == R.contains_rational(SnapReader(x), SnapReader(y))
            seen.add(got)
    assert seen == {True, False}


MC_ORACLE_REGIONS = {
    "h1": region_h1(),
    "h2": region_h(2),
    "cell2,0": region_cell(2, 0),
    "cell3,1": region_cell(3, 1),
    "upper-right": QUADRATURE_REGIONS["upper-right"],
    "thin-y": QUADRATURE_REGIONS["thin-y"],
    "rect": _METHOD_REGIONS["rect"](),
    "band": RectRegion([(0, 1, Fraction(1, 2), Fraction(3, 4))]),
}


@pytest.mark.parametrize("name", MC_ORACLE_REGIONS)
def test_rect_monte_carlo_equals_the_fraction_oracle(name):
    region = MC_ORACLE_REGIONS[name]
    rects = _region_rects(region)
    y_min = min(y0 for _, _, y0, _ in rects)
    for seed in (2, 9):
        est = measure_of(region, method="monte-carlo", seed=seed, samples=3000)
        assert est == _strip_monte_carlo(y_min, counter(fraction_in_rects(rects)), seed, 3000)


@pytest.mark.parametrize("method", ["auto", "exact", "quadrature", "monte-carlo"])
def test_partly_outside_rectangle_has_the_mass_of_its_clamped_part(method):
    third, half = Fraction(1, 3), Fraction(1, 2)
    want = rect_mass_exact(half, 1, third, half)
    est = measure_of(RectRegion([(half, 2, third, half)]), method=method, seed=4, samples=20_000)
    if method in ("auto", "exact"):
        assert est.value == want
    else:
        assert abs(est.value - want) <= est.error_bound


@pytest.mark.parametrize("method", ["auto", "exact", "exact-integral", "quadrature", "monte-carlo"])
def test_rectangles_clamped_to_nothing_or_to_the_origin_are_not_integrable(method):
    third, half = Fraction(1, 3), Fraction(1, 2)
    with pytest.raises(NonIntegrable, match="zero area"):  # wholly outside the square
        measure_of(RectRegion([(Fraction(3, 2), 2, third, half)]), method=method)
    with pytest.raises(NonIntegrable, match="touches the origin"):  # [-1, 1/2]^2
        measure_of(RectRegion([(-1, half, -1, half)]), method=method)


def test_alpha_window_is_exact():
    def window(alpha):
        return _alpha_window(build_alpha_region(alpha))

    # float(1/k - 10^-30) rounds to 1/k; the strip H_k is still reached
    for k in range(2, 7):
        assert window(Fraction(1, k) - Fraction(1, 10**30)) == Fraction(1, k + 1)
        assert window(Fraction(1, k)) == Fraction(1, k)
        tiny = Surd(-1, 1, 10**30, 2)  # (sqrt(2) - 1) / 10^30
        assert window(1 / (k + tiny)) == Fraction(1, k + 1)
        assert window(1 / (k - tiny)) == Fraction(1, k)
    for alpha, y_min in (("2/5", Fraction(1, 3)), ("1/2", Fraction(1, 2)), ("g", Fraction(1, 2)),
                         ("7/10", Fraction(1, 2)), ("1", Fraction(1, 2)), ("1/4", Fraction(1, 4)),
                         ("sqrt(2)-1", Fraction(1, 3))):
        assert window(parse_real(alpha)) == y_min
