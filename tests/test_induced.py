import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from cfrow.digits import ZERO_STREAM, from_digits
from cfrow.errors import BackwardCapExceeded, CapExceeded, CfrowError, NeverEnters, NonIntegrable
from cfrow.exact import INF, Mat2Z
from cfrow.farey_maps import A0, A1, a_matrix
from cfrow.gcf import partial_pq
from cfrow.induced import (
    CellRegion,
    InducedRecord,
    RectRegion,
    Region,
    _Mirrored,
    backward_induced_step,
    d_map,
    digit_maps,
    induced_orbit,
    induced_products,
    induced_records,
    induced_step,
)
from cfrow.measure import measure_of, rect_mass_exact
from cfrow.natural_ext import OmegaPoint, ito_jump, ito_step
from cfrow.regions import (
    build_alpha_region,
    build_s_expansion_region,
    region_cell,
    region_from_spec,
    region_h,
    region_h1,
    region_omega,
    region_v,
)
from cfrow.reals import as_real, golden_fraction, parse_real, rcf_digits

from conftest import (
    backstep_by_digits,
    meets_y_zero,
    random_rich_surd,
    random_surd,
    random_surd_with_digit,
    slow_backward_induced_step,
    surd_from_periodic_digits,
)

S2 = parse_real("sqrt(2)-1")
G = golden_fraction()


def top(x):
    return OmegaPoint.from_values(x, Fraction(1))


def test_hitting_time_top_strip(rng):
    h1 = region_h1()
    for _ in range(20):
        x = random_surd(rng)
        assert induced_step(h1, top(x), 10**6).N == rcf_digits(x).head()


def test_hitting_time_omega_and_h2():
    assert induced_step(region_omega(), top(S2), 10).N == 1
    x3 = parse_real("(0+1*sqrt(10))/10")
    assert induced_step(region_h(2), top(x3), 10).N == 1


def test_cap_exceeded():
    v5 = region_v(5)
    with pytest.raises(CapExceeded):
        induced_step(v5, top(G), 50)  # golden expansion never shows digit 5


def test_induced_step_top_strip_matrix(rng):
    h1 = region_h1()
    for _ in range(20):
        x = random_surd(rng)
        rec = induced_step(h1, top(x), 10**6)
        a1 = rcf_digits(x).head()
        assert rec.A == Mat2Z(0, 1, 1, a1)
        assert rec.z_next.yd.prefix(2) == [1, a1]


def test_induced_step_omega_is_one_branch(rng):
    om = region_omega()
    for _ in range(10):
        x = random_surd(rng)
        rec = induced_step(om, top(x), 10)
        assert rec.N == 1
        assert rec.A in (A0, A1)


def test_record_entry_bounds(rng):
    regions = [region_h1(), region_h(2), region_v(2)]
    for _ in range(10):
        x = random_rich_surd(rng)
        for R in regions:
            recs = induced_records(R, top(x), 12, 10**6)
            for rec in recs:
                assert rec.s >= 1 and 0 <= rec.u <= rec.s
    cell = region_cell(3, 1)
    for _ in range(4):
        x = random_surd_with_digit(rng, 3)
        for rec in induced_records(cell, top(x), 8, 10**6):
            assert rec.s >= 1 and 0 <= rec.u <= rec.s


@pytest.mark.parametrize("u, s", [(3, 2), (-1, 2), (0, 0), (1, 0)])
def test_both_record_constructors_check_entry_bounds(u, s):
    z = top(S2)
    with pytest.raises(AssertionError, match="entry bounds"):
        InducedRecord(1, Mat2Z(u, 1, s, 1), z)
    with pytest.raises(AssertionError, match="entry bounds"):
        InducedRecord._of(1, u, 1, s, 1, z)


def test_products_top_strip_are_convergents(rng):
    h1 = region_h1()
    for _ in range(10):
        x = random_surd(rng)
        prods = induced_products(h1, top(x), 8, 10**6)
        digs = rcf_digits(x).prefix(8)
        p_prev, p = 1, 0
        q_prev, q = 0, 1
        expect = [(1, 0)]
        for a in digs:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            expect.append((p_prev, q_prev))
        got = [(m.a, m.c) for _, m in prods]
        assert got == expect
        # cumulative times are digit partial sums
        assert [t for t, _ in prods] == [sum(digs[:k]) for k in range(9)]


def test_products_h_strip_are_lambda_mediants(rng):
    lam = 1
    h2 = region_h(2)
    for _ in range(8):
        x = random_rich_surd(rng)
        prods = induced_products(h2, top(x), 6, 10**6)
        digs = rcf_digits(x).prefix(60)
        # expected: all (lam p_j + p_{j-1}, lam q_j + q_{j-1}) with lam = 1,
        # i.e. first mediants, in orbit order
        p_prev, p = 1, 0
        q_prev, q = 0, 1
        mediants = []
        for a in digs:
            if a > lam:
                mediants.append((lam * p + p_prev, lam * q + q_prev))
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        got = [(m.a, m.c) for _, m in prods[1:]]
        assert got == mediants[: len(got)]


def test_cocycle_identity(rng):
    h1 = region_h1()
    for _ in range(6):
        x = random_surd(rng)
        z = top(x)
        recs = induced_records(h1, z, 9, 10**6)
        # product over records k..k+m-1 equals the A-product started at z_k
        for k in range(3):
            zk = recs[k - 1].z_next if k else z
            sub = induced_records(h1, zk, 3, 10**6)
            for m in range(3):
                assert sub[m].A == recs[k + m].A


def test_block_q_equals_product_entry(rng):
    # Farey-expansion block denominators match induced s-entries:
    # Q over the step window equals the bottom-left entry of the
    # accumulated product restarted at the window
    from cfrow.farey_maps import farey_expansion

    h1 = region_h1()
    v2 = region_v(2)
    for R in (h1, v2):
        for _ in range(6):
            x = random_rich_surd(rng)
            z = top(x)
            prods = induced_products(R, z, 10, 10**6)
            times = [t for t, _ in prods]
            fe = farey_expansion(x, times[-1] + 2)
            recs = induced_records(R, z, 10, 10**6)
            for j in range(4):
                zj = recs[j - 1].z_next if j else z
                for k in range(j + 1, min(j + 4, 10)):
                    q_block = partial_pq(fe, times[j] + 1, times[k] - 1)[1]
                    sub = induced_products(R, zj, k - j, 10**6)
                    assert q_block == sub[-1][1].c


def test_digit_maps_top_strip(rng):
    h1 = region_h1()
    for _ in range(12):
        x = random_surd(rng)
        d, alpha, beta = digit_maps(h1, top(x), 10**6)
        assert (d, alpha, beta) == (1, 1, rcf_digits(x).head())


def test_backward_step_and_d(rng):
    h1 = region_h1()
    # from the top edge there is provably no backward visit
    assert backward_induced_step(h1, top(S2), 10**4) is None
    assert d_map(h1, top(S2), 10**4) == 1
    # one forward step in, the backward step returns exactly
    for _ in range(8):
        x = random_surd(rng)
        z = top(x)
        rec = induced_step(h1, z, 10**6)
        back = backward_induced_step(h1, rec.z_next, 10**6)
        assert back is not None
        brec, prev = back
        assert brec.A == rec.A and brec.N == rec.N
        assert prev.xd.prefix(4) == z.xd.prefix(4)
        assert prev.yd.prefix(4) == z.yd.prefix(4)


def test_d_map_raises_at_the_backward_cap():
    # the induced preimage lies beyond 40 backward steps: the cap must
    # raise, not answer d = 1 (only a provably absent preimage gives 1)
    R = region_from_spec("cell:3,1")
    z = OmegaPoint.from_streams(
        from_digits([4, 3, 2, 3, 1, 3]), from_digits([1, 25, 6, 4, 5, 3])
    )
    with pytest.raises(BackwardCapExceeded):
        d_map(R, z, 40)
    with pytest.raises(BackwardCapExceeded):
        digit_maps(R, z, 40)
    assert digit_maps(R, z, 10**4) == (287, 2009, 43)


def test_omega_region_meets_bottom_edge():
    om = region_omega()
    z = top(S2)
    assert d_map(om, z, 100) == 1  # the step into (x,1) came through the top branch


def test_rect_region_membership_refines():
    R = RectRegion([(Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))])
    inside = OmegaPoint.from_values(Fraction(2, 5), Fraction(2, 5))
    outside = OmegaPoint.from_values(Fraction(3, 5), Fraction(2, 5))
    irr = OmegaPoint.from_values(S2, Fraction(2, 5))
    assert R.contains(inside.xd, inside.yd)
    assert not R.contains(outside.xd, outside.yd)
    assert R.contains(irr.xd, irr.yd)  # 0.414 in [1/3, 1/2]
    assert R.mirrored().meets_x_zero is False


def _interval_vs_range(iv, lo, hi):
    """True/False/None: is a value known to lie in [lo, hi]?"""
    if iv.lo >= lo and iv.hi <= hi:
        return True
    if iv.hi < lo or iv.lo > hi:
        return False
    return None


def oracle_in_rect(z, rect):
    """The enclosure route RectRegion used to take, kept as the oracle of
    its digit comparisons: enclosures at growing depths, and, for a point
    they leave on an edge (rational there), its exact coordinates."""
    x0, x1, y0, y1 = rect
    for depth in (8, 24, 80, 400):
        xe, ye = z.x_enclosure(depth), z.y_enclosure(depth)
        vx = _interval_vs_range(xe, x0, x1)
        vy = _interval_vs_range(ye, y0, y1)
        if vx is False or vy is False:
            return False
        if vx is True and vy is True:
            return True
    xe, ye = z.xd.enclosure(10_000), z.yd.enclosure(10_000)
    assert xe.is_point() and ye.is_point()
    return x0 <= xe.lo <= x1 and y0 <= ye.lo <= y1


CORNERS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
           Fraction(2, 5), Fraction(-1, 2), Fraction(3, 2), Fraction(-3), Fraction(7, 4)]


def rect_points(rng):
    """Points on and off the corners: exact corner values, their
    non-canonical [..., b, 1] streams, random rationals and surds, and
    points moved by the slow map (cells pushed onto surd streams)."""
    inside = [c for c in CORNERS if 0 <= c <= 1]
    for _ in range(40):
        x = rng.choice(inside + [Fraction(rng.randint(0, 30), 30), random_surd(rng)])
        y = rng.choice(inside + [Fraction(rng.randint(0, 30), 30), random_surd(rng)])
        z = OmegaPoint.from_values(x, y)
        yield z
        yield ito_step(ito_step(z)) if z.xd.head() is not INF else z
    for c in inside:
        ds = rcf_digits(c).prefix(20)
        ds = [d for d in ds if d is not INF]
        if ds and ds[-1] > 1:
            folded = from_digits(ds[:-1] + [ds[-1] - 1, 1])
            yield OmegaPoint.from_streams(folded, folded)
            yield OmegaPoint.from_streams(folded, rcf_digits(rng.choice(inside)))


def clamped(rects):
    """The part of each rectangle inside the unit square, and none for a
    rectangle that misses it."""
    def clamp(v):
        return min(max(v, Fraction(0)), Fraction(1))

    return [(clamp(x0), clamp(x1), clamp(y0), clamp(y1)) for x0, x1, y0, y1 in rects
            if x0 <= 1 and x1 >= 0 and y0 <= 1 and y1 >= 0]


def test_rect_region_equals_enclosure_route(rng):
    seen = set()
    masses = 0
    for _ in range(40):
        rects = []
        for _ in range(rng.randint(1, 3)):
            x0, x1 = sorted(rng.sample(CORNERS, 2))
            y0, y1 = sorted(rng.sample(CORNERS, 2))
            rects.append((x0, x1, y0, y1))
        R = RectRegion(rects)
        for z in rect_points(rng):
            got = R.contains(z.xd, z.yd)
            assert got == any(oracle_in_rect(z, r) for r in rects)
            seen.add(got)
        # the region's one list is the clamped rectangles, and every mass
        # is theirs: the exact one, and quadrature within its tolerance
        inside = clamped(rects)
        assert R.rects == inside
        if any(x0 == 0 and y0 == 0 for x0, _, y0, _ in inside):
            with pytest.raises(NonIntegrable, match="touches the origin"):
                measure_of(R)
        elif all(x0 == x1 or y0 == y1 for x0, x1, y0, y1 in inside):
            with pytest.raises(NonIntegrable, match="zero area"):
                measure_of(R)
        else:
            exact = measure_of(R, method="exact").value
            assert exact == sum(rect_mass_exact(*r) for r in inside)
            quad = measure_of(R, method="quadrature", tol=1e-8)
            assert abs(quad.value - exact) <= quad.error_bound
            masses += 1
    assert seen == {True, False}
    assert masses >= 10


def test_point_on_a_rational_edge_is_decided():
    half, third = Fraction(1, 2), Fraction(1, 3)
    on_edge = [from_digits([2]), from_digits([1, 1])]  # both 1/2
    for R in (RectRegion([(half, 1, 0, half)]), RectRegion([(third, half, third, half)])):
        for xd in on_edge:
            for yd in on_edge:
                assert R.contains(xd, yd)
    R = RectRegion([(0, third, 0, third)])
    assert not R.contains(from_digits([2]), from_digits([3]))
    assert R.contains(from_digits([2, 1]), from_digits([3]))


def test_x_only_region_that_is_never_entered_stops_early():
    """x = g reads 1 forever, so the walk never reaches V_2 or H_2: the
    repeated x-state ends it long before the cap, with a typed
    CapExceeded."""
    v2 = region_v(2)
    with pytest.raises(NeverEnters, match="v2"):
        induced_step(v2, top(G), 10**6)
    with pytest.raises(CapExceeded) as info:  # below the watch threshold: the cap
        induced_step(v2, top(G), 2000)
    assert type(info.value) is CapExceeded
    # the preperiod visits V_2 (3 = 2 + 1), the period [1] never does
    z = top(1 / (3 + G))
    assert induced_step(v2, z, 10**6).N == 1
    with pytest.raises(NeverEnters):
        induced_step(v2, induced_step(v2, z, 10**6).z_next, 10**6)
    # a visit once per long period is still found
    x = surd_from_periodic_digits([1] * 40 + [3])
    assert induced_step(v2, top(x), 10**6).N > 0
    # cells that read y too: at every landing y's head is 1, so the
    # walk's visits still follow from x alone
    with pytest.raises(NeverEnters, match="h2"):
        induced_step(region_h(2), top(G), 10**6)
    with pytest.raises(NeverEnters):
        induced_step(region_cell(3, 1), top(parse_real("sqrt(2)-1")), 10**6)
    x = surd_from_periodic_digits([1] * 40 + [2])
    assert induced_step(region_h(2), top(x), 10**6).N > 0


def test_x_only_walk_on_the_x_zero_line_stops_at_once():
    """A rational x reaches the x = 0 line, where x stays 0 and no cell
    is a member: the walk raises NeverEnters there instead of walking
    single slow steps to the cap."""
    for region, z in ((region_h1(), top(Fraction(1, 3))), (region_v(2), top(Fraction(0)))):
        start = time.perf_counter()
        with pytest.raises(NeverEnters, match=region.name):
            induced_step(region, z, 10**6)
        assert time.perf_counter() - start < 0.5


def test_x_only_watch_on_a_rational_x_leaves_the_walk_to_the_x_zero_line():
    """An x-only walk past NEVER_ENTERS_AFTER steps on a rational x has
    no x-state to watch: it walks on and stops at the x = 0 line."""
    z = OmegaPoint.from_values(Fraction(1, 20001), Fraction(1))
    with pytest.raises(NeverEnters, match="reached the x = 0 line after 20001 steps"):
        induced_step(CellRegion([(2, 5)]), z, 10**6)


@pytest.mark.parametrize("region", [
    build_alpha_region(Fraction(1, 4)),
    build_alpha_region(Fraction(1, 2)),
    build_alpha_region(G),
    build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))]),
], ids=["alpha:1/4", "alpha:1/2", "alpha:g", "s-expansion"])
@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1, 2)])
def test_walk_on_the_x_zero_line_below_the_top_strip_fails_at_once(region, x):
    """A rational x reaches the x = 0 line, whose run never ends and
    lies below the top strip, where no alpha or S-expansion region has a
    member: a walk raises its own CapExceeded there at once instead of
    walking single slow steps to the cap."""
    z = top(x)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        for _ in range(4):  # x's run and the line's top-strip point may hold visits
            z = induced_step(region, z, 10**6).z_next
    assert time.perf_counter() - start < 0.5
    assert type(info.value) is CapExceeded
    assert str(info.value) == f"orbit did not enter {region.name} within 1000000 steps"


def test_empty_rect_region_is_never_entered():
    """A rectangle region with none of its rectangles in the unit square
    has no member: an irrational x's walk stops at a repeated x-state, a
    rational x's at the x = 0 line, not at the cap."""
    empty = RectRegion([(Fraction(3, 2), 2, Fraction(1, 3), Fraction(1, 2))])
    assert empty.rects == [] and empty.x_only
    for z, why in ((top(G), "x-state repeats"), (top(Fraction(1, 3)), "x = 0 line")):
        start = time.perf_counter()
        with pytest.raises(NeverEnters, match=why):
            induced_step(empty, z, 10**6)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(NonIntegrable):
        measure_of(empty)


def test_rect_region_reads_one_clamped_list():
    """Equal sets written with different out-of-square corners are one
    region: the same rectangles, description, y = 0 flag and d_R."""
    third, quarter, half = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
    regions = [RectRegion([(quarter, third, y0, half)]) for y0 in (-1, 0)]
    z = OmegaPoint.from_values(Fraction(1), Fraction(0))
    for R in regions:
        assert R.rects == [(quarter, third, 0, half)]
        assert R.describe() == {"name": "rects", "rects": [["1/4", "1/3", "0", "1/2"]]}
        assert R.mirrored().meets_x_zero is True
        assert d_map(R, z, 1000) == 2
    outside = RectRegion([(Fraction(3, 2), 2, third, half), (-1, Fraction(-1, 2), 0, 1)])
    assert outside.rects == [] and outside.mirrored().meets_x_zero is False
    one = top(Fraction(1))
    assert not outside.contains(one.xd, one.yd)


def test_cell_region_membership_from_digits():
    h1 = region_h1()
    assert h1.contains(rcf_digits(S2), rcf_digits(Fraction(2, 3)))
    v2 = region_v(2)
    assert v2.contains(rcf_digits(S2), rcf_digits(Fraction(1, 7)))
    c = region_cell(3, 1)  # V_2 n H_2
    z = OmegaPoint.from_values(parse_real("(0+1*sqrt(6))/6"), Fraction(2, 5))
    assert c.contains(z.xd, z.yd)  # x ~ .408 -> digit 2; y 2/5 -> digit 2


def test_altered_flag_assignment():
    assert region_h1().altered
    assert not region_h(2).altered
    assert not region_v(2).altered


# -- integer A_R against the Mat2Z fold of the slow orbit ---------------------


def criterion4_regions():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return [
        region_omega(),
        region_h1(),
        region_h(2),
        region_v(2),
        region_cell(2, 0),
        build_alpha_region(half),
        build_alpha_region(quarter),
        build_s_expansion_region([(half, 1, 0, half)]),
    ]


def random_stream_point(rng: random.Random) -> OmegaPoint:
    digit = lambda: min(int(1 / (1 - rng.random())), 32)
    return OmegaPoint.from_streams(from_digits([digit() for _ in range(300)]),
                                   from_digits([digit() for _ in range(40)]))


def check_forward_fold(region, z, records):
    """Each record's A equals the product of A0/A1 over the branch digits
    of the slow orbit, which first re-enters the region at its landing
    point.  A step's branch digit is 1 iff x > 1/2, iff x's first partial
    quotient is 1."""
    cur = z
    for rec in records:
        mat = Mat2Z(1, 0, 0, 1)
        for step in range(1, rec.N + 1):
            mat = mat @ a_matrix(cur.xd.head() == 1)
            cur = ito_step(cur)
            assert region.contains(cur.xd, cur.yd) == (step == rec.N)
        assert rec.A == mat
        cur = rec.z_next


def check_backward_fold(region, z, cap):
    """The backward record's A is the forward fold over the points the
    backward walk passes, read from the earliest one."""
    try:
        back = backward_induced_step(region, z, cap)
    except BackwardCapExceeded:
        return None
    if back is None:
        return None
    rec, prev = back
    path = [z]
    for _ in range(rec.N):
        path.append(backstep_by_digits(path[-1]))
    assert all(not region.contains(p.xd, p.yd) for p in path[1:-1])
    assert region.contains(path[-1].xd, path[-1].yd)
    mat = Mat2Z(1, 0, 0, 1)
    for p in reversed(path[1:]):
        mat = mat @ a_matrix(p.xd.head() == 1)
    assert rec.A == mat and rec.z_next is z
    assert (prev.xd.prefix(8), prev.yd.prefix(8)) == (path[-1].xd.prefix(8),
                                                      path[-1].yd.prefix(8))
    return rec


@pytest.mark.parametrize("k", range(8))
def test_induced_matrices_equal_branch_folds_on_stream_points(k):
    region = criterion4_regions()[k]
    rng = random.Random(4100 + k)
    for _ in range(6):
        z = random_stream_point(rng)
        records = induced_records(region, z, 4, 10**4)
        check_forward_fold(region, z, records)
        # from a visit, the backward step returns to the visit before it
        for rec in records[1:]:
            assert check_backward_fold(region, rec.z_next, 10**4).A == rec.A
        check_backward_fold(region, z, 200)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 4)])
def test_induced_matrices_equal_branch_folds_on_surd_points(rng, alpha):
    region = build_alpha_region(alpha)
    for _ in range(5):
        z = top(random_surd(rng))
        records = induced_records(region, z, 3, 10**4)
        check_forward_fold(region, z, records)
        for rec in records[1:]:
            assert check_backward_fold(region, rec.z_next, 10**4).A == rec.A


@pytest.mark.parametrize("k", range(8))
def test_record_entries_are_its_matrix(k):
    # forward and backward records keep four ints, and A is their matrix
    region = criterion4_regions()[k]
    rng = random.Random(4200 + k)
    for _ in range(4):
        z = random_stream_point(rng)
        records = induced_records(region, z, 4, 10**4)
        back = [backward_induced_step(region, rec.z_next, 10**4)[0] for rec in records]
        for rec in records + back:
            entries = (rec.u, rec.t, rec.s, rec.r)
            assert all(type(e) is int for e in entries)
            assert rec.A == Mat2Z(*entries)
            assert InducedRecord(rec.N, rec.A, rec.z_next) == rec


@pytest.mark.parametrize("k", range(8))
def test_walks_from_equal_points_give_equal_records(k):
    region = criterion4_regions()[k]
    rng = random.Random(4300 + k)
    for _ in range(4):
        z = random_stream_point(rng)
        records = induced_records(region, fresh(z), 4, 10**4)
        again = induced_records(region, fresh(z), 4, 10**4)
        assert outcomes(again) == outcomes(records)
        # a record compares its landing by identity, as points compare
        assert records != again
        assert [InducedRecord(r.N, r.A, z) for r in again] == [
            InducedRecord._of(r.N, r.u, r.t, r.s, r.r, z) for r in records]
        # a backward record's landing is the point its walk started from
        w = records[-1].z_next
        assert backward_induced_step(region, w, 10**4)[0] == backward_induced_step(region, w, 10**4)[0]
        # and each field counts
        N, u, t, s, r, w = (getattr(records[0], f) for f in ("N", "u", "t", "s", "r", "z_next"))
        rec = InducedRecord._of(N, u, t, s, r, w)
        assert rec == records[0]
        for other in ((N + 1, u, t, s, r, w), (N, u + 1 if u < s else u - 1, t, s, r, w),
                      (N, u, t + 1, s, r, w), (N, u, t, s + 1, r, w), (N, u, t, s, r + 1, w),
                      (N, u, t, s, r, z)):
            assert InducedRecord._of(*other) != rec


# -- partial-quotient runs against the slow map one step at a time --------


def oracle_regions():
    half = Fraction(1, 2)
    return [
        region_omega(),
        region_h1(),
        region_h(2),
        region_v(2),
        region_cell(2, 0),
        region_cell(3, 1),
        CellRegion([(3, None), (None, 4), (2, 5)]),
        build_alpha_region(Fraction(1, 4)),
        build_alpha_region(half),
        build_alpha_region(Fraction(7, 10)),
        build_alpha_region(S2),
        build_s_expansion_region([(half, 1, 0, half)]),
        RectRegion([(Fraction(1, 5), Fraction(3, 5), Fraction(1, 7), Fraction(4, 7)),
                    (Fraction(2, 3), 1, 0, Fraction(1, 9))]),
        # at 1/3 a slid point's c can equal alpha's only digit, the edge
        # `_below` decides; at g the region does not slide
        build_alpha_region(Fraction(2, 5)),
        build_alpha_region(Fraction(1, 3)),
        build_alpha_region(G),
    ]


def slow_induced_step(region, z, cap):
    """The next visit's record, by a plain slow-map loop."""
    cur = z
    mat = Mat2Z(1, 0, 0, 1)
    for n in range(1, cap + 1):
        mat = mat @ a_matrix(cur.xd.head() == 1)
        cur = ito_step(cur)
        if region.contains(cur.xd, cur.yd):
            return InducedRecord(n, mat, cur)
    raise CapExceeded(f"no visit within {cap} steps")


def outcome(step, region, z, cap):
    """(N, A, 60-digit prefixes of both landing streams), or the type of
    the error the step raised."""
    try:
        rec = step(region, z, cap)
    except CfrowError as exc:
        return type(exc)
    return rec.N, rec.A, rec.z_next.xd.prefix(60), rec.z_next.yd.prefix(60)


def oracle_points(rng):
    digit = lambda: min(int(1 / (1 - rng.random())), 40)
    points = []
    for _ in range(6):
        points.append(OmegaPoint.from_streams(
            from_digits([digit() for _ in range(rng.choice([5, 60, 300]))]),
            from_digits([digit() for _ in range(rng.choice([0, 3, 40]))])))
    for _ in range(2):
        ys = from_digits([digit() for _ in range(rng.choice([1, 4]))])
        points.append(OmegaPoint.from_streams(ZERO_STREAM, ys))  # x = 0 line
        xs = from_digits([digit() for _ in range(120)])
        points.append(OmegaPoint.from_streams(xs, ZERO_STREAM))  # y = 0 line
    return points


@pytest.mark.parametrize("k", range(len(oracle_regions())))
def test_induced_step_equals_slow_map_loop(k):
    region = oracle_regions()[k]
    rng = random.Random(9100 + k)
    for z in oracle_points(rng):
        cur = z
        for _ in range(3):
            want = outcome(slow_induced_step, region, cur, 3000)
            got = outcome(induced_step, region, cur, 3000)
            if got is NeverEnters and not region.meets_x_zero:
                # a walk on the x = 0 line of a region that holds none of
                # it proves what the slow loop only finds at its cap
                got = CapExceeded
            assert got == want, (region.name, z)
            if isinstance(want, type):
                break
            cur = induced_step(region, cur, 3000).z_next


def test_rect_walk_on_the_x_zero_line_stops_at_once():
    """The orbit of x = 1/3 reaches the x = 0 line, which the rectangle
    [1/3, 1/2]^2 misses: the walk raises NeverEnters there instead of
    stepping along the line to its cap (`cfrow orbit --x 1/3`)."""
    R = region_from_spec('{"rects":[{"x":["1/3","1/2"],"y":["1/3","1/2"]}]}')
    assert not R.meets_x_zero
    z = top(Fraction(1, 3))
    start = time.perf_counter()
    with pytest.raises(NeverEnters, match="x = 0 line"):
        for _ in range(4):
            z = induced_step(R, z, 10**6).z_next
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("k", range(len(oracle_regions())))
def test_first_in_run_equals_the_default_walk(k):
    region = oracle_regions()[k]
    rng = random.Random(9200 + k)
    for z in oracle_points(rng):
        a1 = z.xd.head()
        if a1 == 1:
            continue
        # the x = 0 line is the run a1 = INF, which never ends
        for m in (1, 7, 60) if a1 is INF else sorted({1, a1 // 2, a1 - 1}):
            try:
                want = Region.first_in_run(region, z.xd, z.yd, m)
            except CfrowError as exc:
                with pytest.raises(type(exc)):
                    region.first_in_run(z.xd, z.yd, m)
                continue
            assert region.first_in_run(z.xd, z.yd, m) == want, (region.name, z, m)


def test_jumped_values_equal_stepped_values(rng):
    # values read after jumped runs equal those of the slow map read at
    # every step; x composes as P C1...Ck and y as Ck...C1 Q, so a swapped
    # order shows up in y at once
    starts = []
    for y in (Fraction(1), Fraction(2, 3)):
        starts.append((random_surd(rng), y))
        starts.append((Fraction(rng.randint(1, 10**6), 10**6 + 3), y))
    starts.append((random_surd(rng), random_surd(rng)))
    starts.append((Fraction(7, 50), Fraction(5, 9)))
    regions = [region_h1(), region_v(2), region_cell(3, 1), build_alpha_region(Fraction(1, 4))]
    checked = 0
    for x, y in starts:
        z = OmegaPoint.from_values(x, y)
        a1 = z.xd.head()
        walked = z
        for k in range(1, a1 + 1):
            walked = ito_step(walked)
            jumped = ito_jump(z, k)
            assert (jumped.x_val, jumped.y_val) == (walked.x_val, walked.y_val)
        for region in regions:
            cur, slow = z, z
            for _ in range(4):
                try:
                    want = slow_induced_step(region, slow, 2000)
                except CapExceeded:
                    with pytest.raises(CapExceeded):
                        induced_step(region, cur, 2000)
                    break
                rec = induced_step(region, cur, 2000)
                assert rec.N == want.N
                slow, cur = want.z_next, rec.z_next
                checked += 1
            # read only now: the jumps' matrices compose unread across records
            assert (cur.x_val, cur.y_val) == (slow.x_val, slow.y_val)
            assert type(cur.x_val) is type(x) and type(cur.y_val) is type(y)
    assert checked > 60


def test_walk_from_values_takes_the_time_of_a_walk_from_streams():
    """A walk from a point with exact values multiplies no value product
    per run: the rectangle below is never entered, and the walk to a cap
    of 10^5 from values takes about as long as from the streams alone
    (it took 4x as long, and superlinear time in the cap, when every run
    was multiplied into the values' products)."""
    R = RectRegion([(Fraction(2, 3), 1, Fraction(5, 6), Fraction(11, 12))])
    x = parse_real("(-15+sqrt(1806))/34")  # [0; 1, 4, 4, 2, 1, 1 repeating]
    times = []
    for z in (OmegaPoint.from_streams(rcf_digits(x), rcf_digits(Fraction(1))), top(x)):
        z.xd.prefix(10)
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            induced_step(R, z, 10**5)
        times.append(time.perf_counter() - start)
    streams, values = times
    assert values < 2 * streams, times


def test_walk_multiplies_one_value_product_per_record(rng, monkeypatch):
    """The walk carries no values; each landing takes its start's values
    moved by the record's A_R, one 2x2 product at most."""
    from cfrow import natural_ext

    mul, calls = natural_ext._mul, []
    monkeypatch.setattr(natural_ext, "_mul", lambda m, n: calls.append(m) or mul(m, n))
    z = OmegaPoint.from_values(random_surd(rng), as_real(random_surd(rng) / 2 + Fraction(1, 2)))
    recs = induced_records(region_h1(), z, 12, 10**6)
    assert len(recs) == 12 and 0 < len(calls) <= len(recs)


def count_calls(monkeypatch, cls, name):
    """A list that grows by one at each call of cls.name."""
    calls, method = [], getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("region", [region_h1(), build_alpha_region(Fraction(2, 5))])
def test_walk_builds_one_point_per_record(rng, region, monkeypatch):
    """The walk moves two streams: its one point per record is the
    landing, the start's values moved by A_R, or a point of streams alone
    from a start without values."""
    x = random_surd(rng)
    valued = OmegaPoint.from_values(x, Fraction(1))
    bare = OmegaPoint.from_streams(rcf_digits(x), rcf_digits(Fraction(1)))
    moved = count_calls(monkeypatch, OmegaPoint, "_moved")
    built = count_calls(monkeypatch, OmegaPoint, "__init__")
    recs = induced_records(region, valued, 12, 10**6)
    assert len(recs) == 12 and (len(moved), len(built)) == (12, 0)
    del moved[:]
    assert [rec.N for rec in induced_records(region, bare, 12, 10**6)] == [rec.N for rec in recs]
    assert (len(moved), len(built)) == (0, 12)


@pytest.mark.parametrize("region", [build_alpha_region(Fraction(2, 5)), build_alpha_region(G),
                                    build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))])])
def test_backward_walk_mirrors_its_start_and_landing_only(rng, region, monkeypatch):
    mirrored = count_calls(monkeypatch, OmegaPoint, "mirrored")
    found = 0
    for _ in range(10):
        z = OmegaPoint.from_values(random_surd(rng), random_surd(rng))
        del mirrored[:]
        back = backward_induced_step(region, z, 10**6)
        assert len(mirrored) == (1 if back is None else 2)
        found += back is not None
    assert found


@pytest.mark.parametrize("k", range(len(oracle_regions())))
def test_mirrored_region_swaps_the_streams(k):
    region = oracle_regions()[k]
    mirror = _Mirrored(region)
    rng = random.Random(9500 + k)
    for z in oracle_points(rng):
        for xd, yd in ((z.xd, z.yd), (z.yd, z.xd)):
            try:
                want = region.contains(yd, xd)
            except CfrowError as exc:
                with pytest.raises(type(exc)):
                    mirror.contains(xd, yd)
                continue
            assert mirror.contains(xd, yd) == want, (region.name, z)


@pytest.mark.parametrize("region, n", [(region_v(2), 5), (region_h1(), 7)])
def test_cap_edge_inside_and_at_the_end_of_a_run(region, n):
    # a1 = 7 from the top strip: v:2 is hit at (2, 6) inside the run,
    # h1 at the run's landing
    z = OmegaPoint.from_streams(from_digits([7, 3, 2, 5]), from_digits([1, 4]))
    rec = induced_step(region, z, n)
    assert rec.N == n
    for cap in range(1, n):
        with pytest.raises(CapExceeded):
            induced_step(region, z, cap)
    wide = induced_step(region, z, 10**6)
    assert (wide.N, wide.A) == (rec.N, rec.A)
    assert rec.z_next.xd.prefix(8) == wide.z_next.xd.prefix(8)
    assert rec.z_next.yd.prefix(8) == wide.z_next.yd.prefix(8)


def fresh(z):
    """A copy of z that keeps no records."""
    return OmegaPoint(z.xd, z.yd, z.x_val, z.y_val)


def chain(region, z, n, cap=10**6):
    """`outcome` of n chained induced_step calls from z."""
    out = []
    for _ in range(n):
        out.append(outcome(induced_step, region, z, cap))
        z = induced_step(region, z, cap).z_next
    return out


def outcomes(records):
    return [(r.N, r.A, r.z_next.xd.prefix(60), r.z_next.yd.prefix(60)) for r in records]


def test_induced_orbit_keeps_exact_records():
    half = Fraction(1, 2)
    regions = [
        region_omega(), region_h1(), region_h(2), region_v(2), region_cell(3, 1),
        build_alpha_region(Fraction(1, 4)), build_alpha_region(half), build_alpha_region(S2),
        build_s_expansion_region([(half, 1, 0, half)]),
        RectRegion([(Fraction(1, 5), Fraction(3, 5), Fraction(1, 7), Fraction(4, 7)),
                    (Fraction(2, 3), 1, 0, Fraction(1, 9))]),
    ]
    points = [
        lambda: top(surd_from_periodic_digits([3, 1, 2, 1, 4])),
        lambda: OmegaPoint.from_values(surd_from_periodic_digits([1, 3, 5, 2]), Fraction(2, 5)),
        lambda: OmegaPoint.from_streams(from_digits([1, 3, 2, 1, 4, 2, 5, 1, 3] * 25),
                                        from_digits([2, 5, 1])),
    ]
    for region in regions:
        for make in points:
            z = make()
            first = induced_records(region, z, 6, 10**6)
            # read again, and on past the kept records' end
            again = induced_records(region, z, 12, 10**6)
            assert all(a is b for a, b in zip(again, first)), region.name
            assert outcomes(again) == chain(region, fresh(z), 12), region.name
            assert list(islice(induced_orbit(region, z, 10**6), 12)) == again


def test_kept_records_read_the_cap_as_a_fresh_walk():
    h1 = region_h1()
    x = surd_from_periodic_digits([2, 9, 1, 30, 4])
    z = top(x)
    recs = induced_records(h1, z, 8, 10**6)
    assert [r.N for r in recs] == [2, 9, 1, 30, 4, 2, 9, 1]
    for cap in (1, 8, 29):
        with pytest.raises(CapExceeded) as kept:
            induced_records(h1, z, 8, cap)
        with pytest.raises(CapExceeded) as walked:
            induced_records(h1, fresh(z), 8, cap)
        assert type(kept.value) is type(walked.value)
        assert str(kept.value) == str(walked.value)
    assert induced_records(h1, z, 8, 30) == recs
    # a walk stopped by its cap keeps what it found, and a larger cap walks on
    z = top(x)
    with pytest.raises(CapExceeded):
        induced_records(h1, z, 8, 10)
    assert outcomes(induced_records(h1, z, 8, 10**6)) == chain(h1, fresh(z), 8)
    # an orbit that never enters is proved so on every call
    v2, z = region_v(2), top(G)
    for _ in range(2):
        with pytest.raises(NeverEnters):
            induced_records(v2, z, 3, 10**6)


def test_kept_records_belong_to_one_region():
    h1, v2, h1_again = region_h1(), region_v(2), region_h1()
    z = top(surd_from_periodic_digits([3, 1, 2, 1, 4]))
    for region in (h1, v2, h1, h1_again, v2):
        assert outcomes(induced_records(region, z, 5, 10**6)) == chain(region, fresh(z), 5)



# -- the backward walk, the forward walk of the mirrored point, against the
# slow backward loop ---------------------------------------------------------


def value_points():
    """Points that carry exact values, on the axes too."""
    return [OmegaPoint.from_values(x, y) for x, y in (
        (S2, Fraction(2, 5)), (Fraction(3, 7), Fraction(5, 8)), (G, S2), (S2, Fraction(1)),
        (Fraction(0), Fraction(2, 9)), (Fraction(0), G),  # x = 0 line
        (Fraction(3, 7), Fraction(0)), (S2, Fraction(0)),  # y = 0 line
    )]


def backward_outcome(step, region, z, cap):
    """(N, u, t, s, r, 60-digit prefixes of the preimage's streams, its
    exact values or None), None, or the type of the error the step
    raised."""
    try:
        back = step(region, z, cap)
    except CfrowError as exc:
        return type(exc)
    if back is None:
        return None
    rec, prev = back
    assert rec.z_next is z
    return (rec.N, rec.u, rec.t, rec.s, rec.r, prev.xd.prefix(60), prev.yd.prefix(60),
            prev.x_val, prev.y_val)


def membership(region, z):
    """region.contains(z.xd, z.yd), or the type of the error it raised."""
    try:
        return region.contains(z.xd, z.yd)
    except CfrowError as exc:
        return type(exc)


@pytest.mark.parametrize("k", range(len(oracle_regions())))
def test_mirrored_region_holds_the_mirrored_points(k):
    region = oracle_regions()[k]
    mirror = region.mirrored()
    assert mirror.meets_x_zero == meets_y_zero(region)
    rng = random.Random(9300 + k)
    for z in oracle_points(rng) + value_points():
        for w in (z, ito_step(z), ito_step(ito_step(z))):
            assert membership(mirror, w.mirrored()) == membership(region, w), (region.name, w)


@pytest.mark.parametrize("k", range(len(oracle_regions())))
def test_backward_step_equals_slow_backward_loop(k):
    """Records, preimages, None and BackwardCapExceeded all equal the slow
    loop's, three backward visits deep, at caps below NEVER_ENTERS_AFTER
    (past it a repeated y-state may prove what the loop cannot)."""
    region = oracle_regions()[k]
    rng = random.Random(9400 + k)
    for z in oracle_points(rng) + value_points():
        for cap in (40, 3000):
            cur = z
            for _ in range(3):
                want = backward_outcome(slow_backward_induced_step, region, cur, cap)
                got = backward_outcome(backward_induced_step, region, cur, cap)
                assert got == want, (region.name, z, cap)
                if want is None or isinstance(want, type):
                    break
                cur = backward_induced_step(region, cur, cap)[1]


def test_backward_walk_jumps_a_long_run():
    """Back from y = [0; 300000, ...] the slow loop takes 300 000 single
    steps inside one run; the mirrored walk takes the run at once."""
    h1 = region_h1()
    z = OmegaPoint.from_streams(from_digits([2, 3, 1]), from_digits([300000, 2, 5]))
    start = time.perf_counter()
    backward_induced_step(h1, z, 10**6)
    assert time.perf_counter() - start < 0.01
    want = backward_outcome(slow_backward_induced_step, h1, z, 10**6)
    assert backward_outcome(backward_induced_step, h1, z, 10**6) == want
    assert want[0] == 299999


def test_backward_walk_proves_a_repeated_y_state():
    """Back from y = g every step has b1 = 1 and pushes a 1 onto x, so x
    never heads 3 and V_3 is never visited: the slow loop only reaches
    its cap, and the mirrored walk proves it from g's repeated state."""
    v3 = region_v(3)
    z = OmegaPoint.from_values(parse_real("sqrt(3)-1"), G)
    with pytest.raises(BackwardCapExceeded):
        slow_backward_induced_step(v3, z, 2000)
    start = time.perf_counter()
    assert d_map(v3, z, 10**5) == 1
    assert time.perf_counter() - start < 0.5
