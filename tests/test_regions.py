import contextlib
import functools
import itertools
import json
import math
import random
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from cfrow.cfe import cfe_direct
from cfrow.digits import (
    SNAP_DEN,
    ZERO_STREAM,
    Cons,
    DigitStream,
    LazyDigits,
    Reader,
    SnapReader,
    digits_fraction,
    from_digits,
    snapped_digits,
)
from cfrow.errors import BackwardCapExceeded, BadRegionSpec, InvalidSingularisationArea, OutOfDomain
from cfrow.exact import INF, Mat2Z
from cfrow.farey_maps import A0
from cfrow.gcf import Gcf, convergents, singularise
from cfrow import regions
from cfrow.induced import CellRegion, OmegaRegion, Region, induced_orbit, induced_records, induced_step
from cfrow.measure import _alpha_window, _strip_sampler
from cfrow.natural_ext import OmegaPoint, ito_step, run_move
from cfrow.regions import (
    AlphaRegion,
    SingularisationArea,
    _Cylinders,
    _float_table,
    build_alpha_region,
    build_s_expansion_region,
    region_cell,
    region_from_spec,
    region_h,
    region_h1,
    region_omega,
    region_v,
)
from cfrow.reals import Surd, golden_fraction, parse_real, rcf_digits
from cfrow.shift_space import phi, tau_orbit

from conftest import random_surd

S2 = parse_real("sqrt(2)-1")
G = golden_fraction()
CAP = 10**6


def top(x):
    return OmegaPoint.from_values(x, Fraction(1))


# -- cells -------------------------------------------------------------------


def test_cell_membership_examples():
    h1 = region_h1()
    xd = rcf_digits(S2)
    assert h1.contains(xd, rcf_digits(Fraction(2, 3)))
    assert not h1.contains(xd, rcf_digits(Fraction(1, 3)))
    v2 = region_v(2)
    assert v2.contains(xd, rcf_digits(Fraction(1, 5)))
    cell = region_cell(3, 1)
    z = OmegaPoint.from_values(parse_real("(0+1*sqrt(6))/6"), Fraction(2, 5))
    assert cell.contains(z.xd, z.yd)
    with pytest.raises(ValueError):
        region_cell(2, 2)


# -- singularisation areas ----------------------------------------------------

GOOD_AREAS = [
    [(Fraction(1, 2), 1, 0, Fraction(1, 2))],
    [(Fraction(1, 2), Fraction(3, 4), 0, Fraction(1, 3))],
    [(Fraction(3, 5), 1, 0, Fraction(2, 5))],
    [
        (Fraction(1, 2), Fraction(2, 3), 0, Fraction(1, 4)),
        (Fraction(3, 4), 1, 0, Fraction(1, 2)),
    ],
    [(Fraction(5, 8), Fraction(7, 8), Fraction(1, 5), Fraction(9, 20))],
]


def test_area_validation():
    for rects in GOOD_AREAS:
        SingularisationArea(rects)
    with pytest.raises(InvalidSingularisationArea) as e:
        SingularisationArea([(Fraction(1, 4), 1, 0, 1)])
    assert e.value.condition == "a"
    with pytest.raises(InvalidSingularisationArea) as e:
        SingularisationArea([(Fraction(1, 2), 1, Fraction(1, 2), 1)])
    assert e.value.condition == "b"
    with pytest.raises(InvalidSingularisationArea):
        SingularisationArea(
            [(Fraction(1, 2), 1, 0, Fraction(1, 2)), (Fraction(3, 5), 1, 0, Fraction(1, 3))]
        )


def test_empty_area_gives_top_strip():
    R = build_s_expansion_region([])
    z = top(S2)
    res = cfe_direct(R, z, 8, CAP)
    assert res.digits.pairs(9) == [(1, 0)] + [(1, 2)] * 8


def gauss_orbit_memberships(x, area: SingularisationArea, count: int):
    """Membership of the fast-map orbit of (x, 0) in the area: the n-th
    entry decides whether convergent n is skipped.  Membership compares
    exact values with the rectangles' corners, independently of the
    digit comparator the area's own `contains_rational` uses."""
    digs = rcf_digits(x)
    cur = x
    q_prev, q = 0, 1
    out = []
    s = digs
    for _ in range(count):
        a = s.head()
        y = Fraction(q_prev, q)
        out.append(any(x0 <= cur <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in area.rects))
        inv = 1 / cur
        cur = inv - a
        q_prev, q = q, a * q + q_prev
        s = s.tail()
    return out


def s_expansion_routes(x, rects, n_conv: int):
    """Convergents of the singularised expansion by three routes."""
    area = SingularisationArea(rects)
    # (i) fast-orbit filter of the classical convergents
    member = gauss_orbit_memberships(x, area, 3 * n_conv + 40)
    digs = rcf_digits(x).prefix(3 * n_conv + 40)
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    kept = []
    for j, a in enumerate(digs):
        if j < len(member) and not member[j]:
            kept.append((p, q))
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    route_orbit = kept[:n_conv]

    # (ii) singularisation rewrite at the member positions
    g = Gcf.rcf(digs)
    positions = {j for j, m in enumerate(member) if m}
    s = singularise(g, positions)
    cs = convergents(s, n_conv)[2:]
    route_rewrite = [(c.P, c.Q) for c in cs[:n_conv]]

    # (iii) region-induced contracted expansion
    R = build_s_expansion_region(rects)
    res = cfe_direct(R, top(x), n_conv - 1, CAP)
    route_region = [(c.P, c.Q) for c in res.convergents()][:n_conv]
    return route_orbit, route_rewrite, route_region


def test_s_expansion_three_route_equality(rng):
    for rects in GOOD_AREAS[:3]:
        for _ in range(5):
            x = random_surd(rng)
            r1, r2, r3 = s_expansion_routes(x, rects, 12)
            assert r1 == r2 == r3


def test_s_expansion_region_structure():
    # membership of z pulls one step back through the strip isomorphism
    R = build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))])
    z = top(S2)
    assert R.contains(z.xd, z.yd)
    # matrices per the two branches: [[0,1],[1,a1]] or [[1,a2],[1,a2+1]]
    for x in (S2, G, parse_real("sqrt(3)-1")):
        recs = induced_records(R, top(x), 10, CAP)
        for rec in recs:
            u, t, s, r = rec.A.a, rec.A.b, rec.A.c, rec.A.d
            assert s == 1
            assert (u == 0 and t == 1) or (u == 1 and r == t + 1)


# -- alpha regions -------------------------------------------------------------


def test_alpha_domain_check():
    with pytest.raises(OutOfDomain):
        build_alpha_region(Fraction(0))
    with pytest.raises(OutOfDomain):
        build_alpha_region(Fraction(3, 2))


def test_alpha_one_is_top_strip(rng):
    R = build_alpha_region(Fraction(1))
    for _ in range(20):
        x = random_surd(rng)
        y = Fraction(rng.randint(1, 10), rng.randint(10, 20))
        z = OmegaPoint.from_values(x, y)
        assert R.contains(z.xd, z.yd) == region_h1().contains(z.xd, z.yd)


def test_alpha_above_half_has_no_pushed_cells(rng):
    R = build_alpha_region(Fraction(7, 10))
    for _ in range(30):
        x = random_surd(rng)
        y = Fraction(rng.randint(1, 9), 20)  # below the top strip
        assert not R.contains(rcf_digits(x), rcf_digits(y))


def test_alpha_return_times(rng):
    # a1 if x < alpha; 1 if alpha <= x <= 1/2; a2 + 1 if x > 1/2
    alpha = Fraction(1, 4)
    R = build_alpha_region(alpha)
    for _ in range(25):
        x = random_surd(rng)
        z = top(x)
        if not R.contains(z.xd, z.yd):
            continue
        cur = z
        for _ in range(6):
            rec = induced_step(R, cur, CAP)
            digs = cur.xd
            a1 = digs.head()
            xv = cur.x_enclosure(60)
            if xv.hi < alpha:
                assert rec.N == a1
            elif xv.lo > Fraction(1, 2):
                assert rec.N == digs.tail().head() + 1
            elif xv.lo > alpha and xv.hi < Fraction(1, 2):
                assert rec.N == 1
            cur = rec.z_next


def test_alpha_matrix_forms(rng):
    for alpha in (Fraction(1, 4), Fraction(9, 20), Fraction(7, 10)):
        R = build_alpha_region(alpha)
        for _ in range(12):
            x = random_surd(rng)
            cur = top(x)
            for _ in range(6):
                rec = induced_step(R, cur, CAP)
                a1 = cur.xd.head()
                a2 = cur.xd.tail().head()
                xv = cur.x_enclosure(60)
                if xv.hi < alpha:
                    assert rec.A == Mat2Z(0, 1, 1, a1)
                elif xv.lo > Fraction(1, 2):
                    assert rec.A == Mat2Z(1, a2, 1, a2 + 1)
                elif xv.lo > alpha and xv.hi < Fraction(1, 2):
                    assert rec.A == A0
                assert rec.s == 1 and rec.u in (0, 1)
                cur = rec.z_next


def test_alpha_u_entry_tracks_threshold(rng):
    alpha = Fraction(9, 20)
    R = build_alpha_region(alpha)
    for _ in range(12):
        x = random_surd(rng)
        cur = top(x)
        for _ in range(5):
            rec = induced_step(R, cur, CAP)
            xv = cur.x_enclosure(60)
            if xv.hi < alpha:
                assert rec.u == 0
            elif xv.lo > alpha:
                assert rec.u == 1
            cur = rec.z_next


def test_alpha_digit_streams_match_direct_map(rng):
    from cfrow.farey_maps import alpha_orbit_digits

    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 10)):
        R = build_alpha_region(alpha)
        for _ in range(8):
            x = random_surd(rng)
            res = cfe_direct(R, top(x), 10, CAP)
            pairs = res.digits.pairs(11)
            x0 = x - (x + 1 - alpha).floor()
            direct = alpha_orbit_digits(alpha, x0, 10)
            assert [(s, d) for s, d in direct] == pairs[1:]
            assert pairs[0] == (1, 0 if x < alpha else 1)


def test_alpha_region_spec_roundtrip():
    spec = {"builder": "alpha", "params": {"alpha": "1/4"}}
    R = region_from_spec(spec)
    assert isinstance(R, AlphaRegion)
    R2 = region_from_spec(json.dumps(spec))
    assert R2.alpha == Fraction(1, 4)


def test_region_spec_shorthands():
    assert region_from_spec("h1").name == "h1"
    assert region_from_spec("h:3").cells == [(None, 3)]
    assert region_from_spec("v:2").cells == [(2, None)]
    assert region_from_spec("cell:3,1").cells == [(2, 2)]
    assert isinstance(region_from_spec("omega"), OmegaRegion)
    assert region_from_spec("alpha:1/2").alpha == Fraction(1, 2)
    spec = {"cells": [{"a": 2, "b": 1}], "altered": False}
    assert region_from_spec(spec).cells == [(2, 1)]
    rects = {"rects": [{"x": ["1/3", "1/2"], "y": ["1/3", "1/2"]}]}
    R = region_from_spec(rects)
    assert R.contains(rcf_digits(Fraction(2, 5)), rcf_digits(Fraction(2, 5)))
    sexp = {
        "builder": "s_expansion",
        "params": {"rects": [{"x": ["1/2", "1"], "y": ["0", "1/2"]}]},
    }
    assert region_from_spec(sexp).unit_s


def test_s_expansion_shift_cloud_matches_classical_map(rng):
    # For region orbit points z, the shift chart equals the classical
    # singularisation-space chart of the induced fast-map image:
    # phi(z) == M(G_Delta(psi(z))), with M identity on one-step images
    # and (x, y) |-> (-x/(1+x), 1-y) on two-step (pushed-through) ones.
    from cfrow.exact import INF as _INF
    from cfrow.reals import as_real, floor_of

    rects = [(Fraction(1, 2), 1, 0, Fraction(1, 2))]
    area = SingularisationArea(rects)
    R = build_s_expansion_region(rects)

    checked = 0
    for _ in range(6):
        x = random_surd(rng)
        z = top(x)
        for _ in range(5):
            z = induced_step(R, z, CAP).z_next
            b2 = z.yd.tail().head()
            if b2 is _INF:
                continue
            x_v, y_v = z.x_val, z.y_val
            # psi(z) on exact values: ([0;b2,a1,...], [0;b3,...])
            w_x = as_real(1 / (b2 + x_v))
            w2 = 1 / y_v - 1
            w_y = as_real(1 / w2 - b2)
            # induced fast map on the complement of the area
            a_w = floor_of(1 / w_x)
            u = (as_real(1 / w_x - a_w), as_real(1 / (a_w + w_y)))
            two_steps = any(x0 <= u[0] <= x1 and y0 <= u[1] <= y1 for x0, x1, y0, y1 in area.rects)
            if two_steps:
                a_u = floor_of(1 / u[0])
                u = (as_real(1 / u[0] - a_u), as_real(1 / (a_u + u[1])))
                m_pt = (as_real(-u[0] / (1 + u[0])), as_real(1 - u[1]))
            else:
                m_pt = u
            w = phi(R, z)
            assert w.X == m_pt[0] and w.Y == m_pt[1]
            checked += 1
    assert checked >= 15


def test_alpha_region_shift_is_natural_extension(rng):
    # the projection of the shift orbit is the one-map orbit (already in
    # test_shift_space); here check the Y-coordinate stays in [0, 1] and
    # points project into [alpha-1, alpha)
    for alpha in (Fraction(1, 4), Fraction(1, 2)):
        R = build_alpha_region(alpha)
        for _ in range(5):
            x = random_surd(rng)
            orb = tau_orbit(R, top(x), 8)
            for w in orb:
                assert alpha - 1 <= w.X < alpha
                assert 0 <= w.Y <= 1


@pytest.mark.parametrize("index", [0, -1, "x", True, 2.0, INF])
def test_cell_indices_must_be_ints_at_least_1(index):
    for cell in ((index, 1), (None, index)):
        with pytest.raises(ValueError, match="neither None nor an int >= 1"):
            CellRegion([(2, 3), cell])
    with pytest.raises(BadRegionSpec, match="neither None nor an int >= 1"):
        region_from_spec({"cells": [{"a": index, "b": 1}]})


def test_strip_builders_reject_index_0():
    for build in (region_h, region_v):
        with pytest.raises(ValueError):
            build(0)
    for spec in ("h:0", "v:0", '{"builder": "h", "params": {"b": -2}}'):
        with pytest.raises(BadRegionSpec):
            region_from_spec(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"builder": "alpha"},
        '{"builder": "alpha"}',
        '{"builder": "h", "params": {}}',
        {"builder": "cell", "params": {"a": 3}},
        {"builder": "s_expansion", "params": {"rects": [{"x": ["1/2", "1"]}]}},
    ],
)
def test_region_spec_missing_params(spec):
    with pytest.raises(BadRegionSpec, match="lacks the key"):
        region_from_spec(spec)


def test_region_spec_unknown_builder():
    with pytest.raises(BadRegionSpec, match="unknown region builder 'beta'"):
        region_from_spec({"builder": "beta", "params": {}})
    with pytest.raises(BadRegionSpec, match="unintelligible"):
        region_from_spec({"params": {}})


@pytest.mark.parametrize(
    "spec",
    ["h:x", "v:", "cell:3", "cell:a,b", "beta:1/2", "{not json", "[1]",
     {"rects": [{"x": ["1/3"], "y": ["1/3", "1/2"]}]}, {"cells": [3]},
     {"rects": [{"x": ["1/3", "1/2", "7"], "y": ["1/3", "1/2"]}]},
     {"rects": [{"x": "1/3", "y": ["1/3", "1/2"]}]},
     {"rects": [{"x": ["g", "1"], "y": ["1/3", "1/2"]}]},
     {"builder": "s_expansion",
      "params": {"rects": [{"x": ["1/2", "1", "7"], "y": ["0", "1/2"]}]}},
     "alpha:abc", "alpha:sqrt(x)", "alpha:1/0", "alpha:[0;0]", "alpha:[0;2,,3]"],
)
def test_region_spec_malformed(spec):
    with pytest.raises(BadRegionSpec):
        region_from_spec(spec)


@pytest.mark.parametrize("spec", ["alpha:2", "alpha:0", "alpha:-1/2", "alpha:[1;1]"])
def test_region_spec_alpha_outside_the_interval_is_out_of_domain(spec):
    """An alpha that parses but lies outside (0, 1] is OutOfDomain, not a
    malformed spec."""
    with pytest.raises(OutOfDomain, match=r"outside \(0, 1\]"):
        region_from_spec(spec)


@pytest.mark.parametrize(
    "x, y, message",
    [
        (["1/3", "1/2", "7"], ["1/3", "1/2"], "x = ['1/3', '1/2', '7'] is not a list of two corners"),
        ("1/3", ["1/3", "1/2"], "x = '1/3' is not a list of two corners"),
        (["1/3", "1/2"], ["1/2"], "y = ['1/2'] is not a list of two corners"),
        (["1/3", "1/2"], ["1/3", "g"], "corner y[1] = 'g' is not a rational"),
        (["1/x", "1/2"], ["1/3", "1/2"], "corner x[0] = '1/x' is not a rational"),
    ],
)
def test_rect_spec_names_its_malformed_entry_and_corner(x, y, message):
    good, entry = {"x": ["1/3", "1/2"], "y": ["1/3", "1/2"]}, {"x": x, "y": y}
    for spec in ({"rects": [good, entry]},
                 {"builder": "s_expansion", "params": {"rects": [good, entry]}}):
        with pytest.raises(BadRegionSpec) as e:
            region_from_spec(spec)
        assert str(e.value) == "rects entry 1: " + message


# -- the alpha walker against the stream walker it replaced ---------------------


@functools.lru_cache(maxsize=None)
def oracle_alpha_list(alpha):
    """alpha's digits as the walker's reference, read by its period:
    (preperiod and one period, period length).  Euclid for a rational
    (period 0, the list complete); field arithmetic (invert, floor,
    subtract) for a surd, until a complete quotient repeats."""
    if not isinstance(alpha, Surd):
        v = Fraction(alpha)
        p, q, out = v.numerator, v.denominator, []
        while p:
            out.append(q // p)
            p, q = q % p, p
        return out, 0
    out, seen, cur = [], {}, alpha
    while cur not in seen:
        seen[cur] = len(out)
        y = cur.inverse()
        a = y.floor()
        out.append(a)
        cur = y - a
    return out, len(out) - seen[cur]


def alpha_digits(alpha, n):
    """alpha's first n digits, None past the end of a rational's."""
    alist, per = oracle_alpha_list(alpha)
    m = len(alist) - per
    return [alist[i] if i < len(alist) else alist[m + (i - m) % per] if per else None
            for i in range(n)]


def surd_bounds(v, k):
    """Rational bounds on v within 2^-k: sqrt(q^2 d) by isqrt."""
    if not isinstance(v, Surd) or v.q == 0:
        return Fraction(v), Fraction(v)
    t = math.isqrt(v.q * v.q * v.d * 4**k)
    lo, hi = Fraction(t, 2**k), Fraction(t + 1, 2**k)
    if v.q < 0:
        lo, hi = -hi, -lo
    return (v.p + lo) / v.r, (v.p + hi) / v.r


def exact_lt(v, w) -> bool:
    """v < w for rationals and surds, also of two different fields, whose
    values differ and are separated by bounds from integer square roots."""
    try:
        return v < w
    except ValueError:
        k = 64
        while True:
            (vl, vh), (wl, wh) = surd_bounds(v, k), surd_bounds(w, k)
            if vh < wl or wh < vl:
                return vh < wl
            k *= 2


def oracle_x_lt_alpha(alpha, back_cap, bs, j, xd, v) -> bool:
    """Is v = [0; bs[j-1], ..., bs[0], xd...] below alpha?  Decided by
    exact field arithmetic.  The digits, walked head/tail, only say
    whether the first difference with alpha's lies past back_cap, where
    the walker raises; an irrational v equal to alpha has none."""
    if isinstance(v, Surd) and isinstance(alpha, Surd) and v.d == alpha.d and v == alpha:
        return False
    i, s = 0, xd
    while True:
        if i < j:
            da = bs[j - 1 - i]
        else:
            da = None if s.head() is INF else s.head()
            s = s.tail()
        db = alpha_digits(alpha, i + 1)[i]
        if da != db or da is None:
            break
        i += 1
    if i > back_cap:
        raise BackwardCapExceeded("comparison against alpha undecided")
    return exact_lt(v, alpha)


def oracle_k_parity_odd(alpha, back_cap, z, xv) -> bool:
    ys = z.yd.tail()
    bs = []
    v = xv
    for j in range(1, back_cap + 1):
        b = ys.head()
        bs.append(b)
        if b is INF:
            return j % 2 == 1
        ys = ys.tail()
        v = 1 / (b + v)
        if oracle_x_lt_alpha(alpha, back_cap, bs, j, z.xd, v):
            return j % 2 == 1
    raise BackwardCapExceeded("parity search exceeded")


def oracle_contains(alpha, z, xv, back_cap=2000) -> bool:
    """Membership of z, whose x-coordinate is xv exactly."""
    b1 = z.yd.head()
    a1 = z.xd.head()
    if b1 == 1:
        return oracle_k_parity_odd(alpha, back_cap, z, xv)
    if b1 is INF or a1 is INF or alpha > Fraction(1, 2):
        return False
    w = OmegaPoint.from_streams(Cons(a1 + b1 - 1, z.xd.tail()), Cons(1, z.yd.tail()))
    wv = 1 / (b1 - 1 + 1 / xv)
    if oracle_x_lt_alpha(alpha, back_cap, [], 0, w.xd, wv):
        return False
    return oracle_k_parity_odd(alpha, back_cap, w, wv)


WALKER_ALPHAS = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(7, 10), S2, G,
                 Fraction(1)]


def agree(R, z, xv=None, back_cap=2000):
    """R.contains(z.xd, z.yd) equals the oracle, raising included; xv is z's exact
    x-coordinate, z.x_val by default."""
    xv = z.x_val if xv is None else xv
    try:
        want = oracle_contains(R.alpha, z, xv, back_cap)
    except BackwardCapExceeded:
        with pytest.raises(BackwardCapExceeded):
            R.contains(z.xd, z.yd)
        return None
    assert R.contains(z.xd, z.yd) == want
    return want


def stream(digits, tail=None):
    """Digits followed by INF, or by the stream `tail`."""
    s = ZERO_STREAM if tail is None else tail
    for d in reversed(digits):
        s = Cons(d, s)
    return s


def stream_value(digits, tail=0):
    """The number [0; digits..., + tail] the stream of `stream` spells,
    for a tail value in [0, 1]."""
    v = tail
    for d in reversed(digits):
        v = 1 / (d + v)
    return v


def surd_tail(rng):
    """A random surd tail's stream and value, or no tail, half and half."""
    if rng.random() < 0.5:
        t = random_surd(rng)
        return rcf_digits(t), t
    return None, Fraction(0)


def digits_near(rng, alpha, n):
    """Small random digits, drawn half the time from alpha's own."""
    alist = oracle_alpha_list(alpha)[0]
    return [rng.choice(alist) if rng.random() < 0.5 else rng.randint(1, 5) for _ in range(n)]


def test_alpha_walker_on_stream_points(rng):
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        seen = set()
        for _ in range(600):
            xs = digits_near(rng, alpha, rng.randint(0, 12))
            ys = digits_near(rng, alpha, rng.randint(0, 12))
            b1 = rng.choice([1, 1, 1, 2, 3, 5])
            tail, tv = surd_tail(rng)
            z = OmegaPoint.from_streams(stream(xs, tail), stream([b1] + ys))
            seen.add(agree(R, z, stream_value(xs, tv)))
        assert seen >= {True, False}


def test_alpha_run_tests_come_before_readers(rng, monkeypatch):
    """The first test of each walker path is made before any reader is
    built, with the walker's answer: a top-strip b2 past alpha's first
    digit (or y = 1, no b2) is depth 1, at every back_cap but 0, where
    the parity search raises; a slid c past alpha's first digit is no
    member; and a region that does not slide answers a run without
    reading the point."""
    built = []

    class CountingReader(regions.Reader):
        __slots__ = ()

        def __init__(self, got, src=None):
            built.append(1)
            super().__init__(got, src)

    monkeypatch.setattr(regions, "Reader", CountingReader)
    for alpha in WALKER_ALPHAS:
        a = oracle_alpha_list(alpha)[0][0]
        for back_cap in (0, 1, 2000):
            R = build_alpha_region(alpha, back_cap=back_cap)
            for b2 in (None, 1, a - 1, a, a + 1, a + 7):
                if b2 == 0:
                    continue
                tail, tv = surd_tail(rng)
                xs = digits_near(rng, alpha, 3)
                ys = [1] if b2 is None else [1, b2] + digits_near(rng, alpha, 3)
                z = OmegaPoint.from_streams(stream(xs, tail), stream(ys))
                del built[:]
                agree(R, z, stream_value(xs, tv), back_cap=back_cap)
                if back_cap and (b2 is None or b2 > a):
                    assert not built, (alpha, b2)
            for b1 in (2, 3, a + 2):
                c = rng.randint(1, 6)
                z = OmegaPoint.from_streams(stream([c] + digits_near(rng, alpha, 3)), stream([b1, 2]))
                del built[:]
                if not R.slides or c + b1 - 1 > a:
                    assert R.first_in_run(z.xd, z.yd, c - 1 or 1) is None
                    assert not R.contains(z.xd, z.yd)
                    assert not built, (alpha, b1, c)

    class Unread(DigitStream):
        def head(self):
            raise AssertionError("a run of a region that does not slide was read")

        tail = head

    for alpha in (Fraction(7, 10), G, Fraction(1)):
        assert build_alpha_region(alpha).first_in_run(Unread(), Unread(), 5) is None


def test_alpha_walker_on_surd_orbits(rng):
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        for _ in range(6):
            y = rng.choice([Fraction(1), Fraction(rng.randint(1, 30), 31), random_surd(rng)])
            z = OmegaPoint.from_values(random_surd(rng), y)
            for _ in range(60):
                agree(R, z)
                z = ito_step(z)


def boundary_surd(rng, alpha, hit_step):
    """A surd whose alpha-orbit lands exactly on alpha - 1 at `hit_step`:
    alpha - 1 pulled back through random branches of the alpha-map."""
    y = alpha - 1
    for _ in range(hit_step):
        while True:
            x = rng.choice((1, -1)) * (y + rng.randint(1, 8)).inverse()
            if alpha - 1 <= x < alpha:
                break
        y = x
    return y - y.floor()


def test_alpha_walker_on_boundary_surds(rng):
    """Orbits that meet alpha exactly are decided, never walked to the
    cap: the pulled-back x equal to alpha is found by its state."""
    for alpha in (S2, G):
        R = build_alpha_region(alpha)
        for hit in (1, 4, 15):
            z = top(boundary_surd(rng, alpha, hit))
            for _ in range(100):
                assert agree(R, z) is not None
                z = ito_step(z)


def test_alpha_walker_on_long_shared_prefixes(rng):
    """Pulled-back digits that share 50-300 digits with alpha (or all of a
    rational alpha's) at a chosen backward depth j, or after a slide."""
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        alist, per = oracle_alpha_list(alpha)
        small = build_alpha_region(alpha, back_cap=40)
        for _ in range(60):
            m = rng.randint(50, 300) if per else len(alist)
            after = rng.choice([[], [rng.randint(1, 6)], digits_near(rng, alpha, 5)])
            tail, tv = surd_tail(rng)
            pulled = alpha_digits(alpha, m) + after
            j = rng.randint(0, min(4, m))
            if j == 0:  # slide a point of a lower strip up onto the pulled-back x
                c = pulled[0]
                b1 = rng.randint(2, c) if c >= 2 else 2
                xd = [max(1, c - b1 + 1)] + pulled[1:]
                yd = [b1] + digits_near(rng, alpha, 4)
            else:
                xd = pulled[j:]
                yd = [1] + pulled[:j][::-1] + digits_near(rng, alpha, rng.randint(0, 4))
            z = OmegaPoint.from_streams(stream(xd, tail), stream(yd))
            xv = stream_value(xd, tv)
            agree(R, z, xv)
            agree(small, z, xv, back_cap=40)
            if j:
                bs = yd[1 : j + 1]
                x = Reader([], z.xd)
                assert R._below(Reader(yd[: j + 1]), j, x) == oracle_x_lt_alpha(
                    alpha, 2000, bs, j, z.xd, stream_value(pulled[:j], xv))


def test_alpha_walker_cap_edge(rng):
    """A first difference at index back_cap decides; one past it raises."""
    for alpha in (S2, G):
        R = build_alpha_region(alpha, back_cap=40)
        outcomes = set()
        for m in (38, 39, 40, 41, 42) * 4:
            ad = alpha_digits(alpha, m + 1)
            pulled = ad[:m] + [ad[m] + rng.randint(1, 3)]
            j = rng.randint(1, 4)
            t = random_surd(rng)
            xd = stream(pulled[j:], rcf_digits(t))
            z = OmegaPoint.from_streams(xd, stream([1] + pulled[:j][::-1]))
            outcomes.add(agree(R, z, stream_value(pulled[j:], t), back_cap=40))
        assert None in outcomes and len(outcomes) > 1


def test_alpha_walker_folds_and_reads_alpha_by_its_period():
    """[2]*300, 3 is below sqrt(2) - 1 = [0; 2, 2, ...] (the first
    difference, at even index 300, has the bigger digit); likewise for
    g = [0; 1, 1, ...], where the parity of the difference decides.  A
    pulled-back [..., b, 1] ending in alpha's [..., b + 1] is alpha, and so
    is a pulled-back x whose tail is alpha's, of any period."""
    R = build_alpha_region(S2)
    assert R._below(Reader([1]), 0, Reader([2] * 300 + [3]))
    assert R._below(Reader([1, 2]), 1, Reader([2] * 299 + [3]))
    assert not R._below(Reader([1]), 0, Reader([2] * 301 + [3]))
    Rg = build_alpha_region(G)
    assert Rg._below(Reader([1]), 0, Reader([1] * 300 + [2]))
    assert not Rg._below(Reader([1]), 0, Reader([1] * 301 + [2]))
    # alpha = [0; 5, 4]; x = 0 under y = [1, 1, 3, 5]: pulled back [5, 3, 1] = [5, 4]
    R54 = build_alpha_region(Fraction(4, 21))
    z = OmegaPoint.from_streams(ZERO_STREAM, from_digits([1, 1, 3, 5]))
    assert not R54._below(Reader([1, 1, 3, 5]), 3, Reader([]))
    assert R54.contains(z.xd, z.yd) == oracle_contains(R54.alpha, z, Fraction(0))
    # alpha = sqrt(7) - 2 = [0; 1, 1, 1, 4, ...], period 4: x = alpha's own
    # tail under y = [1, b2, ..., b_{j+1}] pulls back to alpha, found by the
    # one state test after j + 4 digits, also when that is back_cap + 1
    R7 = build_alpha_region(parse_real("sqrt(7)-2"))
    for j in (1, 2, 3):
        x, y = rcf_digits(R7.alpha), [1] + R7.alpha_list[:j][::-1]
        for _ in range(j):
            x = x.tail()
        for R in (R7, build_alpha_region(R7.alpha, back_cap=j + 3)):
            assert not R._below(Reader(y), j, Reader([], x))


# -- walks that decide a landing from the landing before it --------------------

# criterion 5's eight alphas, and 1/50
LANDING_ALPHAS = [Fraction(1, 4), Fraction(3, 10), S2, Fraction(9, 20), Fraction(1, 2), G,
                  Fraction(7, 10), Fraction(1), Fraction(1, 50)]
README_AREA = [(Fraction(1, 2), 1, 0, Fraction(1, 2))]
# valid, but the closed area meets its closed image on v = 2/3
TOUCHING_AREA = README_AREA + [(Fraction(3, 4), 1, Fraction(1, 2), Fraction(2, 3))]


class Asking(Region):
    """A region's membership with nothing known between landings: a walk
    asks `first_in_run` at every run and `contains` at every landing."""

    def __init__(self, region):
        self.region, self.name = region, region.name

    def contains(self, xd, yd):
        return self.region.contains(xd, yd)

    def first_in_run(self, xd, yd, m):
        return self.region.first_in_run(xd, yd, m)


def walk_start(rng):
    """A surd x under a rational y, whose parity searches end."""
    y = rng.choice([Fraction(1), Fraction(2, 3), Fraction(3, 4), Fraction(rng.randint(1, 30), 31)])
    return OmegaPoint.from_values(random_surd(rng), y)


def same_record(rec, want):
    assert (rec.N, rec.A) == (want.N, want.A)
    assert rec.z_next.xd.prefix(6) == want.z_next.xd.prefix(6)
    assert rec.z_next.yd.prefix(6) == want.z_next.yd.prefix(6)


def check_known(R, xd, yd, counts):
    """What a walk takes from a visit at (xd, yd), or from a missed
    top-strip landing there, is what `first_in_run` and `contains` say."""
    a1 = xd.head()
    if a1 is INF:
        return
    member = R.contains(xd, yd)
    known = R.after_visit(xd, yd) if member else (None, True) if R.visit_after_miss else None
    if known is None:
        return
    counts[member] += 1
    k, visit = known
    if a1 > 1:
        assert R.first_in_run(xd, yd, a1 - 1) == k
    if k is None:
        assert R.contains(*run_move(xd, yd, a1, a1)) == visit


def test_walks_decide_landings_as_the_walker(rng):
    """A walk from a record's landing, or past a missed landing, decides
    runs and landings without asking: each answer is the region's own on
    the same streams, at record landings and at every landing of runs in
    turn, and each record is the asking walk's."""
    counts = {True: 0, False: 0}
    for R in ([build_alpha_region(a) for a in LANDING_ALPHAS]
              + [build_s_expansion_region(rects) for rects in (README_AREA, TOUCHING_AREA)]):
        asking = Asking(R)
        for _ in range(6):
            z = walk_start(rng)
            cur = z
            for rec in induced_records(R, z, 10, CAP):
                same_record(rec, induced_step(asking, cur, CAP))
                cur = rec.z_next
                assert cur._visit is R
                check_known(R, cur.xd, cur.yd, counts)
            xd, yd = z.xd, z.yd
            for _ in range(30):  # the top-strip landings of z's runs, member or not
                if xd.head() is INF:
                    break
                xd, yd = run_move(xd, yd, xd.head(), xd.head())
                check_known(R, xd, yd, counts)
    assert counts[True] > 500 and counts[False] > 200, counts


def test_only_a_records_landing_starts_from_a_visit(rng):
    """The walk takes its start for a visit only where the library's own
    record landed, for the region it walked: a point built from the same
    streams, its mirror, a slow step on, and the same landing asked about
    another region, walk as the asking walk does."""
    R = build_alpha_region(Fraction(1, 4))
    other = build_alpha_region(Fraction(1, 4))
    for _ in range(10):
        w = induced_step(R, walk_start(rng), CAP).z_next
        assert w._visit is R
        for v in (OmegaPoint(w.xd, w.yd), w.mirrored().mirrored(), ito_step(w)):
            assert v._visit is None
        same_record(induced_step(other, w, CAP), induced_step(Asking(other), w, CAP))


def test_a_walk_from_an_alpha_visit_asks_nothing(rng, monkeypatch):
    """From a record's landing an alpha walk's first test decides its
    record: it asks neither `contains` nor `first_in_run`."""
    regions_ = [build_alpha_region(a) for a in LANDING_ALPHAS]
    landings = [(R, induced_step(R, walk_start(rng), CAP).z_next) for R in regions_ for _ in range(5)]

    def unasked(*args):
        raise AssertionError("the walk asked")

    monkeypatch.setattr(AlphaRegion, "contains", unasked)
    monkeypatch.setattr(AlphaRegion, "first_in_run", unasked)
    for R, w in landings:
        for _ in range(10):
            w = induced_step(R, w, CAP).z_next


def test_touching_area_records():
    """Landings 2 and 3 of this walk both miss the region of an area that
    touches its image: x = (19 + sqrt(13))/58 = [0; 2, 1, 1, 3, 3, ...],
    from its value and from a digit stream alike."""
    R = build_s_expansion_region(TOUCHING_AREA)
    tail = LazyDigits(itertools.repeat(3))
    for z in (OmegaPoint.from_values(parse_real("(19+sqrt(13))/58"), Fraction(1)),
              OmegaPoint.from_streams(stream([2, 1, 1], tail), stream([1]))):
        assert [rec.N for rec in induced_records(R, z, 4, CAP)] == [2, 5, 3, 3]


def test_area_meets_its_closed_image():
    """An S-expansion walk takes the landing after a miss for a visit only
    where the closed area misses its closed image, which the interiors'
    test (condition (b)) does not tell."""
    assert not SingularisationArea(README_AREA).meets_image
    assert build_s_expansion_region(README_AREA).visit_after_miss
    for rects in GOOD_AREAS:
        area = SingularisationArea(rects)
        assert build_s_expansion_region(area).visit_after_miss == (not area.meets_image)
    touching = SingularisationArea(TOUCHING_AREA)
    assert touching.meets_image
    assert not build_s_expansion_region(touching).visit_after_miss


def test_small_back_cap_walks_return_the_default_records(rng):
    """At back_cap 2 or 3 a walk decides some landings where `contains`
    would search past the cap and raise BackwardCapExceeded; every record
    it returns, up to the first question that raises, is the default
    back_cap's."""
    past_cap = 0
    for alpha in LANDING_ALPHAS:
        wide = build_alpha_region(alpha)
        for back_cap in (2, 3):
            R = build_alpha_region(alpha, back_cap=back_cap)
            for _ in range(6):
                z = walk_start(rng)
                want = induced_records(wide, z, 12, CAP)
                got = []
                with contextlib.suppress(BackwardCapExceeded):
                    for rec in itertools.islice(induced_orbit(R, z, CAP), 12):
                        got.append(rec)
                for rec, w in zip(got, want):
                    same_record(rec, w)
                for rec in got:
                    w = rec.z_next
                    try:
                        R.contains(w.xd, w.yd)
                    except BackwardCapExceeded:
                        past_cap += 1
    assert past_cap > 0


def test_contains_rational_matches_oracle_on_sampler_points():
    # the walker pulls from lazy readers of a sample's floats, and the
    # sample entry answers as it does; the oracle gets the snaps'
    # complete lists
    rng = random.Random(17)
    sample = _strip_sampler(Fraction(1, 5))
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        hits = 0
        for _ in range(1500):
            xv, t = sample(rng)
            xd, yd = snapped_digits(xv), snapped_digits(t)
            got = R.contains_rational(SnapReader(xv), SnapReader(t))
            assert R.contains_sample(xv, t) == got
            if xd:
                z = OmegaPoint.from_streams(from_digits(xd), from_digits(yd))
                assert got == oracle_contains(alpha, z, digits_fraction(xd))
            hits += got
        assert 0 < hits < 1500


def test_contains_rational_zero_coordinate_is_outside():
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        # x = 0, read by a complete list or by a snap not yet started:
        # both entry points give the walker's answer
        for y in ([1], [1, 3], [1, 1, 2], [2], [3, 2]):
            z = OmegaPoint.from_streams(ZERO_STREAM, from_digits(y))
            for x in (Reader([]), SnapReader(0.0)):
                assert R.contains_rational(x, Reader(list(y))) == R.contains(z.xd, z.yd)
        assert not R.contains_rational(Reader([3]), Reader([]))
        assert not R.contains_rational(Reader([]), Reader([]))


def test_contains_rational_reads_x_only_when_the_walker_asks():
    def member(R, x, y):
        return R.contains(from_digits(x.read_all()), from_digits(y.read_all()))

    # the walker's reads, from unstarted and started y readers alike (the
    # cylinder table is `contains_sample`'s, never the walker's)
    # alpha = g has a1 = 1: a top-strip point with b2 = 3 is decided by y
    # alone, and x's reader is never started
    R = build_alpha_region(G)
    for y in (SnapReader(7 / 9), started(7 / 9)):  # y = [0; 1, 3, 2]
        x = SnapReader(0.37)
        got = R.contains_rational(x, y)
        assert x.got == [] and type(x.src) is float
        assert got == member(R, x, y)
    # b2 = a1: the comparison against alpha runs on into x
    x, y = SnapReader(0.37), started(0.6)  # y = [0; 1, 1, 2]
    got = R.contains_rational(x, y)
    assert x.got and got == member(R, x, y)
    # the slide path reads x's first digit and leaves the slid c there
    R = build_alpha_region(Fraction(1, 4))
    for t in (0.3, 0.21, 0.9):
        x, y = SnapReader(t), started(0.4)  # y = [0; 2, 2]
        a1 = snapped_digits(t)[0]
        got = R.contains_rational(x, y)
        assert x.got[0] == a1 + 1
        assert got == member(R, SnapReader(t), y)


# the walker's alphas, plus a1 = 3 (1/3, 3/10, (sqrt(5)-1)/4), 7, 1 and 2000
TABLE_ALPHAS = WALKER_ALPHAS + [Fraction(1, 3), Fraction(3, 10), Fraction(1, 7), Fraction(11, 20),
                                Fraction(1, 2000), parse_real("(sqrt(5)-1)/4")]


def started(t):
    """A snap reader of the float t whose first read is done."""
    y = SnapReader(t)
    y.more()
    return y


def walker(R, xv, t):
    """R's walker on the snaps of (xv, t): y's reader is started first."""
    return R.contains_rational(SnapReader(xv), started(t))


def recorded_readers(mp) -> list:
    """The list that each `SnapReader._of` call appends its reader to,
    while the monkeypatch mp holds."""
    readers, of = [], SnapReader._of

    def record(t):
        readers.append(of(t))
        return readers[-1]

    mp.setattr(SnapReader, "_of", staticmethod(record))
    return readers


def from_floats(R, xv, t):
    """contains_sample on the floats (xv, t), and whether it answered
    from them, building no reader."""
    with pytest.MonkeyPatch.context() as mp:
        readers = recorded_readers(mp)
        got = R.contains_sample(xv, t)
    return got, not readers


def leaf_floats(ends, rng, interior):
    """Per leaf of a float table: its float ends, their inward neighbours
    and random floats between, then the floats just outside each end."""
    for i in range(0, len(ends), 2):
        lo, hi = ends[i], math.nextafter(ends[i + 1], -math.inf)
        inside = [lo, hi] + [t for t in (math.nextafter(lo, 1.0), math.nextafter(hi, 0.0)) if lo <= t <= hi]
        inside += [rng.uniform(lo, hi) for _ in range(interior)]
        outside = [t for t in (math.nextafter(lo, -math.inf), ends[i + 1]) if 0.0 <= t <= 1.0]
        yield i // 2, inside, outside


def in_table(ends, t) -> bool:
    return bisect_right(ends, t) % 2 == 1


def test_decided_intervals_answer_as_the_walker():
    rng = random.Random(25)
    for alpha in TABLE_ALPHAS:
        R = build_alpha_region(alpha)
        ends, leaves = R._cylinders()
        assert leaves, alpha
        for k, inside, outside in leaf_floats(ends, rng, 20):
            answer = leaves[k]
            if type(answer) is bool:
                for t in inside:
                    for xv in (0.0, 1.0, 5e-324, rng.random()):
                        assert from_floats(R, xv, t) == (answer, True), (alpha, t, xv)
                        assert walker(R, xv, t) == answer, (alpha, t, xv)
            else:  # an x list: its floats answer, the floats beside it go through the walker
                x_ends, x_leaves = answer
                assert x_leaves, (alpha, k)
                for t in inside[:4] + inside[-2:]:
                    for j, x_in, x_out in leaf_floats(x_ends, rng, 4):
                        for xv in x_in:
                            assert from_floats(R, xv, t) == (x_leaves[j], True), (alpha, t, xv)
                            assert walker(R, xv, t) == x_leaves[j], (alpha, t, xv)
                        for xv in x_out:
                            if not in_table(x_ends, xv):
                                got, unread = from_floats(R, xv, t)
                                assert got == walker(R, xv, t) and not unread, (alpha, t, xv)
            # floats just outside a leaf go through the walker unchanged
            for t in outside:
                if not in_table(ends, t):
                    for xv in (0.0, 1.0, 5e-324, rng.random()):
                        got, unread = from_floats(R, xv, t)
                        assert got == walker(R, xv, t) and not unread, (alpha, t, xv)
        # floats the table does not hold go through the walker unchanged
        for _ in range(300):
            t, xv = rng.random(), rng.random()
            assert from_floats(R, xv, t)[0] == walker(R, xv, t), (alpha, t, xv)


def test_cylinder_table_leaves_are_disjoint_and_ascending():
    for alpha in TABLE_ALPHAS:
        ends, leaves = build_alpha_region(alpha)._cylinders()
        tables = [(ends, leaves)] + [a for a in leaves if type(a) is not bool]
        for e, ls in tables:
            assert len(e) == 2 * len(ls) and e == sorted(e), alpha
            assert all(e[i] < e[i + 1] for i in range(0, len(e), 2)), alpha
            assert all(0.0 <= t <= math.nextafter(1.0, 2.0) for t in e), alpha


def test_cylinder_classes_agree_with_their_representative():
    # the walker tells no two digits of one class apart, at any position
    # of y's or x's prefix: digits up to 10**6 and the class's own ends,
    # in open cylinders and, for y, at its complete list
    rng = random.Random(26)
    # 7/15 = [0; 2, 7] and 8/25 = [0; 3, 8] end on a digit e whose e - 1
    # only the fold tells apart from the digits below it
    for alpha in TABLE_ALPHAS + [Fraction(7, 15), Fraction(8, 25)]:
        C = _Cylinders(build_alpha_region(alpha))
        classes = C.classes(0)

        def members(cls):
            lo, hi = cls
            top = 10**6 if hi is None else hi
            ds = {lo, lo + 1, top, top + 1, rng.randint(lo, max(lo, top))}
            return sorted(d for d in ds if lo <= d and (hi is None or d <= hi))

        def class_of(d, shift=0):
            return next(c for c in C.classes(shift) if c[0] <= d and (c[1] is None or d <= c[1]))

        reps = [lo for lo, _ in classes]
        ys_list = [[1]] + [[1, b] for b in reps] + [[1, b, c] for b in reps for c in reps[:4]]
        ys_list += [[2], [3]] + [[b1, b] for b1 in (2, 3) for b in reps]
        for ys in ys_list:
            x_reps = [lo for lo, _ in C.classes(ys[0] - 1)]
            xs_list = [[]] + [[a] for a in x_reps] + [[a, a2] for a in x_reps[:3] for a2 in reps]
            for xs in xs_list:
                for ended in (False, True):
                    base = C.run(ys, xs, ended)
                    if len(ys) > 1:
                        for d in members(class_of(ys[-1])):
                            assert C.run(ys[:-1] + [d], xs, ended) == base, (alpha, ys, d, xs)
                    for i, a in enumerate(xs):
                        for d in members(class_of(a, ys[0] - 1 if i == 0 else 0)):
                            assert C.run(ys, xs[:i] + [d] + xs[i + 1:], ended) == base, (alpha, ys, xs, i, d)


def test_cylinder_table_at_the_sampler_edges():
    # x = 0.0 and 5e-324 snap to 0, y = 1.0 is the complete list [1] and
    # y = y_min the strip's lower edge, which the sampler clamps to
    rng = random.Random(27)
    for alpha in TABLE_ALPHAS:
        R = build_alpha_region(alpha)
        y_min = float(_alpha_window(R))
        for t in (1.0, y_min, math.nextafter(y_min, 1.0), math.nextafter(1.0, 0.0)):
            for xv in (0.0, 5e-324, 1.0, 0.5, rng.random()):
                assert from_floats(R, xv, t)[0] == walker(R, xv, t), (alpha, t, xv)
        for xv in (0.0, 5e-324):
            for _ in range(50):
                t = rng.uniform(y_min, 1.0)
                assert from_floats(R, xv, t)[0] == walker(R, xv, t), (alpha, t, xv)


def y_families(a1: int):
    """The two families of top-strip y-intervals that y's first digits
    settle before x is read: depth 1, a member, on [(a1+1)/(a1+2), 1],
    where b2 > a1 or y = 1; depth 2, no member, on
    [k/(k+1), (kA+1)/((k+1)A+1)], A = a1 + 1, where b2 = k < a1 and
    b3 > a1 or y ends after b2, for k < 65 (k = 1 from [0; 1, 1, 10**6 + 1],
    as 1/2 reads [2])."""
    A = a1 + 1
    for k in range(1, min(a1, 65)):
        lo = Fraction(10**6 + 2, 2 * 10**6 + 3) if k == 1 else Fraction(k, k + 1)
        yield lo, Fraction(k * A + 1, (k + 1) * A + 1), False
    yield Fraction(a1 + 1, a1 + 2), Fraction(1), True


def test_cylinder_table_answers_the_y_families():
    # the table holds the two families y alone settles, so their samples
    # are still answered from the floats: random floats inside (the
    # table leaves gaps about 10**-6 of a cylinder wide between leaves)
    rng = random.Random(28)
    for alpha in TABLE_ALPHAS:
        R = build_alpha_region(alpha)
        a1 = R.alpha_list[0]
        for lo, hi, member in y_families(a1):
            for t in [1.0] * member + [rng.uniform(float(lo), float(hi)) for _ in range(20)]:
                for xv in (0.0, 0.3, rng.random()):
                    assert from_floats(R, xv, t) == (member, True), (alpha, t, xv)


def test_alpha_region_table_is_small_for_tiny_alpha():
    R = AlphaRegion(Fraction(1, 10**6))
    regions._TABLES.pop((tuple(R.alpha_list), R.period, R.back_cap), None)
    start = time.perf_counter()
    ends, leaves = R._cylinders()
    assert time.perf_counter() - start < 0.05
    assert R.alpha_list == [10**6] and 0 < len(leaves) <= 65
    assert len(ends) == 2 * len(leaves) and ends == sorted(ends)
    # y = 1 is a depth-1 member, read off its float
    assert from_floats(R, 0.3, 1.0) == (True, True)


def test_cylinder_tables_build_quickly():
    # the best of three builds from scratch, per alpha
    for alpha in TABLE_ALPHAS:
        R = build_alpha_region(alpha)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _Cylinders(R).table()
            best = min(best, time.perf_counter() - start)
        assert best <= 0.02, (alpha, best)


def test_cylinder_table_builds_are_deterministic():
    # the build is stopped by counted work, never by time: two fresh builds
    # of one alpha give equal tables
    for alpha in (Fraction(2, 5), Fraction(1, 7), S2, Fraction(1, 2000)):
        R = build_alpha_region(alpha)
        assert _Cylinders(R).table() == _Cylinders(R).table(), alpha


def test_cylinder_table_work_is_within_its_budget():
    # walker runs plus the leaves handed to the float tables, counted over
    # one build, never pass the budget, for alphas that spend all of it
    for alpha in (Fraction(1, 7), Fraction(1, 2000), Fraction(1, 10**6)):
        C, leaves = _Cylinders(build_alpha_region(alpha)), []
        run, runs = C.run, []
        C.run = lambda *args, **kwargs: runs.append(1) or run(*args, **kwargs)

        def recording(items):
            items = list(items)
            leaves.append(len(items))
            return _float_table(items)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "_float_table", recording)
            C.table()
        assert runs and len(runs) + sum(leaves) <= regions._BUDGET, (alpha, len(runs), sum(leaves))


# the share of seed-1 samples (20 000) answered from their floats, in
# percent, measured 95.7 (2/5), 100 (1/2), 100 (g) and 99.7 (7/10), and
# 74.3, 85.5, 94.2 and 98.1 before the tables were refined best-first;
# each floor leaves about two points of margin
FLOAT_SHARE_FLOORS = [(Fraction(2, 5), 93.0), (Fraction(1, 2), 98.0), (G, 98.0), (Fraction(7, 10), 98.5)]


def test_cylinder_tables_answer_most_samples_from_floats():
    for alpha, floor in FLOAT_SHARE_FLOORS:
        R = build_alpha_region(alpha)
        sample, rng = _strip_sampler(_alpha_window(R)), random.Random(1)
        with pytest.MonkeyPatch.context() as mp:
            readers = recorded_readers(mp)
            for _ in range(20000):
                R.contains_sample(*sample(rng))
        walked = len(readers) // 2  # a walked sample builds an x and a y reader
        assert 100 * (20000 - walked) / 20000 >= floor, (alpha, walked)


def test_cylinder_table_is_built_by_the_first_sample():
    # contains, the walks and the walker on any readers never build a
    # table; the first sample fetches it from the cache that equal
    # regions share
    alpha = Fraction(3, 7)
    R = build_alpha_region(alpha)
    regions._TABLES.pop((tuple(R.alpha_list), R.period, R.back_cap), None)
    R.contains(rcf_digits(Fraction(1, 3)), rcf_digits(Fraction(5, 7)))
    cfe_direct(R, top(S2), 3, CAP)
    R.contains_rational(SnapReader(0.3), started(0.8))
    R.contains_rational(SnapReader(0.3), SnapReader(0.8))
    R.contains_rational(Reader([3]), Reader([1, 4]))
    assert R._table is None and (tuple(R.alpha_list), R.period, R.back_cap) not in regions._TABLES
    R.contains_sample(0.3, 0.8)
    twin = build_alpha_region(alpha)
    twin.contains_sample(0.3, 0.8)
    assert R._table is twin._table is regions._TABLES[(tuple(R.alpha_list), R.period, R.back_cap)]
    assert build_alpha_region(alpha, back_cap=5)._cylinders() is not R._table
    # the cache keeps only the latest tables
    for k in range(regions._TABLES_KEPT + 3):
        build_alpha_region(Fraction(1, 3 + k))._cylinders()
    assert len(regions._TABLES) == regions._TABLES_KEPT


def test_decided_intervals_need_the_depth_they_answer():
    # back_cap 0 answers nothing in the top strip, not even y = 1, from its
    # table or its walker; back_cap 1 answers depth 1 only, and depth-2
    # samples raise as the walker does; back_cap 2 answers both
    depth1, depth2 = 0.9, 0.52  # y = [0; 1, 9, ...] and [0; 1, 1, 12], alpha = 1/2
    for back_cap, answers in ((0, {}), (1, {depth1: True}), (2, {depth1: True, depth2: False})):
        R = build_alpha_region(Fraction(1, 2), back_cap=back_cap)
        ends, leaves = R._cylinders()
        top = set()  # the answers of the top strip's leaves, y > 1/2
        for i, answer in enumerate(leaves):
            if ends[2 * i] > 0.5:
                top |= {answer} if type(answer) is bool else set(answer[1])
        assert top == [set(), {True}, {True, False}][back_cap]
        for t in (depth1, depth2, 1.0):
            if t == 1.0 and back_cap:
                assert from_floats(R, 0.3, t) == (True, True)
            elif t in answers:
                assert from_floats(R, 0.3, t) == (answers[t], True)
            else:
                with pytest.raises(BackwardCapExceeded):
                    R.contains_sample(0.3, t)
                with pytest.raises(BackwardCapExceeded):
                    R.contains_rational(SnapReader(0.3), started(t))


def edge_floats(ends):
    """Each bound of a float table's intervals, its first and last float,
    with the floats one ulp either side, those in [0, 1]."""
    for i in range(0, len(ends), 2):
        lo, hi = ends[i], math.nextafter(ends[i + 1], -math.inf)
        for t in (lo, hi):
            for f in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
                if 0.0 <= f <= 1.0:
                    yield f


def test_table_edges_answer_as_the_started_walker():
    # at every bound of a y leaf and of an x list, and one ulp either side,
    # the sample entry gives the answer of the walker on started readers:
    # y edges are paired with sampler-drawn x, x edges with sampler-drawn
    # y and with floats of the y leaf that holds the x list
    rng = random.Random(29)
    for alpha in TABLE_ALPHAS + [Fraction(1, 10**6)]:
        R = build_alpha_region(alpha)
        sample = _strip_sampler(_alpha_window(R))
        draws = [sample(rng) for _ in range(8)]
        ends, leaves = R._cylinders()

        def check(xv, t):
            want = R.contains_rational(started(xv), started(t))
            assert R.contains_sample(xv, t) == want, (alpha, xv, t)

        for t in edge_floats(ends):
            for xv, _ in draws:
                check(xv, t)
        for k, answer in enumerate(leaves):
            if type(answer) is not bool:
                lo, hi = ends[2 * k], math.nextafter(ends[2 * k + 1], -math.inf)
                ys = [lo, hi, rng.uniform(lo, hi)] + [t for _, t in draws[:3]]
                for xv in edge_floats(answer[0]):
                    for t in ys:
                        check(xv, t)


def test_float_table_drops_leaves_past_the_snap_denominator():
    # a leaf whose end needs a denominator above SNAP_DEN is dropped when
    # the table is built, since a snap need not fix that end; ends at
    # SNAP_DEN are kept
    at = ([SNAP_DEN], [SNAP_DEN - 10], True)   # [1/10**12, 1/(10**12 - 10)]
    past = ([SNAP_DEN + 10], [SNAP_DEN + 1], False)
    deep = ([3, 10**6, 10**6], [3, 10**6, 10**6 + 5], False)  # q about 3 * 10**12
    kept = [([1, 2], [1, 2, 1, 10**6], True), ([3], [3, 1, 10**6], False)]
    assert all(digits_fraction(far).denominator > SNAP_DEN for _, far, _ in (past, deep))
    assert _float_table(kept + [at, past, deep]) == _float_table(kept + [at])
    ends, answers = _float_table(kept + [at])
    assert answers == [True, False, True] and len(ends) == 6
    # no tested alpha has a leaf past SNAP_DEN: every leaf a table is built
    # from has both ends within it, so none is dropped so
    seen = []

    def recording(leaves):
        seen.extend(leaves)
        return _float_table(leaves)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_float_table", recording)
        for alpha in TABLE_ALPHAS + [Fraction(1, 10**6)]:
            _Cylinders(build_alpha_region(alpha)).table()
    assert seen
    assert max(digits_fraction(ds).denominator for near, far, _ in seen for ds in (near, far)) <= SNAP_DEN


def test_alpha_list_is_preperiod_and_period():
    for alpha in WALKER_ALPHAS:
        R = build_alpha_region(alpha)
        assert (R.alpha_list, R.period) == oracle_alpha_list(alpha)
    assert oracle_alpha_list(S2) == ([2], 1)
    assert oracle_alpha_list(G) == ([1], 1)
    for text, want in (("sqrt(2)/2", ([1, 2], 1)),          # [0; 1, 2, 2, ...]
                       ("(5-sqrt(3))/4", ([1, 4, 2, 6], 2)),  # [0; 1, 4, 2, 6, 2, 6, ...]
                       ("sqrt(7)-2", ([1, 1, 1, 4], 4))):
        R = build_alpha_region(parse_real(text))
        assert (R.alpha_list, R.period) == want == oracle_alpha_list(R.alpha)
    # a period longer than back_cap digits is not searched for: no
    # comparison may match that many digits, and one that does raises
    alpha = 1 / (2 + Surd(-1, 1, 10**30, 2))
    R = build_alpha_region(alpha, back_cap=41)
    assert R.period is None and R.alpha_list == rcf_digits(alpha).prefix(42)
    with pytest.raises(BackwardCapExceeded):
        R._below(Reader([1]), 0, Reader([], rcf_digits(alpha)))
    assert R._below(Reader([1]), 0, Reader(R.alpha_list[:30] + [R.alpha_list[30] + 1]))
    # its last kept digit is 3: [..., 2, 1] is below it, never a folded equal
    assert R.alpha_list[41] == 3
    assert R._below(Reader([1]), 0, Reader(R.alpha_list[:41] + [2, 1]))
