from fractions import Fraction

import pytest

from cfrow.cfe import CfeResult, cfe_by_contraction, cfe_convergents_report, cfe_direct
from cfrow.digits import from_digits
from cfrow.errors import MismatchAt, OutOfDomain
from cfrow.farey_maps import farey_expansion
from cfrow.gcf import Gcf, convergents, validate_srcf
from cfrow.induced import induced_step
from cfrow.natural_ext import OmegaPoint
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
from cfrow.reals import golden_fraction, parse_real, rcf_digits

from conftest import (
    assert_as_checked,
    random_rich_surd,
    random_stream_digits,
    random_surd,
    random_surd_with_digit,
)

S2 = parse_real("sqrt(2)-1")
G = golden_fraction()
CAP = 10**6


def top(x):
    return OmegaPoint.from_values(x, Fraction(1))


def test_top_strip_recovers_regular_expansion(rng):
    h1 = region_h1()
    for _ in range(15):
        x = random_surd(rng)
        res = cfe_direct(h1, top(x), 12, CAP)
        digs = rcf_digits(x).prefix(12)
        assert res.digits.pairs(13) == [(1, 0)] + [(1, a) for a in digs]


def test_sqrt2_top_strip():
    res = cfe_direct(region_h1(), top(S2), 8, CAP)
    assert res.digits.pairs(9) == [(1, 0)] + [(1, 2)] * 8
    assert cfe_convergents_report(res)["ok"]


def test_omega_region_reproduces_slow_expansion(rng):
    om = region_omega()
    for _ in range(8):
        x = random_surd(rng)
        res = cfe_direct(om, top(x), 10, CAP)
        assert res.digits.pairs(11) == farey_expansion(x, 10).pairs(11)


def test_routes_agree_many_regions(rng):
    regions = [
        region_omega(),
        region_h1(),
        region_h(2),
        region_v(2),
        build_alpha_region(Fraction(1, 2)),
        build_alpha_region(Fraction(1, 4)),
        build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))]),
    ]
    for _ in range(6):
        x = random_rich_surd(rng)
        z = top(x)
        for R in regions:
            by_contraction = cfe_by_contraction(R, z, 10, CAP).pairs(11)
            assert by_contraction == cfe_direct(R, z, 10, CAP).digits.pairs(11), R.name


def test_route_pairs_are_the_checked_ones(rng):
    # both routes build their expansions without the checking
    # constructor; over the eight regions of acceptance criterion 4 their
    # pairs must be what it makes of them, every digit a plain int
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
    # the surds have partial quotients 2, which cell 2,0 needs
    points = [top(random_surd_with_digit(rng, 2)) for _ in range(2)]
    points += [OmegaPoint.from_streams(from_digits(random_stream_digits(rng, 400)),
                                       from_digits(random_stream_digits(rng, 40)))
               for _ in range(4)]
    for z in points:
        for R in regions:
            assert_as_checked(cfe_by_contraction(R, z, 29, CAP), 30)
            assert_as_checked(cfe_direct(R, z, 29, CAP).digits, 30)


def test_routes_agree_cell_region(rng):
    cell = region_cell(3, 1)
    for _ in range(4):
        z = top(random_surd_with_digit(rng, 3))
        assert cfe_by_contraction(cell, z, 8, CAP).pairs(9) == cfe_direct(cell, z, 8, CAP).digits.pairs(9)


def test_convergent_scalars_relation(rng):
    # (P_k, Q_k) = c_k (u_{k+1}, s_{k+1}) exactly on a region with s > 1
    v2 = region_v(2)
    for _ in range(8):
        x = random_rich_surd(rng)
        res = cfe_direct(v2, top(x), 10, CAP)
        report = cfe_convergents_report(res)
        assert report["ok"] and report["checked"] >= 10


def test_a_corrupted_digit_is_named_by_its_index(rng):
    # one partial denominator off by one changes (P_k, Q_k) first at its own
    # index (Q_{k-1} >= 1), so the report raises there, not before or after
    v2 = region_v(2)
    for _ in range(4):
        res = cfe_direct(v2, top(random_rich_surd(rng)), 10, CAP)
        for k in (0, 1, 5, 10):
            pairs = res.digits.pairs(11)
            a, b = pairs[k]
            pairs[k] = (a, b + 1)
            with pytest.raises(MismatchAt) as exc:
                cfe_convergents_report(CfeResult(digits=Gcf._of(pairs), records=res.records))
            assert exc.value.k == k


def test_unit_scalars_on_top_strip(rng):
    h1 = region_h1()
    res = cfe_direct(h1, top(S2), 6, CAP)
    assert res.scalars() == [1] * 7


def test_h2_convergents_are_first_mediants(rng):
    h2 = region_h(2)
    for _ in range(6):
        x = random_rich_surd(rng)
        res = cfe_direct(h2, top(x), 8, CAP)
        conv = res.convergents()
        digs = rcf_digits(x).prefix(80)
        p_prev, p = 1, 0
        q_prev, q = 0, 1
        mediants = []
        for a in digs:
            if a > 1:
                mediants.append((p + p_prev, q + q_prev))
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        cs = res.scalars()
        for k, c in enumerate(conv):
            pk, qk = mediants[k]
            assert (c.P, c.Q) == (cs[k] * pk, cs[k] * qk)


def test_alpha_half_from_golden():
    R = build_alpha_region(Fraction(1, 2))
    res = cfe_direct(R, top(G), 8, CAP)
    pairs = res.digits.pairs(9)
    assert pairs[0] == (1, 1)
    assert pairs[1:] == [(-1, 3)] * 8


def test_alpha_one_recovers_regular(rng):
    R = build_alpha_region(Fraction(1))
    for _ in range(6):
        x = random_surd(rng)
        res = cfe_direct(R, top(x), 10, CAP)
        digs = rcf_digits(x).prefix(10)
        assert res.digits.pairs(11) == [(1, 0)] + [(1, a) for a in digs]


def test_s_expansion_outputs_are_srcf(rng):
    R = build_s_expansion_region([(Fraction(1, 2), 1, 0, Fraction(1, 2))])
    for _ in range(8):
        x = random_surd(rng)
        res = cfe_direct(R, top(x), 12, CAP)
        assert validate_srcf(res.digits).kind in ("SRCF", "RCF")


def test_nonunit_d_routes_agree(rng):
    # start deeper in a region with s > 1, so the first digit's divisor
    # exceeds 1 and the backward branch is exercised
    v2 = region_v(2)
    hit = 0
    for _ in range(20):
        x = random_rich_surd(rng)
        z = induced_step(v2, top(x), CAP).z_next
        z = induced_step(v2, z, CAP).z_next
        from cfrow.induced import d_map

        if d_map(v2, z, CAP) > 1:
            hit += 1
            assert cfe_by_contraction(v2, z, 8, CAP).pairs(9) == cfe_direct(v2, z, 8, CAP).digits.pairs(9)
        if hit >= 5:
            break
    assert hit >= 3


def test_rational_input_rejected():
    with pytest.raises(OutOfDomain):
        cfe_direct(region_h1(), top(Fraction(2, 5)), 5, CAP)


def test_digit_maps_agree_with_orbit_shortcut(rng):
    # the standalone digit-map operation does a genuine backward search
    # for its divisor; along an orbit it must reproduce the expansion
    # digits extracted from consecutive records
    from cfrow.induced import digit_maps

    for R in (region_h1(), region_v(2), build_alpha_region(Fraction(1, 2))):
        for _ in range(4):
            x = random_rich_surd(rng)
            z0 = top(x)
            if not R.contains(z0.xd, z0.yd):
                z0 = induced_step(R, z0, CAP).z_next  # return-time semantics
            res = cfe_direct(R, z0, 8, CAP)
            pairs = res.digits.pairs(9)
            recs = res.records
            for k in range(1, 6):
                z = recs[k - 1].z_next
                d, alpha, beta = digit_maps(R, z, CAP)
                assert d == recs[k - 1].s  # backward search finds the orbit
                assert (alpha, beta) == pairs[k + 1]


def test_contraction_route_walks_only_the_records_it_reads():
    # x = [0; 2, 2, 1, 1, ...] visits v:2 once and never again: one record
    # answers n = 0, and a route that walked a second one raised NeverEnters
    x = (2 + (2 + G).inverse()).inverse()
    v2 = region_from_spec("v:2")
    assert cfe_direct(v2, top(x), 0, CAP).digits.pairs(1) == [(1, 0)]
    assert cfe_by_contraction(v2, top(x), 0, CAP).pairs(1) == [(1, 0)]
