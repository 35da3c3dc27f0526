import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cfrow.digits import ZERO_STREAM, Cons, from_digits, tail_state
from cfrow.errors import OutOfDomain
from cfrow.exact import INF
from cfrow.gcf import classify_farey_index
from cfrow.measure import rect_mass_exact, rect_mass_ratio
from cfrow.natural_ext import (
    OmegaPoint,
    gauss_ne_step,
    ito_backstep,
    ito_step,
    mu_bar_density,
    nu_g_density,
    orbit_csv_rows,
    run_move,
)
from cfrow.reals import Surd, as_real, golden_fraction, parse_real, rcf_digits

from conftest import backstep_by_digits, random_surd

S2 = parse_real("sqrt(2)-1")
G = golden_fraction()


def test_symbolic_step_high_digit():
    z = OmegaPoint.from_streams(from_digits([3, 1, 4]), from_digits([1, 2]))
    z1 = ito_step(z)
    assert z1.xd.prefix(3) == [2, 1, 4]
    assert z1.yd.prefix(3) == [2, 2, INF]


def test_symbolic_step_digit_one():
    z = OmegaPoint.from_streams(from_digits([1, 7]), from_digits([4]))
    z1 = ito_step(z)
    assert z1.xd.prefix(2) == [7, INF]
    assert z1.yd.prefix(3) == [1, 4, INF]


def test_fixed_line():
    z = OmegaPoint.from_values(Fraction(0), Fraction(1, 3))
    z1 = ito_step(z)
    assert z1.x_val == 0 and z1.y_val == Fraction(1, 4)
    assert z1.xd.head() is INF


def test_slide_down_and_right(rng):
    # V_a n H_b with a > 1 maps into V_{a-1} n H_{b+1}
    for _ in range(20):
        x = random_surd(rng)
        a = rcf_digits(x).head()
        if a == 1:
            continue
        z = OmegaPoint.from_values(x, Fraction(2, 3))
        c0 = z.cell()
        c1 = ito_step(z).cell()
        assert (c1.a, c1.b) == (c0.a - 1, c0.b + 1)


def test_cell_tour_from_v3():
    x = parse_real("(0+1*sqrt(10))/10")  # first digit 3
    z = OmegaPoint.from_values(x, Fraction(1))
    cells = [(z.cell().a, z.cell().b)]
    for _ in range(3):
        z = ito_step(z)
        cells.append((z.cell().a, z.cell().b))
    assert cells[:3] == [(3, 1), (2, 2), (1, 3)]
    assert cells[3][1] == 1  # back in the top strip


def test_orbit_closed_form(rng):
    # iterated symbolic stepping equals the digit-level closed form,
    # 100 random top-edge starts to depth 300
    for _ in range(100):
        x = random_surd(rng)
        z = OmegaPoint.from_values(x, Fraction(1))
        digs = rcf_digits(x)
        a = digs.prefix(320)
        cur = z
        for n in range(1, 300):
            cur = ito_step(cur)
            j, lam = classify_farey_index(digs, n)
            assert cur.xd.head() == a[j] - lam
            assert cur.xd.tail().head() == a[j + 1]
            if n >= a[0]:
                expected_y = [lam + 1] + list(reversed(a[1:j])) + [a[0] - 1 + 1]
                assert cur.yd.prefix(len(expected_y)) == expected_y


def test_ito_step_matches_map_values(rng):
    half = Fraction(1, 2)
    for _ in range(25):
        x = random_surd(rng)
        y = Fraction(rng.randint(0, 8), 8)
        z = OmegaPoint.from_values(x, y)
        z1 = ito_step(z)
        if x > half:
            assert z1.x_val == (1 - x) / x and z1.y_val == 1 / (1 + y)
        else:
            assert z1.x_val == x / (1 - x) and z1.y_val == y / (1 + y)


def test_backstep_inverts(rng):
    for _ in range(10):
        x = random_surd(rng)
        z = OmegaPoint.from_values(x, Fraction(1))
        cur = z
        for _ in range(25):
            nxt = ito_step(cur)
            for back in (ito_backstep(nxt), backstep_by_digits(nxt)):
                assert back.xd.prefix(5) == cur.xd.prefix(5)
                assert back.yd.prefix(5) == cur.yd.prefix(5)
                assert back.x_val == cur.x_val and back.y_val == cur.y_val
            cur = nxt


def test_backstep_equals_backstep_by_digits(rng):
    """The forward step of the mirrored point against the inverse step's
    three digit cases, on both axes, at the origin and at b1 = 1, from
    values read at random moments and from streams alone."""
    starts = [(Fraction(0), Fraction(1, 3)), (Fraction(2, 5), Fraction(0)),
              (Fraction(0), Fraction(0)), (S2, Fraction(1)), (G, G)]
    for _ in range(10):
        starts.append((random_surd(rng), Fraction(rng.randint(0, 12), 12)))
        starts.append((random_surd(rng, 7), random_surd(rng, 7)))
    for x, y in starts:
        for z in (OmegaPoint.from_values(x, y), OmegaPoint.from_streams(rcf_digits(x), rcf_digits(y))):
            for _ in range(40):
                got, want = ito_backstep(z), backstep_by_digits(z)
                assert (got.xd.prefix(8), got.yd.prefix(8)) == (want.xd.prefix(8), want.yd.prefix(8))
                if rng.random() < 0.3:
                    assert (got.x_val, got.y_val) == (want.x_val, want.y_val)
                z = got if rng.random() < 0.5 else want
            assert (got.x_val, got.y_val) == (want.x_val, want.y_val)


def test_mirrored_twice_gives_back_the_point_with_no_value_read(rng, monkeypatch):
    from cfrow import natural_ext

    mobius, read = natural_ext._mobius, []
    monkeypatch.setattr(natural_ext, "_mobius", lambda m, v: read.append(m) or mobius(m, v))
    for x, y in ((random_surd(rng), Fraction(2, 7)), (Fraction(3, 8), random_surd(rng)),
                 (G, S2), (Fraction(0), Fraction(0)), (Fraction(5, 9), Fraction(1))):
        z = OmegaPoint.from_values(x, y)
        for k in range(6):
            z = ito_step(z)  # values pending behind the products
            if k == 3:
                z.x_val  # and a read value as the base of later moves
        read.clear()
        w = z.mirrored()
        back = w.mirrored()
        assert read == []
        assert (w.xd, w.yd) == (z.yd, z.xd) and (back.xd, back.yd) == (z.xd, z.yd)
        assert (w.x_val, w.y_val) == (z.y_val, z.x_val)
        assert (back.x_val, back.y_val) == (z.x_val, z.y_val)
    z = OmegaPoint.from_streams(from_digits([3, 1]), from_digits([2]))
    back = z.mirrored().mirrored()
    assert (back.xd, back.yd, back.x_val, back.y_val) == (z.xd, z.yd, None, None)


def test_gauss_ne_examples():
    w = OmegaPoint.from_streams(from_digits([1, 2, 3]), from_digits([5]))
    w1 = gauss_ne_step(w)
    assert w1.xd.prefix(2) == [2, 3]
    assert w1.yd.prefix(3) == [1, 5, INF]
    w = OmegaPoint.from_values(Fraction(0), Fraction(2, 7))
    assert gauss_ne_step(w) is w
    w = OmegaPoint.from_values(S2, Fraction(0))
    assert gauss_ne_step(w).y_val == Fraction(1, 2)


def test_gauss_ne_vertical_to_horizontal(rng):
    for _ in range(20):
        x = random_surd(rng)
        y = Fraction(rng.randint(0, 6), 7)
        w = OmegaPoint.from_values(x, y)
        a = w.cell().a
        w1 = gauss_ne_step(w)
        assert w1.cell().b == a


def test_densities():
    assert mu_bar_density(1, 1) == 1
    assert mu_bar_density(Fraction(1, 2), Fraction(1, 2)) == Fraction(16, 9)
    assert abs(nu_g_density(0, 0) - 1 / math.log(2)) < 1e-12
    with pytest.raises(OutOfDomain):
        mu_bar_density(0, 0)


def test_slow_map_preserves_rectangle_masses_exactly():
    # pull each grid rectangle back through the single branch covering
    # it (down-right below the mid-line, folding above) and compare the
    # exact mass ratios
    xs = [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4)]
    ys = [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4)]
    for i in range(4):
        for j in range(4):
            x0, x1, y0, y1 = xs[i], xs[i + 1], ys[j], ys[j + 1]
            if y1 <= Fraction(1, 2):
                # preimage of the down-right branch: (u/(1+u), v/(1-v))
                pre = (x0 / (1 + x0), x1 / (1 + x1), y0 / (1 - y0), y1 / (1 - y1))
            else:
                # top strip: preimage (1/(1+u), 1/v - 1) swaps orientation
                pre = (
                    Fraction(1, 1 + x1),
                    Fraction(1, 1 + x0),
                    1 / y1 - 1,
                    1 / y0 - 1,
                )
            assert rect_mass_ratio(*pre) == rect_mass_ratio(x0, x1, y0, y1)


def test_slow_map_preservation_monte_carlo():
    # freq(image in A) for samples of the measure restricted to a window
    # containing the preimage, against the exact mass ratio
    rng = random.Random(11)
    A = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    pre = (
        A[0] / (1 + A[0]),
        A[1] / (1 + A[1]),
        A[2] / (1 - A[2]),
        A[3] / (1 - A[3]),
    )
    wx0, wx1 = min(A[0], pre[0]), max(A[1], pre[1])
    wy0, wy1 = min(A[2], pre[2]), max(A[3], pre[3])
    n = 200_000
    # rejection sampling of the invariant density on the window
    corners = [(wx0, wy0), (wx0, wy1), (wx1, wy0), (wx1, wy1)]
    dmax = max(float(mu_bar_density(cx, cy)) for cx, cy in corners)
    xs = np.random.default_rng(11).uniform(float(wx0), float(wx1), 4 * n)
    ys = np.random.default_rng(12).uniform(float(wy0), float(wy1), 4 * n)
    us = np.random.default_rng(13).uniform(0, dmax, 4 * n)
    dens = 1.0 / (xs + ys - xs * ys) ** 2
    keep = us < dens
    xs, ys = xs[keep][:n], ys[keep][:n]
    assert len(xs) >= n // 2
    # apply the slow map
    low = xs <= 0.5
    fx = np.where(low, xs / (1 - xs), (1 - xs) / xs)
    fy = np.where(low, ys / (1 + ys), 1 / (1 + ys))
    hits = (
        (fx >= float(A[0])) & (fx <= float(A[1])) & (fy >= float(A[2])) & (fy <= float(A[3]))
    )
    p_hat = hits.mean()
    w_mass = rect_mass_exact(wx0, wx1, wy0, wy1)
    p_true = rect_mass_exact(*A) / w_mass
    sigma = math.sqrt(p_true * (1 - p_true) / len(xs))
    assert abs(p_hat - p_true) < 3.5 * sigma


def test_orbit_csv_rows():
    z = OmegaPoint.from_values(S2, Fraction(1))
    rows = orbit_csv_rows(z, 5)
    assert len(rows) == 5
    assert rows[0][5] == 2 and rows[0][6] == 1
    assert all(r[1] <= r[2] and r[3] <= r[4] for r in rows)


def _eager_move(move, z, x, y):
    """Coordinates after `move`, by the per-step formulas applied to the
    values (x, y) of z; the branch is read off z's streams."""
    a1, b1 = z.xd.head(), z.yd.head()
    if move is ito_step:
        if a1 is INF:
            return x, as_real(y / (1 + y))
        if a1 > 1:
            return as_real(x / (1 - x)), as_real(y / (1 + y))
        return as_real((1 - x) / x), as_real(1 / (1 + y))
    if move is ito_backstep:
        if b1 == 1:
            return as_real(1 / (1 + x)), as_real(1 / y - 1)
        if b1 is INF:
            return as_real(x / (1 + x)), y
        return as_real(x / (1 + x)), as_real(y / (1 - y))
    if a1 is INF:
        return x, y
    return as_real(1 / x - a1), as_real(1 / (a1 + y))


def test_lazy_values_match_eager_formulas():
    # 2660 mixed moves from surd and rational starts, the axes included;
    # values are read at random moments, so both long unread matrix
    # chains and chains restarted from a read value are compared
    rng = random.Random(4242)
    moves = (ito_step, ito_step, ito_backstep, gauss_ne_step)
    starts = [(Fraction(0), Fraction(1, 3)), (Fraction(2, 5), Fraction(0))]
    for _ in range(12):
        starts.append((random_surd(rng), Fraction(rng.randint(0, 12), 12)))
        starts.append((random_surd(rng, 7), random_surd(rng, 7)))
        starts.append((Fraction(rng.randint(0, 50), 50), Fraction(rng.randint(0, 9), 9)))
    checked = 0
    for x, y in starts:
        z = OmegaPoint.from_values(x, y)
        for _ in range(70):
            move = rng.choice(moves)
            x, y = _eager_move(move, z, x, y)
            z = move(z)
            if rng.random() < 0.3:
                assert z.x_val == x and z.y_val == y
                assert type(z.x_val) is type(x) and type(z.y_val) is type(y)
                checked += 1
        assert z.x_val == x and z.y_val == y
    assert checked > 300


def test_stream_points_carry_no_values():
    z = OmegaPoint.from_streams(from_digits([3, 1, 4]), from_digits([1, 2]))
    for move in (ito_step, ito_backstep, gauss_ne_step):
        w = move(z)
        assert w.x_val is None and w.y_val is None


def test_walk_builds_no_surd_until_read(rng, monkeypatch):
    from cfrow import reals
    from cfrow.farey_maps import gauss_step
    from cfrow.induced import induced_records
    from cfrow.regions import build_alpha_region, region_h1

    built = []
    init = reals.Surd.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    for region in (region_h1(), build_alpha_region(Fraction(1, 2))):
        x = random_surd(rng)
        y = as_real(random_surd(rng) / 2 + Fraction(1, 2))
        z = OmegaPoint.from_values(x, y)
        z.xd.prefix(400)  # digits come from surd arithmetic; pull them first
        z.yd.prefix(400)
        monkeypatch.setattr(reals.Surd, "__init__", counting_init)
        recs = induced_records(region, z, 12, 10**6)
        assert built == []
        last = recs[-1].z_next
        xv = last.x_val
        assert len(built) == 1
        monkeypatch.setattr(reals.Surd, "__init__", init)
        if region.name == "h1":
            want = x
            for _ in recs:
                _, want = gauss_step(want)
            assert xv == want
        assert last.x_val is xv  # cached
        built.clear()


def mobius_by_the_old_route(m, v):
    """(a*v + b)/(c*v + d) as `_mobius` used to make it, kept as its
    oracle: a Surd through `Surd.mobius` and `as_real`, any other value
    through Fraction(v)."""
    a, b, c, d = m
    if isinstance(v, Surd):
        return as_real(v.mobius(a, b, c, d))
    v = Fraction(v)
    n, k = v.numerator, v.denominator
    return Fraction(a * n + b * k, c * n + d * k)


def random_unimodular(rng):
    """A product of elementary integer matrices, of determinant +-1."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(-4, 4)
        e = rng.choice([(1, k, 0, 1), (1, 0, k, 1), (0, 1, 1, 0), (-1, 0, 0, 1)])
        a, b, c, d = m
        m = (a * e[0] + b * e[2], a * e[1] + b * e[3], c * e[0] + d * e[2], c * e[1] + d * e[3])
    return m


def test_mobius_gives_the_old_value_and_type(rng):
    """`_mobius` answers in the value's exact type: a Surd's image as
    `Surd.mobius` builds it (a Fraction under a map of determinant 0),
    and a Fraction or int argument read as it is.  Value and type equal
    the old route's, and so does a pole's ZeroDivisionError."""
    from cfrow.natural_ext import _mobius

    def outcome(f, m, v):
        try:
            return f(m, v)
        except ZeroDivisionError:
            return ZeroDivisionError

    args = [0, 1, -2, 7, Fraction(2, 7), Fraction(-5, 3), Fraction(3, 2), Fraction(-2),
            Fraction(6), G, S2, Surd(1, 3, 4, 8)]
    args += [random_surd(rng) for _ in range(8)]
    args += [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(8)]
    matrices = [random_unimodular(rng) for _ in range(40)]
    matrices += [(2, 4, 1, 2), (1, 1, 1, 1), (0, 1, 1, 2), (1, 2, 0, 1)]  # det 0, and poles at -2
    assert any(a * d - b * c == 0 for a, b, c, d in matrices)
    assert all(abs(a * d - b * c) == 1 for a, b, c, d in matrices[:40])
    seen = set()
    for m in matrices:
        for v in args:
            want, got = outcome(mobius_by_the_old_route, m, v), outcome(_mobius, m, v)
            assert type(got) is type(want), (m, v, got, want)
            assert got == want, (m, v)
            seen.add(want if want is ZeroDivisionError else type(want))
    assert seen == {Fraction, Surd, ZeroDivisionError}


def _run_move_by_methods(xd, yd, a1, k):
    """The run move read through `head()` and `tail()` alone: the oracle
    of `run_move`'s reads of a `Cons` stream's slots."""
    if k < a1:
        return (xd if a1 is INF else Cons(a1 - k, xd.tail()),
                Cons(yd.head() + k, yd.tail()))
    return xd.tail(), Cons(1, yd if a1 == 1 else Cons(yd.head() + a1 - 1, yd.tail()))


def test_run_move_reads_slots_as_the_methods_would(rng):
    # x and y as cons cells, as surd streams, as cells pushed onto a surd
    # stream, and as the empty stream (x = 0, where a1 = INF, and an INF
    # y head); every k of each run, and k up to 5 on the x = 0 line
    def streams():
        return [from_digits([rng.randint(1, 6) for _ in range(rng.randint(1, 6))]),
                rcf_digits(random_surd(rng)),
                Cons(rng.randint(1, 4), rcf_digits(random_surd(rng))),
                ZERO_STREAM]

    moves = 0
    for _ in range(15):
        for xd in streams():
            for yd in streams():
                a1 = xd.head()
                for k in range(1, 6 if a1 is INF else a1 + 1):
                    got = run_move(xd, yd, a1, k)
                    want = _run_move_by_methods(xd, yd, a1, k)
                    assert [s.prefix(12) for s in got] == [s.prefix(12) for s in want]
                    # the tails kept are the streams' own: a surd tail is
                    # still known by its recurrence state
                    assert [tail_state(s, 2) for s in got] == [tail_state(s, 2) for s in want]
                    moves += 1
    assert moves > 500
