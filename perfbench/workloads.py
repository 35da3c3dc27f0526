"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in its
constructor (the set-up), then serves operations by index: `item(i)` is
the i-th input, `run(item)` is the timed operation and `verify(i, item,
output)` checks the output against an independent route outside the
timed section, returning the number of verified items the operation
delivered or raising `Mismatch`.  `finish()` runs checks that pool
several operations and returns the indices of the operations they fail.

Only public functions of the library are called, through their modules
(``cfe.cfe_direct(...)``), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

from cfrow.exact import INF
from cfrow import (
    cfe,
    cli,
    contraction,
    digits,
    farey_maps,
    gcf,
    induced,
    measure,
    natural_ext,
    reals,
    regions,
    shift_space,
)

CAP = 10**6
NON_SQUARES = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26]
G = reals.golden_fraction()
LOG_1_PLUS_G = math.log((1 + math.sqrt(5)) / 2)
G_SQUARED = float(G * G)


class Mismatch(Exception):
    """An output disagrees with its independent route."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def within_closed_form(estimates, mass, sigmas):
    """Whether the mean of Monte Carlo (value, error_bound) estimates lies
    within `sigmas` standard errors of `mass`.  error_bound is three sigma
    of one estimate.  Pooling keeps the check from failing on one unlucky
    small sample, whose own error bound is itself a noisy estimate."""
    mean = sum(v for v, _ in estimates) / len(estimates)
    sigma = math.sqrt(sum((e / 3) ** 2 for _, e in estimates)) / len(estimates)
    return abs(mean - mass) <= sigmas * sigma


# -- input generators ---------------------------------------------------------


def random_surd(rng: random.Random, d: int | None = None):
    """Random quadratic irrational in (0, 1), in Q(sqrt(d)) when d is given."""
    if d is None:
        d = rng.choice(NON_SQUARES)
    while True:
        p = rng.randint(-40, 40)
        q = rng.choice([i for i in range(-12, 13) if i])
        r = rng.randint(1, 40)
        x = reals.Surd(p, q, r, d)
        x = x - reals.floor_of(x)
        if 0 < x < 1:
            return x


def random_periodic_surd(rng: random.Random, length=5, max_digit=5):
    """Purely periodic quadratic irrational [0; block, block, ...]: the
    attracting fixed point of a random digit block, so its discriminant
    is large (up to ~10^7 for these sizes)."""
    while True:
        block = [rng.randint(1, max_digit) for _ in range(length)]
        a, b, c, d = 1, 0, 0, 1
        for q in block:
            a, b, c, d = b, a + b * q, d, c + d * q
        disc = (d - a) ** 2 + 4 * b * c
        if math.isqrt(disc) ** 2 != disc:
            return reals.Surd(a - d, 1, 2 * c, disc)


def meets_boundary(alpha: float, x: float, steps: int) -> bool:
    """Whether the float alpha-orbit of x comes within 1e-9 of alpha - 1,
    the left end of the alpha-interval, in `steps` steps: for a surd in
    alpha's own field, that is an exact hit."""
    x -= math.floor(x + 1 - alpha)
    for _ in range(steps + 1):
        if abs(x - (alpha - 1)) < 1e-9:
            return True
        if x == 0:
            return False
        y = 1 / abs(x)
        x = y - math.floor(y + 1 - alpha)
    return False


def boundary_surd(rng: random.Random, alpha, hit_step: int, max_digit=8):
    """Surd in (0, 1) whose alpha-orbit lands exactly on alpha - 1 at
    step `hit_step`: alpha - 1 pulled back through random branches of the
    alpha-map.  Deciding such a point needs the library's 300-digit
    truncation of an irrational alpha."""
    y = alpha - 1
    for _ in range(hit_step):
        while True:
            x = rng.choice((1, -1)) * (y + rng.randint(1, max_digit)).inverse()
            if alpha - 1 <= x < alpha:
                break
        y = x
    return y - reals.floor_of(y)


def field_surd(rng: random.Random, d: int, walk: int, max_digit: int):
    """Random surd in Q(sqrt(d)) with no partial quotient above max_digit
    among its first `walk`, and whose digits 120..239 are not all 1, so
    the orbit does not shadow the golden tail; returns (x, its first
    `walk` partial quotients)."""
    while True:
        x = random_surd(rng, d)
        stream = reals.rcf_digits(x)
        walked = stream.prefix(walk)
        if max(walked) <= max_digit and any(a != 1 for a in stream.prefix(240)[120:]):
            return x, walked


def stratified(rng, draw, n, oversample=2):
    """n inputs by systematic sampling over a cost proxy.

    `draw(rng)` returns (proxy, input).  Of oversample*n draws sorted by
    proxy, the middle one of each consecutive group is kept, so every
    seed gets nearly the same spread of costs; the kept inputs come back
    in bit-reversed order of their rank (n a power of two), so every
    prefix of the list covers the whole cost range evenly.
    """
    drawn = sorted((draw(rng) for _ in range(oversample * n)), key=lambda c: c[0])
    kept = [drawn[oversample * j + oversample // 2][1] for j in range(n)]
    bits = n.bit_length() - 1
    return [kept[int(format(j, f"0{bits}b")[::-1], 2)] for j in range(n)]


def gauss_kuzmin_digits(rng: random.Random, n: int, max_digit: int):
    """n i.i.d. partial quotients with the Gauss-Kuzmin law, conditioned
    on being at most max_digit."""
    out = []
    while len(out) < n:
        x = 2.0 ** rng.random() - 1.0
        if x > 0:
            a = int(1.0 / x)
            if 1 <= a <= max_digit:
                out.append(a)
    return out


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    #: operations in a traced run; fixed, so two traced runs with one seed
    #: make identical calls
    trace_ops = 0
    #: operations in one pass of an untraced run, which repeats the pass
    #: and measures the host's speed over each pass; at least 100
    pass_ops = 0

    def item(self, i):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def verify(self, i, item, output) -> int:
        raise NotImplementedError

    def finish(self) -> set:
        return set()

    def corrupt(self, output, kind):
        """A deliberately wrong copy of `output`, for the self-test."""
        raise ValueError(f"{self.name} has no '{kind}' corruption")

    def input_size(self) -> dict:
        raise NotImplementedError

    def warm_up(self):
        self.run(self.item(0))


class AlphaOrbit(Workload):
    """Criterion 5, shortened: one operation is cfe_direct(R, z, 30)
    followed by tau_orbit(R, z, 30) for a top-edge point z of an
    alpha-region R, checked against the one-map iteration alpha_step."""

    name = "alpha_orbit"
    trace_ops = 48
    pass_ops = 180
    STEPS = 30
    POINTS_PER_ALPHA = 64
    MAX_DISCRIMINANT = 10**6
    MAX_DIGIT = 64
    HIT_STEP = 15
    # alpha, and the field of its own surds for irrational alpha
    ALPHAS = [("1/4", None), ("2/5", None), ("1/2", None), ("7/10", None),
              ("sqrt(2)-1", 2), ("g", 5)]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.regions = []
        for text, d in self.ALPHAS:
            alpha = reals.parse_real(text)
            self.regions.append((text, alpha, regions.build_alpha_region(alpha), d))
        # Cost proxies: a surd's square-free part sets the cost of every
        # surd built in its field; in a fixed field, the partial quotients
        # the operation walks through set the number of slow steps.  The
        # caps keep a single input from outweighing the rest of a run.
        # Points whose orbit meets the boundary cost 10-50x more, so each
        # irrational alpha gets exactly one, first, with its hit at a fixed
        # step, and none among its drawn points.
        per_alpha = []
        for _, alpha, _, d in self.regions:
            if d is None:
                def draw(r):
                    while True:
                        x = random_periodic_surd(r)
                        if x.d <= self.MAX_DISCRIMINANT:
                            return x.d, x

                per_alpha.append(stratified(rng, draw, self.POINTS_PER_ALPHA, oversample=8))
            else:
                def draw(r, d=d, a=float(alpha)):
                    while True:
                        x, walked = field_surd(r, d, 2 * self.STEPS, self.MAX_DIGIT)
                        if not meets_boundary(a, float(x), self.STEPS):
                            return sum(walked), x

                drawn = stratified(rng, draw, self.POINTS_PER_ALPHA)
                drawn[0] = boundary_surd(rng, alpha, self.HIT_STEP)
                per_alpha.append(drawn)
        self.corpus = [
            (text, alpha, region, points[j])
            for j in range(self.POINTS_PER_ALPHA)
            for (text, alpha, region, _), points in zip(self.regions, per_alpha)
        ]
        self._expected = {}

    def item(self, i):
        return self.corpus[i % len(self.corpus)]

    def run(self, item):
        _, _, region, x = item
        z = natural_ext.OmegaPoint.from_values(x, Fraction(1))
        res = cfe.cfe_direct(region, z, self.STEPS, CAP)
        orbit = shift_space.tau_orbit(region, z, self.STEPS)
        return res.digits.pairs(self.STEPS + 1), [w.X for w in orbit]

    def _one_map(self, alpha, x):
        x0 = reals.as_real(x - reals.floor_of(x + 1 - alpha))
        digits_, xs = [], [x0]
        for _ in range(self.STEPS):
            sign, d, nxt = farey_maps.alpha_step(alpha, xs[-1])
            digits_.append((sign, d))
            xs.append(nxt)
        return digits_, xs

    def verify(self, i, item, output) -> int:
        text, alpha, _, x = item
        key = i % len(self.corpus)
        if key not in self._expected:
            self._expected[key] = self._one_map(alpha, x)
        want_digits, want_xs = self._expected[key]
        pairs, xs = output
        expect(pairs[1:] == want_digits, f"alpha={text}: digits differ from alpha_step")
        expect(len(xs) == len(want_xs) and all(a == b for a, b in zip(xs, want_xs)),
               f"alpha={text}: shift coordinates differ from alpha_step")
        return self.STEPS + len(xs)

    def corrupt(self, output, kind):
        if kind != "digit":
            return super().corrupt(output, kind)
        pairs, xs = output
        sign, d = pairs[5]
        return pairs[:5] + [(sign, d + 1)] + pairs[6:], xs

    def input_size(self):
        return {"alphas": [t for t, _ in self.ALPHAS], "points": len(self.corpus),
                "boundary_points_per_pass": 2, "boundary_hit_step": self.HIT_STEP,
                "digits_per_op": self.STEPS, "shift_points_per_op": self.STEPS + 1}


class StreamRoutes(Workload):
    """Criterion 4 on points that exist only as digit streams: both CFE
    routes plus the convergent report, over the eight regions of the
    criterion."""

    name = "stream_routes"
    trace_ops = 320
    pass_ops = 640
    DIGITS = 30
    POINTS = 640
    X_DIGITS = 400   # >7 sd more than the sparsest region (cell 2,0) reads
    Y_DIGITS = 40
    MAX_DIGIT = 32

    def __init__(self, seed: int):
        rng = random.Random(seed)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        self.regions = [
            regions.region_omega(),
            regions.region_h1(),
            regions.region_h(2),
            regions.region_v(2),
            regions.region_cell(2, 0),
            regions.build_alpha_region(half),
            regions.build_alpha_region(quarter),
            regions.build_s_expansion_region([(half, 1, 0, half)]),
        ]
        # streams are forced here: the operations read cons cells only
        self.points = [
            (digits.from_digits(gauss_kuzmin_digits(rng, self.X_DIGITS, self.MAX_DIGIT)),
             digits.from_digits(gauss_kuzmin_digits(rng, self.Y_DIGITS, self.MAX_DIGIT)))
            for _ in range(self.POINTS)
        ]

    def item(self, i):
        xs, ys = self.points[i % len(self.points)]
        return self.regions[i % len(self.regions)], xs, ys

    def run(self, item):
        region, xs, ys = item
        z = natural_ext.OmegaPoint.from_streams(xs, ys)
        n = self.DIGITS - 1
        by_contraction = cfe.cfe_by_contraction(region, z, n, CAP).pairs(self.DIGITS)
        direct = cfe.cfe_direct(region, z, n, CAP)
        report = cfe.cfe_convergents_report(direct)
        return by_contraction, direct.digits.pairs(self.DIGITS), report

    def verify(self, i, item, output) -> int:
        region = item[0]
        by_contraction, direct, report = output
        expect(len(direct) == self.DIGITS, f"{region.name}: short expansion")
        expect(by_contraction == direct, f"{region.name}: the two routes differ")
        expect(report["ok"] and report["checked"] > 0,
               f"{region.name}: convergent report failed")
        return self.DIGITS

    def corrupt(self, output, kind):
        if kind != "digit":
            return super().corrupt(output, kind)
        by_contraction, direct, report = output
        a, b = direct[5]
        return by_contraction, direct[:5] + [(a, b + 1)] + direct[6:], report

    def input_size(self):
        return {"regions": [r.name for r in self.regions], "points": len(self.points),
                "x_digits": self.X_DIGITS, "y_digits": self.Y_DIGITS,
                "max_digit": self.MAX_DIGIT, "digits_per_op": self.DIGITS}


class AlphaMass(Workload):
    """Criterion 7, shortened: one operation is one Monte Carlo
    measure_of call; the pooled estimate per alpha is checked against the
    closed forms of Nakada and Kraaikamp-Schmidt-Steiner.

    Sample counts are spread evenly over 500-1500 within each pass, so
    the latency percentiles describe a range of sizes and are the same
    for every seed; the order and the Monte Carlo seeds come from the
    seed."""

    name = "alpha_mass"
    trace_ops = 24
    pass_ops = 100
    SAMPLES = (500, 1500)
    SIGMAS = 4
    ALPHAS = [("2/5", LOG_1_PLUS_G), ("1/2", LOG_1_PLUS_G), ("g", LOG_1_PLUS_G),
              ("7/10", math.log(1.7))]

    def __init__(self, seed: int):
        self.regions = [
            (text, regions.build_alpha_region(reals.parse_real(text)), mass)
            for text, mass in self.ALPHAS
        ]
        rng = random.Random(seed)
        self.seed_base = rng.getrandbits(30)
        # evenly spread over SAMPLES, in an order drawn from the seed, so
        # every seed's pass has the same sizes
        lo, hi = self.SAMPLES
        self.sizes = [lo + (hi - lo) * j // (self.pass_ops - 1) for j in range(self.pass_ops)]
        rng.shuffle(self.sizes)
        self._estimates = {}   # op index -> (alpha index, value, error bound)

    def item(self, i):
        return i % len(self.regions), self.seed_base + i, self.sizes[i % len(self.sizes)]

    def run(self, item):
        k, op_seed, samples = item
        return measure.measure_of(self.regions[k][1], seed=op_seed, samples=samples)

    def verify(self, i, item, output) -> int:
        k, op_seed, samples = item
        expect(output.method == "monte-carlo" and output.seed == op_seed
               and output.samples == samples, "estimate does not record its run")
        expect(math.isfinite(output.value) and output.error_bound > 0,
               "estimate is not finite")
        self._estimates[i] = (k, output.value, output.error_bound)
        return samples

    def finish(self) -> set:
        failed = set()
        for k, (text, _, mass) in enumerate(self.regions):
            ops = [i for i, e in self._estimates.items() if e[0] == k]
            if ops and not within_closed_form([self._estimates[i][1:] for i in ops],
                                              mass, self.SIGMAS):
                failed.update(ops)
        return failed

    def corrupt(self, output, kind):
        if kind != "mass":
            return super().corrupt(output, kind)
        return dataclasses.replace(output, value=output.value * 1.05)

    def input_size(self):
        return {"alphas": [t for t, _ in self.ALPHAS], "samples_per_op": list(self.SAMPLES)}


class CliReadme(Workload):
    """The README's CLI commands, run in-process through cli.main with
    stdout captured; inputs and Monte Carlo seeds come from the seed.

    A command's cost depends on the field of its surd, so each of the
    six surd-valued commands takes every field of NON_SQUARES once per
    pass, in an order drawn from the seed: every seed's pass has the
    same inputs' costs, and its latency percentiles do not move with
    the draw."""

    name = "cli_readme"
    trace_ops = 110
    VARIANTS = len(NON_SQUARES)
    pass_ops = 11 * VARIANTS
    ENTROPY_SAMPLES = 1000
    SWEEP_SAMPLES = 200
    SWEEP_ALPHAS = "1/4,sqrt(2)-1,1/2,g,7/10,1"
    SIGMAS = 4
    REGION_SPECS = [
        {"builder": "s_expansion",
         "params": {"rects": [{"x": ["1/2", "1"], "y": ["0", "1/2"]}]}},
        {"builder": "alpha", "params": {"alpha": "1/4"}},
        {"cells": [{"a": 2, "b": 1}], "altered": False},
        {"rects": [{"x": ["1/3", "1/2"], "y": ["1/3", "1/2"]}]},
    ]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.fields = [rng.sample(NON_SQUARES, self.VARIANTS) for _ in range(6)]
        self.commands = []   # (argv, stdin text or None)
        for v in range(self.VARIANTS):
            self.commands.extend(self._variant(rng, v))
        self._verified = {}  # command index -> verified stdout
        self._pooled = {}    # (estimate, closed form) -> {command index: (value, error_bound)}

    def _variant(self, rng, v):
        def quad(slot):
            d = self.fields[slot][v]
            return f"sqrt({d})-{math.isqrt(d)}"

        block = [rng.randint(1, 6) for _ in range(8)]
        gcf_text = json.dumps({"alpha": [1] + block[:7], "beta": block})
        plan = ",".join(str(j) for j in sorted(rng.sample(range(7), 3)))
        y = rng.choice(["3/4", "2/3", "4/5", "5/8"])
        return [
            (["expand", "--kind", "rcf", "--x", quad(0), "--n", "5"], None),
            (["expand", "--kind", "alpha", "--alpha", "1/2", "--x",
              "g" if v == 0 else quad(1), "--n", "8"], None),
            (["cfe", "--region", "h1", "--x", quad(2), "--digits", "10"], None),
            (["cfe", "--region", "alpha:1/4", "--x", quad(3), "--digits", "10"], None),
            (["entropy", "--region", "h1", "--method", "quadrature", "--tol", "1e-8"], None),
            (["entropy", "--region", "alpha:1/2", "--samples", str(self.ENTROPY_SAMPLES),
              "--seed", str(rng.getrandbits(30))], None),
            (["orbit", "--region", "alpha:1/4", "--x", quad(4), "--n", "50", "--csv", "-"], None),
            (["orbit", "--region", "h1", "--space", "shift", "--x", quad(5), "--y", y,
              "--n", "20"], None),
            (["sweep-alpha", "--alphas", self.SWEEP_ALPHAS, "--samples",
              str(self.SWEEP_SAMPLES), "--seed", str(rng.getrandbits(30)), "--csv", "-"], None),
            (["region-info", "--region", json.dumps(self.REGION_SPECS[v % 4])], None),
            (["contract", "--gcf", "-", "--plan", plan], gcf_text),
        ]

    def item(self, i):
        k = i % len(self.commands)
        return k, self.commands[k]

    def run(self, item):
        _, (argv, stdin_text) = item
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            if stdin_text is not None:
                stack.enter_context(_stdin(stdin_text))
            code = cli.main(argv)
        return code, out.getvalue()

    def verify(self, i, item, output) -> int:
        k, (argv, stdin_text) = item
        code, text = output
        expect(code == 0, f"{argv[0]} exited {code}")
        if k in self._verified:
            expect(text == self._verified[k], f"{argv[0]}: output not reproducible")
            return 1
        estimates = _CHECKS[argv[0]](self, _options(argv), text, stdin_text) or []
        for what, mass, value, err in estimates:
            self._pooled.setdefault((what, mass), {})[k] = (value, err)
        self._verified[k] = text
        return 1

    def finish(self) -> set:
        """Each Monte Carlo estimate's pool, over the distinct commands
        run, must lie within SIGMAS of its closed form."""
        failed = set()
        for (_, mass), pool in self._pooled.items():
            if not within_closed_form(list(pool.values()), mass, self.SIGMAS):
                failed.update(pool)
        return failed

    def corrupt(self, output, kind):
        """Bump the last digit of expand, cfe and contract output ("digit"),
        or scale the measure of entropy output by 1.05 ("mass"); other
        commands are left alone."""
        code, text = output
        try:
            obj = json.loads(text)
        except ValueError:
            return output
        if not isinstance(obj, dict):
            return output
        if kind == "digit" and ("digits" in obj or "beta" in obj):
            key = "digits" if "digits" in obj else "beta"
            obj[key][-1] += 1
        elif kind == "mass" and "measure" in obj:
            obj["measure"] *= 1.05
            obj["entropy"] = math.pi**2 / (6 * obj["measure"])
        else:
            return output
        return code, json.dumps(obj)

    def input_size(self):
        return {"commands": len(self.commands), "variants": self.VARIANTS,
                "entropy_samples": self.ENTROPY_SAMPLES, "sweep_samples": self.SWEEP_SAMPLES}

    # -- per-command checks against the library and closed forms ---------------

    def check_expand(self, opt, text, _):
        obj = json.loads(text)
        x = reals.parse_real(opt["--x"])
        n = int(opt["--n"])
        if opt["--kind"] == "rcf":
            expect(obj["digits"] == reals.rcf_digits(x).prefix(n), "expand rcf digits")
            return
        alpha = reals.parse_real(opt["--alpha"])
        cur = reals.as_real(x - reals.floor_of(x + 1 - alpha))
        signs, ds = [], []
        for _ in range(n):
            sign, d, cur = farey_maps.alpha_step(alpha, cur)
            signs.append(sign)
            ds.append(d)
        expect(obj["signs"] == signs and obj["digits"] == ds, "expand alpha digits")

    def check_cfe(self, opt, text, _):
        obj = json.loads(text)
        x = reals.parse_real(opt["--x"])
        n = int(opt["--digits"])
        region = regions.region_from_spec(opt["--region"])
        z = natural_ext.OmegaPoint.from_values(x, Fraction(1))
        want = cfe.cfe_direct(region, z, n - 1, CAP).digits.pairs(n)
        got = [tuple(p) for p in zip(obj["alpha"], obj["beta"])]
        expect(got == want, f"cfe {opt['--region']} disagrees with cfe_direct")
        if opt["--region"] == "h1":
            # the top strip recovers the regular expansion
            oracle = [(1, 0)] + [(1, a) for a in reals.rcf_digits(x).prefix(n - 1)]
        else:
            alpha = region.alpha
            cur = reals.as_real(x - reals.floor_of(x + 1 - alpha))
            oracle = want[:1]
            for _ in range(n - 1):
                sign, d, cur = farey_maps.alpha_step(alpha, cur)
                oracle.append((sign, d))
        expect(got == oracle, f"cfe {opt['--region']} disagrees with its oracle")
        conv = gcf.convergents(gcf.Gcf(oracle), n - 1)[2:]
        expect(obj["convergents"] == [[c.P, c.Q] for c in conv], "cfe convergents")
        expect(obj["verified"] is True, "cfe report")

    def check_entropy(self, opt, text, _):
        obj = json.loads(text)
        expect(obj["entropy"] == math.pi**2 / (6 * obj["measure"]), "entropy formula")
        if opt.get("--method") == "quadrature":
            expect(obj["method"] == "quadrature", "entropy method")
            expect(abs(obj["measure"] - math.log(2)) <= obj["error_bound"], "h1 mass")
            return
        seed, samples = int(opt["--seed"]), int(opt["--samples"])
        region = regions.region_from_spec(opt["--region"])
        est = measure.measure_of(region, seed=seed, samples=samples)
        expect(obj["measure"] == est.value and obj["seed"] == seed
               and obj["samples"] == samples, "entropy disagrees with measure_of")
        return [("entropy alpha:1/2", LOG_1_PLUS_G, obj["measure"], obj["error_bound"])]

    def check_orbit(self, opt, text, _):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        region = regions.region_from_spec(opt["--region"])
        z = natural_ext.OmegaPoint.from_values(reals.parse_real(opt["--x"]),
                                               reals.parse_real(opt.get("--y", "1")))
        n = int(opt["--n"])
        want = []
        if opt.get("--space") == "shift":
            for k, w in enumerate(shift_space.tau_orbit(region, z, n - 1)):
                want.append([k, float(w.X), float(w.X), float(w.Y), float(w.Y)])
        else:
            cur = z
            for k in range(n):
                xe, ye = cur.x_enclosure(), cur.y_enclosure()
                cell = cur.cell()
                want.append([k, float(xe.lo), float(xe.hi), float(ye.lo), float(ye.hi),
                             "inf" if cell.a is INF else cell.a,
                             "inf" if cell.b is INF else cell.b])
                cur = induced.induced_step(region, cur, CAP).z_next
        expect(rows == [[str(v) for v in row] for row in want], "orbit rows")

    def check_sweep(self, opt, text, _):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        alphas = opt["--alphas"].split(",")
        seed, samples = int(opt["--seed"]), int(opt["--samples"])
        expect(len(rows) == len(alphas), "sweep row count")
        estimates = []
        for i, (atext, row) in enumerate(zip(alphas, rows)):
            alpha = reals.parse_real(atext)
            est = measure.measure_of(regions.build_alpha_region(alpha),
                                     seed=seed + i, samples=samples)
            expect(row[0] == atext and float(row[1]) == est.value
                   and float(row[2]) == est.error_bound and int(row[5]) == seed + i,
                   f"sweep row {atext} disagrees with measure_of")
            a = float(alpha)
            if a >= G_SQUARED + 1e-9:
                mass = LOG_1_PLUS_G if a <= float(G) else math.log(1 + a)
                estimates.append((f"sweep alpha={atext}", mass, est.value, est.error_bound))
        return estimates

    def check_region_info(self, opt, text, _):
        described = regions.region_from_spec(opt["--region"]).describe()
        expect(json.loads(text) == json.loads(json.dumps(described)), "region-info")

    def check_contract(self, opt, text, stdin_text):
        obj = json.loads(text)
        g = gcf.Gcf.from_json(stdin_text)
        idxs = [int(s) for s in opt["--plan"].split(",")]
        cplan = contraction.ContractionPlan(idxs)
        k_max = len(idxs) - 1
        # Seidel identity: contracted convergents are scaled originals
        orig = gcf.convergents(g, idxs[-1])[2:]
        scalars = obj["scalars"]
        expect([list(p) for p in obj["convergents"]]
               == [[scalars[k] * orig[j].P, scalars[k] * orig[j].Q]
                   for k, j in enumerate(idxs)], "contract convergents")
        expect(scalars == contraction.seidel_scalars(g, cplan, k_max), "contract scalars")
        out = contraction.contract(g, cplan).pairs(k_max + 1)
        expect(list(zip(obj["alpha"], obj["beta"])) == out, "contract digits")


_CHECKS = {
    "expand": CliReadme.check_expand,
    "cfe": CliReadme.check_cfe,
    "entropy": CliReadme.check_entropy,
    "orbit": CliReadme.check_orbit,
    "sweep-alpha": CliReadme.check_sweep,
    "region-info": CliReadme.check_region_info,
    "contract": CliReadme.check_contract,
}


def _options(argv):
    """--flag value pairs of a command line, as a dict."""
    return {argv[j]: argv[j + 1] for j in range(1, len(argv) - 1, 2)}


@contextlib.contextmanager
def _stdin(text):
    import sys

    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


WORKLOADS = {w.name: w for w in (AlphaOrbit, StreamRoutes, AlphaMass, CliReadme)}
