import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cfrow.cli import build_parser, main
from cfrow.measure import rect_mass_exact


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_rcf(capsys):
    code, out, _ = run_cli(["expand", "--kind", "rcf", "--x", "sqrt(2)-1", "--n", "5"], capsys)
    assert code == 0
    assert json.loads(out)["digits"] == [2, 2, 2, 2, 2]


def test_expand_reads_a_square_d_as_its_rational(capsys):
    # sqrt(4) is 2, outside [0, 1] as 2 is; (sqrt(4)-1)/3 expands as 1/3
    for x, same in (("sqrt(4)", "2"), ("(sqrt(4)-1)/3", "1/3")):
        got, want = (run_cli(["expand", "--kind", "rcf", "--x", v, "--n", "3"], capsys) for v in (x, same))
        assert got[0] == want[0] and got[2] == want[2], x
        if got[0] == 0:
            assert json.loads(got[1])["digits"] == json.loads(want[1])["digits"] == [3, "inf", "inf"]
        else:
            assert got[0] == 2 and "outside [0, 1]" in got[2]


def test_expand_farey_golden(capsys):
    code, out, _ = run_cli(["expand", "--kind", "farey", "--x", "phi-frac", "--n", "4"], capsys)
    obj = json.loads(out)
    assert code == 0
    assert obj["alpha"] == [1] * 5 and obj["beta"] == [0, 1, 1, 1, 1]


def test_expand_lehner_prints_the_farey_pairs(capsys):
    from cfrow.farey_maps import farey_expansion
    from cfrow.reals import parse_real

    for x in ("g", "sqrt(2)-1", "sqrt(3)-1", "sqrt(7)-2", "sqrt(43)-6", "(sqrt(13)-1)/4"):
        code, out, _ = run_cli(["expand", "--kind", "lehner", "--x", x, "--n", "10"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["kind"] == "lehner" and obj["x"] == x
        pairs = farey_expansion(parse_real(x), 10).pairs(11)
        assert list(zip(obj["alpha"], obj["beta"])) == pairs


def test_expand_alpha_golden(capsys):
    code, out, _ = run_cli(
        ["expand", "--kind", "alpha", "--alpha", "1/2", "--x", "phi-frac", "--n", "6"], capsys
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["signs"] == [-1] * 6 and obj["digits"] == [3] * 6


def test_contract_worked_example(capsys):
    gcf = json.dumps(
        {"alpha": [1] + list(range(1, 11)), "beta": list(range(1, 12))}
    )
    code, out, _ = run_cli(["contract", "--gcf", gcf, "--plan", "0,2,4,6,8,10"], capsys)
    obj = json.loads(out)
    assert code == 0
    assert obj["alpha"] == [1, 3, -30, -420, -1890, -5544]
    assert obj["beta"] == [1, 8, 87, 275, 623, 1179]
    assert obj["scalars"] == [1, 1, 3, 15, 105, 945]


def test_contract_bad_plan_exits_2(capsys):
    code, _, err = run_cli(
        ["contract", "--gcf", '{"alpha":[1],"beta":[1]}', "--plan", "3,1"], capsys
    )
    assert code == 2 and "increasing" in err


@pytest.mark.parametrize(
    "gcf, index",
    [('{"alpha":[1,0,1],"beta":[1,2,3]}', 1), ('{"alpha":[1,1,0],"beta":[1,2,3]}', 2)],
)
def test_contract_zero_numerator_exits_2(capsys, gcf, index):
    # the second input's zero lies past the pairs the plan reads, so only
    # reading the expansion can reject it
    code, out, err = run_cli(["contract", "--gcf", gcf, "--plan", "0,1"], capsys)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: partial numerator 0 at index {index}"]


def test_contract_reads_the_gcf_from_a_file_as_from_stdin(tmp_path, monkeypatch, capsys):
    text = '{"alpha":[1,"1/2",-1,"3/4",2,1],"beta":[0,2,"5/3",1,3,"1/2"]}'
    path = tmp_path / "gcf.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    from_stdin = run_cli(["contract", "--gcf", "-", "--plan", "0,2,3"], capsys)
    from_file = run_cli(["contract", "--gcf", str(path), "--plan", "0,2,3"], capsys)
    assert from_stdin[0] == 0 and json.loads(from_stdin[1])["plan"] == [0, 2, 3]
    assert from_file == from_stdin


def test_expand_alpha_without_alpha_exits_2(capsys):
    code, out, err = run_cli(["expand", "--kind", "alpha", "--x", "sqrt(2)-1"], capsys)
    assert code == 2 and out == ""
    assert "--alpha is required" in err


def test_contract_prints_fraction_digits_as_strings(capsys):
    code, out, _ = run_cli(
        ["contract", "--gcf", '{"alpha":[1,"1/2",1],"beta":[1,2,3]}', "--plan", "0,2"], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "alpha": [1, "3/2"], "beta": [1, 7], "plan": [0, 2],
        "scalars": [1, 1], "convergents": [[1, 1], ["17/2", 7]],
    }


@pytest.mark.parametrize(
    "args",
    [
        ["contract", "--gcf", '{"alpha":[1,2,3],"beta":[1,2]}', "--plan", "0"],
        ["contract", "--gcf", '{"alpha":[1,2]}', "--plan", "0"],
        ["contract", "--gcf", "[1,2]", "--plan", "0"],
        ["contract", "--gcf", '{"alpha":[1,null],"beta":[1,2]}', "--plan", "0"],
        ["entropy", "--region", '{"cells":[{"a":0,"b":1}]}'],
        ["cfe", "--region", '{"cells":[{"a":"x"}]}', "--x", "sqrt(2)-1"],
        ["orbit", "--space", "shift", "--x", "sqrt(2)-1", "--n", "3"],
        ["entropy", "--region", '{"rects":[{"x":["3/2","2"],"y":["1/3","1/2"]}]}'],
        # a continued fraction with a digit below 1 or an empty entry, and
        # a zero denominator
        *(["expand", "--kind", "rcf", "--x", x, "--n", "3"]
          for x in ("[0;2,-1]", "[0;0,5]", "[0;3,0,2]", "[0;2,,3]", "1/0", "[0;0]")),
    ],
)
def test_malformed_library_input_exits_2(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["cfe", "--region", "h1", "--x", "g", "--digits", "0"],
        ["cfe", "--region", "h1", "--x", "g", "--digits", "-1"],
        ["expand", "--kind", "farey", "--x", "g", "--n", "-1"],
        ["orbit", "--space", "shift", "--region", "h1", "--x", "g", "--n", "0"],
        ["orbit", "--x", "g", "--n", "0"],
        ["entropy", "--region", "alpha:1/2", "--samples", "0"],
        ["sweep-alpha", "--alphas", "1/2", "--samples", "x"],
        # a cap below 1 is refused before any walk, not reported as reached
        ["cfe", "--region", "h1", "--x", "g", "--cap", "0"],
        ["cfe", "--region", "h1", "--x", "g", "--cap", "-3"],
        ["orbit", "--region", "h1", "--x", "g", "--n", "3", "--cap", "0"],
        ["orbit", "--region", "h1", "--x", "g", "--n", "3", "--cap", "-3"],
    ],
)
def test_count_options_below_1_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: argument" in out.err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_entropy_tolerance_must_be_positive(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--region", "h1", "--method", "quadrature", "--tol", tol])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: argument --tol" in out.err


@pytest.mark.parametrize("plan", ["5", "0,5"])
def test_contract_plan_past_the_expansion_names_its_index(capsys, plan):
    code, out, err = run_cli(
        ["contract", "--gcf", '{"alpha":[1,2],"beta":[1,2]}', "--plan", plan], capsys
    )
    assert code == 2 and out == ""
    assert err.strip() == "error: plan index 5 is past the expansion, which has 2 digit pairs"


@pytest.mark.parametrize("plan,position", [("0,,2", 2), (",0", 1), ("0,", 2)])
def test_contract_plan_with_an_empty_entry_exits_2(capsys, plan, position):
    # a skipped entry would contract along a plan other than the one written
    code, out, err = run_cli(
        ["contract", "--gcf", '{"alpha":[1,2,3],"beta":[1,2,3]}', "--plan", plan], capsys)
    assert code == 2 and out == ""
    assert err.strip() == f"error: --plan {plan!r} has an empty entry at position {position}"


def test_orbit_shift_without_a_region_names_the_missing_option(capsys):
    code, out, err = run_cli(["orbit", "--space", "shift", "--x", "sqrt(2)-1"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == "error: --space shift needs --region"


def test_rectangle_partly_outside_the_square_has_its_clamped_mass(capsys):
    spec = '{"rects":[{"x":["1/2","2"],"y":["1/3","1/2"]}]}'
    want = rect_mass_exact(Fraction(1, 2), 1, Fraction(1, 3), Fraction(1, 2))  # its part inside
    for method in ("exact", "quadrature", "monte-carlo"):
        code, out, _ = run_cli(["entropy", "--region", spec, "--method", method,
                                "--samples", "20000", "--seed", "3"], capsys)
        obj = json.loads(out)
        assert code == 0 and abs(obj["measure"] - want) <= obj["error_bound"]


def test_cfe_on_a_region_the_orbit_never_enters_exits_early(capsys):
    for spec, name in (("v:2", "v2"), ("h:2", "h2")):
        t0 = time.perf_counter()
        code, out, err = run_cli(["cfe", "--region", spec, "--x", "g"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and f"never enters {name}" in err
    # a rational x reaches the x = 0 line, which no cell region holds
    t0 = time.perf_counter()
    code, out, err = run_cli(["orbit", "--region", "h1", "--x", "1/3", "--n", "4"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "never enters h1" in err


def test_malformed_input_subprocess_has_no_traceback():
    for args in (["contract", "--gcf", '{"alpha":[1,2]}', "--plan", "0"],
                 ["cfe", "--region", "h1", "--x", "g", "--digits", "0"],
                 ["expand", "--kind", "rcf", "--x", "[0;2,-1]"],
                 ["expand", "--kind", "rcf", "--x", "1/0"]):
        proc = subprocess.run([sys.executable, "-m", "cfrow.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and "error: " in proc.stderr


def test_rational_surd_form_reads_as_its_fraction(capsys):
    """"(1+0*sqrt(5))/2" is the Fraction 1/2 wherever a real is read."""
    for args in (["expand", "--kind", "rcf", "--x", "{}", "--n", "4"],
                 ["expand", "--kind", "alpha", "--alpha", "{}", "--x", "g", "--n", "8"],
                 ["cfe", "--region", "alpha:{}", "--x", "sqrt(3)-1", "--digits", "10"]):
        outs = []
        for text in ("(1+0*sqrt(5))/2", "1/2"):
            code, out, _ = run_cli([a.format(text) for a in args], capsys)
            assert code == 0
            outs.append({k: v for k, v in json.loads(out).items() if v != text})  # drop the echo
        assert outs[0] == outs[1]


def test_shared_parser_after_a_usage_error_prints_fresh_bytes(capsys):
    # main builds its parser once per process; calls that argparse
    # rejects leave it as a fresh process has it
    args = ["entropy", "--region", "alpha:1/2", "--samples", "3000", "--seed", "7"]
    fresh = subprocess.run([sys.executable, "-m", "cfrow.cli", *args],
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    for bad in (["entropy", "--region", "h1", "--tol", "-1"],
                ["expand", "--x", "g"],
                ["sweep-alpha", "--alphas", "1/2", "--samples", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(args, capsys) == (0, fresh.stdout, "")
    assert build_parser() is build_parser()


def test_entropy_unknown_method_exits_2(capsys):
    code, out, err = run_cli(["entropy", "--region", "h1", "--method", "bogus"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bogus" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "region, method",
    [("alpha:1/2", "exact"), ("alpha:1/2", "exact-integral"), ("alpha:1/2", "quadrature"),
     ('{"builder": "s_expansion", "params": {"rects": [{"x": ["1/2", "1"], "y": ["0", "1/2"]}]}}',
      "monte-carlo"),
     ('{"builder": "s_expansion", "params": {"rects": [{"x": ["1/2", "1"], "y": ["0", "1/2"]}]}}',
      "quadrature")],
)
def test_entropy_method_the_region_lacks_exits_2(capsys, region, method):
    code, out, err = run_cli(
        ["entropy", "--region", region, "--method", method, "--samples", "100"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"no {method} measure" in err


def test_entropy_quadrature_past_its_piece_cap_exits_2(capsys):
    code, out, err = run_cli(
        ["entropy", "--region", "h1", "--method", "quadrature", "--tol", "1e-300"], capsys)
    assert code == 2 and out == "" and "after 2000 pieces" in err


def test_entropy_quadrature_runs_without_scipy(capsys, monkeypatch):
    for name in ["scipy"] + [m for m in sys.modules if m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, name, None)
    code, out, _ = run_cli(
        ["entropy", "--region", "h1", "--method", "quadrature", "--tol", "1e-8"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["method"] == "quadrature"
    assert abs(obj["measure"] - math.log(2)) <= obj["error_bound"]


def test_cfe_top_strip(capsys):
    code, out, _ = run_cli(
        ["cfe", "--region", "h1", "--x", "sqrt(2)-1", "--digits", "10"], capsys
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["beta"] == [0] + [2] * 9
    assert obj["verified"] is True


def test_cfe_computes_its_convergents_once(capsys, monkeypatch):
    # the report and the printed convergents read one list, kept on the
    # result: one continuant run per command
    import cfrow.cfe

    calls = []
    real = cfrow.cfe.convergents

    def counting(g, n):
        calls.append(n)
        return real(g, n)

    monkeypatch.setattr(cfrow.cfe, "convergents", counting)
    code, out, _ = run_cli(
        ["cfe", "--region", "alpha:1/4", "--x", "sqrt(3)-1", "--digits", "10"], capsys
    )
    assert code == 0 and json.loads(out)["verified"] is True
    assert len(json.loads(out)["convergents"]) == 10
    assert calls == [9]


def test_cfe_rational_rejected(capsys):
    code, _, err = run_cli(["cfe", "--region", "h1", "--x", "2/5", "--digits", "4"], capsys)
    assert code == 2


def test_entropy_quadrature(capsys):
    code, out, _ = run_cli(
        ["entropy", "--region", "h1", "--method", "quadrature", "--tol", "1e-8"], capsys
    )
    obj = json.loads(out)
    assert code == 0
    assert abs(obj["measure"] - math.log(2)) < 1e-6
    assert abs(obj["entropy"] - math.pi**2 / (6 * math.log(2))) < 1e-5


def test_entropy_seed_recorded(capsys):
    code, out, _ = run_cli(
        ["entropy", "--region", "alpha:1/2", "--samples", "4000", "--seed", "9"], capsys
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["seed"] == 9 and obj["samples"] == 4000


def test_small_alpha_monte_carlo_notes_itself_on_stderr(capsys):
    """Below alpha of about 1/20 (first digit a1 >= 20) a Monte Carlo
    estimate mostly measures the parity of the snaps' digit counts:
    `entropy` and `sweep-alpha` say so on stderr once per such alpha
    they estimate and leave stdout as it is; from alpha = 1/4 up there
    is no note."""
    code, out, err = run_cli(
        ["entropy", "--region", "alpha:1/2000", "--samples", "300", "--seed", "1"], capsys)
    assert code == 0 and json.loads(out)["samples"] == 300
    assert err.splitlines() == [line for line in err.splitlines()
                                if line.startswith("note: alpha:1/2000 has first digit a1 = 2000 ")]
    assert len(err.splitlines()) == 1 and "parity" in err
    code, out, err = run_cli(["sweep-alpha", "--alphas", "1/1000000,1/20,1/19,1/4,g,1",
                              "--samples", "300", "--seed", "5"], capsys)
    assert code == 0 and len(out.splitlines()) == 7 and "note" not in out
    assert [line.split(" has ")[0] for line in err.splitlines()] == ["note: alpha:1/1000000",
                                                                   "note: alpha:1/20"]
    for args in (["entropy", "--region", "alpha:1/4", "--samples", "300", "--seed", "1"],
                 ["sweep-alpha", "--alphas", "1/4,sqrt(2)-1,2/5,1/2,g,7/10,1",
                  "--samples", "300", "--seed", "5"]):
        code, out, err = run_cli(args, capsys)
        assert code == 0 and out and err == ""


def test_orbit_row_count(tmp_path, capsys):
    out_path = tmp_path / "orbit.csv"
    code, _, _ = run_cli(
        ["orbit", "--region", "alpha:1/4", "--x", "sqrt(3)-1", "--n", "50",
         "--csv", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 51  # header + 50 rows
    assert lines[0].split(",")[0] == "n"


def test_orbit_plain_and_shift(capsys):
    code, out, _ = run_cli(["orbit", "--x", "sqrt(2)-1", "--n", "3"], capsys)
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = run_cli(
        ["orbit", "--region", "h1", "--space", "shift", "--x", "sqrt(2)-1",
         "--y", "3/4", "--n", "3"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "n,X_lo,X_hi,Y_lo,Y_hi"


def test_region_info(capsys):
    code, out, _ = run_cli(["region-info", "--region", "alpha:1/4"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["alpha"] == "1/4" and obj["altered"] is True


def test_sweep_alpha(capsys):
    code, out, _ = run_cli(
        ["sweep-alpha", "--alphas", "1/2,7/10", "--samples", "3000", "--seed", "2"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,measure,measure_err,entropy,entropy_err,seed"
    assert len(lines) == 3


@pytest.mark.parametrize("alphas", ["", ",,"])
def test_sweep_alpha_with_no_alpha_exits_2(capsys, alphas):
    code, out, err = run_cli(["sweep-alpha", "--alphas", alphas, "--samples", "100"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == f"error: --alphas {alphas!r} names no alpha"


@pytest.mark.parametrize("alphas,position", [("1/2,,g", 2), (",1/2", 1), ("1/2,", 2)])
def test_sweep_alpha_with_an_empty_entry_exits_2(capsys, alphas, position):
    # a skipped entry would shift the seed of every alpha after it
    code, out, err = run_cli(
        ["sweep-alpha", "--alphas", alphas, "--samples", "100", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == f"error: --alphas {alphas!r} has an empty entry at position {position}"


def test_byte_stable_given_seed(capsys):
    args = ["entropy", "--region", "alpha:1/2", "--samples", "3000", "--seed", "4"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_cfe_with_json_region_spec(capsys):
    spec = json.dumps(
        {"builder": "s_expansion",
         "params": {"rects": [{"x": ["1/2", "1"], "y": ["0", "1/2"]}]}}
    )
    code, out, _ = run_cli(
        ["cfe", "--region", spec, "--x", "g", "--digits", "8"], capsys
    )
    obj = json.loads(out)
    assert code == 0 and obj["verified"] is True
    assert all(a in (1, -1) for a in obj["alpha"])  # semi-regular output


def test_bad_seed_env_only_breaks_sampling(capsys, monkeypatch):
    monkeypatch.setenv("CFROW_SEED", "abc")
    code, out, _ = run_cli(["expand", "--kind", "rcf", "--x", "1/3", "--n", "2"], capsys)
    assert code == 0 and json.loads(out)["digits"] == [3, "inf"]
    for args in (["entropy", "--region", "alpha:1/2", "--samples", "100"],
                 ["sweep-alpha", "--alphas", "1/2", "--samples", "100"]):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err == "error: CFROW_SEED='abc' is not an integer\n"
    # an explicit --seed needs no environment
    code, out, _ = run_cli(
        ["entropy", "--region", "alpha:1/2", "--samples", "100", "--seed", "5"], capsys
    )
    assert code == 0 and json.loads(out)["seed"] == 5


def test_seed_env_read_when_sampling(capsys, monkeypatch):
    monkeypatch.setenv("CFROW_SEED", "7")
    code, out, _ = run_cli(["entropy", "--region", "alpha:1/2", "--samples", "100"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out, _ = run_cli(["sweep-alpha", "--alphas", "1/2,7/10", "--samples", "100"], capsys)
    assert code == 0 and [r.split(",")[-1] for r in out.split()[1:]] == ["7", "8"]


def test_bad_seed_env_subprocess_has_no_traceback():
    env = dict(os.environ, CFROW_SEED="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "cfrow.cli", "entropy", "--region", "alpha:1/2",
         "--samples", "100"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == ["error: CFROW_SEED='abc' is not an integer"]


@pytest.mark.parametrize(
    "spec",
    ['{"builder":"alpha"}', '{"builder":"beta","params":{}}', "cell:3", "h:x", "{oops",
     '{"rects":[{"x":["1/3","1/2","7"],"y":["1/3","1/2"]}]}'],
)
def test_region_info_malformed_spec_exits_2(capsys, spec):
    code, out, err = run_cli(["region-info", "--region", spec], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["entropy", "--region", "alpha:1/50", "--samples", "2", "--seed", "1"],
        ["entropy", "--region", "cell:5,1", "--method", "monte-carlo", "--samples", "3", "--seed", "1"],
        ["sweep-alpha", "--alphas", "1/50", "--samples", "2", "--seed", "1"],
    ],
)
def test_monte_carlo_estimate_of_0_exits_2_asking_for_more_samples(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: no sample of ") and err.rstrip().endswith("raise --samples")
    assert len(err.strip().splitlines()) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cfrow.cli", "expand", "--kind", "rcf", "--x", "g", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["digits"] == [1, 1, 1]


README_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "readme_cli.json").read_text()
)


@pytest.mark.parametrize("case", README_GOLDEN, ids=lambda c: c["id"])
def test_readme_commands_print_golden_bytes(case, capsys, monkeypatch):
    # stdout of the README commands, captured once and pinned byte for
    # byte (orbit and sweep CSV rows end in \r\n, as csv.writer writes
    # them); the Monte Carlo commands, at fewer samples, pin seeded
    # estimates to the last digit
    if case["stdin"] is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code, out, err = run_cli(shlex.split(case["command"])[1:], capsys)
    assert (code, err) == (0, "")
    assert out == case["stdout"]
