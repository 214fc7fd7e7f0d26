import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import motives
from motives import cli, motive, variety
from motives.cli import Report, _prime_power, build_parser, main, render
from motives.weil import hasse_alpha, predict_affine_count

CURVE_TEXT = "# reference curve\ny^2 + y - x^3 - x\n"


@pytest.fixture()
def curve_file(tmp_path):
    f = tmp_path / "curve.txt"
    f.write_text(CURVE_TEXT)
    return str(f)


def run_cli(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_count_reference_table(curve_file, capsys):
    status, out, _ = run_cli(["count", "--poly", curve_file, "--p", "2",
                              "--n-max", "12", "--format", "csv"], capsys)
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "q", "count"]
    assert [int(r[2]) for r in rows[1:]] == [4, 4, 4, 24, 24, 64, 144, 224,
                                             544, 1024, 1984, 4224]


def test_count_workers_identical_output(curve_file, capsys, monkeypatch):
    # every field through the pool, with as many workers as the CPUs
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 1)
    outs = []
    for w in (1, 2, 4, 8):
        monkeypatch.setattr(os, "cpu_count", lambda w=w: w)
        status, out, _ = run_cli(["count", "--poly", curve_file, "--p", "2",
                                  "--n-max", "10", "--method", "product", "--format", "csv"],
                                 capsys)
        assert status == 0
        outs.append(out)
    assert len(set(outs)) == 1


def test_count_runs_identical_across_invocations(curve_file, capsys):
    args = ["count", "--poly", curve_file, "--p", "3", "--n-max", "4",
            "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_csv_round_trip_stability(curve_file, capsys):
    _, out, _ = run_cli(["pi", "--x-max", "10", "--K", "2",
                         "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    assert buf.getvalue() == out


def test_json_round_trip_stability(curve_file, capsys):
    _, out, _ = run_cli(["zeta", "--poly", curve_file, "--p", "2",
                         "--genus", "1", "--format", "json"], capsys)
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    assert payload["numerator"] == [1, 2, 2]
    assert payload["denominator"] == [1, -3, 2]


def test_predict_outputs_alpha_and_matches(curve_file, capsys):
    _, out, _ = run_cli(["predict", "--p", "2", "--n1", "4", "--poly",
                         curve_file, "--n-max", "12", "--format", "json"],
                        capsys)
    payload = json.loads(out)
    assert payload["alpha_re"] == -1.0
    assert payload["alpha_im"] == 1.0
    assert payload["trace"] == -2
    assert all(row[3] == "ok" for row in payload["rows"])
    assert len(payload["rows"]) == 12


def test_predict_without_poly(capsys):
    _, out, _ = run_cli(["predict", "--p", "5", "--n1", "5", "--n-max", "3",
                         "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "predicted"]
    assert len(rows) == 4


def test_zeta_from_counts(capsys):
    _, out, _ = run_cli(["zeta", "--p", "2", "--counts",
                         "5,5,5,25,25,65,145", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["numerator"] == [1, 2, 2]
    weights = sorted(row[0] for row in payload["rows"])
    assert weights == [0, 1, 1, 2]


def test_zeta_at_bad_reduction(curve_file, capsys):
    # the discriminant of y^2 + y = x^3 + x is -91 = -7 * 13, so at p = 7 the
    # curve is singular and the numerator keeps only the node's eigenvalue
    status, out, _ = run_cli(["zeta", "--poly", curve_file, "--p", "7", "--genus", "1",
                              "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["numerator"] == [1, 1, 0]
    assert payload["display"] == "(1 + t) / ((1 - t)(1 - 7 t))"
    # the zero -1 and the pole 1 both have weight 0
    assert payload["rows"] == [[0, -1.0, 0.0, 1.0], [0, 1.0, 0.0, 1.0], [2, 7.0, 0.0, 7.0]]


@pytest.mark.parametrize("p", [37, 41, 53])
def test_zeta_counts_of_a_repeated_weight_1_root(p, capsys):
    # y^2 = x^p - x has genus g = (p - 1) / 2 and L(t) = (1 - p t^2)^g: its
    # 2g eigenvalues are +-sqrt p, each g times.  np.roots on the whole
    # numerator scatters them past 10 % of sqrt p, so no float test of
    # |alpha| can find their weight.
    g = (p - 1) // 2
    counts = [p ** n + 1 - (2 * g * p ** (n // 2) if n % 2 == 0 else 0) for n in range(1, 2 * g + 5)]
    status, out, err = run_cli(["zeta", "--p", str(p), "--genus", str(g), "--counts",
                                ",".join(map(str, counts)), "--format", "json"], capsys)
    assert (status, err) == (0, "")
    payload = json.loads(out)
    assert payload["numerator"] == [(-p) ** (j // 2) * math.comb(g, j // 2) if j % 2 == 0 else 0
                                    for j in range(2 * g + 1)]
    assert [row[0] for row in payload["rows"]] == [0] + [1] * (2 * g) + [2]
    # found on the square-free part 1 - p t^2, every displayed root is +-sqrt p
    assert all(math.isclose(row[3], math.sqrt(p), rel_tol=0, abs_tol=1e-12)
               for row in payload["rows"] if row[0] == 1)


def test_zeta_refuses_counts_with_an_eigenvalue_of_no_weight(capsys):
    # numerator 1 + t + 8 t^2: |alpha| = sqrt 8 at p = 7, no power of sqrt 7
    assert run_cli(["zeta", "--p", "7", "--counts", "9,65,321,2305,17089,118145"], capsys) == \
        (1, "", "error: numerator is not a product of Weil polynomials\n")


@pytest.mark.parametrize("p", [3, 7])
def test_zeta_abs_is_sqrt_p_to_the_weight(p, tmp_path, capsys):
    # weight_pieces certifies |alpha|^2 = p^k, so the abs cell is sqrt(p)^k
    # rounded once; abs() of the rounded roots read 1.7320508075688774 at
    # p = 3 and 2.6457513110645903 at p = 7
    curve = tmp_path / "genus2.txt"
    curve.write_text("y^2 + x*y - x^5 - x - 1\n")
    status, out, err = run_cli(["zeta", "--poly", str(curve), "--p", str(p), "--genus", "2",
                                "--format", "csv"], capsys)
    assert (status, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[3]) for r in rows] == [("0", "1.0"), *[("1", repr(math.sqrt(p)))] * 4,
                                            ("2", f"{p}.0")]


ZETA_README_CSV = ("weight,re,im,abs\n0,1.0,0.0,1.0\n1,-1.0,-1.0,1.4142135623730951\n"
                   "1,-1.0,1.0,1.4142135623730951\n2,2.0,0.0,2.0\n")
ZETA_GENUS2_CSV = ("weight,re,im,abs\n0,1.0,0.0,1.0\n"
                   "1,-1.0,-1.0,1.4142135623730951\n1,-1.0,1.0,1.4142135623730951\n"
                   "1,1.0,-1.0,1.4142135623730951\n1,1.0,1.0,1.4142135623730951\n"
                   "2,2.0,0.0,2.0\n")


def test_zeta_runs_without_the_fraction_series(tmp_path, monkeypatch, capsys):
    # the CLI reconstructs through the integer Newton core alone
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction series on the zeta path")

    monkeypatch.setattr("motives.zeta.zeta_series", refuse)
    monkeypatch.setattr("motives.zeta.expand_rational", refuse)
    genus2 = tmp_path / "genus2.txt"
    genus2.write_text("y^2 + y - x^5\n")
    assert run_cli(["zeta", "--p", "2", "--counts", "5,5,5,25,25,65,145",
                    "--format", "csv"], capsys) == (0, ZETA_README_CSV, "")
    assert run_cli(["zeta", "--poly", str(genus2), "--p", "2", "--genus", "2",
                    "--format", "csv"], capsys) == (0, ZETA_GENUS2_CSV, "")


@pytest.mark.parametrize("argv, message", [
    (["--genus", "-1"], "insufficient or inconsistent counts"),
    (["--genus", "2"], "insufficient or inconsistent counts"),
    (["--genus", "0"], "insufficient or inconsistent counts"),
    (["--counts", "5,6,5,25,25,65,145"], "not rational of declared shape"),
    (["--counts", "5,5,5,25,25,65,146"], "insufficient or inconsistent counts"),
])
def test_zeta_refuses_counts_of_another_shape(argv, message, capsys):
    if "--counts" not in argv:
        argv = argv + ["--counts", "5,5,5,25,25,65,145"]
    assert run_cli(["zeta", "--p", "2"] + argv, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("counts", ["5,x", "", "5,,5"])
def test_zeta_malformed_counts_is_one_error_line(counts, capsys):
    status, out, err = run_cli(["zeta", "--p", "2", "--counts", counts], capsys)
    assert (status, out) == (1, "")
    assert err == f"error: --counts must be comma-separated integers, got {counts!r}\n"


def test_motive_projective_space(capsys):
    _, out, _ = run_cli(["motive", "--expr", "P^2", "--q", "2",
                         "--n-max", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["rows"] == [[1, 7], [2, 21], [3, 73]]


def test_motive_lefschetz_power(capsys):
    _, out, _ = run_cli(["motive", "--expr", "L^2", "--q", "3",
                         "--n-max", "2", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["pieces"] == {"4": [[9.0, 0.0]]}
    assert payload["rows"] == [[1, 9], [2, 81]]


def test_motive_elliptic(capsys):
    _, out, _ = run_cli(["motive", "--expr", "elliptic a=-2 p=2",
                         "--n-max", "4", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert [int(r[1]) for r in rows[1:]] == [5, 5, 5, 25]


def test_pspace(capsys):
    _, out, _ = run_cli(["pspace", "--dim", "2", "--q", "2",
                         "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["1", "2", "7"]
    _, out, _ = run_cli(["pspace", "--dim", "1", "--q", "9",
                         "--n-max", "2", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1:] == [["1", "9", "10"], ["2", "81", "82"]]


def test_pi_columns(capsys):
    _, out, _ = run_cli(["pi", "--x-max", "8", "--K", "1",
                         "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "pi", "li", "approx_1"]
    xs = [float(r[0]) for r in rows[1:]]
    assert xs == [2.5, 3.5, 4.5, 5.5, 6.5, 7.5]
    # pi column is exact
    assert [int(r[1]) for r in rows[1:]] == [1, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("x_max", ["-5", "2", "2.4"])
def test_pi_refuses_an_empty_grid(x_max, capsys):
    status, out, err = run_cli(["pi", "--x-max", x_max], capsys)
    assert (status, out) == (1, "")
    assert err == f"error: --x-max must be >= 2.5, the first grid point, got {float(x_max)}\n"


def test_pi_first_grid_point_is_one_row(capsys):
    _, out, _ = run_cli(["pi", "--x-max", "2.5", "--format", "csv"], capsys)
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["x", "2.5"]


def test_pi_with_custom_zero_file(tmp_path, capsys):
    zf = tmp_path / "zeros.txt"
    zf.write_text("14.134725\n21.022040\n")
    status, out, _ = run_cli(["pi", "--x-max", "5", "--K", "2", "--zeros",
                              str(zf), "--format", "csv"], capsys)
    assert status == 0
    status, _, err = run_cli(["pi", "--x-max", "5", "--K", "3", "--zeros",
                              str(zf), "--format", "csv"], capsys)
    assert status == 1
    assert "K exceeds" in err


def test_error_paths(tmp_path, capsys):
    status, _, err = run_cli(["count", "--poly", str(tmp_path / "no.txt"),
                              "--p", "2"], capsys)
    assert status == 1 and "error:" in err
    status, _, err = run_cli(["count", "--poly", str(tmp_path / "no.txt"),
                              "--p", "4"], capsys)
    assert status == 1
    status, _, err = run_cli(["pspace", "--dim", "1", "--q", "6"], capsys)
    assert status == 1 and "prime power" in err
    status, _, err = run_cli(["motive", "--expr", "Q^2", "--q", "2"], capsys)
    assert status == 1 and "cannot parse" in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code != 0


@pytest.mark.parametrize("argv", [
    ["count", "--poly", "curve.txt", "--p", "2", "--workers", "0"],
    ["predict", "--p", "2", "--n1", "4", "--workers", "2"],
    ["zeta", "--p", "2", "--counts", "5,5,5", "--workers", "2"],
    ["motive", "--expr", "P^2", "--q", "2", "--workers", "-3"],
    ["pspace", "--dim", "1", "--q", "2", "--workers", "0"],
    ["pi", "--x-max", "3", "--workers", "0"],
], ids=lambda argv: argv[0])
def test_workers_is_a_usage_error_for_every_command(argv, capsys):
    # the counting plan decides parallelism: no subcommand takes --workers
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "--workers" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["count", "--poly", "curve.txt", "--p", "2", "--work-limit", "1099511627776"],
     "--work-limit"),
    (["predict", "--p", "2", "--n1", "4", "--work-limit", "10"], "--work-limit"),
    (["zeta", "--p", "2", "--counts", "5,5,5", "--work-limit", "10"], "--work-limit"),
    (["motive", "--expr", "P^2", "--q", "2", "--work-limit", "10"], "--work-limit"),
    (["pspace", "--dim", "1", "--q", "2", "--work-limit", "10"], "--work-limit"),
    (["pi", "--x-max", "3", "--work-limit", "10"], "--work-limit"),
    (["predict", "--p", "2", "--n1", "4", "--method", "auto"], "--method"),
    (["count", "--poly", "curve.txt", "--p", "2", "--method", "separable"], "separable"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_plan_knobs_are_usage_errors(argv, flag, capsys):
    # the planner owns the work limit and the plan: no subcommand sets either,
    # and count offers only the product grid and the planner's own choice
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert flag in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert flag not in capsys.readouterr().out


def test_every_benchmark_operation_parses(tmp_path, monkeypatch):
    # a CLI trim that breaks a bench/workloads.py invocation fails here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    parser = build_parser()
    for name, build in workloads.WORKLOADS.items():
        for seed in (1, 2):
            for op in build(random.Random(seed), tmp_path):
                assert parser.parse_args(list(op.argv)).command == op.argv[0], (name, seed)


def test_zeta_poly_and_counts_together_is_a_usage_error(curve_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--poly", curve_file, "--p", "2", "--counts", "5,5,5,25,25,65,145"])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_motive_elliptic_q_must_be_its_p(capsys):
    argv = ["motive", "--expr", "elliptic a=-2 p=2", "--n-max", "4", "--format", "csv"]
    assert run_cli(argv + ["--q", "7"], capsys) == \
        (1, "", "error: --q 7 differs from the elliptic curve's p = 2\n")
    accepted = run_cli(argv, capsys)
    assert accepted[0] == 0
    assert run_cli(argv + ["--q", "2"], capsys) == accepted


@pytest.mark.parametrize("argv", [
    ["count", "--poly", "curve.txt", "--p", "2", "--n-max", "0"],
    ["predict", "--p", "2", "--n1", "4", "--n-max", "0"],
    ["motive", "--expr", "P^2", "--q", "2", "--n-max", "-1"],
    ["pspace", "--dim", "1", "--q", "2", "--n-max", "0"],
], ids=lambda argv: argv[0])
def test_n_max_below_one_is_an_error(argv, capsys):
    assert run_cli(argv, capsys) == (1, "", "error: --n-max must be >= 1\n")


@pytest.mark.parametrize("q", [6, 12, 100])
def test_motive_base_must_be_a_prime_power(q, capsys):
    status, out, err = run_cli(["motive", "--expr", "P^2", "--q", str(q)], capsys)
    assert (status, out, err) == (1, "", "error: q must be a prime power\n")


@pytest.mark.parametrize("q", [2, 4, 9, 8191, 3 ** 20, 2 ** 100, 10007 ** 5])
def test_motive_accepts_every_prime_power_base(q, capsys):
    status, out, _ = run_cli(["motive", "--expr", "P^1", "--q", str(q),
                              "--n-max", "1", "--format", "csv"], capsys)
    assert (status, out) == (0, f"n,count\n1,{q + 1}\n")


@pytest.mark.parametrize("expr", ["P^x", "L^", "elliptic a=x p=2", "elliptic a", "elliptic a=1=2",
                                  "elliptic a=1 p=2 p=3", "elliptic a=0 p=2 q=3",
                                  "ellipticx a=1 p=3"])
def test_motive_parse_errors_name_the_expression(expr, capsys):
    status, out, err = run_cli(["motive", "--expr", expr, "--q", "2"], capsys)
    assert (status, out, err) == (1, "", f"error: cannot parse motive expression {expr!r}\n")


@pytest.mark.parametrize("x_max", ["nan", "inf", "-inf"])
def test_pi_x_max_must_be_finite(x_max, capsys):
    status, out, err = run_cli(["pi", f"--x-max={x_max}"], capsys)
    assert (status, out, err) == (1, "", f"error: --x-max must be a finite number, got {x_max}\n")


@pytest.mark.parametrize("x_max, shown", [("1e308", "1e+308"), ("2e7", "20000000.0")])
def test_pi_x_max_past_the_sieve_cap_is_one_short_line(x_max, shown, capsys):
    status, out, err = run_cli(["pi", "--x-max", x_max, "--K", "0"], capsys)
    assert (status, out) == (1, "")
    assert err == f"error: --x-max must be below 10000000, the sieve cap, got {shown}\n"


@pytest.mark.parametrize("argv, want", [
    (["motive", "--expr", "elliptic a=5 p=101", "--n-max", "10"],
     {8: 10828567145002275, 10: 110462212524105901379}),
    (["motive", "--expr", "L^40", "--q", "3"], {1: 12157665459056928801}),
    (["motive", "--expr", "P^700", "--q", "2"], {1: 2 ** 701 - 1}),
], ids=["elliptic", "lefschetz", "pspace"])
def test_motive_count_past_float_precision_is_exact(argv, want, capsys):
    # a double near these counts is off by thousands; the rows are exact
    status, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    for n, count in want.items():
        assert rows[n] == [str(n), str(count)]


def test_motive_eigenvalue_past_float_range_is_an_error(capsys):
    # the counts are exact integers, but the weight-2048 eigenvalue 2^1024
    # has no double to display it; refused before any row is computed
    status, out, err = run_cli(["motive", "--expr", "P^1100", "--q", "2"], capsys)
    assert status == 1
    assert out == ""
    assert err == "error: weight 2048 eigenvalues exceed the float range\n"


def test_count_too_long_to_print_is_an_error(capsys):
    # a report that cannot be rendered fails with one line like any other
    # error: here 101^400 (802 digits) against a 640-digit int-to-str limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, err = run_cli(["predict", "--p", "101", "--n1", "96",
                                    "--n-max", "400"], capsys)
    finally:
        sys.set_int_max_str_digits(default)
    assert status == 1
    assert out == ""
    assert err.startswith("error: Exceeds the limit (640 digits)")
    assert err.count("\n") == 1


def test_count_too_long_to_print_names_the_row(capsys):
    # 101^2146 has 4302 digits: the error names the first such row, its
    # digit count and the option that shortens the report
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        status, out, err = run_cli(["predict", "--p", "101", "--n1", "96",
                                    "--n-max", "2200"], capsys)
        ok, _, _ = run_cli(["predict", "--p", "101", "--n1", "96",
                            "--n-max", "2145"], capsys)
    finally:
        sys.set_int_max_str_digits(default)
    assert (status, out, ok) == (1, "", 0)
    assert err == ("error: Exceeds the limit (4300 digits) for printing an integer: "
                   "row n=2146 has a 4302-digit predicted; use a smaller --n-max\n")


def test_each_row_is_computed_once(capsys, monkeypatch):
    # a report's rows are computed in order as they are printed, so a refused
    # command stops at the first row too long to print, row 2146 here
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    from motives import weil

    taken = []

    def counted(values):
        def wrapper(*args):
            for v in values(*args):
                taken[-1] += 1
                yield v
        return wrapper

    monkeypatch.setattr(weil, "predict_affine_counts", counted(weil.predict_affine_counts))
    monkeypatch.setattr(motive, "point_counts", counted(motive.point_counts))
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv, status in (("predict --p 101 --n1 96 --n-max 100000", 1),
                             ("motive --expr 'elliptic a=5 p=101' --n-max 20000", 1),
                             ("predict --p 2 --n1 4 --n-max 300", 0)):
            taken.append(0)
            assert run_cli(shlex.split(argv), capsys)[0] == status
    finally:
        sys.set_int_max_str_digits(default)
    assert taken == [2146, 2146, 300]


def test_print_limit_zero_cuts_no_row(capsys):
    # with no int-to-str limit every row is built and printed
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        status, out, err = run_cli(["predict", "--p", "101", "--n1", "96",
                                    "--n-max", "2200", "--format", "csv"], capsys)
        last = f"2200,{predict_affine_count(hasse_alpha(101, 96), 2200)}"
    finally:
        sys.set_int_max_str_digits(default)
    rows = out.splitlines()
    assert (status, err, len(rows)) == (0, "", 2201)
    assert rows[-1] == last


# each refusal ends before the input is built, in under 1 s and 64 MB on 2
# CPUs; summing the representatives took 54 s at --q 2, their closed form 8 s
# at --q 3^16 without the refusal by dimension, and the others more than 90 s,
# 48 s (about 2.5 GB), more than 90 s and 1 s (360 MB)
CAPPED = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from motives.cli import main
sys.exit(main(sys.argv[1:]))
"""
DIGITS = "Exceeds the limit (4300 digits) for printing an integer: row n=2146 has a 4302-digit"


@pytest.mark.parametrize("argv, message", [
    ("pspace --dim 1000000 --q 2", "search space too large"),
    ("pspace --dim 1000000 --q 43046721", "search space too large"),
    ("predict --p 101 --n1 96 --n-max 100000", f"{DIGITS} predicted; use a smaller --n-max"),
    ("motive --expr P^200000 --q 2", "weight 2048 eigenvalues exceed the float range"),
    ("motive --expr L^1000000 --q 2", "weight 2000000 eigenvalues exceed the float range"),
    ("motive --expr 'elliptic a=5 p=101' --n-max 20000", f"{DIGITS} count; use a smaller --n-max"),
])
def test_large_inputs_are_refused_before_they_are_built(argv, message):
    if "digits" in message and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]),
               PYTHONINTMAXSTRDIGITS="4300")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CAPPED, *shlex.split(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("index", ["30000000", "100000000000"])
def test_count_refuses_a_variable_index_before_building_its_vectors(index, tmp_path):
    # x30000000 took 4-5 s and 932 MB before the refusal; x100000000000 ran out of memory
    path = tmp_path / "wide.txt"
    path.write_text(f"x{index} + 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CAPPED, "count", "--poly", str(path), "--p", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (f"error: variable 'x{index}' is past x29: no count in more than 29 "
                           "variables fits the work limit\n")
    assert time.perf_counter() - start < 5


def test_motive_past_the_float_range_builds_no_piece(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("pieces built")

    monkeypatch.setattr(motive, "motive_of_projective_space", refuse)
    monkeypatch.setattr(motive, "tensor_power", refuse)
    for expr, q, weight in [("P^1024", 2, 2048), ("P^5000", 3, 1294), ("L^1024", 2, 2048),
                            ("L^34", 2 ** 31, 68), ("L^1025", 2, 2050)]:
        status, out, err = run_cli(["motive", "--expr", expr, "--q", str(q)], capsys)
        assert (status, out) == (1, ""), expr
        assert err == f"error: weight {weight} eigenvalues exceed the float range\n", expr


@pytest.mark.parametrize("expr, q", [("P^1023", 2), ("L^1023", 2), ("L^33", 2 ** 31)])
def test_motive_at_the_float_range_edge_is_counted(expr, q, capsys):
    status, out, err = run_cli(["motive", "--expr", expr, "--q", str(q), "--n-max", "1",
                                "--format", "json"], capsys)
    assert (status, err) == (0, "")
    assert json.loads(out)["base_q"] == q


def test_an_error_without_a_message_is_named_by_its_type():
    def fail(args):
        raise MemoryError()

    args = build_parser().parse_args(["pspace", "--dim", "1", "--q", "2"])
    args.handler = fail
    assert cli.run(args) == (1, "error: MemoryError")


def test_print_limit_is_exact_at_a_power_of_ten():
    # 10^640 - 1 has 640 digits and prints under a 640-digit limit;
    # -10^640 has 641 and does not
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = render(Report(("n", "v"), ((1, 10 ** 640 - 1),)), "csv")
        with pytest.raises(ValueError, match="row n=2 has a 641-digit v;"):
            render(Report(("n", "v"), ((1, 1), (2, -10 ** 640))), "csv")
    finally:
        sys.set_int_max_str_digits(default)
    assert text == "n,v\n1," + "9" * 640 + "\n"


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, motives.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


def test_package_mobius_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, motives; print(motives.mobius(30), 'numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "-1 False\n"


def test_cli_import_leaves_the_pool_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, motives.cli; print(sorted(m for m in sys.modules "
         "if m in ('concurrent.futures.process', 'multiprocessing')))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "[]\n"


_LOADED_PROBE = """\
import contextlib, io, sys
__import__(sys.argv[1])
if sys.argv[2:]:
    from motives.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[2:]) == 0
watched = ("numpy", "numpy.polynomial", "scipy", "concurrent.futures.process",
           "multiprocessing")
if "numpy" not in sys.modules:  # numpy itself loads ctypes
    watched += ("ctypes",)
print(sorted(m for m in watched if m in sys.modules))
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "motives" or m in ("dataclasses", "fractions")))
"""


# the package modules a command loads
CLI = ["motives", "motives.cli"]
PSPACE = CLI + ["motives.finite_field", "motives.variety"]
PREDICT = CLI + ["motives.finite_field", "motives.weil"]
MOTIVE = PREDICT + ["motives.motive"]
ZETA = PSPACE + ["motives.weil", "motives.zeta"]

# each probe: the module a fresh interpreter imports, then the command it runs,
# if any, and the package modules it loads
NUMPY_FREE = {
    "motives": ["motives"],
    "motives.cli": CLI,
    "motives.cli motive --expr P^2 --q 2": MOTIVE,
    "motives.cli motive --expr L^3 --q 3": MOTIVE,
    "motives.cli motive --expr 'elliptic a=-2 p=2'": MOTIVE,
    "motives.cli predict --p 101 --n1 96 --n-max 300": PREDICT,
    "motives.cli zeta --p 2 --counts 5,5,5,25,25,65,145": ZETA,
    "motives.cli zeta --p 2 --counts 3,5,9,17,33 --genus 0": ZETA,  # P^1: numerator 1
    # y^2 + y = x^5: numerator 1 + 4 t^4, four roots by Aberth-Ehrlich
    "motives.cli zeta --p 2 --counts 3,5,9,33,33,65,129,193": ZETA,
    "motives.cli pspace --dim 2 --q 4 --n-max 2": PSPACE,
    "motives.cli count --poly zero.txt --p 2 --n-max 3": PSPACE,  # x^0 - 1 is the zero polynomial
    # the fibre plan on bit planes, at any charge (F_2^15 was past the codes
    # kernel's ARRAY_MIN_CHARGE, F_2^21 past the planes' old bound of 2^20 rows);
    # the trace mask of F_2^n comes from weil's power sums
    "motives.cli count --poly curve.txt --p 2 --n-max 3": PSPACE + ["motives.weil"],
    "motives.cli count --poly curve.txt --p 2 --n-max 15": PSPACE + ["motives.weil"],
    "motives.cli count --poly curve.txt --p 2 --n-max 21": PSPACE + ["motives.weil"],
    "motives.cli zeta --poly curve.txt --p 2 --genus 1": ZETA,
    "motives.cli predict --p 2 --n1 4 --poly curve.txt --n-max 12": PSPACE + ["motives.weil"],
}
NUMPY_PATHS = {  # the array paths, so that the probe itself can fail
    # the product grid reads no trace mask, so it loads no weil
    "motives.cli count --poly curve.txt --p 2 --n-max 3 --method product":
        PSPACE + ["motives.grid"],
    # F_3^9: odd p, the fibre plan's rows pass ARRAY_MIN_CHARGE
    "motives.cli count --poly curve.txt --p 3 --n-max 9": PSPACE + ["motives.grid"],
    "motives.cli pi --x-max 20 --K 13": CLI + ["motives.explicit_formula", "motives.finite_field"],
}


@pytest.mark.parametrize("probe, loaded, modules",
                         [(c, [], m) for c, m in NUMPY_FREE.items()]
                         + [(c, ["numpy"], m) for c, m in NUMPY_PATHS.items()],
                         ids=[*NUMPY_FREE, *NUMPY_PATHS])
def test_numpy_scipy_and_the_pool_load_only_where_used(probe, loaded, modules, tmp_path):
    # numpy only on the array paths; numpy.polynomial, scipy and the worker pool
    # on none of these, and ctypes on none of the numpy-free ones.  Each command
    # loads only its own package modules, and fractions and dataclasses never.
    (tmp_path / "curve.txt").write_text(CURVE_TEXT)
    (tmp_path / "zero.txt").write_text("x^0 - 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *shlex.split(probe)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{loaded}\n{sorted(modules)}\n"


# the package's public names: 40 re-exports and the six submodules that define them
PACKAGE_ALL = [
    "CountSequence", "FFElement", "FieldSpec", "Motive", "PolySystem",
    "PrimeCounter", "RationalZeta", "WeilNumbers", "ZeroTable",
    "affine_count_sequence", "correction_term", "count_affine",
    "count_projective_space", "count_projective_variety", "curve_denominator",
    "default_zero_table", "direct_sum", "enumerate_elements", "expand_rational",
    "explicit_formula", "finite_field", "hasse_alpha", "lefschetz_motive", "li",
    "load_zeros", "make_field", "make_motive", "mobius", "motive", "motive_of_elliptic_curve",
    "motive_of_projective_space", "parse_poly_system", "point_count", "predict_affine_count",
    "rational_reconstruct", "rh_bound_ratio", "riemann_approx", "sieve_pi", "tensor",
    "unit_motive", "variety", "weil",
    "weil_numbers_from_counts", "zeta", "zeta_from_counts", "zeta_series",
]
SUBMODULES = ["explicit_formula", "finite_field", "motive", "variety", "weil", "zeta"]


def test_lazy_package_surface():
    assert sorted(motives.__all__) == PACKAGE_ALL
    listed = dir(motives)
    for name in PACKAGE_ALL:
        obj = getattr(motives, name)
        assert name in listed
        if name in SUBMODULES:
            assert obj is sys.modules[f"motives.{name}"]
        else:
            home = sys.modules[obj.__module__]
            assert home.__name__ in [f"motives.{m}" for m in SUBMODULES]
            assert getattr(home, name) is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        motives.no_such_name


@pytest.mark.parametrize("env", ["4", "x", "0"])
def test_weil_workers_env_is_ignored(env, monkeypatch, capsys):
    # the variable no longer sets anything; a value left in the environment is harmless
    monkeypatch.setenv("WEIL_WORKERS", env)
    status, out, err = run_cli(["pspace", "--dim", "1", "--q", "2", "--format", "csv"], capsys)
    assert (status, out, err) == (0, "n,q,count\n1,2,3\n", "")


def test_prime_power_factors_without_a_scan():
    assert _prime_power(2 ** 26) == (2, 26)
    assert _prime_power(3 ** 16) == (3, 16)
    assert _prime_power(8191) == (8191, 1)
    with pytest.raises(ValueError, match="q must be a prime power"):
        _prime_power(12)
    with pytest.raises(ValueError, match="field too large"):
        _prime_power(2 ** 26 + 1)


def test_pspace_refuses_a_large_q_at_once():
    # a scan over every candidate factor of this 13-digit prime would not end
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "motives.cli", "pspace", "--dim", "1", "--q", "1000000000039"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "error: field too large\n")


def test_pi_negative_K_is_refused_before_the_sieve(capsys):
    # x_max 1e8 would pass the sieve cap; the K check comes first
    status, _, err = run_cli(["pi", "--x-max", "1e8", "--K", "-1"], capsys)
    assert (status, err) == (1, "error: K must be >= 0\n")


_FAULTS_PROBE = """\
import resource
from motives import explicit_formula as ef, grid
from motives.finite_field import make_field

def faults(build):
    build()  # warm: the second pass is the one counted
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    build()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

zeros = ef.default_zero_table()
for x_max, K in ((600, 150), (1500, 0)):
    pc = ef.PrimeCounter.build(x_max + 1)
    xs = ef.half_integer_grid(2, x_max)
    print(faults(lambda: ef.approximation_rows(xs, zeros, K, pc)))
spec = make_field(2, 17)
print(faults(lambda: (grid._tables_for.cache_clear(), grid._tables_for(spec))))
"""


def test_library_passes_reuse_their_workspace(tmp_path):
    # without cli.main: each pass writes its temporaries into one workspace, so
    # a warm pass faults in few pages whatever the heap's layout
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FAULTS_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    rows_600, rows_1500, tables = map(int, done.stdout.split())
    assert rows_600 < 2000 and rows_1500 < 2000
    assert tables < 3000


_THREADS_PROBE = """\
import os
from motives.cli import main

main(["count", "--poly", "curve.txt", "--p", "3", "--n-max", "4", "--method", "product"])
with open("/proc/self/status") as f:
    threads = next(line.split()[1] for line in f if line.startswith("Threads:"))
print(threads, os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("inherited, want", [(None, "1 1"), ("2", "2")])
def test_cli_runs_one_blas_thread_unless_told_otherwise(tmp_path, inherited, want):
    # numpy's OpenBLAS would start an idle worker per CPU; a caller's own value stands
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc")
    (tmp_path / "curve.txt").write_text(CURVE_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if inherited:
        env["OPENBLAS_NUM_THREADS"] = inherited
    done = subprocess.run([sys.executable, "-c", _THREADS_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    last = done.stdout.splitlines()[-1]
    assert last == want if inherited is None else last.split()[1] == want


_BUDGET_PROBE = """\
import resource, sys
import motives.grid  # numpy and the array kernel, under the cap as a library caller has them
from motives.cli import main

def vm_peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmPeak:")) * 1024

count = ["count", "--poly", "curve.txt", "--p", "2", "--method", "auto", "--n-max"]
main(count + ["4"])  # one small field counted, on bit planes, as every p = 2 fibre plan is
# the stated budget for this curve, 4 bytes per element of F_2^22, and 8 MiB of slack
cap = vm_peak() + 4 * 2 ** 22 + 8 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(count + ["22"]))
"""


def test_count_sequence_to_f_2_22_within_the_memory_budget(tmp_path):
    # the budget the arrays' exp table held, 4 bytes per element, on top of a
    # process that has loaded numpy; the fibre plan counts y^2 + y = x^3 + x on
    # bit planes in blocks of PLANE_BLOCK_ROWS rows, with no field table at
    # all.  The address space is capped for this process only
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < 2 ** 30:
        pytest.skip("address space already capped")
    (tmp_path / "curve.txt").write_text(CURVE_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _BUDGET_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "22,4194304,4194304"


def test_table_format_renders(curve_file, capsys):
    _, out, _ = run_cli(["count", "--poly", curve_file, "--p", "2",
                         "--n-max", "2", "--format", "table"], capsys)
    lines = out.splitlines()
    assert lines[0].split() == ["n", "q", "count"]
    assert lines[2].split() == ["1", "2", "4"]


def readme_commands():
    """The curve file and the `motives ...` lines of the README's
    command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```sh")[1:] if "\nmotives " in b).split("```")[0]
    curve = block.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0] + "\n"
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("motives ")]
    return curve, commands


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    curve, commands = readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.txt").write_text(curve)
    for argv in commands:
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, ""), argv
        assert out, argv
