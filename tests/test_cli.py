import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motives
from motives.cli import build_parser, config_from_args, main

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


def test_count_workers_identical_output(curve_file, capsys):
    outs = []
    for w in ("1", "2", "4", "8"):
        status, out, _ = run_cli(["count", "--poly", curve_file, "--p", "2",
                                  "--n-max", "10", "--workers", w,
                                  "--format", "csv"], capsys)
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


def test_workers_below_one_is_an_error(curve_file, capsys):
    status, out, err = run_cli(["count", "--poly", curve_file, "--p", "2",
                                "--workers", "0"], capsys)
    assert status == 1
    assert out == ""
    assert err == "error: workers must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["pi", "--x-max", "3", "--workers", "0"],
    ["pspace", "--dim", "1", "--q", "2", "--workers", "0"],
    ["motive", "--expr", "P^2", "--q", "2", "--workers", "-3"],
])
def test_workers_below_one_is_an_error_for_every_command(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status == 1
    assert out == ""
    assert err == "error: workers must be >= 1\n"


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


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, motives.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("WEIL_WORKERS", "4")
    args = build_parser().parse_args(["pspace", "--dim", "1", "--q", "2"])
    assert config_from_args(args).workers == 4


def test_table_format_renders(curve_file, capsys):
    _, out, _ = run_cli(["count", "--poly", curve_file, "--p", "2",
                         "--n-max", "2", "--format", "table"], capsys)
    lines = out.splitlines()
    assert lines[0].split() == ["n", "q", "count"]
    assert lines[2].split() == ["1", "2", "4"]
