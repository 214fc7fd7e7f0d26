"""Tests for the benchmark's output checks.

    python3 -m pytest -q bench/test_checks.py

Each check must pass a report the program prints today and reject the
same report with one row corrupted.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from run import Tracer  # noqa: E402
from workloads import GENUS2, GOLDEN, zero_table  # noqa: E402


def report(tmp_path, *argv) -> dict:
    from motives.cli import build_parser, config_from_args, run

    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    status, text = run(config_from_args(build_parser().parse_args([*argv, "--format", "json"])))
    assert status == 0, text
    return json.loads(text)


@pytest.fixture()
def curves(tmp_path):
    for name, curve in (("golden.txt", GOLDEN), ("genus2.txt", GENUS2)):
        (tmp_path / name).write_text(checks.curve_text(curve) + "\n")
    return tmp_path


def corrupted(rep: dict, row: int, col: int, delta) -> dict:
    bad = copy.deepcopy(rep)
    bad["rows"][row][col] += delta
    return bad


def test_golden_table_from_the_paper():
    rows = [[n, 2 ** n, c] for n, c in enumerate(
        [4, 4, 4, 24, 24, 64, 144, 224, 544, 1024, 1984, 4224], start=1)]
    rep = {"columns": ["n", "q", "count"], "rows": rows}
    assert checks.check_count(rep, GOLDEN, 2, 12) == []
    assert checks.check_count(corrupted(rep, 11, 2, 1), GOLDEN, 2, 12)
    assert checks.check_count(corrupted(rep, 3, 1, 1), GOLDEN, 2, 12)
    assert checks.check_count({**rep, "rows": rows[:-1]}, GOLDEN, 2, 12)


def test_count_seeded_curve(curves):
    a = (2, 1, 2, 1, 1)
    assert checks.discriminant(*a) % 3
    (curves / "w3.txt").write_text(checks.curve_text(checks.weierstrass(*a)))
    rep = report(curves, "count", "--poly", "w3.txt", "--p", "3", "--n-max", "4")
    curve = checks.weierstrass(*a)
    assert checks.check_count(rep, curve, 3, 4) == []
    assert checks.check_count(corrupted(rep, 2, 2, -1), curve, 3, 4)


def test_float_count_is_rejected():
    rep = {"columns": ["n", "q", "count"], "rows": [[1, 2, 4.0]]}
    assert checks.check_count(rep, GOLDEN, 2, 1)


def test_predict_with_brute_force(curves):
    rep = report(curves, "predict", "--p", "2", "--n1", "4", "--poly", "golden.txt",
                 "--n-max", "8")
    assert checks.check_predict(rep, 2, 4, 8, GOLDEN) == []
    assert checks.check_predict(corrupted(rep, 5, 2, 2), 2, 4, 8, GOLDEN)
    bad = copy.deepcopy(rep)
    bad["alpha_im"] += 1e-6
    assert checks.check_predict(bad, 2, 4, 8, GOLDEN)


def test_predict_large_n(curves):
    rep = report(curves, "predict", "--p", "101", "--n1", "96", "--n-max", "60")
    assert checks.check_predict(rep, 101, 96, 60) == []
    assert checks.check_predict(corrupted(rep, 59, 1, 1), 101, 96, 60)


def test_zeta_golden_numerator_is_the_papers(curves):
    rep = report(curves, "zeta", "--poly", "golden.txt", "--p", "2", "--genus", "1")
    want = checks.numerator_from_counts(2, 1, [checks.count_fp(GOLDEN, 2) + 1])
    assert want == [1, 2, 2]
    assert checks.check_zeta(rep, 2, 1, want) == []
    assert checks.check_zeta(corrupted(rep, 1, 3, 1e-6), 2, 1, want)
    assert checks.check_zeta(corrupted(rep, 1, 1, 1e-3), 2, 1, want)
    assert checks.check_zeta({**rep, "numerator": [1, 2, 3]}, 2, 1, want)
    assert checks.check_zeta({**rep, "display": "(1 + 2*t + 3*t^2) / ((1 - t)(1 - 2 t))"},
                             2, 1, want)


def test_zeta_genus_two(curves):
    rep = report(curves, "zeta", "--poly", "genus2.txt", "--p", "3", "--genus", "2")
    want = checks.numerator_from_counts(
        3, 2, [checks.count_fp(GENUS2, 3) + 1, checks.count_fp2(GENUS2, 3) + 1])
    assert want[3:] == [3 * want[1], 9]          # b_{2g-j} = p^(g-j) b_j
    assert checks.check_zeta(rep, 3, 2, want) == []
    weight1 = next(i for i, r in enumerate(rep["rows"]) if r[0] == 1)
    assert checks.check_zeta(corrupted(rep, weight1, 2, 1e-4), 3, 2, want)


def test_fp2_count_matches_a_direct_field():
    # F_4 = F_2[t]/(t^2 + t + 1); the golden curve has N_2 = 4 affine points
    assert checks.count_fp2(GOLDEN, 2) == 4
    assert checks.count_fp2(GOLDEN, 3) == 9 - checks.trace_powers(
        3 - checks.count_fp(GOLDEN, 3), 3, 2)[2]


def test_motive_elliptic_row_eight_of_p101_is_flagged():
    exact = 101 ** 8 + 1 - checks.trace_powers(5, 101, 8)[8]
    assert exact == 10828567145002275
    im = math.sqrt(4 * 101 - 25) / 2
    rep = {"columns": ["n", "count"], "base_q": 101,
           "rows": [[n, 101 ** n + 1 - checks.trace_powers(5, 101, n)[n]] for n in range(1, 9)],
           "pieces": {"0": [[1.0, 0.0]], "1": [[2.5, -im], [2.5, im]], "2": [[101.0, 0.0]]}}
    assert checks.check_motive_elliptic(rep, 5, 101, 8) == []
    rep["rows"][7][1] = 10828567145002274            # what the CLI prints today
    assert checks.check_motive_elliptic(rep, 5, 101, 8) == \
        ["row [8, 10828567145002274] != [8, 10828567145002275]"]


def test_motive_constructors(curves):
    rep = report(curves, "motive", "--expr", "elliptic a=-2 p=2", "--n-max", "4")
    assert checks.check_motive_elliptic(rep, -2, 2, 4) == []
    assert checks.check_motive_elliptic(corrupted(rep, 3, 1, 1), -2, 2, 4)
    bad = copy.deepcopy(rep)
    bad["pieces"]["1"][0][1] += 1e-3
    assert checks.check_motive_elliptic(bad, -2, 2, 4)
    rep = report(curves, "motive", "--expr", "P^2", "--q", "2", "--n-max", "3")
    assert checks.check_motive_pspace(rep, 2, 2, 3) == []
    assert checks.check_motive_pspace(corrupted(rep, 0, 1, 1), 2, 2, 3)
    rep = report(curves, "motive", "--expr", "L^3", "--q", "5")
    assert checks.check_motive_lefschetz(rep, 3, 5, 3) == []
    assert checks.check_motive_lefschetz(corrupted(rep, 2, 1, -1), 3, 5, 3)


def test_pspace(curves):
    rep = report(curves, "pspace", "--dim", "2", "--q", "4", "--n-max", "2")
    assert checks.check_pspace(rep, 2, 4, 2) == []
    assert checks.check_pspace(corrupted(rep, 1, 2, 1), 2, 4, 2)
    assert checks.check_pspace(corrupted(rep, 1, 1, 1), 2, 4, 2)


def test_pi_columns(curves):
    zeros = zero_table()
    rep = report(curves, "pi", "--x-max", "30", "--K", "5")
    assert checks.check_pi(rep, 30, 5, zeros, [0, 20]) == []
    assert checks.check_pi(corrupted(rep, 10, 1, 1), 30, 5, zeros, [])
    assert checks.check_pi(corrupted(rep, 10, 2, 1e-7), 30, 5, zeros, [])
    assert checks.check_pi(corrupted(rep, 20, 3, 1e-6), 30, 5, zeros, [20])
    assert checks.check_pi({**rep, "rows": rep["rows"][1:]}, 30, 5, zeros, [])


def test_explicit_formula_mp_against_known_value():
    # pi(100.5) = 25; the K = 150 formula lands within 0.5 of it
    assert abs(checks.explicit_formula_mp(100.5, 150, zero_table()) - 25) < 0.5


def test_sieve_and_mobius():
    assert checks.primes_upto(30)[30] == 10
    assert [checks.mobius(m) for m in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_tracer_self_time_is_span_minus_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.with_self_times()
    assert a["parent"] == b["parent"] == outer["id"] and outer["parent"] is None
    assert outer["self_s"] == pytest.approx(
        outer["duration_s"] - a["duration_s"] - b["duration_s"])
