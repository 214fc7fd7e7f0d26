"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line once its assertions hold; run with
`pytest tests/test_acceptance.py -v -s` to see the checklist.
"""

import concurrent.futures
import csv
import io
import math
import os
import random
import time

import numpy as np
import pytest

from motives.cli import main as cli_main
from motives.explicit_formula import (
    PrimeCounter,
    default_zero_table,
    half_integer_grid,
    rh_bound_ratio,
    riemann_approx,
    sieve_pi,
)
from motives.finite_field import make_field
from motives import variety
from motives.motive import (
    direct_sum,
    make_motive,
    motive_of_elliptic_curve,
    motive_of_projective_space,
    point_count,
    tensor,
)
from motives.variety import (
    CountSequence,
    affine_count_sequence,
    count_affine,
    count_projective_space,
    parse_poly_system,
)
from motives.weil import (
    correction_term,
    hasse_alpha,
    predict_affine_count,
    weil_numbers_from_counts,
)
from motives.zeta import curve_denominator, expand_rational, rational_reconstruct, zeta_series

CURVE = parse_poly_system("y^2 + y - x^3 - x")
GENUS2_CURVE = parse_poly_system("y^2 + y - x^5")

EXPECTED_COUNTS = (4, 4, 4, 24, 24, 64, 144, 224, 544, 1024, 1984, 4224)
EXPECTED_CORRECTIONS = (2, 0, -4, 8, -8, 0, 16, -32, 32, 0)
EXPECTED_PAIR_SUMS = (-2, 0, 4, -8, 8, 0, -16, 32, -32, 0)

# sup of |pi(n) - li(n)| / (sqrt(n) ln n) on [3, 1e5], attained at n = 4;
# frozen from a high-precision sweep done before the build
RH_RATIO_ORACLE_SUP = 0.3489825545628

RESULTS = []


def record(num, text):
    RESULTS.append((num, text))
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def brute_counts():
    return affine_count_sequence(CURVE, 2, 12, method="separable").counts


def test_criterion_01_golden_table():
    t0 = time.perf_counter()
    serial = tuple(count_affine(CURVE, make_field(2, n), method="product")
                   for n in range(1, 13))
    serial_s = time.perf_counter() - t0
    assert serial == EXPECTED_COUNTS
    assert serial_s < 60.0
    t0 = time.perf_counter()
    eight = count_affine(CURVE, make_field(2, 12), method="product", workers=8)
    eight_s = time.perf_counter() - t0
    assert eight == EXPECTED_COUNTS[-1]
    assert eight_s < 15.0
    record(1, f"brute-force table n=1..12 exact "
              f"(serial {serial_s:.1f}s, n=12 capped at 8 workers {eight_s:.1f}s)")


def test_criterion_02_correction_terms(brute_counts):
    alpha = hasse_alpha(2, 4)
    by_subtraction = tuple(brute_counts[n - 1] - 2 ** n for n in range(1, 11))
    by_recurrence = tuple(correction_term(alpha, n) for n in range(1, 11))
    assert by_subtraction == EXPECTED_CORRECTIONS
    assert by_recurrence == EXPECTED_CORRECTIONS
    # alpha^n column: exact integer powers of -1+i; spot row alpha^4 = -4
    x, y = 1, 0
    for n in range(1, 11):
        x, y = -x - y, x - y
        z = alpha.roots[-1] ** n
        assert abs(z - complex(x, y)) < 1e-9
        assert 2 * x == EXPECTED_PAIR_SUMS[n - 1]
        if n == 4:
            assert (x, y) == (-4, 0)
    record(2, "correction terms by subtraction and recurrence; alpha^n column exact")


def test_criterion_03_hasse_sweep():
    t0 = time.perf_counter()
    curves = 0
    for p in (3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                curves += 1
                system = parse_poly_system(f"y^2 - x^3 - {a}*x - {b}")
                counts = affine_count_sequence(system, p, 4, method="auto").counts
                assert abs(p - counts[0]) <= 2 * math.sqrt(p)
                alpha = hasse_alpha(p, counts[0])
                for n in range(1, 5):
                    assert predict_affine_count(alpha, n) == counts[n - 1]
    elapsed = time.perf_counter() - t0
    assert curves == sum(p * p - p for p in (3, 5, 7, 11, 13))
    assert elapsed < 60.0
    record(3, f"Hasse bound and exact predictions for {curves} curves, "
              f"n=1..4 ({elapsed:.1f}s)")


def test_criterion_04_projective_spaces():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        f = make_field(p, n)
        for dim in range(4):
            assert count_projective_space(dim, f) == \
                sum(f.q ** i for i in range(dim + 1))
    record(4, "projective enumeration equals 1 + q + ... + q^dim, "
              "dim <= 3, q in {2,3,4,5,7,8,9}")


def test_criterion_05_zeta_round_trip(brute_counts):
    projective = tuple(c + 1 for c in brute_counts)
    series = zeta_series(projective)
    rz = rational_reconstruct(series, 2, curve_denominator(2), 2)
    assert rz.numerator == (1, 2, 2)
    for root in rz.weight_table()[1]:
        assert abs(abs(root) - math.sqrt(2)) <= 1e-9 * math.sqrt(2)
    again = expand_rational(rz.numerator, rz.denominator, 12)
    assert again == series
    record(5, "zeta series -> (1 + 2t + 2t^2)/((1-t)(1-2t)), roots |.|=sqrt(2), "
              "re-expansion exact to order 12")


def test_criterion_06_genus_two():
    counts = affine_count_sequence(GENUS2_CURVE, 2, 4, method="auto").counts
    projective = CountSequence(2, tuple(c + 1 for c in counts[:2]),
                               projective_flag=True)
    wn = weil_numbers_from_counts(2, 2, projective)
    assert len(wn.coeffs) == 5
    for n in (3, 4):
        assert wn.predict_projective_count(n) == counts[n - 1] + 1
    for root in wn.roots:
        assert abs(abs(root) - math.sqrt(2)) <= 1e-6
    record(6, "genus-2 numerator from N1,N2 predicts N3,N4; four roots of "
              "modulus sqrt(2)")


def _random_motive(rng, base_q, max_weight=3, max_atoms=3):
    # atoms 1 -+ q^(k/2) t (even k) and 1 - a t + q^k t^2, |a| <= 2 q^(k/2)
    pieces = {}
    for _ in range(rng.randint(1, max_atoms)):
        k = rng.randint(0, max_weight)
        qk = base_q ** k
        if k % 2 == 0 and rng.random() < 0.4:
            atom = (1, -base_q ** (k // 2) * rng.choice([1, -1]))
        else:
            bound = math.isqrt(4 * qk)
            atom = (1, -rng.randint(-bound, bound), qk)
        pieces[k] = tuple(int(c) for c in np.convolve(pieces.get(k, (1,)), atom))
    return make_motive(base_q, pieces)


def test_criterion_07_motive_equivalences(brute_counts):
    for q_spec in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        p, e = q_spec
        f = make_field(p, e)
        for dim in range(4):
            m = motive_of_projective_space(dim, f.q)
            for n in (1, 2, 3):
                assert point_count(m, n) == \
                    count_projective_space(dim, make_field(p, e * n))
    elliptic = motive_of_elliptic_curve(hasse_alpha(2, 4))
    for n in range(1, 13):
        assert point_count(elliptic, n) == brute_counts[n - 1] + 1
    rng = random.Random(90125)
    for _ in range(100):
        q = rng.choice([2, 3, 5, 7])
        a, b = _random_motive(rng, q), _random_motive(rng, q)
        for n in (1, 2, 3):
            assert point_count(direct_sum(a, b), n) == \
                point_count(a, n) + point_count(b, n)
            assert point_count(tensor(a, b), n) == \
                point_count(a, n) * point_count(b, n)
    record(7, "motive counts match enumeration; additivity and "
              "multiplicativity exact on 100 random pairs")


def test_criterion_08_explicit_formula():
    t0 = time.perf_counter()
    zeros = default_zero_table()
    pc = PrimeCounter.build(240)
    grid20 = half_integer_grid(2.0, 20.0)
    worst = max(abs(riemann_approx(float(x), zeros, 13) - sieve_pi(x, pc))
                for x in grid20)
    assert worst <= 1.0
    grid230 = half_integer_grid(2.0, 230.0)
    rms = []
    for K in (0, 13, 50, 118):
        errs = np.array([riemann_approx(float(x), zeros, K) - sieve_pi(x, pc)
                         for x in grid230])
        rms.append(float(np.sqrt((errs ** 2).mean())))
    assert rms[0] > rms[1] > rms[2] > rms[3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record(8, f"K=13 max dev {worst:.3f} <= 1.0 on [2,20]; RMS strictly "
              f"decreasing over K=0,13,50,118 ({elapsed:.1f}s)")


def test_criterion_09_rh_bound_echo():
    t0 = time.perf_counter()
    pc = PrimeCounter.build(10 ** 5)
    r4 = rh_bound_ratio(10 ** 4, pc)
    r5 = rh_bound_ratio(10 ** 5, pc)
    elapsed = time.perf_counter() - t0
    assert math.isfinite(r5)
    assert r5 <= 1.5
    assert r5 <= RH_RATIO_ORACLE_SUP
    assert r5 <= max(r4, RH_RATIO_ORACLE_SUP)
    assert elapsed < 10.0
    record(9, f"sup ratio {r5:.6f} <= 1.5, within the oracle sup "
              f"({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    curve_file = tmp_path / "curve.txt"
    curve_file.write_text("y^2 + y - x^3 - x\n")
    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    # every field through the pool, with as many workers as the CPUs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 1)
    outputs = []
    for w in (1, 2, 4, 8):
        monkeypatch.setattr(os, "cpu_count", lambda w=w: w)
        for _ in range(2 if w == 1 else 1):
            status = cli_main(["count", "--poly", str(curve_file), "--p", "2",
                               "--n-max", "12", "--method", "product", "--format", "csv"])
            assert status == 0
            outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    # one pool per field that more than one tile and one CPU can split, of as
    # many workers as it has tiles, at most the CPUs: [2] * 4, [2, 4, 4, 4], [2, 7, 8, 8]
    tiles = [variety._tiling(2 ** n, variety._tile_rows(2 ** n, 2), variety.DEFAULT_CHUNK_SIZE)[3]
             for n in range(1, 13)]
    assert made == [min(w, t) for w in (1, 2, 4, 8) for t in tiles if min(w, t) > 1]
    rows = list(csv.reader(io.StringIO(outputs[0])))
    assert [int(r[2]) for r in rows[1:]] == list(EXPECTED_COUNTS)

    zeta_reports = []
    for _ in range(2):
        status = cli_main(["zeta", "--poly", str(curve_file), "--p", "2",
                           "--genus", "1", "--format", "json"])
        assert status == 0
        zeta_reports.append(capsys.readouterr().out)
    assert zeta_reports[0] == zeta_reports[1]
    record(10, "byte-identical reports across repeats and 1, 2, 4, 8 CPUs, pooled")


def test_zz_summary():
    assert len(RESULTS) == 10
    print("\n== acceptance summary ==")
    for num, text in RESULTS:
        print(f"  criterion {num:2d}: PASS - {text}")
