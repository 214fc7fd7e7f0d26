import math

import pytest

from motives.variety import CountSequence, affine_count_sequence, parse_poly_system
from motives.weil import (
    FrobeniusAlpha,
    WeilNumbers,
    correction_term,
    hasse_alpha,
    predict_affine_count,
    trace_power_sum,
    verify_weil_rh,
    weil_numbers_from_counts,
)

EXPECTED_CURVE_COUNTS = (4, 4, 4, 24, 24, 64, 144, 224, 544, 1024, 1984, 4224)
EXPECTED_CORRECTIONS = (2, 0, -4, 8, -8, 0, 16, -32, 32, 0)


def gauss_pow(a, b, n):
    """Oracle: (a + b*i)^n by exact integer arithmetic."""
    x, y = 1, 0
    for _ in range(n):
        x, y = x * a - y * b, x * b + y * a
    return x, y


def gf2k_count(poly_bits, k, rhs_exp):
    """Oracle: solutions of y^2 + y = x^rhs_exp in GF(2^k) via carryless
    integer arithmetic with the given irreducible polynomial bits."""
    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> k) & 1:
                a ^= poly_bits
        return r

    def power(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    count = 0
    for x in range(1 << k):
        rhs = power(x, rhs_exp)
        for y in range(1 << k):
            if mul(y, y) ^ y == rhs:
                count += 1
    return count


def test_hasse_alpha_reference_curve():
    a = hasse_alpha(2, 4)
    assert a.trace_a == -2
    assert a.alpha == complex(-1, 1)


def test_hasse_alpha_zero_trace():
    a = hasse_alpha(2, 2)
    assert a.trace_a == 0
    assert a.re == 0
    assert abs(a.im - math.sqrt(2)) < 1e-12


def test_hasse_alpha_from_brute_force():
    curve = parse_poly_system("y^2 - x^3 - x - 1")
    n1 = affine_count_sequence(curve, 5, 1).counts[0]
    a = hasse_alpha(5, n1)
    assert abs(abs(a.alpha) ** 2 - 5) < 1e-9


def test_hasse_alpha_rejects_impossible_count():
    with pytest.raises(ValueError, match="not an elliptic-curve count"):
        hasse_alpha(2, 7)
    with pytest.raises(ValueError, match="not prime"):
        hasse_alpha(6, 4)


def test_trace_power_sum_against_float_powers():
    for (a, p) in [(-2, 2), (0, 2), (1, 3), (-3, 5), (4, 7), (2, 11)]:
        alpha = complex(a / 2, math.sqrt(4 * p - a * a) / 2)
        for n in range(31):
            exact = trace_power_sum(a, p, n)
            approx = 2 * (alpha ** n).real
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_predictions_match_reference_table():
    a = hasse_alpha(2, 4)
    for n, want in enumerate(EXPECTED_CURVE_COUNTS, start=1):
        assert predict_affine_count(a, n) == want


def test_prediction_spot_values():
    a = hasse_alpha(2, 4)
    assert predict_affine_count(a, 1) == 4   # 2 - (-2)
    assert predict_affine_count(a, 2) == 4
    assert predict_affine_count(a, 4) == 24  # 16 - (-8)


def test_correction_terms():
    a = hasse_alpha(2, 4)
    assert [correction_term(a, n) for n in range(1, 11)] == list(EXPECTED_CORRECTIONS)
    assert correction_term(a, 3) == -4
    assert correction_term(a, 6) == 0
    assert correction_term(a, 8) == -32


def test_alpha_powers_exact():
    # (-1+i)^n against exact integer arithmetic; the n = 4 landmark is -4
    # and the pair sums match the correction terms with flipped sign
    a = hasse_alpha(2, 4)
    assert gauss_pow(-1, 1, 4) == (-4, 0)
    for n in range(1, 11):
        x, y = gauss_pow(-1, 1, n)
        z = a.alpha ** n
        assert abs(z - complex(x, y)) < 1e-9 * max(1.0, abs(z))
        assert trace_power_sum(a.trace_a, 2, n) == 2 * x
        assert correction_term(a, n) == -2 * x


def test_weil_numbers_genus_one():
    wn = weil_numbers_from_counts(2, 1, CountSequence(2, (5,), projective_flag=True))
    assert wn.coeffs == (1, 2, 2)
    assert sorted((round(r.real), round(r.imag)) for r in wn.roots) == [(-1, -1), (-1, 1)]
    for n, want in enumerate(EXPECTED_CURVE_COUNTS, start=1):
        assert wn.predict_projective_count(n) == want + 1


def test_weil_numbers_zero_trace():
    for p in (2, 3, 5, 13):
        wn = weil_numbers_from_counts(p, 1, CountSequence(p, (p + 1,), projective_flag=True))
        assert wn.coeffs == (1, 0, p)
        vals = sorted(round(r.imag, 6) for r in wn.roots)
        assert vals == [round(-math.sqrt(p), 6), round(math.sqrt(p), 6)]


GENUS2_ORACLE = {}


def genus2_counts():
    # y^2 + y = x^5 over F_2,F_4,F_8,F_16 via the independent GF(2^k)
    # counter; irreducible moduli x, x^2+x+1, x^3+x+1, x^4+x+1
    if not GENUS2_ORACLE:
        for k, bits in [(1, 0b10), (2, 0b111), (3, 0b1011), (4, 0b10011)]:
            GENUS2_ORACLE[k] = gf2k_count(bits, k, 5)
    return GENUS2_ORACLE


def test_genus2_oracle_matches_library_brute_force():
    curve = parse_poly_system("y^2 + y - x^5")
    seq = affine_count_sequence(curve, 2, 4)
    assert seq.counts == tuple(genus2_counts()[k] for k in (1, 2, 3, 4))
    assert seq.counts == (2, 4, 8, 32)


def test_weil_numbers_genus_two():
    affine = genus2_counts()
    projective = CountSequence(2, (affine[1] + 1, affine[2] + 1), projective_flag=True)
    wn = weil_numbers_from_counts(2, 2, projective)
    assert wn.coeffs == (1, 0, 0, 0, 4)
    assert len(wn.roots) == 4
    for r in wn.roots:
        assert abs(abs(r) - math.sqrt(2)) < 1e-6
    assert wn.predict_projective_count(3) == affine[3] + 1
    assert wn.predict_projective_count(4) == affine[4] + 1


def test_weil_round_trip_synthetic_traces():
    # every admissible trace over small primes round-trips through the
    # eigenvalues back to the original count
    for p in (2, 3, 5, 7, 11, 13):
        bound = int(2 * math.sqrt(p))
        for a in range(-bound, bound + 1):
            n1 = p + 1 - a
            wn = weil_numbers_from_counts(p, 1, CountSequence(p, (n1,), projective_flag=True))
            assert wn.predict_projective_count(1) == n1
            ok, dev = verify_weil_rh(wn.roots, p, 1)
            assert ok, (p, a, dev)


def test_weil_numbers_input_validation():
    with pytest.raises(ValueError, match="projective"):
        weil_numbers_from_counts(2, 1, CountSequence(2, (4,)))
    with pytest.raises(ValueError, match="at least g"):
        weil_numbers_from_counts(2, 2, CountSequence(2, (5,), projective_flag=True))
    with pytest.raises(ValueError, match="different prime"):
        weil_numbers_from_counts(3, 1, CountSequence(2, (5,), projective_flag=True))
    with pytest.raises(ValueError, match="Weil bound violated"):
        # N_1 = 12 over p=2 gives trace -9, far outside 2*sqrt(2)
        weil_numbers_from_counts(2, 1, CountSequence(2, (12,), projective_flag=True))


def test_verify_weil_rh_examples():
    ok, dev = verify_weil_rh([complex(-1, 1), complex(-1, -1)], 2, 1)
    assert ok and dev < 1e-12
    ok, _ = verify_weil_rh([1], 97, 0)
    assert ok
    ok, _ = verify_weil_rh([3], 3, 2)
    assert ok
    ok, dev = verify_weil_rh([complex(1.5, 0)], 2, 1)
    assert not ok and dev > 0.05


def test_frobenius_alpha_guards():
    with pytest.raises(ValueError, match="modulus"):
        FrobeniusAlpha(1.0, 1.0, 3, 2)
    with pytest.raises(ValueError, match="Hasse"):
        FrobeniusAlpha(math.sqrt(5), 0.0, 5, 6)


def test_hasse_sweep_small_primes():
    # subset of the full acceptance sweep: p in {3, 5}, n up to 3
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                curve = parse_poly_system(f"y^2 - x^3 - {a}*x - {b}")
                seq = affine_count_sequence(curve, p, 3)
                alpha = hasse_alpha(p, seq.counts[0])
                assert abs(p - seq.counts[0]) <= 2 * math.sqrt(p)
                for n in (1, 2, 3):
                    assert predict_affine_count(alpha, n) == seq.counts[n - 1]


def test_weil_numbers_refuse_n_below_1():
    # 1 + t + 2 t^2: the pair (-1 +- i sqrt 7) / 2 of modulus sqrt 2
    alpha = complex(-0.5, math.sqrt(7) / 2)
    wn = WeilNumbers(2, 1, (1, 1, 2), (alpha, alpha.conjugate()))
    assert [wn.power_sum(n) for n in (1, 2, 3)] == [-1, -3, 5]
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wn.power_sum(n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            wn.predict_projective_count(n)
