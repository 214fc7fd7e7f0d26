import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motives
from motives import weil
from motives.finite_field import is_prime, prime_root
from motives.motive import make_motive
from motives.variety import CountSequence, affine_count_sequence, parse_poly_system
from motives.weil import (
    WeilNumbers,
    _is_psd,
    correction_term,
    hasse_alpha,
    is_weil_polynomial,
    predict_affine_count,
    weight_pieces,
    weight_roots,
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
    assert -a.coeffs[1] == -2
    assert a.roots[-1] == complex(-1, 1)


def test_hasse_alpha_zero_trace():
    a = hasse_alpha(2, 2)
    assert -a.coeffs[1] == 0
    assert a.roots[-1].real == 0
    assert abs(a.roots[-1].imag - math.sqrt(2)) < 1e-12


def test_hasse_alpha_from_brute_force():
    curve = parse_poly_system("y^2 - x^3 - x - 1")
    n1 = affine_count_sequence(curve, 5, 1).counts[0]
    a = hasse_alpha(5, n1)
    assert abs(abs(a.roots[-1]) ** 2 - 5) < 1e-9


def test_hasse_alpha_upper_root_is_the_closed_form_bit_for_bit():
    # the pair's roots[-1] is the eigenvalue (a + i sqrt(4p - a^2)) / 2 that
    # predict prints, to the last bit, for every trace at every prime below 2000
    for p in filter(is_prime, range(2, 2000)):
        bound = math.isqrt(4 * p)
        for a in range(-bound, bound + 1):
            z = hasse_alpha(p, p - a).roots[-1]
            want = (a / 2.0, math.sqrt(4 * p - a * a) / 2.0)
            assert (z.real.hex(), z.imag.hex()) == tuple(x.hex() for x in want), (p, a)


def test_weil_numbers_derive_genus_and_roots():
    # a genus-g curve's 2g roots, from coeffs of degree 2g
    wn = WeilNumbers(2, (1, 2, 2))
    assert wn.roots == (complex(-1, -1), complex(-1, 1))
    assert hasse_alpha(2, 4) == wn
    assert len(WeilNumbers(3, (1, 0, 0, 0, 9)).roots) == 4


def test_weil_numbers_refuse_odd_degree_and_stored_roots():
    # 1 - 2 t is pure at q = 4, but a curve's Weil polynomial has degree 2g
    assert is_weil_polynomial((1, -2), 4)
    for coeffs in ((), (1, -2), (1, 0, 0, 8)):
        with pytest.raises(ValueError, match="^odd degree"):
            WeilNumbers(4, coeffs)
    with pytest.raises(TypeError):
        WeilNumbers(2, 5, (1, 2, 2), ())  # genus and roots come from coeffs


def test_weil_numbers_refuse_a_base_that_is_no_prime_power():
    # each is pure at its q, but no field has q elements; at q = 0, genus 1 had no alpha
    for p, coeffs in ((0, (1, 0, 0)), (1, (1, -2, 1)), (6, (1, 0, 6))):
        with pytest.raises(ValueError, match="^base must be a prime power >= 2$"):
            WeilNumbers(p, coeffs)


def test_hasse_alpha_rejects_impossible_count():
    with pytest.raises(ValueError, match="not an elliptic-curve count"):
        hasse_alpha(2, 7)
    with pytest.raises(ValueError, match="not prime"):
        hasse_alpha(6, 4)


def test_trace_power_sum_against_float_powers():
    for (a, p) in [(-2, 2), (0, 2), (1, 3), (-3, 5), (4, 7), (2, 11)]:
        alpha = complex(a / 2, math.sqrt(4 * p - a * a) / 2)
        for n in range(1, 31):
            exact = WeilNumbers(p, (1, -a, p)).power_sum(n)
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
        z = a.roots[-1] ** n
        assert abs(z - complex(x, y)) < 1e-9 * max(1.0, abs(z))
        assert a.power_sum(n) == 2 * x
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
            assert wn.coeffs == (1, -a, p) and is_weil_polynomial(wn.coeffs, p), (p, a)


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


def test_weil_numbers_refuse_a_trace_past_the_hasse_bound():
    with pytest.raises(ValueError, match="^Weil bound violated$"):
        WeilNumbers(5, (1, -6, 5))


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
    wn = WeilNumbers(2, (1, 1, 2))
    assert [wn.power_sum(n) for n in (1, 2, 3)] == [-1, -3, 5]
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wn.power_sum(n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            wn.predict_projective_count(n)


def product(factors):
    """The product of polynomials given as ascending coefficient tuples."""
    out = (1,)
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                acc[i + j] += x * y
        out = tuple(acc)
    return out


PRIME_POWERS_TO_49 = [q for q in range(2, 50) if prime_root(q)]


@st.composite
def hasse_products(draw):
    """q, factors 1 - a t + q t^2 with a^2 <= 4q (the boundary included),
    the index of a factor to replace and a random source for the breakage."""
    q = draw(st.sampled_from(PRIME_POWERS_TO_49))
    bound = math.isqrt(4 * q)
    factors = draw(st.lists(st.integers(-bound, bound).map(lambda a: (1, -a, q)),
                            min_size=1, max_size=6))
    return q, factors, draw(st.integers(0, len(factors) - 1)), draw(st.randoms())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hasse_products())
def test_products_of_hasse_factors_are_weil_and_broken_ones_are_not(case):
    q, factors, i, rng = case
    poly = product(factors)
    assert is_weil_polynomial(poly, q)
    # a factor past the Hasse bound has two real roots off the circle
    a = math.isqrt(4 * q) + 1 + rng.randrange(4)
    outside = factors[:i] + [(1, rng.choice([a, -a]), q)] + factors[i + 1:]
    assert not is_weil_polynomial(product(outside), q)
    # one coefficient off by one breaks the functional equation
    d = len(poly) - 1
    j = rng.choice([j for j in range(1, d + 1) if 2 * j != d])
    broken = list(poly)
    broken[j] += rng.choice([1, -1])
    assert not is_weil_polynomial(broken, q)


def seeded_products_at_29():
    """20 products of 10 and 20 of 15 factors 1 - a t + 29 t^2, |a| <= 10;
    np.roots misplaced the repeated roots of 19 of them past a 1e-6
    tolerance on the modulus."""
    rng = random.Random(10)
    return [product([(1, -rng.randint(-10, 10), 29) for _ in range(g)])
            for g in (10,) * 20 + (15,) * 20]


def test_seeded_genus_10_and_15_products_are_weil_numbers():
    for poly in seeded_products_at_29():
        wn = WeilNumbers(29, poly)
        assert wn.predict_projective_count(1) == 29 + 1 + poly[1]


@pytest.mark.parametrize("coeffs, q", [
    ((1, 2, 2, 0, 0), 2),       # declared degree above the true one
    ((1, 1, 0), 7),             # the golden curve's numerator at its bad prime
    ((1, 0, 11, 0, 25), 5),     # the functional equation holds, beta = +-i
    ((1, -11, 29), 29),         # a = 11 > 2 sqrt 29: real roots off the circle
    ((1, 0, 6, 0, -30, 0, -125), 5),  # times 1 - 5 t^2: beta = +-2 sqrt 5 as well
])
def test_pinned_refusals(coeffs, q):
    assert not is_weil_polynomial(coeffs, q)
    with pytest.raises(ValueError, match="^Weil bound violated$"):
        WeilNumbers(q, coeffs)
    with pytest.raises(ValueError, match=r"^purity violated: eigenvalue modulus is not q\^\(k/2\)$"):
        make_motive(q, {1: coeffs})


@pytest.mark.parametrize("coeffs, q_k", [
    ((1, -4, 4), 4), ((1, 4, 4), 4),               # supersingular a = +-4 at q = 4
    ((1, -3), 9), ((1, -9), 81), ((1, -27), 729),  # (1, -q^j) at q_k = q^(2j), q = 3
    ((1, -1), 1), ((1,), 5), ((1, 2, 2), 2),
])
def test_pinned_passes(coeffs, q_k):
    assert is_weil_polynomial(coeffs, q_k)


@pytest.mark.parametrize("atom, e, q", [
    ((1, 0, -41), 20, 41), ((1, 0, -53), 26, 53),  # y^2 = x^p - x: L(t) = (1 - p t^2)^g
    # np.roots scatters the repeated roots of these three past 10 % of sqrt q
    ((1, 2 ** 11, 2 ** 20), 20, 2 ** 20), ((1, 3, 3), 12, 3), ((1, 2), 16, 4),
])
def test_weight_pieces_split_repeated_weight_1_roots_exactly(atom, e, q):
    poly = product([atom] * e)
    assert weight_pieces(poly, q) == {1: poly}


@pytest.mark.parametrize("coeffs, q, pieces", [
    ((1, 1, 0), 7, {0: (1, 1)}),   # the golden curve's numerator at its bad prime
    ((1, -7, 14, -8), 2, {0: (1, -1), 2: (1, -2), 4: (1, -4)}),  # P^2's denominator
    ((1, -3, 2), 2, {0: (1, -1), 2: (1, -2)}),
    ((1,), 5, {}),
])
def test_weight_pieces_of_mixed_weights(coeffs, q, pieces):
    assert weight_pieces(coeffs, q) == pieces


@pytest.mark.parametrize("coeffs, q", [
    ((1, 1, 8), 7),           # |alpha| = sqrt 8: no weight at 7
    ((1, 2, 2), 3),           # |alpha| = sqrt 2: no weight at 3
    ((1, -4, 2), 2),          # real roots 2 +- sqrt 2
    ((1, 1, 8, 0, 0), 7),
    (product([(1, -1)] * 5 + [(1, 1, 8)]), 7),
])
def test_weight_pieces_refuse_an_alpha_of_no_weight(coeffs, q):
    with pytest.raises(ValueError, match="^polynomial is not a product of Weil polynomials$"):
        weight_pieces(coeffs, q)


@pytest.mark.parametrize("coeffs, q", [((1, -1), 1), ((1,), 1), ((1, -1), 0), ((1, 2), -4)])
def test_weight_pieces_refuse_a_base_below_2(coeffs, q):
    with pytest.raises(ValueError, match=f"^q must be >= 2, got {q}$"):
        weight_pieces(coeffs, q)


@pytest.mark.parametrize("degree, digits, q", [(40, 1000, 2), (2, 4000, 3)])
def test_weight_pieces_refuse_huge_coefficients_at_once(degree, digits, q):
    # Fujiwara's top weight grows with the digits, so a walk down from it
    # took seconds; b_d^2 is no power of q, which refuses before any walk
    rng = random.Random(degree)
    coeffs = (1,) + tuple(rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                          for _ in range(degree))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^polynomial is not a product of Weil polynomials$"):
        weight_pieces(coeffs, q)
    assert time.perf_counter() - start < 0.1


@st.composite
def pure_products(draw):
    """q and weight k -> a product of pure atoms of weight k (those of the
    random motives in test_acceptance): 1 -+ q^(k/2) t at even k and
    1 - a t + q^k t^2 with a^2 <= 4 q^k.  A lone atom repeats up to 30
    times; two or three repeat at most 10 times each, since a product of
    several weights at high multiplicity is slow to split (3.1 s for one
    of degree 126 over F_5, with every multiplicity up to 30)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    atoms = draw(st.integers(1, 3))
    pieces = {}
    for _ in range(atoms):
        k = draw(st.integers(0, 3))
        if k % 2 == 0 and draw(st.booleans()):
            atom = (1, draw(st.sampled_from([1, -1])) * q ** (k // 2))
        else:
            bound = math.isqrt(4 * q ** k)
            atom = (1, -draw(st.integers(-bound, bound)), q ** k)
        e = draw(st.integers(1, 30 if atoms == 1 else 10))
        pieces[k] = product([pieces.get(k, (1,))] + [atom] * e)
    return q, dict(sorted(pieces.items()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pure_products())
def test_weight_pieces_split_products_of_pure_atoms_back(case):
    q, pieces = case
    poly = product(pieces.values())
    split = weight_pieces(poly, q)
    assert split == pieces
    assert product(split.values()) == poly
    # the displayed roots, found on square-free parts, keep their weight
    roots = weight_roots(split.items())
    assert {k: len(r) for k, r in roots.items()} == {k: len(f) - 1 for k, f in pieces.items()}
    for k, r in roots.items():
        assert all(math.isclose(abs(z), q ** (k / 2), rel_tol=1e-9) for z in r)


def det(a):
    """Leibniz's formula, for the oracle below."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


@st.composite
def symmetric_matrices(draw, max_n=4, max_terms=3, max_entry=2):
    """sum of +-v v^T over 1 to max_terms small integer vectors: often
    singular, so the elimination meets zero pivots."""
    n = draw(st.integers(1, max_n))
    a = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(1, max_terms))):
        v = draw(st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n))
        sign = draw(st.sampled_from([1, 1, -1]))
        for i in range(n):
            for j in range(n):
                a[i][j] += sign * v[i] * v[j]
    return a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_psd_elimination_matches_principal_minors(a):
    # psd iff every principal minor, not only the leading ones, is >= 0
    n = len(a)
    minors = [det([[a[i][j] for j in rows] for i in rows])
              for size in range(1, n + 1) for rows in itertools.combinations(range(n), size)]
    assert _is_psd(a) == all(m >= 0 for m in minors)
    assert not _is_psd([[0, 1], [1, 0]]) and not _is_psd([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def psd_by_fractions(a):
    """Reference: the same symmetric elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in a]
    for k, row in enumerate(a):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1:])):
            return False
        for below in a[k + 1:] if row[k] else ():
            f = below[k] / row[k]
            below[k + 1:] = [u - f * v for u, v in zip(below[k + 1:], row[k + 1:])]
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_matrices(max_n=7, max_terms=8, max_entry=9))
def test_fraction_free_elimination_matches_fractions(a):
    assert _is_psd(a) == psd_by_fractions(a)
    # pivots 2, 0, 2: the third step divides by 2, the last nonzero pivot
    two = [[2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 3, 1], [2, 2, 1, 3]]  # 2 v v^T + w w^T
    assert _is_psd(two) and psd_by_fractions(two)
    two[3][3] = 1
    assert not _is_psd(two) and not psd_by_fractions(two)


def test_weil_test_loads_no_numpy():
    code = ("import sys; from motives.weil import is_weil_polynomial, weight_roots; "
            "assert is_weil_polynomial((1, 2, 2), 2) and not is_weil_polynomial((1, 2, 2, 0, 0), 2); "
            "assert len(weight_roots([(1, (1, 0, 0, 0, 4))])[1]) == 4; "
            "assert 'numpy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(motives.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def random_weil_product(rng):
    """A square-free product of pure atoms of one or more weights, of
    degree 3-12 over q in 2..13: 1 - a t + q^k t^2 with a^2 <= 4 q^k, and
    1 -+ q^(k/2) t where q^k is a square."""
    while True:
        q, d = rng.choice([2, 3, 4, 5, 7, 9, 11, 13]), rng.randint(3, 12)
        poly = (1,)
        while len(poly) - 1 < d:
            k = rng.randint(0, 3)
            r = math.isqrt(q ** k)
            if r * r == q ** k and (len(poly) == d or rng.random() < 0.3):
                atom = (1, rng.choice([1, -1]) * r)
            else:
                bound = math.isqrt(4 * q ** k)
                atom = (1, -rng.randint(-bound, bound), q ** k)
            poly = product([poly, atom])
        if len(poly) - 1 == d and squarefree(poly):
            return poly


def test_displayed_roots_agree_with_mpmath_on_weil_products():
    # the Aberth-Ehrlich roots of square-free pieces of degree 3 and up,
    # each within 1e-12 of an mpmath root, matched one to one
    rng = random.Random(12)
    for _ in range(120):
        poly = random_weil_product(rng)
        got = weil._reciprocal_roots(poly)
        assert got == weil._reciprocal_roots(poly)  # deterministic
        with mpmath.workdps(40):
            want = [complex(r) for r in mpmath.polyroots(list(poly), maxsteps=200,
                                                        extraprec=200)]
        assert len(got) == len(want) == len(poly) - 1
        for w in want:
            z = min(got, key=lambda z: abs(z - w))
            assert abs(z - w) <= 1e-12 * abs(w), (poly, z, w)
            got.remove(z)


@pytest.mark.parametrize("poly, modulus", [
    ((1, 0, 0, 0, 4), 2 ** 0.5),  # y^2 + y = x^5 over F_2: alpha = +-1 +- i
    ((1, 0, 0, 0, 9), 3 ** 0.5),  # and over F_3: alpha^4 = -9
    (product([(1, 0, 2), (1, -2, 2), (1, 2, 2)]), 2 ** 0.5),
])
def test_displayed_roots_of_exact_pairs_are_exact(poly, modulus):
    # the closing Newton step runs in exact integers: each part is the
    # double nearest the true root, so |alpha| is sqrt q to the last bit
    roots = weil._reciprocal_roots(poly)
    assert [abs(z) for z in roots] == [modulus] * (len(poly) - 1)


def random_candidate(rng):
    """(coeffs, q_k) of degree 1-4: half of them random, half satisfying the
    functional equation b_{d-j} = b_d b_j / q_k^j with b_d = +-q_k^(d/2)."""
    d, r = rng.randint(1, 4), rng.randint(1, 6)
    q_k = r * r if d % 2 else rng.randint(1, 30)
    if rng.random() < 0.5:
        return (1,) + tuple(rng.randint(-12, 12) for _ in range(d)), q_k
    b = [1] + [rng.randint(-2 * q_k, 2 * q_k) for _ in range(d // 2)] + [0] * ((d + 1) // 2)
    sign = rng.choice([1, -1])
    for j in range((d + 1) // 2):
        e = d - 2 * j  # q_k^(e/2) is an integer: e is even, or q_k = r^2
        b[d - j] = sign * b[j] * (r ** e if d % 2 else q_k ** (e // 2))
    return tuple(b), q_k


def squarefree(coeffs):
    """Whether x^d + b_1 x^(d-1) + ... + b_d has no repeated root: Euclid's
    gcd with its derivative, over the rationals, is a constant."""
    a = [Fraction(c) for c in coeffs]
    b = [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]
    while any(b):
        while b[0] == 0:
            b.pop(0)
        while len(a) >= len(b):
            f = a[0] / b[0]
            a = [u - f * v for u, v in zip(a, b + [0] * (len(a) - len(b)))][1:]
        a, b = b, a
    return len(a) == 1


def test_agrees_with_mpmath_roots_on_squarefree_polynomials():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 150:
        coeffs, q_k = random_candidate(rng)
        if coeffs[-1] == 0 or not squarefree(coeffs):
            continue
        with mpmath.workdps(50):
            roots = mpmath.polyroots(list(coeffs), maxsteps=200, extraprec=200)
            on_circle = all(abs(abs(r) ** 2 - q_k) < mpmath.mpf(10) ** -30 for r in roots)
        assert is_weil_polynomial(coeffs, q_k) == on_circle, (coeffs, q_k)
        seen[on_circle] += 1
