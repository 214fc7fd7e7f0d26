import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motives.variety import CountSequence, affine_count_sequence, parse_poly_system
from motives.weil import _reciprocal_roots, _root_key, verify_weil_rh
from motives.zeta import (
    PowerSeries,
    RationalZeta,
    assign_weight,
    curve_denominator,
    expand_rational,
    rational_reconstruct,
    series_log,
    trace_formula_count,
    zeta_from_counts,
    zeta_series,
)


def test_zeta_series_projective_line():
    counts = [2 ** n + 1 for n in range(1, 7)]
    s = zeta_series(counts)
    # oracle: expand 1/((1-t)(1-2t)) directly; coefficient m is 2^(m+1)-1
    assert s.coeffs == tuple(Fraction(2 ** (m + 1) - 1) for m in range(7))
    assert s.coeffs == expand_rational([1], [1, -3, 2], 6).coeffs


def test_zeta_series_constant_term_is_one():
    assert zeta_series([17]).coeffs[0] == 1
    assert zeta_series(CountSequence(3, (1, 2, 3))).coeffs[0] == 1


def test_zeta_series_elliptic_curve():
    counts = (5, 5, 5, 25, 25, 65)
    s = zeta_series(counts)
    assert s.coeffs == expand_rational([1, 2, 2], [1, -3, 2], 6).coeffs


def test_series_log_inverts_exp():
    counts = [5, 5, 5, 25, 25]
    s = zeta_series(counts)
    ell = series_log(s)
    assert ell.coeffs[0] == 0
    for n, c in enumerate(counts, start=1):
        assert ell.coeffs[n] == Fraction(c, n)


def test_projective_space_series_products():
    # Z for P^n over F_q is prod_k 1/(1 - q^k t); checked coefficientwise
    for q in (2, 3, 4, 5):
        for dim in (1, 2, 3):
            order = 8
            counts = [sum(q ** (k * n) for k in range(dim + 1))
                      for n in range(1, order + 1)]
            den = [1]
            for k in range(dim + 1):
                den = [a - q ** k * b for a, b in
                       zip(den + [0], [0] + den)]
            assert zeta_series(counts).coeffs == \
                expand_rational([1], den, order).coeffs


def test_rational_reconstruct_elliptic():
    counts = (5, 5, 5, 25, 25, 65, 145)
    rz = rational_reconstruct(zeta_series(counts), 2, curve_denominator(2), 2)
    assert rz.numerator == (1, 2, 2)
    assert rz.denominator == (1, -3, 2)
    table = rz.weight_table()
    assert sorted(table) == [0, 1, 2]
    assert [round(r.real) for r in table[0]] == [1]
    assert [round(r.real) for r in table[2]] == [2]
    for r in table[1]:
        assert abs(abs(r) - math.sqrt(2)) < 1e-9
    ok, _ = verify_weil_rh(table[1], 2, 1)
    assert ok


def test_rational_reconstruct_projective_line():
    counts = tuple(2 ** n + 1 for n in range(1, 6))
    rz = rational_reconstruct(zeta_series(counts), 0, curve_denominator(2), 2)
    assert rz.numerator == (1,)
    assert rz.weight_table() == {0: (1 + 0j,), 2: (2 + 0j,)}


def test_rational_reconstruct_genus_two_symmetry():
    curve = parse_poly_system("y^2 + y - x^5")
    seq = affine_count_sequence(curve, 2, 8)
    projective = tuple(c + 1 for c in seq.counts)
    rz = rational_reconstruct(zeta_series(projective), 4, curve_denominator(2), 2)
    b = rz.numerator
    for j in range(2):
        assert b[4 - j] == 2 ** (2 - j) * b[j]
    ok, dev = verify_weil_rh(rz.weight_table()[1], 2, 1)
    assert ok, dev


def test_reconstruction_round_trip():
    counts = (5, 5, 5, 25, 25, 65, 145, 225)
    s = zeta_series(counts)
    rz = rational_reconstruct(s, 2, curve_denominator(2), 2)
    again = expand_rational(rz.numerator, rz.denominator, s.order)
    assert again.coeffs == s.coeffs


def test_reconstruct_needs_enough_coefficients():
    s = zeta_series((5, 5, 5))
    with pytest.raises(ValueError, match="insufficient"):
        rational_reconstruct(s, 2, curve_denominator(2), 2)


def test_reconstruct_rejects_wrong_shape():
    # counts of a genus-2 curve cannot fit a degree-0 numerator
    curve = parse_poly_system("y^2 + y - x^5")
    seq = affine_count_sequence(curve, 2, 6)
    projective = tuple(c + 1 for c in seq.counts)
    with pytest.raises(ValueError, match="insufficient or inconsistent"):
        rational_reconstruct(zeta_series(projective), 0, curve_denominator(2), 2)


def test_reconstruct_rejects_non_integer_numerator():
    # perturbed counts make the solved coefficients non-integral
    s = zeta_series((5, 6, 5, 25, 25, 65, 145))
    with pytest.raises(ValueError, match="not rational|insufficient"):
        rational_reconstruct(s, 2, curve_denominator(2), 2)


def test_rational_zeta_derives_its_roots_from_its_polynomials():
    rz = RationalZeta((1, 2, 2), curve_denominator(2), 2)
    assert rz.roots_by_weight == ((0, (1 + 0j,)), (1, (complex(-1, -1), complex(-1, 1))),
                                  (2, (2 + 0j,)))
    assert rz == zeta_from_counts((5, 5, 5, 25, 25, 65), 2, curve_denominator(2), 2)
    with pytest.raises(TypeError):
        RationalZeta((1, 2, 2), curve_denominator(2), 2, rz.roots_by_weight)
    with pytest.raises(ValueError, match="ambiguous weight"):
        RationalZeta((1, 2, 2), curve_denominator(2), 3)  # |alpha| = sqrt 2 is no weight at q = 3


def test_assign_weight():
    assert assign_weight(1 + 0j, 2) == 0
    assert assign_weight(complex(-1, 1), 2) == 1
    assert assign_weight(2 + 0j, 2) == 2
    assert assign_weight(9 + 0j, 3) == 4
    with pytest.raises(ValueError, match="ambiguous"):
        assign_weight(1.2 + 0j, 4)


def test_trace_formula_elliptic():
    table = {0: (1 + 0j,), 1: (complex(-1, 1), complex(-1, -1)), 2: (2 + 0j,)}
    assert trace_formula_count(table, 1) == 5
    assert trace_formula_count(table, 4) == 25
    assert trace_formula_count(table, 8) == 225


def test_trace_formula_projective_line():
    for q in (2, 3, 5):
        table = {0: (1 + 0j,), 2: (q + 0j,)}
        for n in (1, 2, 3, 7):
            assert trace_formula_count(table, n) == q ** n + 1


def test_trace_formula_empty_table():
    assert trace_formula_count({}, 1) == 0
    assert trace_formula_count({}, 5) == 0


def test_trace_formula_rejects_non_integral():
    with pytest.raises(ValueError, match="non-integral"):
        trace_formula_count({1: (complex(0.3, 1.1),)}, 1)
    with pytest.raises(ValueError, match="n must be"):
        trace_formula_count({}, 0)


def test_trace_formula_matches_reconstructed_counts():
    counts = (5, 5, 5, 25, 25, 65, 145)
    rz = rational_reconstruct(zeta_series(counts), 2, curve_denominator(2), 2)
    for n, want in enumerate(counts, start=1):
        assert trace_formula_count(rz.weight_table(), n) == want


def test_power_series_multiplication():
    a = PowerSeries((Fraction(1), Fraction(2), Fraction(1)))
    b = PowerSeries((Fraction(1), Fraction(-1), Fraction(0)))
    assert (a * b).coeffs == (Fraction(1), Fraction(1), Fraction(-1))


# ----------------------------------------------------------------------
# reconstruction against a Fraction series product

def reference_exp(counts) -> list[Fraction]:
    """exp(sum N_n t^n / n) to order len(counts), by m z_m = sum N_j z_{m-j}."""
    z = [Fraction(1)]
    for m in range(1, len(counts) + 1):
        z.append(sum(Fraction(counts[j - 1]) * z[m - j] for j in range(1, m + 1)) / m)
    return z


def reference_reconstruct(series, num_degree, den, base_q):
    """P = series * den mod t^(m + 1): the first num_degree + 1 coefficients
    must be integers and every later one zero; roots grouped by weight."""
    den = tuple(int(c) for c in den)
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    m = len(series) - 1
    if m < num_degree + len(den) + 1:
        raise ValueError("insufficient or inconsistent counts")
    prod = [sum(series[i] * den[k - i] for i in range(max(0, k - len(den) + 1), k + 1))
            for k in range(m + 1)]
    head = max(0, num_degree + 1)
    if any(c.denominator != 1 for c in prod[:head]):
        raise ValueError("not rational of declared shape")
    if any(prod[head:]):
        raise ValueError("insufficient or inconsistent counts")
    num = tuple(int(c) for c in prod[:head])
    grouped = {}
    for root in _reciprocal_roots(num) + _reciprocal_roots(den):
        grouped.setdefault(assign_weight(root, base_q), []).append(root)
    return num, den, tuple(sorted((k, tuple(sorted(v, key=_root_key)))
                                  for k, v in grouped.items()))


def outcome(fn, *args):
    try:
        result = fn(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.numerator, result.denominator, result.roots_by_weight


# (denominator, q): curves over F_2 and F_3, no poles, one pole, and P^2's
DENOMINATORS = [(curve_denominator(2), 2), (curve_denominator(3), 3), ((1,), 2),
                ((1, -1), 2), ((1, -7, 14, -8), 2)]


def _power_sums(coeffs, m):
    """s_1..s_m of the reciprocal roots: log 1/prod (1 - alpha t) = sum s_n t^n / n."""
    ell = series_log(expand_rational([1], coeffs, m))
    return [n * ell.coeffs[n] for n in range(1, m + 1)]


@st.composite
def count_cases(draw):
    """Counts of a zeta function with Weil-polynomial numerator over a
    denominator above, some perturbed, and a declared degree in -3..8."""
    den, q = draw(st.sampled_from(DENOMINATORS))
    bound = int(2 * q ** 0.5)
    num = [1]
    for a in draw(st.lists(st.integers(-bound, bound), max_size=3)):
        num = [x - a * y + q * z for x, y, z in zip(num + [0, 0], [0] + num + [0], [0, 0] + num)]
    m = max(1, len(num) + len(den) + draw(st.integers(-3, 3)))  # enough from + 1 on
    counts = [int(d - n) for d, n in zip(_power_sums(den, m), _power_sums(num, m))]
    if draw(st.booleans()):
        counts[draw(st.integers(0, m - 1))] += draw(st.sampled_from((-2, -1, 1, 2)))
    degree = draw(st.one_of(st.just(len(num) - 1), st.integers(-3, 8)))
    return counts, degree, den, q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(count_cases())
def test_reconstruction_agrees_with_the_series_product(case):
    counts, degree, den, q = case
    want = outcome(reference_reconstruct, reference_exp(counts), degree, den, q)
    assert outcome(zeta_from_counts, counts, degree, den, q) == want
    assert outcome(rational_reconstruct, zeta_series(counts), degree, den, q) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(count_cases(), st.integers(1, 14), st.fractions(-3, 3, max_denominator=7))
def test_reconstruction_of_any_rational_series(case, at, shift):
    counts, degree, den, q = case
    series = reference_exp(counts)
    series[min(at, len(series) - 1)] += shift
    assert outcome(rational_reconstruct, PowerSeries(tuple(series)), degree, den, q) == \
        outcome(reference_reconstruct, series, degree, den, q)


def test_zeta_from_counts_elliptic_and_refusals():
    counts = (5, 5, 5, 25, 25, 65, 145)
    assert zeta_from_counts(counts, 2, curve_denominator(2), 2).numerator == (1, 2, 2)
    with pytest.raises(ValueError, match="insufficient or inconsistent counts"):
        zeta_from_counts(counts, -1, curve_denominator(2), 2)
    with pytest.raises(ValueError, match="denominator must have constant term 1"):
        zeta_from_counts(counts, 2, (2, -3, 2), 2)
