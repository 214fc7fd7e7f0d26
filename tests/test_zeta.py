import math
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motives import weil
from motives.motive import make_motive, point_count
from motives.variety import CountSequence, affine_count_sequence, parse_poly_system
from motives.weil import is_weil_polynomial
from motives.zeta import (
    PowerSeries,
    RationalZeta,
    curve_denominator,
    expand_rational,
    rational_reconstruct,
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
    assert is_weil_polynomial(rz.numerator, 2)


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
    assert is_weil_polynomial(b, 2), b


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


def test_rational_zeta_derives_its_pieces_from_its_polynomials():
    rz = RationalZeta((1, 2, 2), curve_denominator(2), 2)
    assert rz.numerator_pieces == ((1, (1, 2, 2)),)
    assert rz.denominator_pieces == ((0, (1, -1)), (2, (1, -2)))
    assert rz.weight_table() == {0: (1 + 0j,), 1: (complex(-1, -1), complex(-1, 1)), 2: (2 + 0j,)}
    assert rz == zeta_from_counts((5, 5, 5, 25, 25, 65), 2, curve_denominator(2), 2)
    with pytest.raises(TypeError):
        RationalZeta((1, 2, 2), curve_denominator(2), 2, rz.numerator_pieces)
    with pytest.raises(TypeError):
        RationalZeta((1, 2, 2), curve_denominator(2), 2, numerator_pieces=rz.numerator_pieces)
    # |alpha| = sqrt 2 is no weight at q = 3
    with pytest.raises(ValueError, match="^numerator is not a product of Weil polynomials$"):
        RationalZeta((1, 2, 2), curve_denominator(2), 3)
    with pytest.raises(ValueError, match="^denominator is not a product of Weil polynomials$"):
        RationalZeta((1,), (1, 2, 2), 3)


def test_bad_reduction_keeps_a_weight_0_zero_in_the_numerator():
    # the golden curve at 7: (1 + t) / ((1 - t)(1 - 7t)), and -1 sorts before the pole 1
    rz = RationalZeta((1, 1, 0), curve_denominator(7), 7)
    assert (rz.numerator_pieces, rz.denominator_pieces) == (((0, (1, 1)),), ((0, (1, -1)), (2, (1, -7))))
    assert rz.weight_table() == {0: (-1 + 0j, 1 + 0j), 2: (7 + 0j,)}


@pytest.mark.parametrize("args, message", [
    (((2, 4, 4), (1, -3, 2), 2), "numerator must have constant term 1"),
    (((), (), 2), "numerator must have constant term 1"),
    (((1, 2, 2), (), 2), "denominator must have constant term 1"),
    (((1, 2, 2), (2, -3, 2), 2), "denominator must have constant term 1"),
    (((1, 2, 2), (1, -3, 2), 1), "base must be a prime power >= 2"),
    (((1, 2, 2), (1, -3, 2), 6), "base must be a prime power >= 2"),
])
def test_rational_zeta_refuses_what_no_zeta_function_has(args, message):
    with pytest.raises(ValueError, match=message):
        RationalZeta(*args)


def test_trace_formula_rejects_non_integral():
    with pytest.raises(ValueError, match="^weight 1 coefficients must be integers$"):
        make_motive(2, {1: (1, -0.6, 1.3)})  # the pair 0.3 +- 1.1i
    with pytest.raises(ValueError, match="n must be"):
        point_count(make_motive(2, {}), 0)


def test_trace_formula_matches_reconstructed_counts():
    counts = (5, 5, 5, 25, 25, 65, 145)
    rz = rational_reconstruct(zeta_series(counts), 2, curve_denominator(2), 2)
    # the denominator (1 - t)(1 - 2t) is the point in weight 0 and the line in weight 2
    m = make_motive(2, {0: (1, -1), 1: rz.numerator, 2: (1, -2)})
    for n, want in enumerate(counts, start=1):
        assert point_count(m, n) == want


# ----------------------------------------------------------------------
# reconstruction against a Fraction series product

def reference_exp(counts) -> list[Fraction]:
    """exp(sum N_n t^n / n) to order len(counts), by m z_m = sum N_j z_{m-j}."""
    z = [Fraction(1)]
    for m in range(1, len(counts) + 1):
        z.append(sum(Fraction(counts[j - 1]) * z[m - j] for j in range(1, m + 1)) / m)
    return z


def _divmod(a, b):
    """Quotient and remainder of polynomials, descending lists of Fractions."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        quotient.append(a[0] / b[0])
        a = [x - quotient[-1] * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    while a and a[0] == 0:
        a.pop(0)
    return quotient, a


def _monic_gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return [x / a[0] for x in a]


def roots_with_multiplicity(b):
    """The distinct roots of x^d + b_1 x^(d-1) + ... + b_d at 50 digits, by
    mpmath.polyroots on its square-free part, and how many of the chain
    f, gcd(f, f'), gcd of that and its derivative, ... vanish at each."""
    chain = [[Fraction(x) for x in b]]
    while len(chain[-1]) > 1:
        f = chain[-1]
        chain.append(_monic_gcd(f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]))
    square_free = _divmod(chain[0], chain[1])[0] if len(chain) > 1 else [1]
    for alpha in mpmath.polyroots(square_free, maxsteps=200, extraprec=200):
        yield alpha, sum(abs(mpmath.polyval(f, alpha)) < mpmath.mpf(10) ** -30 for f in chain[:-1])


def reference_pieces(poly, q, name):
    """The (weight, piece) pairs of prod (1 - alpha t) = poly from its roots
    at 50 digits: each alpha must have |alpha|^2 = q^k to 30 digits, and
    each weight's product of 1 - alpha t must come out in integers, or the
    polynomial is refused as RationalZeta refuses it."""
    b = list(poly)
    while b[-1] == 0:
        b.pop()
    refusal = ValueError(f"{name} is not a product of Weil polynomials")
    by_weight = {}
    with mpmath.workdps(50):
        for alpha, m in roots_with_multiplicity(b):
            k = int(mpmath.nint(2 * mpmath.log(abs(alpha)) / mpmath.log(q)))
            if abs(abs(alpha) ** 2 / mpmath.mpf(q) ** k - 1) > mpmath.mpf(10) ** -30:
                raise refusal
            by_weight.setdefault(k, []).extend([alpha] * m)
        pieces = []
        for k, roots in sorted(by_weight.items()):
            c = [mpmath.mpc(1)]
            for alpha in roots:
                c = [x - alpha * y for x, y in zip(c + [0], [0] + c)]
            piece = tuple(int(mpmath.nint(x.real)) for x in c)
            if any(abs(x - y) > mpmath.mpf(10) ** -20 for x, y in zip(c, piece)):
                raise refusal
            pieces.append((k, piece))
    return tuple(pieces)


def reference_reconstruct(series, num_degree, den, base_q):
    """P = series * den mod t^(m + 1): the first num_degree + 1 coefficients
    must be integers and every later one zero; then both split by weight."""
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
    return (num, den, reference_pieces(num, base_q, "numerator"),
            reference_pieces(den, base_q, "denominator"))


def outcome(fn, *args):
    try:
        result = fn(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.numerator, result.denominator, result.numerator_pieces, result.denominator_pieces


# (denominator, q): curves over F_2 and F_3, no poles, one pole, and P^2's
DENOMINATORS = [(curve_denominator(2), 2), (curve_denominator(3), 3), ((1,), 2),
                ((1, -1), 2), ((1, -7, 14, -8), 2)]


def _power_sums(coeffs, m):
    """s_1..s_m of the reciprocal roots of prod (1 - alpha t) = coeffs."""
    return list(islice(weil._power_sums(coeffs), 1, m + 1))


@st.composite
def count_cases(draw):
    """Counts of a zeta function over a denominator above, with numerator
    factors 1 - a t + q t^2 that are Weil polynomials or, past the Hasse
    bound, have real roots (of weights 0 and 2 at a = +-(q + 1), else of none),
    some perturbed, and a declared degree in -3..8."""
    den, q = draw(st.sampled_from(DENOMINATORS))
    bound = int(2 * q ** 0.5)
    num = [1]
    for a in draw(st.lists(st.integers(-bound - 2, bound + 2), max_size=3)):
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


@pytest.mark.parametrize("den", [(), (2, -3, 2)])
def test_reconstruction_refuses_a_denominator_without_constant_term_1(den):
    # an empty denominator has no constant term: refused as RationalZeta refuses it
    counts = (5, 5, 5, 25, 25, 65, 145)
    with pytest.raises(ValueError, match="denominator must have constant term 1"):
        zeta_from_counts(counts, 2, den, 2)
    with pytest.raises(ValueError, match="denominator must have constant term 1"):
        rational_reconstruct(zeta_series(counts), 2, den, 2)
