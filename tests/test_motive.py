import math
import random
import time

import numpy as np
import pytest

from motives.finite_field import is_prime, make_field
from motives.variety import count_projective_space
from motives.weil import hasse_alpha, is_weil_polynomial
from motives.motive import (
    TENSOR_DEGREE_LIMIT,
    Motive,
    direct_sum,
    lefschetz_motive,
    make_motive,
    motive_of_elliptic_curve,
    motive_of_projective_space,
    point_count,
    point_counts,
    tensor,
    tensor_power,
    unit_motive,
    zero_motive,
)

EXPECTED_CURVE_COUNTS = (4, 4, 4, 24, 24, 64, 144, 224, 544, 1024, 1984, 4224)


def random_motive(rng, base_q, max_weight=3, max_atoms=3):
    """Pure integer pieces: each atom is a pair 1 - a t + q^k t^2 with
    integer trace a, |a| <= 2*q^(k/2), or a real eigenvalue +-q^(k/2),
    1 -+ q^(k/2) t, for even k."""
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


def test_projective_line_decomposition():
    for q in (2, 3, 5):
        p1 = direct_sum(unit_motive(q), lefschetz_motive(q))
        assert p1.pieces == motive_of_projective_space(1, q).pieces
        for n in (1, 2, 3):
            assert point_count(p1, n) == q ** n + 1


def test_zero_motive_is_direct_sum_unit():
    m = motive_of_projective_space(2, 3)
    assert direct_sum(m, zero_motive(3)).pieces == m.pieces
    assert point_count(zero_motive(5), 4) == 0


def test_unit_motive_is_tensor_unit():
    m = motive_of_projective_space(2, 2)
    assert tensor(m, unit_motive(2)).pieces == m.pieces
    assert tensor(unit_motive(2), m).pieces == m.pieces


def test_lefschetz_tensor_square():
    l2 = tensor(lefschetz_motive(2), lefschetz_motive(2))
    assert l2.weight_table() == {4: (4 + 0j,)}
    assert l2.pieces == tensor_power(lefschetz_motive(2), 2).pieces


def test_projective_plane_from_sum_of_line_powers():
    q = 2
    m = direct_sum(direct_sum(unit_motive(q), lefschetz_motive(q)),
                   tensor_power(lefschetz_motive(q), 2))
    assert m.pieces == motive_of_projective_space(2, q).pieces
    for n in (1, 2, 3):
        assert point_count(m, n) == 1 + 2 ** n + 4 ** n


def test_square_of_projective_line():
    q = 3
    sq = tensor(motive_of_projective_space(1, q), motive_of_projective_space(1, q))
    assert sq.weight_table() == {0: (1 + 0j,), 2: (q + 0j, q + 0j), 4: (q * q + 0j,)}
    for n in (1, 2):
        assert point_count(sq, n) == (q ** n + 1) ** 2


def test_projective_space_counts_match_enumeration():
    for q_spec in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(*q_spec)
        for dim in (0, 1, 2, 3):
            m = motive_of_projective_space(dim, f.q)
            for n in (1, 2, 3):
                fn = make_field(q_spec[0], q_spec[1] * n)
                assert point_count(m, n) == count_projective_space(dim, fn)


def test_projective_space_spot_values():
    assert point_count(motive_of_projective_space(2, 2), 1) == 7
    assert point_count(motive_of_projective_space(0, 5), 3) == 1
    assert point_count(motive_of_projective_space(3, 3), 1) == 40


def test_elliptic_motive_counts():
    m = motive_of_elliptic_curve(hasse_alpha(2, 4))
    for n, affine in enumerate(EXPECTED_CURVE_COUNTS, start=1):
        assert point_count(m, n) == affine + 1
    assert point_count(m, 1) == 5
    assert point_count(m, 4) == 25
    assert point_count(m, 8) == 225


def test_elliptic_motive_takes_the_pair_unchanged():
    for p in filter(is_prime, range(2, 60)):
        bound = math.isqrt(4 * p)
        for a in range(-bound, bound + 1):
            m = motive_of_elliptic_curve(hasse_alpha(p, p - a))
            assert m == Motive(p, ((0, (1, -1)), (1, (1, -a, p)), (2, (1, -p))))
            s = trace_powers(a, p, 8)
            assert list(point_counts(m, 8)) == [p ** n + 1 - s[n] for n in range(1, 9)]


def test_elliptic_motive_zero_trace():
    for p in (2, 5, 13):
        m = motive_of_elliptic_curve(hasse_alpha(p, p))
        assert point_count(m, 2) == (p + 1) ** 2


def test_purity_rejected():
    with pytest.raises(ValueError, match="purity"):
        make_motive(2, {1: (1, -3, 2)})  # eigenvalues 1 and 2
    with pytest.raises(ValueError, match="purity"):
        make_motive(3, {2: (1, -2)})
    with pytest.raises(ValueError, match="purity"):
        make_motive(5, {0: (1, -1, -1)})  # the golden ratio and its conjugate


def test_conjugation_closure_rejected():
    # the lone eigenvalue -1 + i has the non-real polynomial 1 + (1 - i) t
    with pytest.raises(ValueError, match="^weight 1 coefficients must be integers$"):
        make_motive(2, {1: (1, 1 - 1j)})


@pytest.mark.parametrize("pieces, message", [
    ({1: (1, 2.0, 2)}, "^weight 1 coefficients must be integers$"),
    ({0: (1, -1), 2: (1, -2.0)}, "^weight 2 coefficients must be integers$"),
    ({1: (2, 4, 4)}, "^weight 1 piece must have constant term 1$"),
    ({1: (-1, -2, -2)}, "^weight 1 piece must have constant term 1$"),
    ({1: ()}, "^weight 1 piece must have constant term 1$"),
])
def test_make_motive_refuses_floats_and_constant_terms_other_than_1(pieces, message):
    with pytest.raises(ValueError, match=message):
        make_motive(2, pieces)


def test_make_motive_accepts_exactly_the_weil_polynomials():
    for q in (2, 3, 4):
        for k in (0, 1, 2, 3):
            qk = q ** k
            bound = 2 * math.isqrt(qk) + 2
            for b1 in range(-bound, bound + 1):
                for b2 in (-qk, 0, qk, b1, b1 * b1 // 4, qk + 1):
                    poly = (1, b1, b2)
                    try:
                        m = make_motive(q, {k: poly})
                    except ValueError as e:
                        assert not is_weil_polynomial(poly, qk), (q, k, poly)
                        assert str(e).startswith("purity violated")
                    else:
                        assert is_weil_polynomial(poly, qk), (q, k, poly)
                        assert m.pieces == ((k, poly),)
                        assert point_count(m, 1) == (-1) ** k * -b1
    assert make_motive(2, {0: (1,), 1: (1, 2, 2)}).pieces == ((1, (1, 2, 2)),)
    assert make_motive(7, {}) == zero_motive(7)


def test_base_mismatch_rejected():
    with pytest.raises(ValueError, match="base mismatch"):
        direct_sum(unit_motive(2), unit_motive(3))
    with pytest.raises(ValueError, match="base mismatch"):
        tensor(lefschetz_motive(2), lefschetz_motive(4))


@pytest.mark.parametrize("q", [1, 6, 12])
def test_base_must_be_a_prime_power(q):
    with pytest.raises(ValueError, match=r"^base must be a prime power >= 2$"):
        Motive(q, ())
    with pytest.raises(ValueError, match=r"^base must be a prime power >= 2$"):
        lefschetz_motive(q)


@pytest.mark.parametrize("q", [2 ** 31, 3 ** 16, 8191])
def test_every_prime_power_base_is_accepted(q):
    assert Motive(q, ()).base_q == q
    assert list(point_counts(lefschetz_motive(q), 2)) == [q, q * q]


def test_weight_validation():
    with pytest.raises(ValueError):
        Motive(2, ((-1, (1 + 0j,)),))
    with pytest.raises(ValueError, match="empty weight piece"):
        Motive(2, ((0, ()),))


def test_additivity_and_multiplicativity_random_pairs():
    rng = random.Random(421)
    for trial in range(100):
        q = rng.choice([2, 3, 5, 7])
        a = random_motive(rng, q)
        b = random_motive(rng, q)
        s = direct_sum(a, b)
        t = tensor(a, b)
        for n in (1, 2, 3):
            ca, cb = point_count(a, n), point_count(b, n)
            assert point_count(s, n) == ca + cb
            assert point_count(t, n) == ca * cb


def trace_powers(a, p, n_max):
    """Oracle: s_0..s_n_max of the pair with sum a and product p, by the
    second-order recurrence s_n = a s_(n-1) - p s_(n-2)."""
    s = [2, a]
    while len(s) <= n_max:
        s.append(a * s[-1] - p * s[-2])
    return s


def test_elliptic_counts_exact_past_float_precision():
    # 9234 of these counts lie at or past 2^53, where a float trace sum
    # got 8986 of them wrong
    for p in filter(is_prime, range(2, 102)):
        bound = math.isqrt(4 * p)
        for a in range(-bound, bound + 1):
            m = motive_of_elliptic_curve(hasse_alpha(p, p - a))
            s = trace_powers(a, p, 24)
            for n in range(1, 25):
                assert point_count(m, n) == p ** n + 1 - s[n]


def test_lefschetz_powers_exact_past_float_precision():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(41):
            m = tensor_power(lefschetz_motive(q), k)
            for n in (1, 2, 3):
                assert point_count(m, n) == q ** (k * n)


def test_exact_counts_pinned():
    e = motive_of_elliptic_curve(hasse_alpha(101, 96))
    assert point_count(e, 8) == 10828567145002275
    assert point_count(e, 10) == 110462212524105901379
    assert point_count(tensor_power(lefschetz_motive(3), 40), 1) == 12157665459056928801
    assert point_count(motive_of_projective_space(700, 2), 1) == 2 ** 701 - 1
    # cube of h(E) for a = 5, p = 101: N_3(E)^3 with N_3(E) = 1031692
    cube = tensor_power(e, 3)
    assert [cube.betti(k) for k in range(7)] == [1, 6, 15, 20, 15, 6, 1]
    assert point_count(cube, 3) == 1098120979493725888 == 1031692 ** 3


def test_tensor_power_past_the_degree_limit_is_refused_before_it_is_built():
    # the sixth power's middle piece has degree C(12, 6) = 924, which would
    # take about 46 s; the refusal comes before the first factor is built
    e = motive_of_elliptic_curve(hasse_alpha(101, 96))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^tensor product piece of weight 6 has degree 924, "
                                         "past the limit of 256$"):
        tensor_power(e, 6)
    assert time.perf_counter() - start < 0.1
    fifth = tensor_power(e, 5)
    assert max(fifth.betti(k) for k in range(11)) == 252 <= TENSOR_DEGREE_LIMIT
    assert point_count(fifth, 1) == 97 ** 5
    with pytest.raises(ValueError, match="degree 924"):
        tensor(fifth, e)
    # pieces of degree 1 stay of degree 1 however high the power
    assert tensor_power(lefschetz_motive(2), 1023).pieces == ((2046, (1, -2 ** 1023)),)


def test_elliptic_tensor_products_multiply_past_float_precision():
    rng = random.Random(2053)
    for p in filter(is_prime, range(2, 102)):
        bound = math.isqrt(4 * p)
        for _ in range(3):
            a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
            t = tensor(motive_of_elliptic_curve(hasse_alpha(p, p - a)),
                       motive_of_elliptic_curve(hasse_alpha(p, p - b)))
            sa, sb = trace_powers(a, p, 24), trace_powers(b, p, 24)
            for n in range(1, 25):
                want = (p ** n + 1 - sa[n]) * (p ** n + 1 - sb[n])
                assert point_count(t, n) == want


@pytest.mark.parametrize("label", ["P^3", "elliptic", "tensor"])
def test_point_counts_match_point_count(label):
    elliptic = motive_of_elliptic_curve(hasse_alpha(101, 96))
    m = {"P^3": motive_of_projective_space(3, 2),
         "elliptic": elliptic,
         "tensor": tensor(elliptic, motive_of_projective_space(2, 101))}[label]
    assert list(point_counts(m, 60)) == [point_count(m, n) for n in range(1, 61)]
    assert list(point_counts(m, 0)) == []
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            point_count(m, n)
