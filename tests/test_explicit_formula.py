import math
import tracemalloc

import numpy as np
import pytest

from motives.explicit_formula import (
    SIEVE_LIMIT,
    PrimeCounter,
    ZeroTable,
    archimedean_tail,
    default_zero_table,
    half_integer_grid,
    li,
    li_grid,
    load_zeros,
    mobius,
    rh_bound_ratio,
    riemann_approx,
    sieve_pi,
    smooth_term,
    zero_pair_terms,
)

# frozen oracle values (computed with mpmath at 30 digits)
LI_ORACLE = {
    0.5: -0.378671043061088,
    2.0: 1.045163780117493,
    10.0: 6.165599504787298,
    230.0: 55.77926001489299,
    1e6: 78627.54915946219,
}
APPROX_ORACLE = {
    # (x, K) -> value from an independent high-precision implementation
    (10.5, 13): 3.905051415900520,
    (20.0, 0): 7.487749942180353,
    (100.5, 50): 25.17279096200130,
    (229.5, 118): 49.75049664955147,
    (2.5, 13): 0.976785411547534,
}


def trial_division_pi(n):
    count = 0
    for m in range(2, n + 1):
        if all(m % d for d in range(2, int(m ** 0.5) + 1)):
            count += 1
    return count


@pytest.fixture(scope="module")
def pc():
    return PrimeCounter.build(10 ** 5)


@pytest.fixture(scope="module")
def zeros():
    return default_zero_table()


# ----------------------------------------------------------------------
# sieve

def test_sieve_matches_trial_division(pc):
    for n in (2, 3, 20, 100, 230, 1000):
        assert sieve_pi(n, pc) == trial_division_pi(n)
    assert sieve_pi(20, pc) == 8
    assert sieve_pi(2, pc) == 1
    assert sieve_pi(230, pc) == 50


def test_sieve_dense_agreement_to_10000(pc):
    want = 0
    is_p = [True] * 10001
    for m in range(2, 10001):
        if is_p[m]:
            want += 1
            for j in range(m * m, 10001, m):
                is_p[j] = False
        assert sieve_pi(m, pc) == want


def test_sieve_flags_and_limits(pc):
    assert pc.is_prime[2] and not pc.is_prime[4]
    assert sieve_pi(1.9, pc) == 0
    assert sieve_pi(2.5, pc) == 1
    with pytest.raises(ValueError, match="beyond sieve limit"):
        sieve_pi(10 ** 5 + 1, pc)


def test_sieve_limit_refused_before_allocating():
    # uncapped, 10^9 would ask for 9 GB of flags and counts
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds 10000000"):
            PrimeCounter.build(10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with pytest.raises(ValueError, match="exceeds"):
        PrimeCounter.build(SIEVE_LIMIT + 1)


# ----------------------------------------------------------------------
# mobius

def test_mobius_small_values():
    assert [mobius(m) for m in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for p in (2, 3, 5, 7, 11):
        assert mobius(p) == -1
        assert mobius(p * p) == 0
    assert mobius(1) == 1
    with pytest.raises(ValueError):
        mobius(0)


# ----------------------------------------------------------------------
# logarithmic integral

def test_li_oracle_values():
    for x, want in LI_ORACLE.items():
        assert abs(li(x) - want) < 1e-9, x


def test_li_interval_additivity():
    from scipy.integrate import quad
    piece = quad(lambda t: 1 / math.log(t), 2.0, 50.0, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs((li(50.0) - li(2.0)) - piece) < 1e-10


def test_li_monotone_and_positive_beyond_root():
    xs = [1.46, 1.5, 2, 3, 10, 100, 10 ** 4]
    vals = [li(float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_li_error_cases():
    with pytest.raises(ValueError, match="divergent"):
        li(1.0)
    with pytest.raises(ValueError):
        li(0.0)
    with pytest.raises(ValueError):
        li(-5.0)


@pytest.mark.parametrize("x", [1e-9, 0.01, 0.9, 0.999999, 1.000001, 1.0001,
                               1.2, 1.9, 1e6])
def test_li_against_mpmath(x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.li(x))
    assert abs(li(x) - want) < 1e-9


def test_li_grid_agrees_with_adaptive():
    g = li_grid(2000)
    for n in (3, 4, 17, 200, 1999, 2000):
        assert abs(g[n - 3] - li(float(n))) < 1e-9


def test_li_grid_stable_under_refinement():
    # doubling the panel count changes nothing at the 1e-9 level
    coarse = li_grid(500)
    fine0 = li_grid(500, n_min=3)
    half = np.arange(3.0, 500.0, 0.5)
    from scipy.integrate import quad
    spot = li(3.0) + quad(lambda t: 1 / math.log(t), 3.0, 500.0,
                          epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(coarse[-1] - spot) < 1e-9
    assert np.allclose(coarse, fine0, atol=1e-12)


# ----------------------------------------------------------------------
# zero table

def test_default_zero_table(zeros):
    assert len(zeros) == 150
    assert abs(zeros.ordinates[0] - 14.134725) < 1e-5
    assert abs(zeros.ordinates[1] - 21.022040) < 1e-5
    assert abs(zeros.ordinates[2] - 25.010858) < 1e-5


def test_load_zeros_roundtrip(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("# c\n14.134725\n21.022040\n25.010858\n")
    t = load_zeros(f)
    assert len(t) == 3


def test_load_zeros_errors(tmp_path):
    empty = tmp_path / "e.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no zeros"):
        load_zeros(empty)
    bad = tmp_path / "b.txt"
    bad.write_text("14.134725\n13.0\n")
    with pytest.raises(ValueError, match="not increasing"):
        load_zeros(bad)
    anchor = tmp_path / "a.txt"
    anchor.write_text("15.5\n21.0\n")
    with pytest.raises(ValueError, match="anchor"):
        load_zeros(anchor)
    junk = tmp_path / "j.txt"
    junk.write_text("14.134725\npotato\n")
    with pytest.raises(ValueError, match="cannot parse"):
        load_zeros(junk)
    with pytest.raises(ValueError, match="not increasing"):
        ZeroTable((14.13, 14.13))


# ----------------------------------------------------------------------
# explicit formula

def test_zero_pair_terms_against_exponential_integral(zeros):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    for y in (2.0, 10.0, 230.0):
        gammas = np.asarray(zeros.ordinates[:4])
        mine = zero_pair_terms(y, gammas)
        for got, g in zip(mine, gammas):
            want = 2 * mp.re(mp.ei(mp.mpc(0.5, g) * mp.log(y)))
            assert abs(got - float(want)) < 1e-8


def test_riemann_approx_frozen_oracles(zeros):
    for (x, K), want in APPROX_ORACLE.items():
        assert abs(riemann_approx(x, zeros, K) - want) < 1e-6, (x, K)


def test_main_term_close_at_20(pc, zeros):
    assert abs(riemann_approx(20.0, zeros, 0) - sieve_pi(20, pc)) <= 1.1


def test_thirteen_pairs_tight_to_20(pc, zeros):
    grid = half_integer_grid(2.0, 20.0)
    devs = [abs(riemann_approx(float(x), zeros, 13) - sieve_pi(x, pc)) for x in grid]
    assert max(devs) <= 1.0


def test_rms_error_decreases_with_more_zeros(pc, zeros):
    grid = half_integer_grid(2.0, 60.0)
    rms = []
    for K in (0, 13, 50):
        errs = np.array([riemann_approx(float(x), zeros, K) - sieve_pi(x, pc)
                         for x in grid])
        rms.append(float(np.sqrt((errs ** 2).mean())))
    assert rms[0] > rms[1] > rms[2]


def test_riemann_approx_input_validation(zeros):
    with pytest.raises(ValueError, match="K exceeds"):
        riemann_approx(10.0, zeros, len(zeros) + 1)
    with pytest.raises(ValueError):
        riemann_approx(1.5, zeros, 0)


def test_half_integer_grid():
    g = half_integer_grid(2.0, 5.0)
    assert list(g) == [2.5, 3.5, 4.5]
    assert all(x != int(x) for x in g)


def test_smooth_term_combines_pieces(zeros):
    y = 10.0
    gam = np.asarray(zeros.ordinates[:3])
    want = li(y) - math.log(2) + archimedean_tail(y) - zero_pair_terms(y, gam).sum()
    assert abs(smooth_term(y, gam) - want) < 1e-12


# ----------------------------------------------------------------------
# RH bound echo

def test_rh_bound_ratio_small_cases(pc):
    r3 = rh_bound_ratio(3, pc)
    want = abs(2 - li(3.0)) / (math.sqrt(3) * math.log(3))
    assert abs(r3 - want) < 1e-9


def test_rh_bound_ratio_desk_scale(pc):
    r4 = rh_bound_ratio(10 ** 4, pc)
    r5 = rh_bound_ratio(10 ** 5, pc)
    assert math.isfinite(r5)
    assert r5 <= 1.5
    # oracle sup 0.3489825545627 is attained at n = 4 and never again
    assert abs(r5 - 0.3489825545627516) < 1e-9
    assert r5 <= r4 + 1e-12


def test_rh_bound_ratio_independent_of_extra_sieve_room(pc):
    small = PrimeCounter.build(2000)
    assert rh_bound_ratio(1500, small) == rh_bound_ratio(1500, pc)


def test_archimedean_tail_positive_and_decreasing():
    vals = [archimedean_tail(y) for y in (2.0, 5.0, 50.0, 500.0)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("y", [1.01, 2.0, 2.5, 50.0, 1500.0])
def test_archimedean_tail_against_mpmath(y):
    # near y = 1 the integrand is steep at s = 1/y as well as rough at 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.quad(lambda t: 1 / (t * (t * t - 1) * mp.log(t)),
                             [y, 2 * y, mp.inf]))
    assert abs(archimedean_tail(y) - want) < 1e-9 * want
