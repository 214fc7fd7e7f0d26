import math
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest

import motives
from motives import explicit_arrays, explicit_formula as ef
from motives.explicit_formula import (
    SIEVE_LIMIT,
    PrimeCounter,
    ZeroTable,
    approximation_rows,
    archimedean_tail,
    default_zero_table,
    half_integer_grid,
    li,
    load_zeros,
    mobius,
    rh_bound_ratio,
    riemann_approx,
    sieve_pi,
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

# rows of approximation_rows on the half-integer grid to 230, frozen from
# the per-point evaluation (one riemann_approx and one li per row) that the
# batched one replaced
ROWS_LI = {
    2.5: 1.6672946675063238, 3.5: 2.5887650787505088, 10.5: 6.380459820246318,
    31.5: 13.46049475948324, 64.5: 22.054780426615658, 100.5: 30.234656403859653,
    127.5: 35.93945711362582, 181.5: 46.66864485674513, 200.5: 50.286518510345346,
    229.5: 55.68729739166654,
}
ROWS_APPROX = {
    0: (1.0423630825163206, 1.921554544662459, 4.594494584478742,
        10.56080826192947, 18.221239154636937, 25.789788551364563,
        31.13879035252211, 41.210857064807186, 44.65330457017616,
        49.80848067059444),
    13: (0.9767854115475343, 2.0461291587236303, 3.905051415900521,
         10.812706774099096, 18.03182032136824, 25.413858081009074,
         30.812023310122235, 41.26318150685638, 45.48502255437673,
         49.2772736047014),
    150: (0.9971829982693594, 2.0017535769399766, 3.9824842350233958,
          10.977140152915814, 18.035216090613044, 25.0699727124205,
          30.77750377408553, 41.805756274350564, 45.981126298395615,
          49.83881862945827),
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
    assert pc.pi_table[:8].tolist() == [0, 0, 1, 2, 2, 3, 3, 4]
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


def test_sieve_peaks_at_5_bytes_per_integer():
    # byte flags, then int32 counts: 5 bytes per integer at the peak
    tracemalloc.start()
    try:
        pc = PrimeCounter.build(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    assert sieve_pi(10 ** 6, pc) == 78498
    assert pc.pi_table.typecode == "i" and type(pc.pi_table[10 ** 6]) is int


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

def test_tabled_rule_is_numpys_leggauss_bit_for_bit():
    # the tabled nodes and weights, compared as bit patterns: the arrays with
    # the dtype, shape and layout every `@ _WEIGHTS` product rounds with, and
    # the pure-Python kernel's float tuples
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for tabled, want in [(explicit_arrays._NODES, nodes), (explicit_arrays._WEIGHTS, weights)]:
        assert (tabled.dtype, tabled.shape) == (np.float64, (16,))
        assert tabled.flags.c_contiguous
        assert tabled.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for tabled, want in [(ef._NODES, nodes), (ef._WEIGHTS, weights)]:
        assert type(tabled) is tuple and all(type(v) is float for v in tabled)
        assert np.array(tabled).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert ef._RULE == tuple(zip(nodes.tolist(), weights.tolist()))


def test_li_oracle_values():
    for x, want in LI_ORACLE.items():
        assert abs(li(x) - want) < 1e-9, x


def test_li_interval_additivity():
    import mpmath as mp
    with mp.workdps(30):
        piece = float(mp.quad(lambda t: 1 / mp.log(t), [2, 50]))
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


def _li_grid(n_min, n_max, pc, zeros):
    """li at every integer in [n_min, n_max], the li column of the rows."""
    return [row[2] for row in approximation_rows(np.arange(n_min, n_max + 1.0), zeros, 0, pc)]


def test_li_grid_agrees_with_adaptive(pc, zeros):
    g = _li_grid(3, 2000, pc, zeros)
    for n in (3, 4, 17, 200, 1999, 2000):
        assert abs(g[n - 3] - li(float(n))) < 1e-9
    # rh_bound_ratio reads li at the integers on the same code
    ns = np.arange(3.0, 2001.0)
    ratios = np.abs(pc.pi_table[3:2001] - np.array(g)) / (np.sqrt(ns) * np.log(ns))
    assert rh_bound_ratio(2000, pc) == ratios.max()


def test_li_grid_stable_under_refinement(pc, zeros):
    # the grid's last value is an independent quadrature's, and a grid
    # that starts elsewhere, in other blocks, gives the same values
    mp = pytest.importorskip("mpmath")
    g = _li_grid(3, 500, pc, zeros)
    with mp.workdps(30):
        spot = li(3.0) + float(mp.quad(lambda t: 1 / mp.log(t), [3, 500]))
    assert abs(g[-1] - spot) < 1e-9
    assert _li_grid(250, 500, pc, zeros) == g[250 - 3:]


def test_li_grid_does_not_drift(pc, zeros):
    # every grid point is integrated on its own; a running sum of unit
    # panels drifted by 9.8e-11 at n = 58670
    mp = pytest.importorskip("mpmath")
    g = _li_grid(3, 60000, pc, zeros)
    with mp.workdps(30):
        for n in (50000, 58670, 60000):
            assert abs(g[n - 3] - float(mp.li(n))) < 1e-11, n


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
    # nan and inf pass the order and sign checks; a nan mid-table would pass "not increasing"
    for text in ("14.134725141734693\n21.022039638771555\nnan\n", "14.134725\nnan\n21.02204\n",
                 "14.134725\ninf\n", "-inf\n14.134725\n"):
        junk.write_text(text)
        with pytest.raises(ValueError, match="^ordinates must be finite numbers$"):
            load_zeros(junk)


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


@pytest.mark.parametrize("y", [2.0, 1e7])
@pytest.mark.parametrize("j", [0, 149])
def test_zero_pair_terms_at_ray_corners(zeros, y, j):
    # the lowest and highest ordinate at both ends of the arguments a
    # sieve up to 10^7 can reach: the pole nearest the ray, and the most
    # oscillation along it
    mp = pytest.importorskip("mpmath")
    gammas = np.asarray(zeros.ordinates)
    with mp.workdps(30):
        want = float(2 * mp.re(mp.ei(mp.mpc(0.5, gammas[j]) * mp.log(y))))
    assert abs(zero_pair_terms(y, gammas)[j] - want) < 1e-9


def test_zero_pair_terms_within_a_384_node_ray(zeros):
    # the 32-node float64 ray against 24 uniform 16-node panels on [0, 60]
    # in complex arithmetic, across the arguments a 10^7 sieve can reach
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 60.0, 25)
    half = np.diff(edges) / 2.0
    u = (half[:, None] * nodes + (edges[:-1] + half)[:, None]).ravel()
    ew = (half[:, None] * weights).ravel() * np.exp(-u)
    gammas = np.asarray(zeros.ordinates)
    for y in np.geomspace(2.0, 1e7, 60):
        w = -math.log(y) * (0.5 + 1j * gammas)
        want = -2.0 * (np.exp(-w) * (ew / (w[:, None] + u)).sum(axis=1)).real
        err = np.abs(zero_pair_terms(float(y), gammas) - want).max()
        assert err <= 4e-15 * np.abs(want).max(), y


@pytest.mark.parametrize("K", sorted(ROWS_APPROX))
def test_approximation_rows_pinned(pc, zeros, K):
    rows = {r[0]: r for r in approximation_rows(half_integer_grid(2.0, 230.0),
                                                 zeros, K, pc)}
    assert len(rows) == 228
    for (x, want_li), want in zip(ROWS_LI.items(), ROWS_APPROX[K]):
        assert rows[x][1] == sieve_pi(x, pc)
        assert abs(rows[x][2] - want_li) < 1e-12, x
        assert abs(rows[x][3] - want) < 1e-12, x


@pytest.mark.parametrize("x_max, K", [(1500, 0), (600, 150)])
def test_approximation_rows_memory_bounded(zeros, x_max, K):
    # blocks of grid points, and chunks of arguments within a block, keep
    # every temporary small whatever the grid length
    pc = PrimeCounter.build(x_max + 1)
    grid = half_integer_grid(2.0, x_max)
    tracemalloc.start()
    try:
        approximation_rows(grid, zeros, K, pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_approximation_rows_li_is_li(zeros):
    # a row's li does not depend on the block or chunk it was read in
    pc = PrimeCounter.build(601)
    rows = approximation_rows(half_integer_grid(2.0, 600.0), zeros, 150, pc)
    assert [r[2] for r in rows] == [li(r[0]) for r in rows]


def _smooth_term(y, gammas):
    """f(y) of the module docstring: li(y) minus the zero-pair terms,
    minus ln 2, plus the archimedean tail, on the blocks' code."""
    return float(explicit_arrays._smooth_terms(np.array([y]), np.asarray(gammas, dtype=float))[1][0])


def _evenly_spaced_zeros(count):
    # increasing ordinates from the first zero's, 0.5 apart
    return ZeroTable(tuple(14.134725141734693 + 0.5 * i for i in range(count)))


def test_zero_terms_memory_bounded_for_long_tables():
    # past 1024 zeros one argument's (zeros x nodes) temporary would exceed
    # the 2^15-element chunk; the zeros axis is sliced too
    table = _evenly_spaced_zeros(20000)
    tracemalloc.start()
    try:
        riemann_approx(100.5, table, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("count", [1, 150, 341, 342, 1000, 1024, 1025])
@pytest.mark.parametrize("y", [2.5, 999.5, 1e6 + 0.5])
def test_zero_terms_sliced_sum(y, count):
    # up to 1024 zeros (32 ray nodes each) are one slice, summed exactly
    # as before slicing
    gammas = np.array(_evenly_spaced_zeros(count).ordinates)
    got = _smooth_term(y, gammas)
    want = _smooth_term(y, np.array([])) - zero_pair_terms(y, gammas).sum()
    if count <= 1024:
        assert got == want
    else:
        assert abs(got - want) < 1e-12 * count


def test_approximation_rows_input_validation(pc, zeros):
    assert approximation_rows([], zeros, 0, pc) == []
    with pytest.raises(ValueError, match="K exceeds"):
        approximation_rows([2.5], zeros, len(zeros) + 1, pc)
    with pytest.raises(ValueError, match="K must be >= 0"):
        approximation_rows([2.5], zeros, -1, pc)
    with pytest.raises(ValueError, match="x must be >= 2"):
        approximation_rows([2.5, 1.5], zeros, 0, pc)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        approximation_rows([2.5, pc.limit + 1.0, 3.5], zeros, 0, pc)
    with pytest.raises(ValueError, match="cannot convert float NaN"):
        approximation_rows([2.5, math.nan], zeros, 0, pc)


def test_approximation_rows_pi_column_is_sieve_pi(pc, zeros):
    # integers, half-integers and the limit itself, across several blocks
    xs = np.concatenate([np.arange(2.0, 1200.0, 0.5), [pc.limit - 0.5, pc.limit]])
    pis = [row[1] for row in approximation_rows(xs, zeros, 0, pc)]
    assert pis == [sieve_pi(x, pc) for x in xs.tolist()]
    assert all(type(v) is int for v in pis)


@pytest.mark.parametrize("x", [3.0, 4.999999, 5.0, 5.000001, 1025.0,
                               1.0 + 2.0 ** 23, 9999999.5])
def test_li_at_doubling_panel_edges(x):
    # beyond 2, li sums whole panels [1 + 2^(j-1), 1 + 2^j] and one
    # partial panel; these x sit on and beside the panel edges
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.li(x))
    assert abs(li(x) - want) < 1e-9


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
    for lo, hi, want in [(2.0, 5.0, [2.5, 3.5, 4.5]), (2.5, 5.4, [2.5, 3.5, 4.5]),
                         (2.6, 4.4, [3.5]), (3.0, 3.4, [])]:
        g = half_integer_grid(lo, hi)
        assert isinstance(g, array) and g.typecode == "d"
        assert g.tolist() == want
        assert all(x != int(x) for x in g)
    # a half-integer hi is in [lo, hi], also from 16384.5 up, where
    # hi + 1e-12 rounds to hi
    for hi in (20.5, 16384.5, 1000000.5):
        g = half_integer_grid(2.0, hi)
        assert (g[0], g[-1], len(g)) == (2.5, hi, hi - 1.5)


def test_smooth_term_combines_pieces(zeros):
    # below 4 only m = 1 has y = x^(1/m) >= 2, so the approximation is f(x)
    x = 3.5
    gam = np.asarray(zeros.ordinates[:3])
    want = li(x) - math.log(2) + archimedean_tail(x) - zero_pair_terms(x, gam).sum()
    assert abs(riemann_approx(x, zeros, 3) - want) < 1e-12


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


def test_block_tail_against_mpmath():
    # the blocks take the tail as its value at 2 minus an integral on li's
    # panels; f(y) = li(y) - ln 2 + tail holds it only to the ulp of li(y),
    # so the block kernel is read directly, all six arguments in one block
    mp = pytest.importorskip("mpmath")
    ys = [2.0, 2.5, 50.0, 1500.0, 1e6, 1e7]
    got = explicit_arrays._chunked(explicit_arrays._tail_from_2, np.array(ys), 16, buffers=2)
    with mp.workdps(30):
        for y, tail in zip(ys, got):
            want = mp.quad(lambda t: 1 / (t * (t * t - 1) * mp.log(t)), [y, 2 * y, mp.inf])
            assert abs(tail - float(want)) < 1e-15, y


@pytest.mark.parametrize("y", [1.01, 2.0, 2.5, 50.0, 1500.0])
def test_archimedean_tail_against_mpmath(y):
    # near y = 1 the integrand is steep at s = 1/y as well as rough at 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.quad(lambda t: 1 / (t * (t * t - 1) * mp.log(t)),
                             [y, 2 * y, mp.inf]))
    assert abs(archimedean_tail(y) - want) < 1e-9 * want


# ----------------------------------------------------------------------
# the two kernels

def _refuse(*args, **kwargs):
    raise AssertionError("evaluated by the wrong kernel")


def test_numpy_loaded_or_not_the_formula_kernel_follows_from_the_charge(monkeypatch, zeros):
    # numpy is loaded here, and each grid takes the kernel a fresh process
    # takes: pure Python up to PY_MAX_CHARGE (20/K13, rh_bound_ratio to 2000),
    # the arrays past it (600/K150, rh_bound_ratio to 10^4)
    assert "numpy" in sys.modules
    pc = PrimeCounter.build(10 ** 4)
    small = half_integer_grid(2.0, 20.0)
    large = half_integer_grid(2.0, 600.0)
    assert ef._charge(len(small), 20.0, 13) <= ef.PY_MAX_CHARGE
    assert ef._charge(1998, 2000, 0) <= ef.PY_MAX_CHARGE < ef._charge(9998, 10 ** 4, 0)
    assert ef._charge(len(large), 600.0, 150) > ef.PY_MAX_CHARGE
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "motives.explicit_arrays", None)
        m.delattr(motives, "explicit_arrays")
        rows = approximation_rows(small, zeros, 13, pc)
        assert abs(rows[0][3] - ROWS_APPROX[13][0]) < 1e-12
        assert abs(rows[8][3] - ROWS_APPROX[13][2]) < 1e-12
        assert abs(rh_bound_ratio(2000, pc) - 0.3489825545627516) < 1e-9
        with pytest.raises(ImportError):
            approximation_rows(large, zeros, 150, pc)
    with monkeypatch.context() as m:
        m.setattr(ef, "_li_tail", _refuse)
        m.setattr(ef, "_explicit", _refuse)
        x, n_primes, li_x, approx = approximation_rows(large, zeros, 150, pc)[-1]
        assert (x, n_primes) == (599.5, 109)
        assert abs(li_x - 117.568341803519) < 1e-9 and abs(approx - 108.775015286632) < 1e-9
        assert abs(rh_bound_ratio(10 ** 4, pc) - 0.3489825545627516) < 1e-9
        with pytest.raises(AssertionError, match="wrong kernel"):
            approximation_rows(small, zeros, 13, pc)


def test_edge_tables_grow_once_under_threads(monkeypatch):
    # threads that extend the shared edge tables at once leave them as one
    # thread would: no entry lost, repeated or out of order
    monkeypatch.setattr(ef, "_LI_EDGES", [])
    monkeypatch.setattr(ef, "_TAIL_EDGES", [])
    want = tuple(map(list, ef._at_edges(200)))
    ef._LI_EDGES.clear()
    ef._TAIL_EDGES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ef._at_edges, args=(k,))
                   for k in (50, 200, 120, 200, 7, 180, 200, 90)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert (ef._LI_EDGES, ef._TAIL_EDGES) == want


@pytest.mark.parametrize("K", [0, 13, 150])
def test_both_kernels_agree(zeros, K):
    # the pure-Python block kernel against the arrays, on the same blocks:
    # measured, li within 1 ulp, approx within 7.1e-15 to 229.5 and within
    # 2.1e-16 of li(x), 1 ulp, near 10^7
    gammas = ef.zero_ordinates(zeros, K)
    for xs, bound in [([k + 0.5 for k in range(2, 230)], lambda li_x: 1e-13),
                      ([5e6 + 0.5, 2.0 ** 23, 2.0 ** 23 + 1.0, 2.0 ** 23 + 1.5, 9999990.5,
                        9999999.5, 1e7], lambda li_x: 1e-15 * li_x)]:
        li_py, approx_py = ef._explicit(xs, gammas)
        li_np, approx_np = explicit_arrays.explicit(xs, gammas)
        for a, b in zip(li_py, li_np):
            assert abs(a - b) <= 4 * math.ulp(b)
        for a, b, li_x in zip(approx_py, approx_np, li_np):
            assert abs(a - b) <= bound(li_x)
