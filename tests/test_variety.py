import concurrent.futures
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motives import grid, variety
from motives.finite_field import (MAX_FIELD_SIZE, enumerate_elements, is_prime, make_field,
                                  multiplicative_generator)
from motives.grid import FieldTables
from motives.variety import (
    CountSequence,
    PolySystem,
    _pool_size,
    affine_count_sequence,
    count_affine,
    count_projective_space,
    count_projective_variety,
    format_poly,
    parse_poly_system,
)
from motives.weil import hasse_alpha, predict_affine_count, weil_numbers_from_counts

CURVE = parse_poly_system("y^2 + y - x^3 - x")

# counts of y^2 + y = x^3 + x over F_2..F_4096, the reference table
EXPECTED_CURVE_COUNTS = (4, 4, 4, 24, 24, 64, 144, 224, 544, 1024, 1984, 4224)


def naive_affine_count(system, f):
    """Oracle: scalar enumeration with FFElement arithmetic (no tables)."""
    els = list(enumerate_elements(f))
    count = 0
    for point in _tuples(els, system.num_vars):
        ok = True
        for poly in system.polys:
            val = f.zero()
            for exps, c in poly:
                term = f.element((c,))
                for xj, e in zip(point, exps):
                    if e:
                        term = term * xj ** e
                val = val + term
            if not val.is_zero():
                ok = False
                break
        if ok:
            count += 1
    return count


def _tuples(els, k):
    if k == 1:
        for e in els:
            yield (e,)
    else:
        for rest in _tuples(els, k - 1):
            for e in els:
                yield rest + (e,)


# ----------------------------------------------------------------------
# field tables

TABLE_FIELDS = [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                 53, 59, 61)
                for n in range(2, 13) if p ** n <= 2 ** 12]


@pytest.mark.parametrize("p,n", TABLE_FIELDS + [(2, 1), (3, 1), (13, 1), (101, 1)])
def test_field_tables_match_ffelement_arithmetic(p, n):
    f = make_field(p, n)
    tables = FieldTables(f)
    g = multiplicative_generator(f)
    powers, sums = [], []
    x = f.one()
    for _ in range(f.q - 1):  # x = g**k
        powers.append(x.index())
        sums.append((f.one() + x).index())
        x = x * g
    assert x == f.one()
    assert tables.exp.tolist() == powers + [0]
    assert tables.log[tables.exp].tolist() == list(range(f.q))
    assert tables.exp[tables.log].tolist() == list(range(f.q))
    assert tables.exp[tables.zech[:-1]].tolist() == sums
    # the kernel's element code: zero, add and logs, decoded through logs
    # alone; every log >= q - 1 (the grid's 2^29 included) is zero
    m, zero_log = f.q - 1, grid._ZERO_LOG
    assert tables.logs(np.array([tables.zero])).tolist() == [zero_log]
    rng = random.Random(p * 1000 + n)
    a = np.array([m, m, 0] + [rng.randrange(m + 1) for _ in range(97)], dtype=np.int32)
    b = np.array([m, 0, zero_log] + [rng.randrange(m + 1) for _ in range(97)], dtype=np.int32)
    b[rng.sample(range(3, 100), 10)] = zero_log

    def ids(codes):
        logs = tables.logs(codes)
        assert logs.dtype == np.int32 and logs.shape == codes.shape
        return [0 if k == zero_log else powers[k] for k in logs.tolist()]

    def element(k):
        return f.from_index(0 if k >= m else powers[k])

    acc = tables.add(None, a.copy())
    assert ids(acc) == [element(k).index() for k in a.tolist()]
    kept = acc.copy()
    assert ids(tables.add(acc, b.copy())) == [(element(j) + element(k)).index()
                                              for j, k in zip(a.tolist(), b.tolist())]
    assert np.array_equal(acc, kept)
    assert ids(tables.add(None, np.full(3, m, dtype=np.int32))) == [0, 0, 0]
    assert ids(tables.values([], [], 4)) == [0] * 4


def digit_matrix_tables(spec):
    """exp, log and zech by digit-matrix doubling, the build that the
    chunked lookups replaced: multiplication by g^b is an n x n matrix
    over F_p, row j the digits of g^b x^j, applied to the digit vectors
    of exp[0:b] to give exp[b:2b]."""
    p, n, q = spec.p, spec.n, spec.q
    powers = p ** np.arange(n, dtype=np.int64)
    modulus = np.array(spec.modulus, dtype=np.int64)
    exp = np.zeros(q, dtype=np.int32)
    exp[0] = 1
    g_b, b = np.array(multiplicative_generator(spec).coeffs, dtype=np.int64), 1
    mat = np.empty((n, n), dtype=np.int64)
    while b < q - 1:
        mat[0] = g_b
        for j in range(1, n):
            mat[j] = (np.append(0, mat[j - 1]) - mat[j - 1, -1] * modulus)[:n] % p
        rows = min(b, q - 1 - b)
        for s in range(0, rows, 1 << 14):
            t = min(s + (1 << 14), rows)
            exp[b + s:b + t] = exp[s:t, None] // powers % p @ mat % p @ powers
        g_b, b = g_b @ mat % p, 2 * b
    log = np.empty(q, dtype=np.int32)
    log[exp] = np.arange(q, dtype=np.int32)
    return exp, log, log[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]


# F_2053^2 (4.2 million elements) is the smallest field whose two chunks need
# lanes wider than 12 bits
@pytest.mark.parametrize("p,n", [(2, n) for n in range(13, 21)] + [(3, n) for n in range(8, 13)]
                         + [(5, 6), (5, 7), (5, 8), (7, 5), (7, 6), (7, 7), (2053, 2)])
def test_field_tables_match_digit_matrix_doubling(p, n):
    f = make_field(p, n)
    tables = FieldTables(f)
    exp, log, zech = digit_matrix_tables(f)
    assert np.array_equal(tables.exp, exp)
    assert np.array_equal(tables.log, log)
    assert np.array_equal(tables.zech, zech)


# ----------------------------------------------------------------------
# parsing

def test_parse_curve():
    assert CURVE.num_vars == 2
    assert dict((e, c) for e, c in CURVE.polys[0]) == {
        (0, 2): 1, (0, 1): 1, (3, 0): -1, (1, 0): -1}
    assert not CURVE.is_homogeneous()


def test_parse_indexed_variables_and_comments():
    sys2 = parse_poly_system("# a plane\nx1 + 2*x2 - x3\n\n# another\nx1^2")
    assert sys2.num_vars == 3
    assert len(sys2.polys) == 2


def test_parse_implicit_multiplication_and_repeats():
    a = parse_poly_system("3x^2y - x*x*y")
    assert dict(a.polys[0]) == {(2, 1): 2}


def test_parse_cancellation_and_zero():
    z = parse_poly_system("x - x")
    assert z.polys == ((),)
    z2 = parse_poly_system("0")
    assert z2.polys == ((),)


def test_parse_zero_exponents_merge_into_canonical_monomials():
    # x^0 is the monomial 1, so x^0 - 1 is the zero polynomial; the
    # variable it writes still counts toward num_vars
    assert parse_poly_system("x^0 - 1") == PolySystem(1, ((),))
    assert parse_poly_system("x3^0 - 1") == PolySystem(3, ((),))
    assert parse_poly_system("x*y^0 + 2x - z**0") == PolySystem(3, ((((0, 0, 0), -1), ((1, 0, 0), 3)),))
    f = make_field(2, 1)
    assert count_affine(parse_poly_system("x^0 - 1"), f) == 2


PARSE_REFUSALS = [  # one input per refusal and its whole message
    ("x + (y)", "cannot parse '(' in polynomial 'x + (y)'"),
    ("w^2 + (x)", "cannot parse '(' in polynomial 'w^2 + (x)'"),
    ("w^2 + x", "unknown variable 'w'"),
    ("x_1", "unknown variable 'x_1'"),
    ("x\u00b2", "unknown variable 'x\u00b2'"),
    ("x0 + 1", "bad variable 'x0'"),
    ("x ^ y", "missing exponent in 'x ^ y'"),
    ("x** + 1", "missing exponent in 'x** + 1'"),
    ("2^3", "misplaced token in '2^3'"),
    ("x^2^3", "misplaced token in 'x^2^3'"),
    ("x - -", "dangling sign in 'x - -'"),
    ("* + x", "empty term in '* + x'"),
    ("   ", "no polynomials in input"),
    ("x30 + 1", "variable 'x30' is past x29: no count in more than 29 variables fits the work limit"),
    ("y - x100000000000", "variable 'x100000000000' is past x29: no count in more than 29 "
                          "variables fits the work limit"),
]


@pytest.mark.parametrize("text, message", PARSE_REFUSALS,
                         ids=[t if t.strip() else "blank" for t, _ in PARSE_REFUSALS])
def test_parse_rejects_garbage(text, message):
    with pytest.raises(ValueError) as refused:
        parse_poly_system(text)
    assert str(refused.value) == message


@st.composite
def spelled_systems(draw):
    """A random system in k variables, its canonical PolySystem, and one
    random spelling: x, y, z or x1..xk, '*' or juxtaposition, '^' or '**'
    or repeated factors, spaces, runs of signs, extra x^0 factors."""
    k = draw(st.integers(1, 4))
    monomial = st.tuples(st.tuples(*[st.integers(0, 3)] * k), st.integers(-4, 4))
    polys = draw(st.lists(st.lists(monomial, max_size=4), min_size=1, max_size=3))
    canonical = []
    for terms in polys:
        merged = {}
        for e, c in terms:
            merged[e] = merged.get(e, 0) + c
        canonical.append(tuple(sorted(((e, c) for e, c in merged.items() if c),
                                      key=lambda m: [(j, e) for j, e in enumerate(m[0]) if e])))

    def name(j):
        return "xyz"[j] if k <= 3 and draw(st.booleans()) else f"x{j + 1}"

    def spell_term(e, c, first):
        factors = [str(abs(c))] if abs(c) != 1 or draw(st.booleans()) else []
        for j, ej in enumerate(e):
            if ej and draw(st.booleans()):
                factors += [name(j)] * ej
            elif ej or draw(st.integers(0, 3)) == 0:  # x^0 is the factor 1
                factors.append(name(j) + draw(st.sampled_from(["^", "**", " ^ "])) + str(ej))
        factors = draw(st.permutations(factors)) or ["1"]
        body = factors[0]
        for prev, f in zip(factors, factors[1:]):  # a name may touch a number before it
            body += draw(st.sampled_from(
                ["", " ", "*"] if prev.isdigit() and f[0].isalpha() else [" ", "*", " * "]))
            body += f
        minuses = (c < 0) + 2 * draw(st.integers(0, 1))
        signs = ["-"] * minuses + ["+"] * draw(st.integers(0 if first else int(not minuses), 2))
        return " ".join(draw(st.permutations(signs))) + draw(st.sampled_from(["", " "])) + body

    lines = []
    for terms in polys:
        terms = draw(st.permutations(terms))
        lines.append(" ".join(spell_term(e, c, i == 0) for i, (e, c) in enumerate(terms)) or "0")
    return PolySystem(k, tuple(canonical)), "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spelled_systems())
def test_every_spelling_parses_to_the_canonical_system(case):
    system, text = case
    # x_k^0 - 1 is zero, and names x_k, which sets the number of variables
    text += f" + x{system.num_vars}^0 - 1"
    assert parse_poly_system(text) == system, text


@pytest.mark.parametrize("text", ["*", "x + *", "-*", "y^2 + * - x"])
def test_parse_refuses_a_term_without_a_factor(text):
    # a lone '*' is no number or variable: it used to read as +-1
    with pytest.raises(ValueError, match="^empty term in "):
        parse_poly_system(text)


def test_variable_index_is_bounded_before_any_exponent_vector_is_built():
    # 29 variables already pass WORK_LIMIT over F_2, so x29 parses and is refused when counted
    assert variety.WORK_LIMIT.bit_length() == 29
    assert parse_poly_system("x29 + 1").num_vars == 29
    assert parse_poly_system("x0029 + 1").num_vars == 29
    with pytest.raises(ValueError, match="^search space too large$"):
        count_affine(parse_poly_system("x29 + 1"), make_field(2, 1))
    # an index past int()'s digit limit is refused by its length, leading zeros aside
    assert parse_poly_system("x" + "0" * 5000 + "2").num_vars == 2
    with pytest.raises(ValueError, match=r"^variable 'x9{5000}' is past x29: "):
        parse_poly_system("x" + "9" * 5000)


def test_parse_star_next_to_a_factor():
    assert dict(parse_poly_system("x*").polys[0]) == {(1,): 1}
    assert dict(parse_poly_system("* x").polys[0]) == {(1,): 1}
    assert dict(parse_poly_system("3*x*y").polys[0]) == {(1, 1): 3}
    assert dict(parse_poly_system("2 3 x").polys[0]) == {(1,): 6}


def test_format_round_trip():
    for text in ["y^2 + y - x^3 - x", "x1*x2 - 5*x3^4 + 7", "0"]:
        sys1 = parse_poly_system(text)
        names = [f"x{i + 1}" for i in range(sys1.num_vars)]
        assert parse_poly_system("\n".join(format_poly(poly, names) for poly in sys1.polys)) == sys1


@pytest.mark.parametrize("coeffs, text", [
    ((1, 2, 2), "1 + 2*t + 2*t^2"), ((1, 1, 0), "1 + t"), ((0, -1, 0, 5), "-t + 5*t^3"),
    ((-3,), "-3"), ((0, 0, -1), "-t^2"), ((0, 0), "0"),
])
def test_format_poly_in_named_variables(coeffs, text):
    # the zeta display's numerator: one variable t, zero terms left out
    assert format_poly([((j,), c) for j, c in enumerate(coeffs) if c], ("t",)) == text


def test_homogeneity_detection():
    assert parse_poly_system("y^2*z + y*z^2 - x^3 - x*z^2").is_homogeneous()
    assert parse_poly_system("x + y").is_homogeneous()
    assert not parse_poly_system("x^2 + y").is_homogeneous()


# ----------------------------------------------------------------------
# affine counting

def test_curve_counts_first_rows():
    for n, want in [(1, 4), (4, 24)]:
        assert count_affine(CURVE, make_field(2, n)) == want


def test_curve_count_full_table_separable():
    seq = affine_count_sequence(CURVE, 2, 12, method="separable")
    assert seq.counts == EXPECTED_CURVE_COUNTS


def test_zero_polynomial_counts_whole_plane():
    z = parse_poly_system("0")
    z = PolySystem(2, z.polys)
    for p, n in [(2, 2), (3, 1), (5, 1)]:
        f = make_field(p, n)
        assert count_affine(z, f) == f.q ** 2


def test_product_separable_and_oracle_agree():
    systems = [
        CURVE,
        parse_poly_system("y^2 - x^3 - x - 1"),
        parse_poly_system("y^3 + 2y - x^2 - 3"),
    ]
    for f in [make_field(2, 2), make_field(3, 2), make_field(5, 1), make_field(7, 1)]:
        for sys_ in systems:
            a = count_affine(sys_, f, method="product")
            b = count_affine(sys_, f, method="separable")
            c = naive_affine_count(sys_, f)
            assert a == b == c


def test_nonseparable_system_counts():
    mixed = parse_poly_system("x*y - 1")
    for p in (3, 5, 7):
        f = make_field(p, 1)
        assert count_affine(mixed, f) == p - 1  # y = 1/x for x != 0
        assert count_affine(mixed, f) == naive_affine_count(mixed, f)
    with pytest.raises(ValueError, match="not separable"):
        count_affine(mixed, make_field(3, 1), method="separable")


def test_multi_equation_system():
    two = parse_poly_system("x + y\nx - y")
    f5 = make_field(5, 1)
    # x = y and x = -y forces x = y = 0
    assert count_affine(two, f5) == 1
    assert count_affine(two, f5) == naive_affine_count(two, f5)


def test_three_variables():
    sphere = parse_poly_system("x^2 + y^2 + z^2 - 1")
    f = make_field(3, 1)
    assert count_affine(sphere, f) == naive_affine_count(sphere, f)


def test_count_invariance_under_permutation_and_unit_scaling():
    rng = random.Random(99)
    base = parse_poly_system("y^2 + y - x^3 - x\nx*y - 2")
    f = make_field(5, 1)
    want = count_affine(base, f)
    permuted = PolySystem(2, tuple(reversed(base.polys)))
    assert count_affine(permuted, f) == want
    for _ in range(5):
        u = rng.choice([1, 2, 3, 4, 6, 7, 8, 9])  # coprime to 5
        scaled = PolySystem(2, (tuple((e, c * u) for e, c in base.polys[0]),
                                base.polys[1]))
        assert count_affine(scaled, f) == want


@pytest.fixture()
def pools(monkeypatch):
    """Pools started, as {"made": [workers per pool], "fields": {(p, n) counted
    by a pool}}, on a 4-CPU machine; the pool threshold is left to the test."""
    log = {"made": [], "fields": set()}

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["made"].append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def map(self, fn, payloads):
            payloads = list(payloads)
            spec = payloads[0][1]
            log["fields"].add((spec.p, spec.n))
            return super().map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return log


def test_parallel_matches_serial(pools, monkeypatch):
    f = make_field(2, 7)  # 20 orbit rows of 128 columns, in 7 tiles of 3 rows
    serial = count_affine(CURVE, f, method="product", chunk_size=400)
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 1)
    for w in (2, 4):
        assert count_affine(CURVE, f, method="product", workers=w,
                            chunk_size=400) == serial
    assert pools["made"] == [2, 4]


def test_workers_match_serial_with_row_terms(pools, monkeypatch):
    # odd p, an xy term (per-tuple Zech adds), tiles of a few rows each
    mixed = parse_poly_system("y^2 + x*y + 2*y - x^3 - x^2 - 2*x - 1")
    f = make_field(3, 5)
    serial = count_affine(mixed, f, method="product", chunk_size=1000)
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 1)
    assert count_affine(mixed, f, method="product", workers=2, chunk_size=1000) == serial
    assert pools["made"] == [2]
    assert serial == predict_affine_count(hasse_alpha(3, count_affine(mixed, make_field(3, 1))), 5)


def test_one_pool_per_pooled_field(pools, monkeypatch):
    # F_2^10 has 108 * 2^10 = 110,592 tuples, past 2^16; F_2^9, 60 * 2^9 =
    # 30,720, is counted serially.  Each pooled field starts its own pool
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 2 ** 16)
    seq = affine_count_sequence(CURVE, 2, 12, method="product", workers=2)
    assert seq.counts == EXPECTED_CURVE_COUNTS
    assert pools["made"] == [2, 2, 2]
    assert pools["fields"] == {(2, 10), (2, 11), (2, 12)}


def test_no_sequence_has_two_fields_in_the_pool_band():
    # each field pools alone: a field's product charge is more than twice the
    # last one's, so no count sequence has two fields with a charge in
    # [POOL_MIN_TUPLES, WORK_LIMIT], for any prime p < 2^14, k = 2..7 and
    # q = p^n <= 2^26.  A lower threshold (say, for odd p) must revisit this
    charge = variety.PLANS["product"].charge
    for p in filter(is_prime, range(2, 2 ** 14)):
        for k in range(2, 8):
            qs = [p ** n for n in range(1, 27) if p ** n <= 2 ** 26]
            band = [q for q in qs if variety.POOL_MIN_TUPLES <= charge(q, k) <= variety.WORK_LIMIT]
            assert len(band) <= 1, (p, k, band)


def test_pool_starts_at_the_threshold_field(pools, monkeypatch):
    # the product grid enumerates one row per Frobenius orbit: F_2^12 has
    # 352 * 2^12 = 1,441,792 tuples, past 2^20; F_2^11, with 188 * 2^11 =
    # 385,024, is counted serially
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 2 ** 20)
    seq = affine_count_sequence(CURVE, 2, 12, method="product")
    assert seq.counts == EXPECTED_CURVE_COUNTS
    assert pools["made"] == [4]
    assert pools["fields"] == {(2, 12)}


def test_pool_is_off_below_the_threshold(pools):
    # at the default threshold, 2^27 tuples, the golden sequence to F_2^12
    # (2^24) is counted serially, whatever the cap
    for w in (None, 4):
        seq = affine_count_sequence(CURVE, 2, 12, method="product", workers=w)
        assert seq.counts == EXPECTED_CURVE_COUNTS
    assert pools["made"] == []


def test_workers_below_one_rejected():
    # and chunk sizes below one, which counted 0 points on the tiles or divided by zero
    for method in ("fibre", "separable", "product"):
        for w in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                count_affine(CURVE, make_field(2, 2), method=method, workers=w)
        for chunk_size in (0, -1, -5):
            with pytest.raises(ValueError, match="chunk_size must be >= 1"):
                count_affine(CURVE, make_field(2, 4), method=method, chunk_size=chunk_size)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method 'fast'"):
        count_affine(CURVE, make_field(2, 2), method="fast")
    with pytest.raises(ValueError, match="unknown method 'fast'"):
        affine_count_sequence(CURVE, 2, 3, method="fast")


def test_pool_size_clamps_to_chunks_and_cpus(monkeypatch):
    # only the pure clamp is exercised: no pool of this size is ever started
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _pool_size(None, 10 ** 9) == 2
    assert _pool_size(None, 1) == 1
    assert _pool_size(10 ** 12, 10 ** 9) == 2
    assert _pool_size(10 ** 12, 1) == 1
    assert _pool_size(1, 10 ** 9) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(10 ** 12, 10 ** 9) == 1


def test_separable_count_at_2_20_within_memory_budget():
    # The int32 exp and log tables take 8 bytes per element.  The count's
    # working arrays stay under ten int32-sized ones at any moment: the
    # element logs, the term being formed, the running sum, and the int64
    # histograms with the int64 copy np.bincount makes of its input.
    budget_per_element = 8 + 10 * 4
    f = make_field(2, 20)
    tracemalloc.start()
    try:
        got = count_affine(CURVE, f, method="separable")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == predict_affine_count(hasse_alpha(2, EXPECTED_CURVE_COUNTS[0]), 20)
    assert peak < budget_per_element * f.q, peak / f.q


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12)])
def test_join_peak_warm_within_12_bytes_per_element(p, n):
    # with the field's tables built, the join holds one int64 histogram of
    # q entries and temporaries of at most 2^14 elements
    f = make_field(p, n)
    count_affine(CURVE, f, method="separable")
    tracemalloc.start()
    try:
        got = count_affine(CURVE, f, method="separable")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == predict_affine_count(hasse_alpha(p, count_affine(CURVE, make_field(p, 1))), n)
    assert peak < 12 * f.q, peak / f.q


def test_sphere_joins_past_the_product_limit():
    # 188 * 2^22 = 788,529,152 tuples on the product grid's orbit rows,
    # 2^22 + 2^11 for the join; in characteristic 2 the sphere is the
    # plane x + y + z = 1
    sphere = parse_poly_system("x^2 + y^2 + z^2 - 1")
    f = make_field(2, 11)
    assert count_affine(sphere, f) == count_affine(sphere, f, method="separable") == f.q ** 2
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(sphere, f, method="product")


def test_join_charges_rows_plus_columns(monkeypatch):
    sphere = parse_poly_system("x^2 + y^2 + z^2 - 1")
    f = make_field(2, 4)
    monkeypatch.setattr(variety, "WORK_LIMIT", f.q ** 2 + f.q)
    assert count_affine(sphere, f, method="separable") == f.q ** 2
    monkeypatch.setattr(variety, "WORK_LIMIT", f.q ** 2 + f.q - 1)
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(sphere, f, method="separable")


def test_join_without_column_terms_spans_every_column_slice():
    # no y at all: each of the q = 2^15 columns, two slices of 2^14, matches
    # the rows where x^3 + x + 1 = 0, the three roots of its F_8 factor
    cubic = parse_poly_system("x^3 + x + y^0")
    f = make_field(2, 15)
    assert count_affine(cubic, f) == 3 * f.q


def test_join_starts_no_pool(pools, monkeypatch):
    monkeypatch.setattr(variety, "POOL_MIN_TUPLES", 1)
    for method in ("separable", "auto"):
        for w in (None, 1, 2, 8):
            seq = affine_count_sequence(CURVE, 2, 12, method=method, workers=w)
            assert seq.counts == EXPECTED_CURVE_COUNTS
    assert pools["made"] == []


def test_sequence_refused_before_any_field_is_counted(monkeypatch):
    # the product grid's charge passes 2^28 at F_5^7: the whole sequence is
    # charged for F_5^8 first (the fibre plan's 5^8 rows fit)
    built = []
    monkeypatch.setattr(grid, "_Grid", lambda *args: built.append(args))
    genus2 = parse_poly_system("y^2 + x*y - x^5 - x - 1")
    with pytest.raises(ValueError, match="search space too large"):
        affine_count_sequence(genus2, 5, 8, method="product")
    assert built == []


def test_product_count_one_variable_at_2_20_within_memory_budget():
    # one row of q columns, sliced into 2^14-column tiles: the kernel's
    # temporaries stay within a few tiles (the field's tables, 8 MB, are
    # built before tracing)
    f = make_field(2, 20)
    line = parse_poly_system("x^5 + x + 1")
    count_affine(line, f, method="product")
    tracemalloc.start()
    try:
        got = count_affine(line, f, method="product")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x^5 + x + 1 = (x^2 + x + 1)(x^3 + x^2 + 1): F_2^20 holds the roots in F_4, not F_8
    assert got == 2
    assert peak < 2 ** 20, peak


def test_large_exponents_count_exactly():
    # x^e depends only on e mod q - 1, and e * log x passes 2^31 here.
    # x -> x^-1 permutes F_q, so y^3 = x^-1 has one point per y; 3 | q - 1
    # makes the count sensitive to a wrong log.
    f = make_field(2, 18)
    m = f.q - 1
    for e in (m - 1, m - 1 + 2 ** 70 * m):
        system = PolySystem(2, ((((0, 3), 1), ((e, 0), -1)),))
        assert count_affine(system, f, method="separable") == f.q


def test_work_limit_enforced(monkeypatch):
    f = make_field(2, 10)
    monkeypatch.setattr(variety, "WORK_LIMIT", 1000)
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(CURVE, f, method="product")
    monkeypatch.setattr(variety, "WORK_LIMIT", 100)
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(CURVE, f, method="separable")


PROPERTY_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]  # F_4 .. F_27


@st.composite
def small_systems(draw):
    """Random systems over small extension fields, mixed monomials included;
    single equations whose last variable separates, g(x') = h(y); and
    single equations c2 y^2 + c1(x') y + c0(x') with c2 a constant
    nonzero mod p, whose c1 may involve x'.

    Three variables are drawn only over q <= 9, so the scalar oracle sees at
    most 729 tuples."""
    p, n = draw(st.sampled_from(PROPERTY_FIELDS))
    k = draw(st.integers(1, 3 if p ** n <= 9 else 2))
    shape = draw(st.sampled_from(["mixed", "separable", "quadratic"]))
    monomial = st.tuples(st.tuples(*[st.integers(0, 4)] * k), st.integers(-6, 6))
    polys = []
    for _ in range(draw(st.integers(1, 2)) if shape == "mixed" else 1):
        terms = draw(st.lists(monomial, min_size=1, max_size=4))
        if shape == "separable":  # a monomial in y carries no other variable
            terms = [(((0,) * (k - 1) + e[-1:]) if e[-1] else e, c) for e, c in terms]
        if shape == "quadratic":  # y^0 and y^1, a c1 term, one constant c2 y^2
            c2 = draw(st.integers(-6, 6).filter(lambda c: c % p))
            e, c1 = draw(monomial)
            terms = [((*e[:-1], min(e[-1], 1)), c) for e, c in terms + [((*e[:-1], 1), c1)]]
            terms.append(((0,) * (k - 1) + (2,), c2))
        polys.append(tuple(terms))
    return PolySystem(k, tuple(polys)), make_field(p, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems())
def test_product_and_separable_match_oracle_on_random_systems(case):
    # every plan in the table that applies counts what the oracle counts;
    # every other one refuses the system by its name
    system, f = case
    product = count_affine(system, f, method="product", chunk_size=97)
    assert product == naive_affine_count(system, f)
    assert product == _unreduced_count(system, f, 97)
    assert count_affine(system, f, method="auto") == product
    polys = [variety._group_by_last(poly, f.p) for poly in system.polys]
    for name, plan in variety.PLANS.items():
        if plan.applies(polys):
            assert count_affine(system, f, method=name) == product, name
        else:
            with pytest.raises(ValueError, match=f"^system is not {name}$"):
                count_affine(system, f, method=name)
    if variety.PLANS["separable"].applies(polys):  # the join weighs orbit rows too
        first = variety._frobenius_orbits(f.p, f.n) if system.num_vars > 1 else None
        assert grid._Grid(system, f, 97, first).join() == product
    if variety.PLANS["fibre"].applies(polys):  # both kernels of odd p; row batches of 7 rows
        assert _python_fibre(system, f) == product
        if f.p > 2:
            assert grid._Grid(system, f, 7).fibre() == product
    # a row term: some y^j, j > 0, whose coefficient mod p involves x'
    keeps_row_term = len(system.polys) > 1 or any(
        c % f.p and e[-1] and any(e[:-1]) for e, c in system.polys[0])
    assert variety.PLANS["separable"].applies(polys) == (not keeps_row_term)


_STUB_PROBE = """import sys
from motives import variety
from motives.finite_field import make_field

stub = variety.Plan(lambda polys: True, lambda q, k: q, lambda system, spec, *_: 7)
variety.PLANS = {"stub": stub, **variety.PLANS}
print(variety.count_affine(variety.parse_poly_system("x - y"), make_field(3, 1)),
      "motives.grid" in sys.modules, "numpy" in sys.modules)
"""


def test_a_plan_in_the_table_is_reached_by_name_and_by_auto_in_order(monkeypatch, tmp_path):
    # a plan is one entry of PLANS: its test, its charge and its count, which
    # takes the system and the field and picks its own kernel
    seen = []
    stub = variety.Plan(lambda polys: len(polys) == 2, lambda q, k: q,
                        lambda system, spec, *_: seen.append((system, spec)) or 7)
    plans = variety.PLANS
    two, f = parse_poly_system("x - y\nx + y"), make_field(3, 1)
    monkeypatch.setattr(variety, "PLANS", {"stub": stub, **plans})
    assert count_affine(two, f, method="stub") == 7
    assert count_affine(two, f) == 7  # auto: the first entry that applies
    assert count_affine(CURVE, make_field(2, 3)) == EXPECTED_CURVE_COUNTS[2]
    with pytest.raises(ValueError, match="^system is not stub$"):
        count_affine(CURVE, f, method="stub")
    monkeypatch.setattr(variety, "WORK_LIMIT", f.q - 1)  # the stub's own charge
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(two, f, method="stub")
    assert seen == [(two, f)] * 2
    monkeypatch.setattr(variety, "WORK_LIMIT", 2 ** 28)
    monkeypatch.setattr(variety, "PLANS", {**plans, "stub": stub})
    assert count_affine(two, f) == 1  # the product grid comes first now: x = y = 0
    assert count_affine(two, f, method="stub") == 7
    assert seen == [(two, f)] * 3
    # a kernel without tables is an entry too: no plan is handed a grid
    env = dict(os.environ, PYTHONPATH=str(Path(variety.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _STUB_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "7 False False\n")


# ----------------------------------------------------------------------
# the fibre plan: c2 y^2 + c1(x') y + c0(x'), one row at a time

def _python_fibre(system, f):
    """The fibre count without numpy: planes for p = 2 and 3, codes for p >= 5."""
    return (variety._plane_count if f.p <= 3 else variety._fibre_count)(system, f)


@pytest.mark.parametrize("text, fields", [
    # p = 2, c1 = 0 on the rows x = 0 (and x = 1): one solution there
    ("y^2 + x*y + x^3 + 1", [(2, n) for n in range(1, 7)]),
    ("y^2 + x^2*y + x*y + x^5 + x", [(2, n) for n in range(1, 7)]),
    ("y^2 - x^3 - 1", [(2, 3), (2, 4)]),  # c1 = 0 on every row
    # odd p, zero discriminants: (y + x)^2 on every row, y^2 = x^2 at x = 0,
    # 4 c2 c0 = c1^2 at the roots of x^3 - 1
    ("y^2 + 2*x*y + x^2", [(3, 1), (3, 2), (5, 2), (7, 1), (3, 3)]),
    ("y^2 - x^2", [(3, 2), (5, 1), (5, 2), (7, 2)]),
    ("3*y^2 + 2*x*y + x^3 - 1", [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]),
    # surfaces: k = 3, c1 = xy vanishing on whole rows
    ("z^2 + x*y*z + x^3 - y", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    ("2*z^2 + x*z + y^2 - x - 1", [(3, 2), (5, 1), (7, 1)]),
])
def test_fibre_counts_match_the_product_grid(text, fields):
    system = parse_poly_system(text)
    for p, n in fields:
        assert variety.PLANS["fibre"].applies([variety._group_by_last(system.polys[0], p)])
        f = make_field(p, n)
        want = _unreduced_count(system, f, 1 << 14)
        if f.q ** system.num_vars <= 729:
            assert want == naive_affine_count(system, f), (text, p, n)
        if p <= 3:  # bit and digit planes
            assert variety._plane_count(system, f) == want, (text, p, n)
        if p > 2:  # the arrays count odd p only
            for chunk_size in (1, 7, 1 << 14):
                got = grid._Grid(system, f, chunk_size).fibre()
                assert got == want, (text, p, n, chunk_size)
        assert count_affine(system, f, method="fibre") == count_affine(system, f) == want


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("c1", ["zero", "constant", "row"])
def test_both_fibre_kernels_match_the_every_row_grid(p, n, k, c1):
    # random c2 y^2 + c1 y + c0(x'), the c1 term zero, constant or in x'
    rng = random.Random(f"{p} {n} {k} {c1}")
    f = make_field(p, n)
    for _ in range(4):
        terms = [(tuple(rng.randrange(5) for _ in range(k - 1)) + (0,), rng.randint(-6, 6))
                 for _ in range(rng.randint(0, 3))]
        if c1 != "zero":
            row = [0] * (k - 1)
            if c1 == "row":
                row[rng.randrange(k - 1)] = rng.randint(1, 4)
            terms.append((tuple(row) + (1,), rng.choice([c for c in range(1, 7) if c % p])))
        terms.append(((0,) * (k - 1) + (2,), rng.choice([c for c in range(-6, 7) if c % p])))
        system = PolySystem(k, (tuple(terms),))
        polys = [variety._group_by_last(system.polys[0], p)]
        assert variety.PLANS["fibre"].applies(polys)
        assert bool(polys[0][2]) == (c1 == "row")
        want = _unreduced_count(system, f, 97)
        assert _python_fibre(system, f) == want, terms
        if p > 2:  # the arrays; p = 2 counts on bit planes alone
            assert grid._Grid(system, f, 7).fibre() == want, terms


def test_python_exp_is_the_array_exp():
    # g^k for every log k, as an element, in every field of odd p < 300 the
    # codes kernel counts: a code's lanes are the element's digits
    fields = [(p, n) for p in range(3, 300) if is_prime(p) for n in range(1, 15)
              if p ** n <= variety.ARRAY_MIN_CHARGE]
    assert len(fields) == 109
    for p, n in fields:
        f = make_field(p, n)
        exp, _ = variety._exp_codes(f)
        w = (2 * p - 2).bit_length()
        digits = [[code >> w * j & (1 << w) - 1 for j in range(n)] for code in exp]
        assert all(d < p for row in digits for d in row), (p, n)
        ids = [sum(d * p ** j for j, d in enumerate(row)) for row in digits]
        assert ids == FieldTables(f).exp.tolist(), (p, n)


def _random_fibre_p2(rng, k, c1):
    """y^2 + c1 y + c0 in k variables over F_2, the last one y: c0 up to
    four monomials in x', c1 zero, one or a sum of up to three monomials,
    one at least in x'.  Exponents reach 9, past q - 1 on the smallest
    fields, where planes bring them into 1..q - 1."""
    def monomial(last, free=True):
        exps = [rng.randrange(10) for _ in range(k - 1)]
        if not free and not any(exps):
            exps[rng.randrange(k - 1)] = rng.randint(1, 9)
        return tuple(exps) + (last,), rng.choice([-3, -1, 1, 3, 5])

    terms = [monomial(0) for _ in range(rng.randint(0, 4))] + [((0,) * (k - 1) + (2,), 1)]
    if c1 == "constant":
        terms.append(((0,) * (k - 1) + (1,), rng.choice([-1, 1, 3])))
    if c1 == "row":
        terms += [monomial(1, free=False)] + [monomial(1) for _ in range(rng.randint(0, 2))]
    return PolySystem(k, (tuple(terms),))


@pytest.mark.parametrize("n, block", [(n, variety.PLANE_BLOCK_ROWS) for n in range(1, 9)]
                         + [(n, 4) for n in range(1, 9)],
                         ids=[f"{n}" for n in range(1, 9)] + [f"{n}-block4" for n in range(1, 9)])
def test_bit_planes_match_the_every_row_grid(n, block, monkeypatch):
    # every k = 1, 2, 3 whose grid over F_2^n has at most 2^16 tuples, with
    # c1 zero, constant or in the row variables (k > 1); in one block of
    # rows, and in blocks of 4 rows, so that the k = 2 and k = 3 systems
    # span many blocks, whose high row bits are constant planes
    monkeypatch.setattr(variety, "PLANE_BLOCK_ROWS", block)
    f, rng = make_field(2, n), random.Random(n)
    cases = 0
    for k in (1, 2, 3):
        if f.q ** k > 2 ** 16:
            continue
        for c1 in ("zero", "constant", "row")[:2 if k == 1 else 3]:
            for _ in range(4):
                system = _random_fibre_p2(rng, k, c1)
                polys = [variety._group_by_last(system.polys[0], 2)]
                assert variety.PLANS["fibre"].applies(polys)
                want = _unreduced_count(system, f, 1 << 12)
                assert variety._plane_count(system, f) == want, (n, system)
                cases += 1
    assert cases == {1: 32, 2: 32, 3: 32, 4: 32, 5: 32, 6: 20, 7: 20, 8: 20}[n]


@pytest.mark.parametrize("text, genus, top", [("y^2 + y - x^3 - x", 1, 26),
                                              ("y^2 + x*y + y - x^3 - x^2 - x", 1, 22),
                                              ("y^2 + y - x^5", 2, 22)],
                         ids=["y^2 + y - x^3 - x", "y^2 + x*y + y - x^3 - x^2 - x",
                              "y^2 + y - x^5"])
def test_bit_planes_match_weils_prediction(text, genus, top):
    # the golden curve (c1 = 1) to F_2^26, the xy curve (c1 = x + 1) and
    # genus 2 to F_2^22, past one block of PLANE_BLOCK_ROWS rows from F_2^17
    # on: every count is the one Weil's polynomial predicts from N_1, or from
    # N_1 and N_2 for genus 2; each curve has one point at infinity
    assert 2 ** top > variety.PLANE_BLOCK_ROWS
    system = parse_poly_system(text)
    counts = [variety._plane_count(system, make_field(2, n)) for n in range(1, top + 1)]
    first = CountSequence(2, tuple(c + 1 for c in counts[:genus]), projective_flag=True)
    weil = weil_numbers_from_counts(2, genus, first)
    assert counts == [weil.predict_projective_count(n) - 1 for n in range(1, top + 1)]


def _digits_by_row(planes, rows):
    """Each row's digits of an element held as (h, l) digit planes."""
    assert not any(h & l for h, l in planes)
    return [tuple(2 * (h >> r & 1) + (l >> r & 1) for h, l in planes) for r in range(rows)]


def test_digit_plane_add_and_product_truth_tables():
    # nine rows hold the nine pairs (x, y) of F_3, x the row's digit 1 and y
    # its digit 0; one add, product and negation acts on all nine
    planes = variety._DigitPlanes(make_field(3, 1), {2: 1}, 9)
    x, y = [planes.row_digit(1)], [planes.row_digit(0)]
    pairs = [divmod(r, 3) for r in range(9)]
    assert _digits_by_row(x, 9) == [(a,) for a, _ in pairs]
    assert _digits_by_row(y, 9) == [(b,) for _, b in pairs]
    assert _digits_by_row(planes.add(x, y), 9) == [((a + b) % 3,) for a, b in pairs]
    assert _digits_by_row(planes.mul(x, y), 9) == [(a * b % 3,) for a, b in pairs]
    assert _digits_by_row(planes.scale(y, -1), 9) == [(-b % 3,) for _, b in pairs]


@pytest.mark.parametrize("n", range(1, 7))
def test_digit_plane_norm_is_the_quadratic_character(n):
    # row r holds the element of index r, so the planes hold all of F_3^n:
    # products, powers, the Frobenius and the norm chain against FFElement
    # powers; N(a) = a^((q - 1)/2), 0 or +-1 in F_3, is chi(a)
    f = make_field(3, n)
    planes = variety._DigitPlanes(f, {2: 1}, f.q)
    a = [planes.row_digit(b) for b in range(n)]
    els = [f.from_index(r) for r in range(f.q)]
    assert _digits_by_row(a, f.q) == [e.coeffs for e in els]
    frob = planes.frobenius(a)
    assert _digits_by_row(planes.mul(a, frob), f.q) == [(e ** 4).coeffs for e in els]
    for e in (2, 5, 7, f.q + 1):
        assert _digits_by_row(planes.power(a, e), f.q) == [(x ** e).coeffs for x in els], e
    for b in range(1, n + 1):
        assert _digits_by_row(planes.frobenius(a, b), f.q) == [(e ** 3 ** b).coeffs for e in els]
    norms = [(e ** ((f.q - 1) // 2)).coeffs for e in els]
    assert set(norms) == {(d,) + (0,) * (n - 1) for d in range(3)}
    assert _digits_by_row(planes.chain(a, n), f.q) == norms


@pytest.mark.parametrize("text, top", [("y^2 + y - x^3 - x", 6),
                                       ("y^2 + x*y + y - x^3 - x^2 - x", 6),
                                       ("2*z^2 + x*y*z + x^3 - y", 4)])
def test_digit_planes_across_blocks_of_nine_rows(text, top, monkeypatch):
    # blocks of 9 rows, so every row digit past the second is a constant
    # plane, as on blocks of 3^10 rows past F_3^10: the golden curve, the
    # xy curve (c1 in x) and a surface with c2 = 2 and c1 = xy, against the
    # arrays
    system = parse_poly_system(text)
    fields = [make_field(3, n) for n in range(1, top + 1)]
    want = [grid._Grid(system, f, 1 << 14).fibre() for f in fields]
    monkeypatch.setattr(variety, "PLANE_BLOCK_ROWS", 9)
    assert [variety._plane_count(system, f) for f in fields] == want


@pytest.mark.parametrize("text", ["y^2 + y - x^3 - x", "y^2 + x*y + y - x^3 - x^2 - x"])
def test_digit_planes_match_the_arrays_to_f_3_12(text):
    # one block of 3^10 rows at F_3^10, three at F_3^11 and nine at F_3^12
    system = parse_poly_system(text)
    for n in (10, 11, 12):
        f = make_field(3, n)
        assert variety._plane_count(system, f) == grid._Grid(system, f, 1 << 14).fibre(), n


def test_a_norm_outside_f_3_is_refused(monkeypatch):
    # the norm's digits past the first must be zero; a chain that gives x
    # is an internal error, naming the field
    monkeypatch.setattr(variety._DigitPlanes, "chain", lambda self, d, m: [(0, 0), (0, 1)])
    with pytest.raises(AssertionError, match=r"^internal error: a norm from F_3\^2 is not in F_3$"):
        variety._plane_count(CURVE, make_field(3, 2))


def _refuse(*args, **kwargs):
    raise AssertionError("counted by the wrong kernel")


def test_one_variable_over_f_2_26_counts_on_one_row_of_planes(monkeypatch):
    # x^2 + x + 1 has its two roots in F_4, so in F_2^n for even n only; one
    # row of planes a field, no field table even with numpy loaded
    monkeypatch.setattr(grid, "_Grid", _refuse)
    line = parse_poly_system("x^2 + x + 1")
    assert affine_count_sequence(line, 2, 26).counts == tuple(
        2 if n % 2 == 0 else 0 for n in range(1, 27))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_one_variable_quadratic_by_eulers_criterion(p, monkeypatch):
    # c2 x^2 + c1 x + c0: the one row's discriminant d lies in F_p, so the
    # count over F_p^n is 1 + chi_p(d)^n, here against the scalar oracle
    # and the every-row grid; numpy loaded or not, no grid is built
    rng = random.Random(p)
    for _ in range(8):
        c0, c1 = rng.randint(-6, 6), rng.randint(-6, 6)
        c2 = rng.choice([c for c in range(-6, 7) if c % p])
        system = PolySystem(1, (tuple(((e,), c) for e, c in ((0, c0), (1, c1), (2, c2)) if c),))
        for n in range(1, 5):
            f = make_field(p, n)
            want = naive_affine_count(system, f)
            assert _unreduced_count(system, f, 97) == want
            assert variety._fibre_count(system, f) == want, (system, n)
            with monkeypatch.context() as m:
                m.setattr(grid, "_Grid", _refuse)
                assert count_affine(system, f) == want


_NO_TABLES_PROBE = """\
import sys
from pathlib import Path
from motives.cli import main

Path("poly.txt").write_text(sys.argv[1] + "\\n")
main(["count", "--poly", "poly.txt", "--p", sys.argv[2], "--n-max", sys.argv[3],
      "--format", "csv"])
with open("/proc/self/status") as f:  # VmHWM: this process's peak resident set, in kB
    peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print("numpy" in sys.modules, peak < 48 * 1024)
"""


@pytest.mark.parametrize("text, p, n, points", [("x^2 + 1", 3, 16, 2), ("x^2 + 1", 5, 11, 2),
                                                ("y^2 + y - x^3 - x", 2, 26, 2 ** 26),
                                                ("y^2 + y - x^3 - x", 3, 12, 529983)],
                         ids=["3-16", "5-11", "2-26", "3-12"])
def test_one_variable_counts_build_no_field_tables(tmp_path, text, p, n, points):
    # x^2 + 1 over F_3^16 (43 million elements) and F_5^11 (49 million): -1
    # is a square in F_5 and in F_3^n for even n, so both have two roots; the
    # golden curve to F_2^26, on bit planes in blocks of PLANE_BLOCK_ROWS
    # rows, and to F_3^12, on digit planes in blocks of 3^10 rows.  No numpy,
    # and a peak resident set under 48 MB, where the field tables took over
    # 500 MB (285 MB for the golden curve to F_2^26, 35 MB to F_3^12)
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc")
    env = dict(os.environ, PYTHONPATH=str(Path(variety.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _NO_TABLES_PROBE, text, str(p), str(n)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    *_, last, probe = done.stdout.splitlines()
    assert last == f"{n},{p ** n},{points}"
    assert probe == "False True"


_BOUNDARY_PROBE = """import sys
from motives import variety
from motives.finite_field import make_field

p, n, top = map(int, sys.argv[1:])
curve = variety.parse_poly_system("y^2 + y - x^3 - x")
sphere = variety.parse_poly_system("x^2 + y^2 + z^2 - 1")
line = variety.parse_poly_system("x^2 + 1")
print(variety.affine_count_sequence(curve, p, n).counts[-1],
      variety.count_affine(sphere, make_field(p, n // 2)),
      variety.affine_count_sequence(line, p, top).counts[-1],
      "numpy" in sys.modules)
print(variety.affine_count_sequence(curve, p, n + 1).counts[-1], "numpy" in sys.modules)
"""


@pytest.mark.parametrize("p", [3, 5])
def test_the_largest_charge_decides_whether_numpy_loads(tmp_path, p):
    # the fibre plan counts p = 3 on digit planes while its rows, q^(k - 1)
    # over the largest field, are at most DIGIT_PLANE_MAX_CHARGE, and p = 5
    # through codes while they are at most ARRAY_MIN_CHARGE.  The curve to
    # the last field within the bound (F_3^12, F_5^6), the sphere at the same
    # charge (F_3^6, F_5^3) and one variable over the largest field p has
    # (F_3^16, F_5^11) run in pure Python; one field more loads numpy.  p = 2
    # counts on bit planes at every charge
    n, top = {3: (12, 16), 5: (6, 11)}[p]
    bound = variety.DIGIT_PLANE_MAX_CHARGE if p == 3 else variety.ARRAY_MIN_CHARGE
    assert p ** n <= bound < p ** (n + 1)
    assert p ** top <= MAX_FIELD_SIZE < p ** (top + 1)
    assert variety.PLANS["fibre"].charge(p ** (n // 2), 3) == p ** n
    assert variety.PLANS["fibre"].charge(p ** top, 1) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(variety.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _BOUNDARY_PROBE, str(p), str(n), str(top)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    golden = hasse_alpha(p, count_affine(CURVE, make_field(p, 1)))
    # x^2 + y^2 + z^2 = 1: q^2 + q chi(-1), and -1 is a square in F_3^6 and F_5
    sphere = p ** n + p ** (n // 2)
    assert done.stdout == (f"{predict_affine_count(golden, n)} {sphere} 2 False\n"
                           f"{predict_affine_count(golden, n + 1)} True\n")


def test_numpy_loaded_or_not_the_fibre_kernel_follows_from_the_charge(monkeypatch):
    # numpy is loaded here, and each count takes the kernel a fresh process
    # takes: p = 3 in two variables the digit planes while the rows over the
    # largest field are at most DIGIT_PLANE_MAX_CHARGE (the golden curve to
    # F_3^12), the arrays past it (F_3^13); p = 5 the codes up to
    # ARRAY_MIN_CHARGE (the xy curve to F_5^6), the arrays past it (F_5^7);
    # p = 2 bit planes at any charge
    assert "numpy" in sys.modules
    golden = tuple(predict_affine_count(hasse_alpha(3, 3), n) for n in range(1, 14))
    xy = parse_poly_system("y^2 + x*y + y - x^3 - x^2 - x")
    with monkeypatch.context() as m:
        m.setattr(grid, "_Grid", _refuse)
        m.setattr(variety, "_fibre_count", _refuse)
        assert count_affine(CURVE, make_field(3, 12)) == golden[11]
        assert affine_count_sequence(CURVE, 3, 12).counts == golden[:12]
    with monkeypatch.context() as m:
        m.setattr(variety, "_plane_count", _refuse)
        m.setattr(variety, "_fibre_count", _refuse)
        assert count_affine(CURVE, make_field(3, 13)) == golden[12]
        assert affine_count_sequence(CURVE, 3, 13).counts == golden
    xy_5 = tuple(predict_affine_count(hasse_alpha(5, count_affine(xy, make_field(5, 1))), n)
                 for n in range(1, 8))
    with monkeypatch.context() as m:
        m.setattr(grid, "_Grid", _refuse)
        m.setattr(variety, "_plane_count", _refuse)
        assert affine_count_sequence(xy, 5, 6).counts == xy_5[:6]
    with monkeypatch.context() as m:
        m.setattr(variety, "_plane_count", _refuse)
        m.setattr(variety, "_fibre_count", _refuse)
        assert count_affine(xy, make_field(5, 7)) == xy_5[6]
        assert affine_count_sequence(xy, 5, 7).counts == xy_5
    monkeypatch.setattr(grid, "_Grid", _refuse)
    monkeypatch.setattr(variety, "_fibre_count", _refuse)
    assert count_affine(CURVE, make_field(2, 4)) == predict_affine_count(hasse_alpha(2, 4), 4)
    assert affine_count_sequence(CURVE, 2, 3).counts == tuple(
        predict_affine_count(hasse_alpha(2, 4), n) for n in (1, 2, 3))


@pytest.mark.parametrize("text", ["y^3 + y^2 - x", "x*y^3 + y^2 - x", "x*y^2 + y - 1",
                                  "y^2 - x\nx - y", "y - x^2", "2*y^2 + x"])
def test_fibre_needs_one_polynomial_with_a_constant_y_squared(text):
    # y^3, with a constant coefficient or not; a y^2 coefficient that
    # involves x; two polynomials; no y^2; and 2 y^2 at p = 2, which is no
    # y^2 at all mod 2
    system = parse_poly_system(text)
    polys = [variety._group_by_last(poly, 2) for poly in system.polys]
    assert not variety.PLANS["fibre"].applies(polys)
    with pytest.raises(ValueError, match="^system is not fibre$"):
        count_affine(system, make_field(2, 2), method="fibre")


def test_fibre_charges_its_rows(monkeypatch):
    # q^(k - 1) rows: the sphere over F_2^4 in 2^8, where the join charges 2^8 + 2^4
    sphere = parse_poly_system("x^2 + y^2 + z^2 - 1")
    f = make_field(2, 4)
    monkeypatch.setattr(variety, "WORK_LIMIT", f.q ** 2)
    assert variety.PLANS["fibre"].charge(f.q, 3) == f.q ** 2
    assert count_affine(sphere, f) == count_affine(sphere, f, method="fibre") == f.q ** 2
    monkeypatch.setattr(variety, "WORK_LIMIT", f.q ** 2 - 1)
    with pytest.raises(ValueError, match="search space too large"):
        count_affine(sphere, f)


@pytest.mark.parametrize("n", range(1, 17))
def test_trace_mask_is_the_sum_of_conjugates(n):
    # bit j of the mask is Tr(x^j) = x^j + x^(2j) + ... + x^(2^(n-1) j), by
    # FFElement powers; the parity of id & mask is Tr on any element, as the
    # bit planes read it
    f = make_field(2, n)
    mask = variety._trace_mask(f.modulus)
    assert 0 <= mask < f.q

    def trace(a):
        total, c = f.zero(), a
        for _ in range(n):
            total, c = total + c, c * c
        assert total.index() in (0, 1)
        return total.index()

    x = f.element((0, 1)) if n > 1 else f.one()
    assert [mask >> j & 1 for j in range(n)] == [trace(x ** j) for j in range(n)]
    rng = random.Random(n)
    ids = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(20)]
    assert [(i & mask).bit_count() & 1 for i in ids] == [trace(f.from_index(i)) for i in ids]


def test_genus_2_zeta_at_p_5_from_the_fibre_plan(tmp_path, capsys):
    # y^2 + xy = x^5 + x + 1 over F_5..F_5^8: the product grid's charge
    # refused it; N_1 and N_2 from the scalar oracle fix the numerator
    from motives import cli

    text = "y^2 + x*y - x^5 - x - 1"
    s = [5 ** n + 1 - (naive_affine_count(parse_poly_system(text), make_field(5, n)) + 1)
         for n in (1, 2)]
    b1 = -s[0]
    b2 = -(s[1] + b1 * s[0]) // 2
    assert [1, b1, b2, 5 * b1, 25] == [1, -1, 5, -5, 25]
    path = tmp_path / "genus2.txt"
    path.write_text(text + "\n")
    assert cli.main(["zeta", "--poly", str(path), "--p", "5", "--genus", "2",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["numerator"] == [1, -1, 5, -5, 25]


GRID_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


@st.composite
def grid_cases(draw):
    """Systems of one to three variables with mixed monomials, and chunk
    sizes that split rows (1, 7, q - 1) or hold several (q + 1, 2^14).

    k = 3 only over q <= 9 and k = 2 over q <= 27, so the scalar oracle
    sees at most 729 tuples."""
    p, n = draw(st.sampled_from(GRID_FIELDS))
    q = p ** n
    k = draw(st.integers(1, 3 if q <= 9 else 2 if q <= 27 else 1))
    monomial = st.tuples(st.tuples(*[st.integers(0, 5)] * k), st.integers(-6, 6))
    polys = tuple(tuple(draw(st.lists(monomial, min_size=1, max_size=5)))
                  for _ in range(draw(st.integers(1, 2))))
    chunk_size = draw(st.sampled_from([1, 7, max(1, q - 1), q + 1, 1 << 14]))
    return PolySystem(k, polys), make_field(p, n), chunk_size


def _unreduced_count(system, f, chunk_size):
    """The product grid with every row of the first variable, weight 1,
    through the orbit rows' code path: the oracle of the orbit rows."""
    every = (np.arange(f.q, dtype=np.int32), np.ones(f.q, dtype=np.int32))
    return grid._Grid(system, f, chunk_size, every).count()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid_cases())
def test_product_grid_matches_oracle_for_any_chunk_size(case):
    system, f, chunk_size = case
    product = count_affine(system, f, method="product", chunk_size=chunk_size)
    assert product == naive_affine_count(system, f)
    assert product == _unreduced_count(system, f, chunk_size)


@pytest.mark.parametrize("chunk_size", range(1, 31))
def test_product_grid_tiles_every_row_once(chunk_size):
    # nine rows of F_3^2 in blocks of chunk_size // 3 rows; at chunk_size 7
    # the block of rows 6 and 7 would cross a batch of 7 rows, had batches
    # not been whole blocks.  Over F_2^4 (6 orbits, so 96 rows of 16), F_3^2
    # (6 orbits, so 54 rows of 9) and F_5^2 (15 orbits, so 375 rows of 25)
    # the first variable's orbits, of sizes 1, 2 and n, cross tile and batch
    # edges
    sphere = parse_poly_system("x^2 + y^2 + z^2 - 1")
    for p, n in ((3, 1), (2, 4), (3, 2), (5, 2)):
        f = make_field(p, n)
        want = (naive_affine_count(sphere, f) if n == 1
                else count_affine(sphere, f, method="separable"))
        assert count_affine(sphere, f, method="product", chunk_size=chunk_size) == want, (p, n)
        assert _unreduced_count(sphere, f, chunk_size) == want, (p, n)


ORBIT_FIELDS = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)] + [(5, 2), (5, 3)]


@pytest.mark.parametrize("p,n", ORBIT_FIELDS)
def test_orbit_rows_are_one_element_per_frobenius_orbit(p, n):
    # each representative's orbit under x -> x^p, by FFElement powers: the
    # orbits are disjoint, of the given sizes, and cover F_q; there are as
    # many as the product plan charges for, and each holds its least log.
    # Sizes never increase along the rows, as _Grid's tiles require
    f = make_field(p, n)
    log = FieldTables(f).log
    logs, sizes = variety._frobenius_orbits(p, n)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    g = multiplicative_generator(f)
    seen = set()
    for i, size in zip(logs, sizes):
        x = f.zero() if i == f.q - 1 else g ** i
        orbit = [x]
        while (y := orbit[-1] ** p) != x:
            orbit.append(y)
        ids = {y.index() for y in orbit}
        assert len(orbit) == size and not ids & seen
        assert i == min(int(log[j]) for j in ids)
        seen |= ids
    assert len(seen) == f.q == sum(sizes)
    assert len(logs) == variety._orbits(f.q)
    assert variety.PLANS["product"].charge(f.q, 2) == len(logs) * f.q
    # a prime field: every log once, in order, weight 1
    assert variety._frobenius_orbits(p, 1) == (list(range(p)), [1] * p)


@pytest.mark.parametrize("p,n", [(2, 15), (3, 9), (5, 6), (7, 5), (13, 4), (29, 3), (151, 2)])
def test_frobenius_orbits_at_the_product_plans_reach(p, n):
    # the largest field of each p whose two-variable product plan fits the
    # work limit: as many orbits as N(p, n), sizes dividing n, never
    # increasing and summing to q, and zero, its own orbit, last
    q = p ** n
    assert variety.PLANS["product"].charge(q, 2) <= variety.WORK_LIMIT
    assert variety.PLANS["product"].charge(q * p, 2) > variety.WORK_LIMIT
    logs, sizes = variety._frobenius_orbits(p, n)
    assert len(logs) == len(sizes) == variety._orbits(q)
    assert all(n % d == 0 for d in sizes) and sum(sizes) == q
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert (logs[-1], sizes[-1]) == (q - 1, 1) and logs.count(q - 1) == 1


def test_frobenius_orbits_load_no_numpy():
    # the planner's rows come from p and n alone, before any field table
    probe = ("import sys; from motives import variety; "
             "logs, sizes = variety._frobenius_orbits(2, 15); "
             "print(len(logs), sum(sizes), 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(variety.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "2192 32768 False\n")


# ----------------------------------------------------------------------
# projective counting

@pytest.mark.parametrize("q_spec", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_projective_space_matches_closed_form(dim, q_spec):
    f = make_field(*q_spec)
    q = f.q
    assert count_projective_space(dim, f) == sum(q ** i for i in range(dim + 1))


def test_projective_line_point_counts():
    assert count_projective_space(1, make_field(2, 1)) == 3
    assert count_projective_space(2, make_field(2, 1)) == 7
    assert count_projective_space(0, make_field(7, 1)) == 1


def test_projective_curve_equals_affine_plus_infinity():
    hom = parse_poly_system("y^2*z + y*z^2 - x^3 - x*z^2")
    for n in (1, 2, 3, 4):
        f = make_field(2, n)
        assert count_projective_variety(hom, f) == count_affine(CURVE, f) + 1


def test_projective_zero_system_is_whole_space():
    empty = PolySystem(3, ((),))
    assert count_projective_variety(empty, make_field(2, 1)) == 7


def test_system_without_equations_mod_p_needs_no_tables(monkeypatch):
    def refuse(spec):
        raise AssertionError("tables built for a system without equations")

    grid._tables_for.cache_clear()
    monkeypatch.setattr(grid, "FieldTables", refuse)
    f = make_field(2, 20)
    assert count_projective_space(1, f) == f.q + 1
    f = make_field(2, 3)
    vanishing = parse_poly_system("2*x - 2*y")
    assert count_affine(vanishing, f) == naive_affine_count(vanishing, f) == f.q ** 2


def test_table_cache_keeps_only_the_field_being_counted(monkeypatch):
    grid._tables_for.cache_clear()
    affine_count_sequence(CURVE, 2, 6, method="product")
    assert grid._tables_for.cache_info().currsize == 1
    built = []
    monkeypatch.setattr(grid, "FieldTables", lambda spec: built.append(spec) or
                        FieldTables(spec))
    f = make_field(3, 2)
    assert count_projective_variety(parse_poly_system("x^3 + y^3 + z^3"), f) == 10
    assert built == [f]


def test_projective_linear_form_is_a_line():
    line3 = PolySystem(3, ((((1, 0, 0), 1),),))
    for p in (2, 3):
        f = make_field(p, 1)
        assert count_projective_variety(line3, f) == p + 1


@pytest.mark.parametrize("text", ["", "x^3 + y^3 + z^3"])
def test_projective_count_within_memory_budget(text):
    # each chart is counted on the tiled product grid, never as one block
    # of q^(k - 1 - lead) ids (54 and 65 MB over F_2^10 before tiling)
    f = make_field(2, 10)
    tracemalloc.start()
    try:
        if text:
            got = count_projective_variety(parse_poly_system(text), f)
        else:
            got = count_projective_space(2, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cubic has 3 points over F_2, so Frobenius eigenvalues +-i sqrt(2),
    # and N_10 = 2^10 + 1 - 2 (-2)^5
    assert got == (1089 if text else f.q ** 2 + f.q + 1)
    assert peak < 2 * 2 ** 20, peak


CONE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]


@st.composite
def homogeneous_systems(draw):
    """One or two homogeneous polynomials of degree 1..4 in 2 or 3 variables,
    over a field with q <= 13."""
    p, n = draw(st.sampled_from(CONE_FIELDS))
    k = draw(st.integers(2, 3))
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(1, 4))
        exps = st.lists(st.integers(0, d), min_size=k - 1, max_size=k - 1).filter(
            lambda e: sum(e) <= d).map(lambda e: (*e, d - sum(e)))
        terms = draw(st.dictionaries(exps, st.integers(-6, 6).filter(bool), min_size=1,
                                     max_size=4))
        polys.append(tuple(sorted(terms.items())))
    return PolySystem(k, tuple(polys)), make_field(p, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(homogeneous_systems())
def test_projective_count_is_the_cone_over_q_minus_one(case):
    # the affine cone of a system of positive degree is the origin plus
    # q - 1 points on each line through a projective point
    system, f = case
    cone = count_affine(system, f, method="product")
    assert (cone - 1) % (f.q - 1) == 0
    assert count_projective_variety(system, f) == (cone - 1) // (f.q - 1)


def test_projective_requires_homogeneous():
    with pytest.raises(ValueError, match="not homogeneous"):
        count_projective_variety(CURVE, make_field(2, 1))
    lied = PolySystem(2, ((((0, 2), 1), ((1, 0), 1)),))  # y^2 + x, built directly
    with pytest.raises(ValueError, match="not homogeneous"):
        count_projective_variety(lied, make_field(2, 1))


def test_projective_counts_a_directly_built_homogeneous_system():
    # x^2 + y^2 - z^2 built without the parser: 4 points over F_3, as parsed
    conic = PolySystem(3, ((((0, 0, 2), -1), ((0, 2, 0), 1), ((2, 0, 0), 1)),))
    f = make_field(3, 1)
    assert count_projective_variety(conic, f) == \
        count_projective_variety(parse_poly_system("x^2 + y^2 - z^2"), f) == 4


@pytest.mark.parametrize("text, p, n, want", [
    ("x^2 + y^2 - z^2", 3, 1, 4),
    ("x^2 + x*y + y^2", 2, 2, 2),  # its one chart joins at 1 + q, exactly the reps
])
def test_projective_charge_is_the_representatives(text, p, n, want, monkeypatch):
    system, f = parse_poly_system(text), make_field(p, n)
    reps = variety._projective_rep_count(system.num_vars, f.q)
    charts = []
    count = variety.count_affine
    monkeypatch.setattr(variety, "count_affine",
                        lambda *args, **kw: charts.append(args) or count(*args, **kw))
    monkeypatch.setattr(variety, "WORK_LIMIT", reps)
    assert count_projective_variety(system, f) == want
    assert len(charts) == system.num_vars - 1
    charts.clear()
    monkeypatch.setattr(variety, "WORK_LIMIT", reps - 1)
    with pytest.raises(ValueError, match="search space too large"):
        count_projective_variety(system, f)
    assert charts == []


def test_projective_charge_in_closed_form():
    for k in range(1, 8):
        for q in (2, 3, 4, 7, 2 ** 26):
            assert variety._projective_rep_count(k, q) == sum(q ** i for i in range(k))


def test_projective_space_past_the_limit_is_refused_by_its_dimension():
    # 2^999999 representatives: refused by the exponent, before any power is formed
    for dim in (28, 10 ** 6):
        with pytest.raises(ValueError, match="search space too large"):
            count_projective_space(dim, make_field(2, 1))
    assert count_projective_space(27, make_field(2, 1)) == 2 ** 28 - 1


def test_projective_no_double_counting():
    # brute check with explicit scalar projective enumeration on P^2(F_3)
    f = make_field(3, 1)
    hom = parse_poly_system("x^2 + y^2 - z^2")
    reps = []
    els = list(enumerate_elements(f))
    for lead in range(3):
        for tail in _tuples(els, 2 - lead) if lead < 2 else [()]:
            reps.append((f.zero(),) * lead + (f.one(),) + tail)
    assert len(reps) == 13
    count = 0
    for pt in reps:
        val = f.zero()
        for exps, c in hom.polys[0]:
            term = f.element((c,))
            for xj, e in zip(pt, exps):
                if e:
                    term = term * xj ** e
            val = val + term
        count += val.is_zero()
    assert count_projective_variety(hom, f) == count


# ----------------------------------------------------------------------
# count sequences

def test_affine_count_sequence_with_infinity():
    seq = affine_count_sequence(CURVE, 2, 4, extra_point=True)
    assert seq.counts == (5, 5, 5, 25)
    assert seq.projective_flag


def test_count_sequence_validation():
    with pytest.raises(ValueError, match="not prime"):
        CountSequence(4, (1, 2))
    with pytest.raises(ValueError, match="empty"):
        CountSequence(2, ())
    with pytest.raises(ValueError, match="negative"):
        CountSequence(2, (3, -1))


def test_empty_sequence_refused_as_empty(monkeypatch):
    # n_max < 1 leaves nothing to plan: no "not separable" or work-limit refusal
    mixed = parse_poly_system("x*y - 1")
    monkeypatch.setattr(variety, "WORK_LIMIT", 1)
    for method in ("separable", "product"):
        with pytest.raises(ValueError, match="empty count sequence"):
            affine_count_sequence(mixed, 2, 0, method=method)
