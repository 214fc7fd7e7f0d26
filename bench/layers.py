"""Per-layer probes for the traced run: each module's public functions,
called in-process and timed from outside under one span each.

`probe` returns {metric name: (value, unit)} and a list of problems found
by checking the probe results with `checks`.  Which end-to-end metric each
probe should move, on which workload, is tabled in bench/README.md.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
from workloads import GENUS2, GOLDEN, zero_table

MB = 1024.0 * 1024.0
MIXED = (1, 1, 1, 1, 0)                 # y^2 + xy + y = x^3 + x^2 + x
IMPORT_SAMPLES = 3


def _per_call(fn, min_s: float = 0.05) -> tuple[object, float]:
    """Call fn until min_s has passed; (last result, mean seconds per call)."""
    calls, start = 0, time.perf_counter()
    while True:
        out = fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return out, elapsed / calls


def _import_times(src: Path) -> dict[str, float]:
    """Seconds from `python -X importtime -c 'import motives.cli'`.

    total: every module's self time; numpy, scipy.integrate: their
    cumulative time; motives: self time of the package's own modules.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import motives.cli"],
                         env=env, capture_output=True, text=True, check=True).stderr
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "motives": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        out["total"] += int(self_us) / 1e6
        if name == "numpy":
            out["numpy"] = int(cum_us) / 1e6
        elif name == "scipy.integrate":
            out["scipy"] = int(cum_us) / 1e6
        elif name == "motives" or name.startswith("motives."):
            out["motives"] += int(self_us) / 1e6
    return out


def probe(tracer, src: Path) -> tuple[dict, list[str]]:
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy as np
    from motives import explicit_formula as ef
    from motives import finite_field, motive, variety, weil, zeta

    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"layer probe {label}: {got} != {want}")

    def span_s(s):
        return s["end"] - s["start"]

    golden = variety.parse_poly_system(checks.curve_text(GOLDEN))
    mixed = variety.parse_poly_system(checks.curve_text(checks.weierstrass(*MIXED)))

    def affine(curve, p, n):
        return checks.affine_counts(curve, p, n)[-1]

    with tracer.span("import"):
        samples = [_import_times(src) for _ in range(IMPORT_SAMPLES)]
    for key in ("total", "scipy", "numpy", "motives"):
        m[f"import.{key}_s"] = (statistics.median(s[key] for s in samples), "s")

    # finite_field: field construction, cache cleared first
    for p, n in ((2, 17), (3, 10)):
        finite_field.make_field.cache_clear()
        with tracer.span("finite_field.make_field", p=p, n=n) as s:
            field = finite_field.make_field(p, n)
        m[f"finite_field.make_field_s.{p}_{n}"] = (span_s(s), "s")
        # variety: first count on a new field (builds its tables) minus a repeat
        with tracer.span("variety.count_affine", p=p, n=n, method="auto", call="first") as s1:
            first = variety.count_affine(golden, field, method="auto")
        with tracer.span("variety.count_affine", p=p, n=n, method="auto", call="repeat") as s2:
            again = variety.count_affine(golden, field, method="auto")
        m[f"variety.field_setup_s.{p}_{n}"] = (span_s(s1) - span_s(s2), "s")
        if (p, n) == (2, 17):
            m["variety.separable_ns_per_elem.2_17"] = (span_s(s2) / field.q * 1e9, "ns")
            tracemalloc.start()
            variety.count_affine(golden, field, method="auto")
            m["variety.count_peak_mb.2_17"] = (tracemalloc.get_traced_memory()[1] / MB, "MB")
            tracemalloc.stop()
        expect(f"count {p}^{n}", (first, again), (affine(GOLDEN, p, n),) * 2)

    # variety: warm product grid, tables built by a separable count first
    product_s = {}
    for p, n in ((2, 12), (3, 7), (5, 4)):
        field = finite_field.make_field(p, n)
        variety.count_affine(golden, field, method="separable")
        with tracer.span("variety.count_affine", p=p, n=n, method="product") as s:
            got = variety.count_affine(golden, field, method="product")
        product_s[p] = span_s(s)
        m[f"variety.product_ns_per_tuple.p{p}"] = (span_s(s) / field.q ** 2 * 1e9, "ns")
        expect(f"product {p}^{n}", got, affine(GOLDEN, p, n))
    field = finite_field.make_field(2, 12)
    tracemalloc.start()
    variety.count_affine(golden, field, method="product")
    m["variety.count_peak_mb.2_12"] = (tracemalloc.get_traced_memory()[1] / MB, "MB")
    tracemalloc.stop()

    with tracer.span("variety.count_affine", p=2, n=11, method="auto", curve="mixed") as s:
        got = variety.count_affine(mixed, finite_field.make_field(2, 11), method="auto")
    m["variety.mixed_auto_s.2_11"] = (span_s(s), "s")
    expect("mixed 2^11", got, affine(checks.weierstrass(*MIXED), 2, 11))

    # variety: worker pool, never more workers than CPUs
    workers = min(2, os.cpu_count() or 1)
    small = finite_field.make_field(2, 8)
    times = {}
    for w in (1, workers):
        with tracer.span("variety.count_affine", p=2, n=8, workers=w, chunk_size=1 << 14) as s:
            variety.count_affine(golden, small, method="product", workers=w,
                                 chunk_size=1 << 14)
        times[w] = span_s(s)
    m["variety.pool_start_s"] = (times[workers] - times[1], "s")
    with tracer.span("variety.count_affine", p=2, n=12, method="product", workers=workers) as s:
        got = variety.count_affine(golden, finite_field.make_field(2, 12), method="product",
                                   workers=workers)
    m["variety.pool_speedup"] = (product_s[2] / span_s(s), "ratio")
    expect("pool 2^12", got, 4224)

    # explicit_formula
    with tracer.span("explicit_formula.default_zero_table"):
        zeros, per = _per_call(ef.default_zero_table)
    m["explicit_formula.zeros_load_ms"] = (per * 1e3, "ms")
    with tracer.span("explicit_formula.PrimeCounter.build", limit=10 ** 6):
        pc, per = _per_call(lambda: ef.PrimeCounter.build(10 ** 6))
    m["explicit_formula.sieve_ms"] = (per * 1e3, "ms")
    expect("sieve 10^6", ef.sieve_pi(10 ** 6, pc), checks.primes_upto(10 ** 6)[-1])
    xs = (2.5, 10.5, 100.5, 1000.5, 10000.5)
    with tracer.span("explicit_formula.li", xs=list(xs)):
        _, per = _per_call(lambda: [ef.li(x) for x in xs])
    m["explicit_formula.li_us"] = (per / len(xs) * 1e6, "us")
    with tracer.span("explicit_formula.archimedean_tail", ys=list(xs)):
        _, per = _per_call(lambda: [ef.archimedean_tail(x) for x in xs])
    m["explicit_formula.tail_us"] = (per / len(xs) * 1e6, "us")
    gammas = np.asarray(zeros.ordinates, dtype=float)
    with tracer.span("explicit_formula.zero_pair_terms", zeros=len(gammas)):
        _, per = _per_call(lambda: [ef.zero_pair_terms(x, gammas) for x in xs])
    m["explicit_formula.zero_terms_us"] = (per / len(xs) * 1e6, "us")
    with tracer.span("explicit_formula.riemann_approx", x=999.5, K=len(zeros)):
        approx, per = _per_call(lambda: ef.riemann_approx(999.5, zeros, len(zeros)))
    m["explicit_formula.approx_ms"] = (per * 1e3, "ms")
    want = checks.explicit_formula_mp(999.5, len(zeros), zero_table())
    if abs(approx - want) > checks.TERM_TOL * (2 + len(zeros)) * 9:
        problems.append(f"layer probe approx(999.5): {approx} != {want}")
    with tracer.span("explicit_formula.approximation_rows", x_max=300, K=13) as s:
        rows = ef.approximation_rows(ef.half_integer_grid(2.0, 300.0), zeros, 13,
                                     ef.PrimeCounter.build(301))
    m["explicit_formula.rows_s"] = (span_s(s), "s")
    expect("rows 300", len(rows), 298)

    # weil, zeta, motive
    alpha = weil.hasse_alpha(101, 96)
    with tracer.span("weil.predict_affine_count", p=101, n=200):
        got, per = _per_call(lambda: weil.predict_affine_count(alpha, 200))
    m["weil.predict_us"] = (per * 1e6, "us")
    expect("predict 101^200", got, 101 ** 200 - checks.trace_powers(5, 101, 200)[200])
    g2 = variety.parse_poly_system(checks.curve_text(GENUS2))
    counts = variety.affine_count_sequence(g2, 3, 8, extra_point=True)
    want_b = checks.numerator_from_counts(
        3, 2, [checks.count_fp(GENUS2, 3) + 1,
               checks.count_fp2(GENUS2, 3) + 1])
    with tracer.span("weil.weil_numbers_from_counts", p=3, genus=2):
        wn, per = _per_call(lambda: weil.weil_numbers_from_counts(3, 2, counts))
    m["weil.weil_numbers_ms"] = (per * 1e3, "ms")
    expect("weil numbers", list(wn.coeffs), want_b)
    with tracer.span("zeta.zeta_series", order=8):
        series, per = _per_call(lambda: zeta.zeta_series(counts))
    m["zeta.series_ms"] = (per * 1e3, "ms")
    with tracer.span("zeta.rational_reconstruct", p=3, degree=4):
        rz, per = _per_call(
            lambda: zeta.rational_reconstruct(series, 4, zeta.curve_denominator(3), 3))
    m["zeta.reconstruct_ms"] = (per * 1e3, "ms")
    expect("reconstruct", list(rz.numerator), want_b)
    ell = motive.motive_of_elliptic_curve(weil.hasse_alpha(7, 4))
    with tracer.span("motive.point_count", p=7, n=5):
        got, per = _per_call(lambda: motive.point_count(ell, 5))
    m["motive.point_count_us"] = (per * 1e6, "us")
    expect("motive count 7^5", got, 1 - checks.trace_powers(3, 7, 5)[5] + 7 ** 5)
    with tracer.span("motive.tensor_power", e=3):
        cube, per = _per_call(lambda: motive.tensor_power(ell, 3))
    m["motive.tensor_power_ms"] = (per * 1e3, "ms")
    expect("tensor cube betti", [cube.betti(k) for k in range(7)], [1, 6, 15, 20, 15, 6, 1])
    return m, problems
