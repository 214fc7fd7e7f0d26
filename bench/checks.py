"""Output checks for the benchmark, computed apart from the `motives` package.

Every function here takes a parsed `--format json` report and returns a
list of problems (empty when the report is right).  The expected values
come from pure-Python arithmetic written for this file alone: brute-force
counts over F_p and F_{p^2}, the integer trace recurrence, Newton's
identities, closed forms in Python integers, a bytearray sieve, and
mpmath for the logarithmic integral and the explicit formula.  Nothing is
compared against a stored copy of the program's output.

A curve is a dict {(i, j): c} for the polynomial sum c * x^i * y^j = 0.
"""

from __future__ import annotations

import math
import re

#: Error budgets stated by `motives.explicit_formula`: li to an absolute
#: 1e-9, and each zero-pair term to the same order once summed.
LI_TOL = 1e-9
TERM_TOL = 1e-9
#: Relative tolerance on displayed roots; they are rounded from closed forms.
ROOT_RTOL = 1e-9


# ----------------------------------------------------------------------
# independent arithmetic

def count_fp(curve: dict, p: int) -> int:
    """Affine points of the curve over F_p, by brute force."""
    return sum(1 for x in range(p) for y in range(p)
               if sum(c * pow(x, i, p) * pow(y, j, p)
                      for (i, j), c in curve.items()) % p == 0)


def _fp2_modulus(p: int) -> tuple[int, int]:
    """(b, c) of the first t^2 + b t + c with no root in F_p."""
    for b in range(p):
        for c in range(1, p):
            if all((t * t + b * t + c) % p for t in range(p)):
                return b, c
    raise ValueError("no irreducible quadratic")  # unreachable for prime p


def count_fp2(curve: dict, p: int) -> int:
    """Affine points of the curve over F_{p^2} = F_p[t]/(t^2 + b t + c)."""
    b, c = _fp2_modulus(p)

    def mul(u, v):
        lo, mid, hi = u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1]
        return ((lo - c * hi) % p, (mid - b * hi) % p)

    elems = [(u0, u1) for u0 in range(p) for u1 in range(p)]
    max_e = max(max(i, j) for i, j in curve)
    powers = {}
    for e in elems:
        row = [(1, 0)]
        for _ in range(max_e):
            row.append(mul(row[-1], e))
        powers[e] = row
    total = 0
    for x in elems:
        for y in elems:
            acc0 = acc1 = 0
            for (i, j), coeff in curve.items():
                t = mul(powers[x][i], powers[y][j])
                acc0 += coeff * t[0]
                acc1 += coeff * t[1]
            total += acc0 % p == 0 and acc1 % p == 0
    return total


def trace_powers(a: int, p: int, n_max: int) -> list[int]:
    """[s_0, ..., s_n_max] with s_n = a s_{n-1} - p s_{n-2}, s_0 = 2, s_1 = a."""
    s = [2, a]
    while len(s) <= n_max:
        s.append(a * s[-1] - p * s[-2])
    return s[: n_max + 1]


def affine_counts(curve: dict, p: int, n_max: int) -> list[int]:
    """N_1..N_n_max of an elliptic curve: p^n - s_n, with a = p - N_1 counted
    by brute force."""
    s = trace_powers(p - count_fp(curve, p), p, n_max)
    return [p ** n - s[n] for n in range(1, n_max + 1)]


def weierstrass(a1: int, a2: int, a3: int, a4: int, a6: int) -> dict:
    """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6 as a curve dict."""
    terms = {(0, 2): 1, (1, 1): a1, (0, 1): a3, (3, 0): -1, (2, 0): -a2,
             (1, 0): -a4, (0, 0): -a6}
    return {k: v for k, v in terms.items() if v}


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Discriminant of the Weierstrass cubic (valid in every characteristic)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def curve_text(curve: dict) -> str:
    """The curve in the CLI's one-line polynomial format."""
    parts = []
    for (i, j), c in sorted(curve.items(), key=lambda kv: (-kv[0][1], -kv[0][0])):
        factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def numerator_from_counts(p: int, g: int, proj_counts: list[int]) -> list[int]:
    """b_0..b_2g of the zeta numerator from projective counts N_1..N_g.

    s_n = p^n + 1 - N_n; Newton's identities j b_j = -sum_{i<=j} s_i b_{j-i}
    give b_1..b_g, and b_{2g-j} = p^(g-j) b_j gives the rest.
    """
    s = [None] + [p ** n + 1 - proj_counts[n - 1] for n in range(1, g + 1)]
    b = [1]
    for j in range(1, g + 1):
        acc = sum(s[i] * b[j - i] for i in range(1, j + 1))
        if acc % j:
            raise ValueError("counts are not those of a genus-g curve")
        b.append(-acc // j)
    for j in range(g - 1, -1, -1):
        b.append(p ** (g - j) * b[j])
    return b


def power_sums(b: list[int], n_max: int) -> list[int]:
    """s_1..s_n_max of the reciprocal roots of sum b_j t^j (Newton)."""
    deg = len(b) - 1
    s = [deg]
    for n in range(1, n_max + 1):
        acc = n * b[n] if n <= deg else 0
        acc += sum(s[i] * b[n - i] for i in range(max(1, n - deg), n))
        s.append(-acc)
    return s[1:]


def primes_upto(n: int) -> list[int]:
    """pi(k) for k = 0..n from a bytearray sieve."""
    flags = bytearray([1]) * (n + 1)
    flags[: min(2, n + 1)] = b"\x00" * min(2, n + 1)
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            flags[d * d::d] = bytearray(len(range(d * d, n + 1, d)))
    out, running = [], 0
    for f in flags:
        running += f
        out.append(running)
    return out


def mobius(m: int) -> int:
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


# ----------------------------------------------------------------------
# report checks

def _close(got, want, rtol, atol=0.0) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= atol + rtol * abs(want)


def _columns(report: dict, want: list[str]) -> list[str]:
    cols = report.get("columns")
    return [] if cols == want else [f"columns {cols} != {want}"]


def _rows(report, expected_rows) -> list[str]:
    """Rows must equal expected_rows exactly, value and type."""
    rows = report.get("rows", [])
    problems = []
    if len(rows) != len(expected_rows):
        problems.append(f"{len(rows)} rows, expected {len(expected_rows)}")
    for got, want in zip(rows, expected_rows):
        if list(got) != list(want) or [type(v) for v in got] != [type(v) for v in want]:
            problems.append(f"row {got} != {list(want)}")
    return problems


def check_count(report: dict, curve: dict, p: int, n_max: int) -> list[str]:
    """`count` of an elliptic curve over F_p .. F_{p^n_max}."""
    want = [(n, p ** n, c) for n, c in enumerate(affine_counts(curve, p, n_max), start=1)]
    return _columns(report, ["n", "q", "count"]) + _rows(report, want)


def check_predict(report: dict, p: int, n1: int, n_max: int,
                  curve: dict | None = None) -> list[str]:
    """`predict`: eigenvalue, exact predictions and (with a curve) brute force."""
    a = p - n1
    s = trace_powers(a, p, n_max)
    problems = []
    if report.get("trace") != a:
        problems.append(f"trace {report.get('trace')} != {a}")
    for key, want in (("alpha_re", a / 2), ("alpha_im", math.sqrt(4 * p - a * a) / 2),
                      ("hasse_bound", 2 * math.sqrt(p))):
        if not _close(report.get(key), want, ROOT_RTOL):
            problems.append(f"{key} {report.get(key)} != {want}")
    predicted = [p ** n - s[n] for n in range(1, n_max + 1)]
    if curve is None:
        want = [(n, c) for n, c in enumerate(predicted, start=1)]
        return problems + _columns(report, ["n", "predicted"]) + _rows(report, want)
    want = [(n, c, brute, "ok" if c == brute else "MISMATCH")
            for n, (c, brute) in enumerate(zip(predicted, affine_counts(curve, p, n_max)),
                                           start=1)]
    return problems + _columns(report, ["n", "predicted", "brute_force", "status"]) \
        + _rows(report, want)


def _parse_display_poly(text: str) -> dict[int, int]:
    """'1 + 2*t - t^3' -> {0: 1, 1: 2, 3: -1}."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        m = re.fullmatch(r"(?:(\d+)\*?)?(t(?:\^(\d+))?)?", term)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad term {term!r}")
        coeff = int(m.group(1) or 1)
        deg = int(m.group(3) or 1) if m.group(2) else 0
        out[deg] = sign * coeff
    return out


def check_zeta(report: dict, p: int, g: int, numerator: list[int]) -> list[str]:
    """`zeta`: numerator, denominator, display, and the 2g + 2 roots.

    Weight-1 roots must have modulus sqrt(p) and power sums s_1..s_2g equal
    to those of the numerator; the poles are 1 (weight 0) and p (weight 2).
    """
    problems = _columns(report, ["weight", "re", "im", "abs"])
    if report.get("numerator") != numerator:
        problems.append(f"numerator {report.get('numerator')} != {numerator}")
    if report.get("denominator") != [1, -(p + 1), p]:
        problems.append(f"denominator {report.get('denominator')}")
    display = report.get("display", "")
    m = re.fullmatch(r"\((.*)\) / \(\(1 - t\)\(1 - (\d+) t\)\)", display)
    try:
        shown = (_parse_display_poly(m.group(1)), int(m.group(2))) if m else None
    except ValueError:
        shown = None
    if shown != ({j: c for j, c in enumerate(numerator) if c}, p):
        problems.append(f"display {display!r}")
    rows = report.get("rows", [])
    by_weight = {}
    for w, re_, im, ab in rows:
        by_weight.setdefault(w, []).append((re_, im, ab))
    if sorted(by_weight) != [0, 1, 2] or len(by_weight.get(0, [])) != 1 \
            or len(by_weight.get(2, [])) != 1 or len(by_weight[1]) != 2 * g:
        return problems + [f"root multiplicities {sorted((k, len(v)) for k, v in by_weight.items())}"]
    for w, want in ((0, 1.0), (2, float(p))):
        re_, im, ab = by_weight[w][0]
        if not (_close(re_, want, ROOT_RTOL) and _close(im, 0.0, 0, ROOT_RTOL * want)
                and _close(ab, want, ROOT_RTOL)):
            problems.append(f"weight-{w} root {by_weight[w][0]} != {want}")
    sq = math.sqrt(p)
    roots = [complex(re_, im) for re_, im, _ in by_weight[1]]
    for (re_, im, ab), r in zip(by_weight[1], roots):
        if not (_close(ab, sq, ROOT_RTOL) and _close(abs(r), sq, ROOT_RTOL)):
            problems.append(f"|alpha| = {ab} != sqrt({p})")
    for n, want in enumerate(power_sums(numerator, 2 * g), start=1):
        got = sum(r ** n for r in roots)
        if abs(got - want) > 1e-7 * 2 * g * sq ** n:
            problems.append(f"power sum s_{n} = {got} != {want}")
    return problems


def _check_pieces(report: dict, want: dict[str, list[complex]]) -> list[str]:
    pieces = report.get("pieces", {})
    if sorted(pieces) != sorted(want):
        return [f"weights {sorted(pieces)} != {sorted(want)}"]
    problems = []
    for k, roots in want.items():
        got = sorted(pieces[k], key=lambda z: (z[1], z[0]))
        exp = sorted(roots, key=lambda z: (z.imag, z.real))
        if len(got) != len(exp) or not all(
                abs(complex(*g) - e) <= ROOT_RTOL * abs(e) for g, e in zip(got, exp)):
            problems.append(f"weight {k} eigenvalues {pieces[k]} != {exp}")
    return problems


def check_motive_elliptic(report: dict, a: int, p: int, n_max: int) -> list[str]:
    """`motive 'elliptic a= p='`: count = 1 - s_n + p^n, exactly."""
    s = trace_powers(a, p, n_max)
    im = math.sqrt(4 * p - a * a) / 2
    want = [(n, 1 - s[n] + p ** n) for n in range(1, n_max + 1)]
    problems = _columns(report, ["n", "count"]) + _rows(report, want)
    if report.get("base_q") != p:
        problems.append(f"base_q {report.get('base_q')}")
    return problems + _check_pieces(report, {
        "0": [1], "1": [complex(a / 2, -im), complex(a / 2, im)], "2": [p]})


def check_motive_pspace(report: dict, dim: int, q: int, n_max: int) -> list[str]:
    """`motive 'P^dim'`: count = sum_k q^(nk), eigenvalue q^k in weight 2k."""
    want = [(n, sum(q ** (n * k) for k in range(dim + 1))) for n in range(1, n_max + 1)]
    problems = _columns(report, ["n", "count"]) + _rows(report, want)
    if report.get("base_q") != q:
        problems.append(f"base_q {report.get('base_q')}")
    return problems + _check_pieces(report, {str(2 * k): [q ** k] for k in range(dim + 1)})


def check_motive_lefschetz(report: dict, k: int, q: int, n_max: int) -> list[str]:
    """`motive 'L^k'`: count = q^(nk), one eigenvalue q^k in weight 2k."""
    want = [(n, q ** (n * k)) for n in range(1, n_max + 1)]
    problems = _columns(report, ["n", "count"]) + _rows(report, want)
    if report.get("base_q") != q:
        problems.append(f"base_q {report.get('base_q')}")
    return problems + _check_pieces(report, {str(2 * k): [q ** k]})


def check_pspace(report: dict, dim: int, q: int, n_max: int) -> list[str]:
    """`pspace`: |P^dim(F_{q^n})| = 1 + q^n + ... + q^(n dim)."""
    want = [(n, q ** n, sum(q ** (n * k) for k in range(dim + 1)))
            for n in range(1, n_max + 1)]
    problems = _columns(report, ["n", "q", "count"]) + _rows(report, want)
    if report.get("dim") != dim:
        problems.append(f"dim {report.get('dim')} != {dim}")
    return problems


def explicit_formula_mp(x: float, K: int, zeros: list[str]) -> float:
    """The truncated explicit formula at x, evaluated with mpmath.

    sum over m with x^(1/m) >= 2 of mu(m)/m f(x^(1/m)), where
    f(y) = li(y) - sum_{k<=K} 2 Re Ei(rho_k ln y) - ln 2
           + integral_y^inf dt / (t (t^2 - 1) ln t).
    """
    import mpmath as mp

    with mp.workdps(25):
        gammas = [mp.mpf(z) for z in zeros[:K]]

        def f(y):
            ly = mp.log(y)
            tail = mp.quad(lambda t: 1 / (t * (t * t - 1) * mp.log(t)), [y, mp.inf])
            v = mp.li(y) - mp.log(2) + tail
            for g in gammas:
                v -= 2 * mp.re(mp.ei(mp.mpc(0.5, g) * ly))
            return v

        xm = mp.mpf(x)
        total, m = mp.mpf(0), 1
        while xm ** (mp.mpf(1) / m) >= 2:
            if mobius(m):
                total += mp.mpf(mobius(m)) / m * f(xm ** (mp.mpf(1) / m))
            m += 1
        return float(total)


def check_pi(report: dict, x_max: float, K: int, zeros: list[str],
             sample: list[int]) -> list[str]:
    """`pi`: half-integer grid, sieve counts, mpmath li on every row, and
    the mpmath explicit formula on the sampled row indices."""
    import mpmath as mp

    problems = _columns(report, ["x", "pi", "li", f"approx_{K}"])
    if report.get("zero_pairs") != K:
        problems.append(f"zero_pairs {report.get('zero_pairs')} != {K}")
    rows = report.get("rows", [])
    xs = [k + 0.5 for k in range(2, math.floor(x_max - 0.5) + 1)]
    if [r[0] for r in rows] != xs:
        return problems + ["x column is not the half-integer grid"]
    pi = primes_upto(math.floor(x_max))
    for x, n_primes, li_x, _ in rows:
        if n_primes != pi[math.floor(x)] or type(n_primes) is not int:
            problems.append(f"pi({x}) = {n_primes} != {pi[math.floor(x)]}")
        if not _close(li_x, float(mp.li(x)), 0.0, LI_TOL):
            problems.append(f"li({x}) = {li_x} != {mp.li(x)}")
    for i in sample:
        x, approx = rows[i][0], rows[i][3]
        orders = max(1, math.floor(math.log2(x)))
        want = explicit_formula_mp(x, K, zeros)
        if not _close(approx, want, 0.0, TERM_TOL * (2 + K) * orders):
            problems.append(f"approx_{K}({x}) = {approx} != {want}")
    return problems
