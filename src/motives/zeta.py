"""Local zeta functions: exact series, rational form, trace formula.

The generating function exp(sum N_n t^n / n) is carried as a power
series with exact rational coefficients; reconstruction against a known
denominator is a truncated series product, so the recovered numerator
coefficients are exact integers or the input was not rational of the
declared shape.  Floating point enters only at root finding, weight
assignment and float input to the integer trace formula of motives.weil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .variety import CountSequence
from .weil import _integer_poly, _reciprocal_roots, _root_key, _signed_count

WEIGHT_WINDOW = 0.1


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series c_0 + c_1 t + ... + c_m t^m, exact rationals."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        m = min(self.order, other.order)
        out = []
        for k in range(m + 1):
            out.append(sum((self.coeffs[i] * other.coeffs[k - i]
                            for i in range(k + 1)), Fraction(0)))
        return PowerSeries(tuple(out))


@dataclass(frozen=True)
class RationalZeta:
    """Numerator/denominator with reciprocal roots grouped by weight.

    Roots of odd weight come from the numerator (zeros of the zeta
    function), even weights from the denominator (poles).
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    base_q: int
    roots_by_weight: tuple[tuple[int, tuple[complex, ...]], ...]

    def weight_table(self) -> dict[int, tuple[complex, ...]]:
        return dict(self.roots_by_weight)


def _as_counts(counts) -> tuple[int, ...]:
    if isinstance(counts, CountSequence):
        return counts.counts
    vals = tuple(int(c) for c in counts)
    if not vals:
        raise ValueError("empty count sequence")
    return vals


def zeta_series(counts) -> PowerSeries:
    """exp(sum N_n t^n / n) to order m = number of counts supplied.

    Term-by-term: with L(t) = sum N_n t^n / n, the exponential satisfies
    Z' = L'Z, giving m*z_m = sum_{j=1..m} N_j z_{m-j} over exact
    rationals.
    """
    vals = _as_counts(counts)
    z = [Fraction(1)]
    for m in range(1, len(vals) + 1):
        z.append(sum(Fraction(vals[j - 1]) * z[m - j] for j in range(1, m + 1))
                 / m)
    return PowerSeries(tuple(z))


def series_log(s: PowerSeries) -> PowerSeries:
    """Formal log of a series with constant term 1 (inverse of the exp)."""
    if s.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    m = s.order
    ell = [Fraction(0)]
    for n in range(1, m + 1):
        acc = Fraction(n) * s.coeffs[n]
        for j in range(1, n):
            acc -= Fraction(j) * ell[j] * s.coeffs[n - j]
        ell.append(acc / n)
    return PowerSeries(tuple(ell))


def expand_rational(num, den, order: int) -> PowerSeries:
    """Series of num(t)/den(t) to the given order; den(0) must be 1."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    inv = [Fraction(1)]
    for m in range(1, order + 1):
        inv.append(-sum(den[j] * inv[m - j]
                        for j in range(1, min(m, len(den) - 1) + 1)))
    numno = num + [Fraction(0)] * max(0, order + 1 - len(num))
    ps_num = PowerSeries(tuple(numno[: order + 1]))
    return ps_num * PowerSeries(tuple(inv))


def curve_denominator(q: int) -> tuple[int, ...]:
    """(1 - t)(1 - q t) as ascending coefficients."""
    return (1, -(q + 1), q)


def assign_weight(alpha: complex, q: int) -> int:
    """Weight k with | |alpha| - q^(k/2) | < 0.1 q^(k/2); unique or error."""
    mag = abs(alpha)
    if mag <= 0:
        raise ValueError("zero eigenvalue has no weight")
    est = 2.0 * math.log(mag) / math.log(q)
    hits = [k for k in {max(0, math.floor(est)), max(0, math.ceil(est))}
            if abs(mag - q ** (k / 2.0)) < WEIGHT_WINDOW * q ** (k / 2.0)]
    if len(hits) != 1:
        raise ValueError("ambiguous weight assignment")
    return hits[0]


def rational_reconstruct(series: PowerSeries, num_degree: int, den,
                         base_q: int) -> RationalZeta:
    """Solve P(t) = series * den(t) mod t^(num_degree+1) and verify.

    Every available series coefficient beyond the numerator degree must
    also match (overdetermination check), which needs the truncation
    order to be at least num_degree + deg(den) + 2.
    """
    den = tuple(int(c) for c in den)
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    if series.coeffs[0] != 1:
        raise ValueError("zeta series must start at 1")
    den_deg = len(den) - 1
    if series.order < num_degree + den_deg + 2:
        raise ValueError("insufficient or inconsistent counts")
    prod = series * PowerSeries(tuple(Fraction(c) for c in den)
                                + (Fraction(0),) * (series.order - den_deg))
    num = []
    for j in range(num_degree + 1):
        c = prod.coeffs[j]
        if c.denominator != 1:
            raise ValueError("not rational of declared shape")
        num.append(int(c))
    for j in range(num_degree + 1, series.order + 1):
        if prod.coeffs[j] != 0:
            raise ValueError("insufficient or inconsistent counts")

    grouped: dict[int, list[complex]] = {}
    for root in _reciprocal_roots(tuple(num)) + _reciprocal_roots(den):
        grouped.setdefault(assign_weight(root, base_q), []).append(root)
    table = tuple(sorted(
        (k, tuple(sorted(v, key=_root_key))) for k, v in grouped.items()))
    return RationalZeta(tuple(num), den, base_q, table)


def trace_formula_count(alpha_table, n: int) -> int:
    """Signed eigenvalue-power sum: sum_k (-1)^k sum_i alpha_ik^n, exactly,
    from each weight's float eigenvalues rounded to prod (1 - alpha t)."""
    return _signed_count(((k, _integer_poly(alphas))
                          for k, alphas in dict(alpha_table).items() if len(alphas)), n)
