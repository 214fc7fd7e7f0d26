"""Local zeta functions: exact series, rational form, trace formula.

The generating function exp(sum N_n t^n / n) is carried as a power
series with exact rational coefficients; reconstruction against a known
denominator is a truncated series product, so the recovered numerator
coefficients are exact integers or the input was not rational of the
declared shape.  Floating point enters only at root finding and weight
assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .variety import CountSequence

INTEGRALITY_TOL = 1e-6
WEIGHT_WINDOW = 0.1
_EXACT_LOG = 53 * math.log(2.0)  # doubles hold every integer below 2^53


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


def _reciprocal_roots(coeffs: tuple[int, ...]) -> list[complex]:
    """Roots alpha of prod (1 - alpha t) = given polynomial."""
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) <= 1:
        return []
    return [complex(r) for r in np.roots(np.array(trimmed, dtype=float))]


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
        (k, tuple(sorted(v, key=lambda z: (round(z.real, 9), round(z.imag, 9)))))
        for k, v in grouped.items()))
    return RationalZeta(tuple(num), den, base_q, table)


def trace_formula_count(alpha_table, n: int) -> int:
    """Signed eigenvalue-power sum: sum_k (-1)^k sum_i alpha_ik^n.

    The sum must land within 1e-6 of an integer with imaginary part at
    most 1e-6 (guaranteed when every multiset is conjugation-closed and
    the weights come from an actual count of points).  Once sum |alpha|^n
    reaches 2^53 a double no longer holds every integer, so the count is
    refused; the bound is checked on logarithms, before any power is
    formed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    logs = [n * math.log(abs(complex(a)))
            for piece in dict(alpha_table).values() for a in piece if a]
    if logs:
        top = max(logs)
        if top + math.log(sum(math.exp(v - top) for v in logs)) >= _EXACT_LOG:
            raise ValueError("count exceeds float precision")
    total = 0j
    for k, alphas in dict(alpha_table).items():
        sign = -1 if k % 2 else 1
        for alpha in alphas:
            total += sign * complex(alpha) ** n
    nearest = round(total.real)
    if abs(total.imag) > INTEGRALITY_TOL or \
            abs(total.real - nearest) > INTEGRALITY_TOL:
        raise ValueError("non-integral trace sum")
    return int(nearest)
