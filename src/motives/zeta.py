"""Local zeta functions: exact series, rational form, trace formula.

The generating function exp(sum N_n t^n / n) is carried as a power
series with exact rational coefficients.  Reconstruction against a known
denominator runs in integers through the Newton core of motives.weil:
the numerator's reciprocal roots have power sums s_n(den) - N_n, so its
coefficients are exact integers or the input was not rational of the
declared shape.  Floating point enters only at root finding, weight
assignment and float input to the integer trace formula of motives.weil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .variety import CountSequence
from .weil import (_integer_poly, _newton_coeffs, _newton_power_sums, _reciprocal_roots,
                   _root_key, _signed_count)

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
    """Numerator/denominator, with the reciprocal roots derived from them
    and grouped by weight: odd weights from the numerator (zeros of the
    zeta function), even weights from the denominator (poles).
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    base_q: int
    roots_by_weight: tuple[tuple[int, tuple[complex, ...]], ...] = field(init=False)

    def __post_init__(self):
        grouped: dict[int, list[complex]] = {}
        for root in _reciprocal_roots(self.numerator) + _reciprocal_roots(self.denominator):
            grouped.setdefault(assign_weight(root, self.base_q), []).append(root)
        object.__setattr__(self, "roots_by_weight", tuple(sorted(
            (k, tuple(sorted(v, key=_root_key))) for k, v in grouped.items())))

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
    """Formal log of a series with constant term 1 (inverse of the exp):
    -s_n / n, from the power sums of the series read as a polynomial."""
    if s.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    return PowerSeries(tuple(Fraction(-s_n, n) if n else Fraction(0)
                             for n, s_n in enumerate(_newton_power_sums(s.coeffs, s.order))))


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


def _denominator(den) -> tuple[int, ...]:
    den = tuple(int(c) for c in den)
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    return den


def zeta_from_counts(counts, num_degree: int, den, base_q: int) -> RationalZeta:
    """The numerator P with exp(sum N_n t^n / n) = P(t) / den(t), from
    counts N_1..N_m, through the integer Newton core.

    P's reciprocal roots have power sums s_n = s_n(den) - N_n; Newton's
    identities turn s_1..s_d into P, dividing exactly or refusing.  Every
    surplus s_n must then come out of P forward (overdetermination
    check), which needs m >= num_degree + deg(den) + 2.  A num_degree
    above P's true degree passes, with trailing zero coefficients: the
    counts alone cannot tell it from bad reduction, where P's degree
    drops.
    """
    den = _denominator(den)
    m = len(counts)
    if num_degree < 0 or m < num_degree + len(den) + 1:
        raise ValueError("insufficient or inconsistent counts")
    s = [a - b for a, b in zip(_newton_power_sums(den, m), (0, *counts))]
    num = _newton_coeffs(s, num_degree, "not rational of declared shape")
    if _newton_power_sums(num, m)[num_degree + 1:] != s[num_degree + 1:]:
        raise ValueError("insufficient or inconsistent counts")
    return RationalZeta(num, den, base_q)


def rational_reconstruct(series: PowerSeries, num_degree: int, den,
                         base_q: int) -> RationalZeta:
    """zeta_from_counts on the counts of a zeta series, N_n = -s_n(series)
    with the series read as a polynomial; the series may be any exact
    rational one starting at 1."""
    den = _denominator(den)
    if series.coeffs[0] != 1:
        raise ValueError("zeta series must start at 1")
    counts = [-s_n for s_n in _newton_power_sums(series.coeffs, series.order)[1:]]
    return zeta_from_counts(counts, num_degree, den, base_q)


def trace_formula_count(alpha_table, n: int) -> int:
    """Signed eigenvalue-power sum: sum_k (-1)^k sum_i alpha_ik^n, exactly,
    from each weight's float eigenvalues rounded to prod (1 - alpha t)."""
    return _signed_count(((k, _integer_poly(alphas))
                          for k, alphas in dict(alpha_table).items() if len(alphas)), n)
