"""Local zeta functions: exact series and rational form.

The generating function exp(sum N_n t^n / n) is carried as a power
series with exact rational coefficients.  Reconstruction against a known
denominator runs in integers through the Newton core of motives.weil:
the numerator's reciprocal roots have power sums s_n(den) - N_n, so its
coefficients are exact integers or the input was not rational of the
declared shape.  Both polynomials split by weight into integer pieces
that weil.weight_pieces certifies pure; floating point enters only at
the roots a RationalZeta reports, for display.
"""

from __future__ import annotations

from itertools import islice

from .finite_field import Record, prime_root
from .variety import CountSequence
from .weil import _newton_coeffs, _power_sums, weight_pieces, weight_roots


class PowerSeries(Record):
    """Truncated series c_0 + c_1 t + ... + c_m t^m, exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple["Fraction", ...]):
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


class RationalZeta(Record):
    """Numerator/denominator, each split by weight into integer pieces: the
    zeros of the zeta function, of any weight, and its poles."""

    __slots__ = ("numerator", "denominator", "base_q", "numerator_pieces", "denominator_pieces")

    def __init__(self, numerator: tuple[int, ...], denominator: tuple[int, ...], base_q: int):
        if prime_root(base_q) is None:
            raise ValueError("base must be a prime power >= 2")
        polys = (("numerator", numerator), ("denominator", denominator))
        pieces = (tuple(weight_pieces(poly, base_q, name).items()) for name, poly in polys)
        super().__init__(numerator, denominator, base_q, *pieces)

    def weight_table(self) -> dict[int, tuple[complex, ...]]:
        """Weight -> the reciprocal roots of its pieces, zeros and poles."""
        return weight_roots(self.numerator_pieces + self.denominator_pieces)


def zeta_series(counts) -> PowerSeries:
    """exp(sum N_n t^n / n) to order m = number of counts supplied.

    Term-by-term: with L(t) = sum N_n t^n / n, the exponential satisfies
    Z' = L'Z, giving m*z_m = sum_{j=1..m} N_j z_{m-j} over exact
    rationals.
    """
    from fractions import Fraction  # only the series paths build rationals

    vals = counts.counts if isinstance(counts, CountSequence) else tuple(int(c) for c in counts)
    if not vals:
        raise ValueError("empty count sequence")
    z = [Fraction(1)]
    for m in range(1, len(vals) + 1):
        z.append(sum(Fraction(vals[j - 1]) * z[m - j] for j in range(1, m + 1))
                 / m)
    return PowerSeries(tuple(z))


def expand_rational(num, den, order: int) -> PowerSeries:
    """Series of num(t)/den(t) to the given order; den(0) must be 1, so
    c_m = num_m - sum_{j>=1} den_j c_{m-j}."""
    from fractions import Fraction

    num = [Fraction(c) for c in num] + [Fraction(0)] * (order + 1 - len(num))
    den = [Fraction(c) for c in den]
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    c = []
    for m in range(order + 1):
        c.append(num[m] - sum(den[j] * c[m - j] for j in range(1, min(m, len(den) - 1) + 1)))
    return PowerSeries(tuple(c))


def curve_denominator(q: int) -> tuple[int, ...]:
    """(1 - t)(1 - q t) as ascending coefficients."""
    return (1, -(q + 1), q)


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
    den = tuple(int(c) for c in den)
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    m = len(counts)
    if num_degree < 0 or m < num_degree + len(den) + 1:
        raise ValueError("insufficient or inconsistent counts")
    s = [a - b for a, b in zip(_power_sums(den), (0, *counts))]
    num = _newton_coeffs(s, num_degree, "not rational of declared shape")
    if list(islice(_power_sums(num), num_degree + 1, m + 1)) != s[num_degree + 1:]:
        raise ValueError("insufficient or inconsistent counts")
    return RationalZeta(num, den, base_q)


def rational_reconstruct(series: PowerSeries, num_degree: int, den,
                         base_q: int) -> RationalZeta:
    """zeta_from_counts on the counts of a zeta series, N_n = -s_n(series)
    with the series read as a polynomial; the series may be any exact
    rational one starting at 1."""
    if series.coeffs[0] != 1:
        raise ValueError("zeta series must start at 1")
    counts = [-s_n for s_n in islice(_power_sums(series.coeffs), 1, series.order + 1)]
    return zeta_from_counts(counts, num_degree, den, base_q)
