"""Frobenius eigenvalues from point counts over small fields.

For an elliptic curve the affine count over F_{p^n} is p^n - s_n where
s_n is the n-th power sum of a conjugate pair of eigenvalues of modulus
sqrt(p); for a genus-g curve the projective count is p^n + 1 - s_n with
2g eigenvalues.  Polynomials are integer tuples (1, b_1, ..., b_d) =
prod (1 - alpha t), and Newton's identities turn them into exact power
sums and back for the zeta and motive modules too.  Complex floats only
appear when reporting eigenvalues and checking their moduli.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .finite_field import is_prime
from .variety import CountSequence

MODULUS_TOL = 1e-9
WEIL_CHECK_TOL = 1e-6
INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class FrobeniusAlpha:
    """One eigenvalue alpha (im >= 0) with alpha + conj(alpha) = trace_a."""

    re: float
    im: float
    p: int
    trace_a: int

    def __post_init__(self):
        if abs(self.alpha * self.alpha.conjugate() - self.p) > MODULUS_TOL * self.p:
            raise ValueError("eigenvalue modulus differs from sqrt(p)")
        if self.trace_a * self.trace_a > 4 * self.p:
            raise ValueError("trace violates the Hasse bound")

    @property
    def alpha(self) -> complex:
        return complex(self.re, self.im)

    def power_sum(self, n: int) -> int:
        """alpha^n + conj(alpha)^n, exactly."""
        return trace_power_sum(self.trace_a, self.p, n)


@dataclass(frozen=True)
class WeilNumbers:
    """2g reciprocal zeta-numerator roots for a genus-g curve over F_p."""

    p: int
    genus: int
    coeffs: tuple[int, ...]      # b_0..b_{2g} with b_0 = 1
    roots: tuple[complex, ...]   # the alpha_i, conjugation-closed

    def __post_init__(self):
        _check_pure(self.roots, math.sqrt(self.p), WEIL_CHECK_TOL, "Weil bound violated")

    def power_sum(self, n: int) -> int:
        """s_n = sum of alpha_i^n via the Newton recurrence, exactly."""
        return _newton_power_sums(self.coeffs, n)[n]

    def predict_projective_count(self, n: int) -> int:
        return self.p ** n + 1 - self.power_sum(n)


def _root_key(z: complex) -> tuple[float, float]:
    return (round(z.real, 9), round(z.imag, 9))


def _check_pure(roots, modulus: float, tol: float, off_modulus: str) -> None:
    """Refuse roots off |alpha| = modulus or not closed under conjugation."""
    if any(abs(abs(r) - modulus) > tol * modulus for r in roots):
        raise ValueError(off_modulus)
    plain = sorted(roots, key=_root_key)
    conj = sorted((r.conjugate() for r in roots), key=_root_key)
    if any(abs(u - v) > tol * max(1.0, abs(u)) for u, v in zip(plain, conj)):
        raise ValueError("roots not closed under conjugation")


def trace_power_sum(a: int, p: int, n: int) -> int:
    """s_n = alpha^n + conj(alpha)^n for the pair with sum a, product p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _newton_power_sums((1, -a, p), n)[n]


def hasse_alpha(p: int, n1_affine: int) -> FrobeniusAlpha:
    """Eigenvalue pair from the affine count over the prime field.

    The affine count N_1 = p - a determines the trace a; the pair is the
    two roots of x^2 - a*x + p, and we report the one in the upper half
    plane.  Counts with |a| > 2*sqrt(p) cannot come from an elliptic
    curve and are rejected.
    """
    if not is_prime(p):
        raise ValueError("not prime")
    a = p - n1_affine
    if a * a > 4 * p:
        raise ValueError("not an elliptic-curve count")
    return FrobeniusAlpha(a / 2.0, math.sqrt(4 * p - a * a) / 2.0, p, a)


def predict_affine_count(alpha: FrobeniusAlpha, n: int) -> int:
    """p^n - (alpha^n + conj(alpha)^n), exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return alpha.p ** n - alpha.power_sum(n)


def predict_affine_counts(alpha: FrobeniusAlpha, n_max: int) -> list[int]:
    """The predictions for n = 1..n_max from one Newton run."""
    s = _newton_power_sums((1, -alpha.trace_a, alpha.p), n_max)
    return [alpha.p ** n - s[n] for n in range(1, n_max + 1)]


def correction_term(alpha: FrobeniusAlpha, n: int) -> int:
    """The oscillating part of the count: N_affine - p^n = -s_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -alpha.power_sum(n)


def _newton_power_sums(coeffs: tuple[int, ...], n_max: int) -> list[int]:
    """Power sums s_0..s_n_max of the reciprocal roots of sum b_j t^j.

    Newton's identities, run forward: for n <= deg,
    s_n = -(n*b_n + sum_{i=1}^{n-1} s_i b_{n-i}); beyond the degree the
    b-weighted window slides with no n*b_n term.
    """
    deg = len(coeffs) - 1
    s = [deg]  # s_0 = number of roots
    for n in range(1, n_max + 1):
        acc = n * coeffs[n] if n <= deg else 0
        for i in range(max(1, n - deg), n):
            acc += s[i] * coeffs[n - i]
        s.append(-acc)
    return s


def _signed_count(pieces, n: int) -> int:
    """The trace formula sum_k (-1)^k s_n over (weight k, polynomial) pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum((-1) ** k * _newton_power_sums(poly, n)[n] for k, poly in pieces)


def _newton_coeffs(s, d: int) -> tuple[int, ...]:
    """b_0..b_d from power sums s_1..s_d, dividing exactly or refusing."""
    b = [1]
    for j in range(1, d + 1):
        acc = sum(s[i] * b[j - i] for i in range(1, j + 1))
        if acc % j:
            raise ValueError("inconsistent counts")
        b.append(-acc // j)
    return tuple(b)


def _integer_poly(roots) -> tuple[int, ...]:
    """prod (1 - alpha t) of float eigenvalues, rounded; refused unless each
    coefficient is near an integer, and once doubles there are spaced wider
    than that tolerance (from 2^33), where nearness stops meaning anything."""
    out = []
    for c in np.poly(np.array(roots, dtype=complex)):
        if math.ulp(abs(c)) > INTEGRALITY_TOL:
            raise ValueError("coefficient exceeds float precision")
        near = round(c.real)
        if abs(c.imag) > INTEGRALITY_TOL or abs(c.real - near) > INTEGRALITY_TOL:
            raise ValueError("non-integral eigenvalue polynomial")
        out.append(int(near))
    return tuple(out)


def _reciprocal_roots(coeffs) -> list[complex]:
    """The nonzero alpha of prod (1 - alpha t) = (1, b_1, ..., b_d), sorted.

    Degree 2 takes the closed form of hasse_alpha, so a pair prints the
    same bytes and a double root is exact; higher degrees use np.roots.
    """
    b = list(coeffs)
    while b and b[-1] == 0:
        b.pop()
    if len(b) == 2:
        roots = [complex(-b[1])]
    elif len(b) == 3:
        r = cmath.sqrt(b[1] * b[1] - 4 * b[2])
        roots = [(-b[1] - r) / 2, (-b[1] + r) / 2]
    else:
        roots = [complex(r) for r in np.roots(np.array(b, dtype=float))]
    return sorted(roots, key=_root_key)


def weil_numbers_from_counts(p: int, g: int, counts: CountSequence) -> WeilNumbers:
    """Recover the 2g eigenvalues from projective counts N_1..N_g.

    The power sums s_n = p^n + 1 - N_n determine b_1..b_g by Newton's
    identities; b_{g+1}..b_{2g} follow from the functional-equation
    symmetry b_{2g-j} = p^(g-j) * b_j.  The eigenvalues are the roots of
    sum b_j u^(2g-j), found numerically and checked against the Weil bound.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if not counts.projective_flag:
        raise ValueError("projective counts required")
    if len(counts.counts) < g:
        raise ValueError("need at least g counts")
    if counts.p != p:
        raise ValueError("count sequence is over a different prime")
    s = [2 * g] + [p ** n + 1 - counts.counts[n - 1] for n in range(1, g + 1)]
    b = _newton_coeffs(s, g)
    coeffs = b + tuple(p ** (g - j) * b[j] for j in range(g - 1, -1, -1))
    return WeilNumbers(p, g, coeffs, tuple(_reciprocal_roots(coeffs)))


def verify_weil_rh(roots, p: int, k: int) -> tuple[bool, float]:
    """Check | |alpha| - p^(k/2) | <= 1e-9 * p^(k/2) for every root.

    Returns (ok, max relative deviation).
    """
    target = p ** (k / 2.0)
    worst = 0.0
    for r in roots:
        worst = max(worst, abs(abs(complex(r)) - target) / target)
    return worst <= MODULUS_TOL, worst
