"""Frobenius eigenvalues from point counts over small fields.

For an elliptic curve the affine count over F_{p^n} is p^n - s_n where
s_n is the n-th power sum of a conjugate pair of eigenvalues of modulus
sqrt(p); for a genus-g curve the projective count is p^n + 1 - s_n with
2g eigenvalues.  Polynomials are integer tuples (1, b_1, ..., b_d) =
prod (1 - alpha t), and Newton's identities turn them into exact power
sums and back for the zeta and motive modules too.  Whether such a
polynomial is pure, every |alpha|^2 = q^k, is decided in integers by
`is_weil_polynomial`.  Complex floats appear only in reported
eigenvalues, which `WeilNumbers` derives from its integer polynomial, and
in `verify_weil_rh`'s check of floats a caller hands in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .finite_field import is_prime, prime_root
from .variety import CountSequence

MODULUS_TOL = 1e-9
INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class WeilNumbers:
    """A genus-g curve's Weil polynomial prod (1 - alpha t) over F_p, of its 2g
    reciprocal zeta-numerator roots alpha; an elliptic curve's pair is genus 1."""

    p: int
    coeffs: tuple[int, ...]      # b_0..b_{2g} with b_0 = 1

    def __post_init__(self):
        if prime_root(self.p) is None:
            raise ValueError("base must be a prime power >= 2")
        if len(self.coeffs) % 2 == 0:
            raise ValueError("odd degree: not a curve's Weil polynomial")
        if not is_weil_polynomial(self.coeffs, self.p):
            raise ValueError("Weil bound violated")

    @property
    def genus(self) -> int:
        return len(self.coeffs) // 2

    @property
    def roots(self) -> tuple[complex, ...]:
        """The alpha, sorted: a genus-1 pair's roots[-1] has im >= 0."""
        return tuple(_reciprocal_roots(self.coeffs))

    def power_sum(self, n: int) -> int:
        """s_n = sum of alpha_i^n via the Newton recurrence, exactly."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return _newton_power_sums(self.coeffs, n)[n]

    def predict_projective_count(self, n: int) -> int:
        return self.p ** n + 1 - self.power_sum(n)


def _root_key(z: complex) -> tuple[float, float]:
    return (round(z.real, 9), round(z.imag, 9))


def hasse_alpha(p: int, n1_affine: int) -> WeilNumbers:
    """An elliptic curve's pair 1 - a t + p t^2 from its affine count
    N_1 = p - a over the prime field; roots[-1] is the eigenvalue in the
    upper half plane.  Counts with |a| > 2*sqrt(p) cannot come from an
    elliptic curve and are rejected.
    """
    if not is_prime(p):
        raise ValueError("not prime")
    a = p - n1_affine
    if a * a > 4 * p:
        raise ValueError("not an elliptic-curve count")
    return WeilNumbers(p, (1, -a, p))


def predict_affine_count(alpha: WeilNumbers, n: int) -> int:
    """p^n - (alpha^n + conj(alpha)^n), exactly."""
    return alpha.p ** n - alpha.power_sum(n)


def predict_affine_counts(alpha: WeilNumbers, n_max: int) -> list[int]:
    """The predictions for n = 1..n_max from one Newton run, with p^n
    carried from row to row rather than raised afresh for each."""
    out, p_n = [], 1
    for s_n in _newton_power_sums(alpha.coeffs, n_max)[1:]:
        p_n *= alpha.p
        out.append(p_n - s_n)
    return out


def correction_term(alpha: WeilNumbers, n: int) -> int:
    """The oscillating part of the count: N_affine - p^n = -s_n."""
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


def _signed_counts(pieces, n_max: int) -> list[int]:
    """The trace formula sum_k (-1)^k s_n over (weight k, polynomial)
    pairs for n = 1..n_max, from one Newton run per piece."""
    total = [0] * n_max
    for k, poly in pieces:
        sign = (-1) ** k
        for n, s_n in enumerate(_newton_power_sums(poly, n_max)[1:]):
            total[n] += sign * s_n
    return total


def _signed_count(pieces, n: int) -> int:
    """The trace formula at the single n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _signed_counts(pieces, n)[-1]


def _newton_coeffs(s, d: int, refusal: str = "inconsistent counts") -> tuple[int, ...]:
    """b_0..b_d from power sums s_1..s_d, dividing exactly or refusing."""
    b = [1]
    for j in range(1, d + 1):
        acc = sum(s[i] * b[j - i] for i in range(1, j + 1))
        if acc % j:
            raise ValueError(refusal)
        b.append(-acc // j)
    return tuple(b)


def _is_psd(a) -> bool:
    """Whether the symmetric integer matrix a is positive semidefinite, by
    Bareiss's fraction-free symmetric elimination: no pivot is negative, a
    zero pivot has a zero row, and each step divides exactly by the last
    nonzero pivot, a positive leading minor, so every entry keeps the sign
    of its value in the elimination over the rationals."""
    a, last = [list(row) for row in a], 1
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1:])):
            return False
        for below in a[k + 1:] if pivot else ():
            f = below[k]
            below[k + 1:] = [(pivot * u - f * v) // last for u, v in zip(below[k + 1:], row[k + 1:])]
        last = pivot or last
    return True


def is_weil_polynomial(coeffs, q_k: int) -> bool:
    """Whether every alpha of prod (1 - alpha t) = coeffs has |alpha|^2 = q_k,
    decided in integers.

    The functional equation b_{d-j} q_k^j = b_d b_j closes the alpha, none
    0, under alpha -> q_k / alpha, so beta = alpha + q_k / alpha has the
    integer power sums t_n = sum_j C(n, j) q_k^min(j, n-j) s_|n-2j|.  With
    m = d // 2 + 1, at least the distinct beta, [4 q_k t_{i+j} - t_{i+j+2}]
    (i, j < m) is Hermite's form sum (4 q_k - beta^2) L_beta(x)^2 in
    independent L_beta: positive semidefinite iff every beta is real with
    beta^2 <= 4 q_k (a non-real pair adds 2 Re(c L^2), c != 0, indefinite),
    that is iff every |alpha|^2 = q_k.
    """
    b, d = tuple(coeffs), len(coeffs) - 1
    if b[0] != 1 or any(b[d - j] * q_k ** j != b[d] * b[j] for j in range(d + 1)):
        return False
    m = d // 2 + 1
    s = _newton_power_sums(b, 2 * m)
    t = [sum(math.comb(n, j) * q_k ** min(j, n - j) * s[abs(n - 2 * j)] for j in range(n + 1))
         for n in range(2 * m + 1)]
    return _is_psd([[4 * q_k * u - v for u, v in zip(t[i:i + m], t[i + 2:])] for i in range(m)])


def _integer_poly(roots, q_k: int | None = None) -> tuple[int, ...]:
    """prod (1 - alpha t) of float eigenvalues, rounded.  Refused once doubles
    are spaced wider than the tolerance (from 2^33); with q_k, then for a
    non-real coefficient or unless is_weil_polynomial passes the rounding;
    last, unless each coefficient is near an integer."""
    import numpy as np  # only float eigenvalues reach here

    c = np.poly(np.array(roots, dtype=complex))
    if any(math.ulp(abs(x)) > INTEGRALITY_TOL for x in c):
        raise ValueError("coefficient exceeds float precision")
    out = tuple(int(round(x.real)) for x in c)
    if q_k is not None:
        if any(abs(x.imag) > INTEGRALITY_TOL for x in c):
            raise ValueError("roots not closed under conjugation")
        if not is_weil_polynomial(out, q_k):
            raise ValueError("purity violated: eigenvalue modulus is not q^(k/2)")
    if any(abs(x.imag) > INTEGRALITY_TOL or abs(x.real - n) > INTEGRALITY_TOL
           for x, n in zip(c, out)):
        raise ValueError("non-integral eigenvalue polynomial")
    return out


def _reciprocal_roots(coeffs) -> list[complex]:
    """The nonzero alpha of prod (1 - alpha t) = (1, b_1, ..., b_d), sorted.

    Degree 2 takes the closed form (-b_1 -+ sqrt(b_1^2 - 4 b_2)) / 2, so a
    double root is exact and a conjugate pair (a +- i sqrt(4p - a^2)) / 2 is
    found without numpy; higher degrees use np.roots.
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
        import numpy as np  # degree 3 and up
        roots = [complex(r) for r in np.roots(np.array(b, dtype=float))]
    return sorted(roots, key=_root_key)


def weil_numbers_from_counts(p: int, g: int, counts: CountSequence) -> WeilNumbers:
    """Recover the 2g eigenvalues' Weil polynomial from projective counts N_1..N_g.

    The power sums s_n = p^n + 1 - N_n determine b_1..b_g by Newton's
    identities; b_{g+1}..b_{2g} follow from the functional-equation
    symmetry b_{2g-j} = p^(g-j) * b_j.  WeilNumbers checks the Weil bound
    on these integers with is_weil_polynomial; the eigenvalues, the roots
    of sum b_j u^(2g-j), are found numerically only to be reported.
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
    return WeilNumbers(p, coeffs)


def verify_weil_rh(roots, p: int, k: int) -> tuple[bool, float]:
    """Check | |alpha| - p^(k/2) | <= 1e-9 * p^(k/2) for every root.

    Returns (ok, max relative deviation).
    """
    target = p ** (k / 2.0)
    worst = 0.0
    for r in roots:
        worst = max(worst, abs(abs(complex(r)) - target) / target)
    return worst <= MODULUS_TOL, worst
