"""Frobenius eigenvalues from point counts over small fields.

For an elliptic curve the affine count over F_{p^n} is p^n - s_n where
s_n is the n-th power sum of a conjugate pair of eigenvalues of modulus
sqrt(p); for a genus-g curve the projective count is p^n + 1 - s_n with
2g eigenvalues.  Polynomials are integer tuples (1, b_1, ..., b_d) =
prod (1 - alpha t), and Newton's identities turn them into exact power
sums and back for the zeta and motive modules too.  `is_weil_polynomial`
decides in integers whether such a polynomial is pure, every |alpha|^2 =
q^k, and `weight_pieces` splits one into pure pieces.  Complex floats
appear only in reported eigenvalues, derived from integer polynomials.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from itertools import count, islice, zip_longest
from operator import mul
from typing import Iterator

from .finite_field import Record, _trim, is_prime, prime_root


class WeilNumbers(Record):
    """A genus-g curve's Weil polynomial prod (1 - alpha t) over F_p, of its 2g
    reciprocal zeta-numerator roots alpha; an elliptic curve's pair is genus 1."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        # coeffs: b_0..b_{2g} with b_0 = 1
        if prime_root(p) is None:
            raise ValueError("base must be a prime power >= 2")
        if len(coeffs) % 2 == 0:
            raise ValueError("odd degree: not a curve's Weil polynomial")
        if not is_weil_polynomial(coeffs, p):
            raise ValueError("Weil bound violated")
        super().__init__(p, coeffs)

    @property
    def genus(self) -> int:
        return len(self.coeffs) // 2

    @property
    def roots(self) -> tuple[complex, ...]:
        """The alpha, sorted: a genus-1 pair's roots[-1] has im >= 0."""
        return weight_roots([(1, self.coeffs)])[1]

    def power_sum(self, n: int) -> int:
        """s_n = sum of alpha_i^n via the Newton recurrence, exactly."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return next(islice(_power_sums(self.coeffs), n, None))

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


def predict_affine_counts(alpha: WeilNumbers, n_max: int) -> Iterator[int]:
    """The predictions for n = 1..n_max in order, each computed only when
    taken, from one Newton sequence, with p^n carried from row to row
    rather than raised afresh for each."""
    p_n = 1
    for s_n in islice(_power_sums(alpha.coeffs), 1, n_max + 1):
        p_n *= alpha.p
        yield p_n - s_n


def correction_term(alpha: WeilNumbers, n: int) -> int:
    """The oscillating part of the count: N_affine - p^n = -s_n."""
    return -alpha.power_sum(n)


def _power_sums(coeffs) -> Iterator[int]:
    """The power sums s_0, s_1, ... of the reciprocal roots of sum b_j t^j,
    without end: s_0 is the degree, the number of roots, and a caller takes
    as many terms as it needs with zip or islice.

    Newton's identities, run forward: s_n = -(n b_n + sum_{j=1}^{n-1}
    b_j s_{n-j}), where b_j = 0 beyond the degree d, so only the last d
    power sums are kept.
    """
    d = len(coeffs) - 1
    yield d
    b, recent = coeffs[1:], deque(maxlen=d)  # recent: s_{n-1}, s_{n-2}, ...
    for n in count(1):
        s_n = -sum(map(mul, b, recent)) - (n * b[n - 1] if n <= d else 0)
        recent.appendleft(s_n)
        yield s_n


def _newton_coeffs(s, d: int, refusal: str = "inconsistent counts") -> tuple[int, ...]:
    """b_0..b_d from power sums s_1..s_d, dividing exactly or refusing."""
    b = [1]
    for j in range(1, d + 1):
        acc = sum(s[i] * b[j - i] for i in range(1, j + 1))
        if acc % j:
            raise ValueError(refusal)
        b.append(-acc // j)
    return tuple(b)


def _quotient(f, g) -> tuple[int, ...]:
    """f / g for integer polynomials (1, ...) where g divides f, exactly,
    through the Newton core: the quotient's power sums are f's less g's."""
    d = len(f) - len(g)
    sums = islice(zip(_power_sums(f), _power_sums(g)), d + 1)
    return _newton_coeffs([a - b for a, b in sums], d)


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
    s = list(islice(_power_sums(b), 2 * m + 1))
    t = [sum(math.comb(n, j) * q_k ** min(j, n - j) * s[abs(n - 2 * j)] for j in range(n + 1))
         for n in range(2 * m + 1)]
    return _is_psd([[4 * q_k * u - v for u, v in zip(t[i:i + m], t[i + 2:])] for i in range(m)])


def _gcd(a, b, modulus: int = 0) -> tuple[int, ...]:
    """The gcd of integer polynomials with nonzero constant terms, a's 1, or
    with a prime modulus one of the degree of their gcd over F_modulus: each
    step cancels the longer one's constant term and divides out t."""
    while b:
        if len(a) < len(b):
            a, b = b, a
        c = [b[0] * x - a[0] * y for x, y in zip_longest(a, b, fillvalue=0)]
        c = [x % modulus for x in c] if modulus else c
        while c and not c[0]:
            del c[0]
        g = math.gcd(*c)
        a, b = b, [x // g for x in _trim(c)]
    return tuple(x // a[0] for x in a)


def weight_pieces(coeffs, q: int, name: str = "polynomial") -> dict[int, tuple[int, ...]]:
    """Weight k -> the integer factor of prod (1 - alpha t) = coeffs whose
    alpha have |alpha|^2 = q^k (q >= 2), certified by is_weil_polynomial;
    an alpha of no weight refuses the whole, and zero alpha are left out.

    |b_d| is the product of every |alpha|, so a product of pieces has
    b_d^2 = q^s, s the sum of its weights and none above s: anything else
    is refused at once.  From s, or the top weight of Fujiwara's bound
    |alpha| <= 2 max |b_j|^(1/j) if lower, down, every alpha left has
    |alpha|^2 <= q^k, so weight k's piece is the gcd of the rest, of degree
    d, and its image sum b_(d-i) q^(ki) t^i under alpha -> q^k / conj(alpha);
    taken first mod the prime ell, it keeps its degree there if the rest
    is a product of pieces (b_d = +-p^m)."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not coeffs or coeffs[0] != 1:
        raise ValueError(f"{name} must have constant term 1")
    rest, ell, pieces = _trim(list(coeffs)), 2 ** 61 - 1, {}
    refusal = f"{name} is not a product of Weil polynomials"
    s = round(2 * math.log(abs(rest[-1]), q))  # only a proposal: the test is exact
    if rest[-1] ** 2 != q ** s:
        raise ValueError(refusal)
    top = next((k for k in range(s) if all(4 ** j * b * b <= q ** (k * j)
                                           for j, b in enumerate(rest))), s)
    for k in range(top, -1, -1):
        d, low = len(rest) - 1, [b % ell for b in rest]
        if q % ell and len(_gcd(low, [low[d - i] * pow(q, k * i, ell) % ell
                                      for i in range(d + 1)], ell)) == 1:
            continue
        piece = _gcd(rest, [rest[d - i] * q ** (k * i) for i in range(d + 1)])
        if not is_weil_polynomial(piece, q ** k):
            raise ValueError(refusal)
        pieces[k], rest = piece, _quotient(rest, piece)
    if len(rest) > 1:
        raise ValueError(refusal)
    return {k: piece for k, piece in sorted(pieces.items()) if len(piece) > 1}


def weight_roots(pieces) -> dict[int, tuple[complex, ...]]:
    """Weight -> the sorted reciprocal roots of its pieces (k, poly), for
    display.  They are found on square-free parts, f / gcd(f, f'), then
    again on the gcd, so that a root repeated e times is found e times
    rather than scattered by np.roots; a square-free piece passes as it is."""
    table: dict[int, tuple[complex, ...]] = {}
    for k, poly in pieces:
        roots, f = [], _trim(list(poly))
        try:
            while len(f) > 2:  # a root can repeat from degree 2 on
                df = [j * b for j, b in enumerate(f)][1:]
                while not df[0]:  # f(0) = 1: powers of t leave gcd(f, f') as it is
                    del df[0]
                g = _gcd(f, df)
                if len(g) == 1:
                    break
                roots += _reciprocal_roots(_quotient(f, g))
                f = g
            roots += _reciprocal_roots(f)
        except OverflowError:
            raise ValueError(f"weight {k} eigenvalues exceed the float range") from None
        table[k] = tuple(sorted((*table.get(k, ()), *roots), key=_root_key))
    return dict(sorted(table.items()))


def _reciprocal_roots(coeffs) -> list[complex]:
    """The nonzero alpha of prod (1 - alpha t) = (1, b_1, ..., b_d), sorted.

    Degree 0 has none.  Degree 2 takes the closed form
    (-b_1 -+ sqrt(b_1^2 - 4 b_2)) / 2, so a double root is exact and a
    conjugate pair (a +- i sqrt(4p - a^2)) / 2 is found in closed form;
    degrees 3 and up, square-free, take `_aberth`.
    """
    b = _trim(list(coeffs))
    if len(b) < 2:
        roots = []
    elif len(b) == 2:
        roots = [complex(-b[1])]
    elif len(b) == 3:
        r = cmath.sqrt(b[1] * b[1] - 4 * b[2])
        roots = [(-b[1] - r) / 2, (-b[1] + r) / 2]
    else:
        roots = _aberth(b)
    return sorted(roots, key=_root_key)


_ABERTH_SWEEPS = 500  # sweeps before the iterates are taken as they stand


def _aberth(b) -> list[complex]:
    """The simple roots of u^d + b_1 u^(d-1) + ... + b_d, d >= 3, integer
    b_j, by the Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27,
    1973): each iterate z moves by w / (1 - w sum_{j != k} 1 / (z - z_j)),
    w the Newton step p(z) / p'(z), in place, until every move is below
    2^-50 of its |z| or _ABERTH_SWEEPS sweeps pass.  The iterates start on
    the circle |u| = |b_d|^(1/d), where the roots' product puts their
    geometric mean, at angles turned off the real axis.  Each root then
    takes one Newton step in exact integers (`_exact_newton`): from a
    converged iterate, that leaves each part the double nearest the true
    root.  Floats and integers only, so the same input gives the same
    roots on every run."""
    d, fb = len(b) - 1, [float(c) for c in b]

    def step(z: complex) -> complex:  # the Newton step, Horner for p and p'
        v, dv = 1.0, 0.0
        for c in fb[1:]:
            dv = dv * z + v
            v = v * z + c
        return v / dv if dv else 0j

    radius = abs(fb[-1]) ** (1 / d)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
    for _ in range(_ABERTH_SWEEPS):
        done = True
        for k, zk in enumerate(z):
            if not (w := step(zk)):
                continue
            move = w / (1 - w * sum(1 / (zk - zj) for zj in z if zj != zk))
            z[k] = zk - move
            done = done and abs(move) <= abs(zk) * 2 ** -50
        if done:
            break
    return [_exact_newton(b, zk) for zk in z]


def _exact_newton(b, z: complex) -> complex:
    """z - p(z) / p'(z) for the integer p = sum b_j u^(d-j), b_0 = 1, in
    exact Gaussian integers, each part rounded once: z = Z / D with Z
    Gaussian, D a power of 2, and Horner carries D^j times its j-th
    values, V_j = V_(j-1) Z + b_j D^j and V'_j = V'_(j-1) Z + D V_(j-1),
    so that the new iterate is (Z V'_d - D V_d) / (D V'_d)."""
    if not cmath.isfinite(z):
        raise OverflowError("root past the float range")
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(xd, yd)
    zr, zi = xn * (den // xd), yn * (den // yd)
    vr, vi, dr, di, scale = 1, 0, 0, 0, 1
    for c in b[1:]:
        scale *= den
        dr, di = dr * zr - di * zi + den * vr, dr * zi + di * zr + den * vi
        vr, vi = vr * zr - vi * zi + c * scale, vr * zi + vi * zr
    nr, ni = zr * dr - zi * di - den * vr, zr * di + zi * dr - den * vi
    dr, di = den * dr, den * di
    norm = dr * dr + di * di
    if not norm:
        return z
    return complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)


def weil_numbers_from_counts(p: int, g: int, counts: "CountSequence") -> WeilNumbers:
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
