"""Weight-graded calculus for pure motives, on integer polynomials.

A motive is represented by the only data its point counts see: for each
weight k, the integer polynomial prod (1 - alpha t) of its eigenvalues of
modulus q^(k/2), of degree the Betti number.  Direct sum adds the power
sums of Newton's identities, tensor product adds weights and multiplies
them, and the signed trace formula gives exact counts over F_{q^n}.
Nothing here constructs motives from cycles; the representation is the
linear-algebra shadow and the count identities are what get verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .finite_field import prime_root
from .weil import (
    WeilNumbers,
    _integer_poly,
    _newton_coeffs,
    _newton_power_sums,
    _reciprocal_roots,
    _signed_count,
    _signed_counts,
)


@dataclass(frozen=True)
class Motive:
    """Weight -> eigenvalue polynomial over the field with base_q elements."""

    base_q: int
    pieces: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if prime_root(self.base_q) is None:
            raise ValueError("base must be a prime power >= 2")
        for k, poly in self.pieces:
            if k < 0 or not isinstance(k, int):
                raise ValueError("weights must be nonnegative integers")
            if len(poly) < 2:
                raise ValueError("empty weight piece must be omitted")

    def weight_table(self) -> dict[int, tuple[complex, ...]]:
        table = {}
        for k, poly in self.pieces:
            try:
                table[k] = tuple(_reciprocal_roots(poly))
            except OverflowError:
                raise ValueError(f"weight {k} eigenvalues exceed the float "
                                 "range") from None
        return table

    def betti(self, k: int) -> int:
        return len(dict(self.pieces).get(k, (1,))) - 1


def make_motive(base_q: int, pieces: dict) -> Motive:
    """Check and round a weight -> eigenvalues mapping into a Motive."""
    out = []
    for k in sorted(pieces):
        alphas = [complex(a) for a in pieces[k]]
        if not alphas:
            continue
        out.append((int(k), _integer_poly(alphas, base_q ** int(k))))
    return Motive(base_q, tuple(out))


def _from_power_sums(base_q: int, terms) -> Motive:
    """The motive whose weight-w power sums add up the terms (w, degree,
    sums) at weight w, where sums(n) gives s_0..s_n."""
    degree: dict[int, int] = {}
    for w, d, _ in terms:
        degree[w] = degree.get(w, 0) + d
    pieces = []
    for w in sorted(degree):
        cols = zip(*(sums(degree[w]) for v, _, sums in terms if v == w))
        pieces.append((w, _newton_coeffs([sum(c) for c in cols], degree[w])))
    return Motive(base_q, tuple(pieces))


def zero_motive(base_q: int) -> Motive:
    """The empty motive, unit for direct sum (zero points everywhere)."""
    return Motive(base_q, ())


def unit_motive(base_q: int) -> Motive:
    """h of a single point: one weight-0 eigenvalue 1."""
    return Motive(base_q, ((0, (1, -1)),))


def lefschetz_motive(base_q: int) -> Motive:
    """The weight-2 line piece: single eigenvalue q."""
    return Motive(base_q, ((2, (1, -base_q)),))


def direct_sum(a: Motive, b: Motive) -> Motive:
    """Weightwise union: power sums add."""
    if a.base_q != b.base_q:
        raise ValueError("base mismatch")
    return _from_power_sums(a.base_q, [
        (k, len(x) - 1, lambda n, x=x: _newton_power_sums(x, n))
        for k, x in a.pieces + b.pieces])


def tensor(a: Motive, b: Motive) -> Motive:
    """Weights add, eigenvalues multiply pairwise: power sums multiply."""
    if a.base_q != b.base_q:
        raise ValueError("base mismatch")
    return _from_power_sums(a.base_q, [
        (j + k, (len(x) - 1) * (len(y) - 1),
         lambda n, x=x, y=y: [u * v for u, v in zip(_newton_power_sums(x, n),
                                                    _newton_power_sums(y, n))])
        for j, x in a.pieces for k, y in b.pieces])


def tensor_power(a: Motive, e: int) -> Motive:
    if e < 0:
        raise ValueError("negative tensor power")
    return reduce(tensor, [a] * e, unit_motive(a.base_q))


def motive_of_projective_space(dim: int, base_q: int) -> Motive:
    """h(1) + L + L^2 + ... + L^dim: eigenvalue q^k in weight 2k."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    return Motive(base_q, tuple((2 * k, (1, -base_q ** k)) for k in range(dim + 1)))


def motive_of_elliptic_curve(wn: WeilNumbers) -> Motive:
    """Point, the pair 1 - a t + p t^2 in weight 1, and line piece."""
    return Motive(wn.p, ((0, (1, -1)), (1, wn.coeffs), (2, (1, -wn.p))))


def point_count(m: Motive, n: int) -> int:
    """Points over F_{q^n} by the signed trace formula, in integers."""
    return _signed_count(m.pieces, n)


def point_counts(m: Motive, n_max: int) -> list[int]:
    """point_count(m, n) for n = 1..n_max, from one Newton run per piece."""
    return _signed_counts(m.pieces, n_max)
