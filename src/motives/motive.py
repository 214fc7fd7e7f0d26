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

from functools import reduce
from itertools import islice
from operator import mul
from typing import Iterator

from .finite_field import Record, prime_root
from .weil import WeilNumbers, _newton_coeffs, _power_sums, is_weil_polynomial, weight_roots

# The largest degree of a tensor product's piece: Newton's identities cost
# time quadratic in it, on integers of thousands of digits.  A piece of
# degree 252 (the fifth power of an elliptic curve's motive over F_101)
# takes about 0.2 s, one of degree 420 about 4 s.
TENSOR_DEGREE_LIMIT = 256


class Motive(Record):
    """Weight -> eigenvalue polynomial over the field with base_q elements."""

    __slots__ = ("base_q", "pieces")

    def __init__(self, base_q: int, pieces: tuple[tuple[int, tuple[int, ...]], ...]):
        if prime_root(base_q) is None:
            raise ValueError("base must be a prime power >= 2")
        for k, poly in pieces:
            if k < 0 or not isinstance(k, int):
                raise ValueError("weights must be nonnegative integers")
            if len(poly) < 2:
                raise ValueError("empty weight piece must be omitted")
        super().__init__(base_q, pieces)

    def weight_table(self) -> dict[int, tuple[complex, ...]]:
        return weight_roots(self.pieces)

    def betti(self, k: int) -> int:
        return len(dict(self.pieces).get(k, (1,))) - 1


def make_motive(base_q: int, pieces: dict) -> Motive:
    """Check a weight -> polynomial mapping into a Motive.

    Weight k's piece is (1, b_1, ..., b_d) = prod (1 - alpha t) over its
    eigenvalues, in ints, and pure: is_weil_polynomial(piece, q^k).  A
    piece (1,) has no eigenvalues and is left out.
    """
    out = []
    for k, poly in sorted(pieces.items()):
        poly = tuple(poly)
        if not all(isinstance(b, int) for b in poly):
            raise ValueError(f"weight {k} coefficients must be integers")
        if poly[:1] != (1,):
            raise ValueError(f"weight {k} piece must have constant term 1")
        if len(poly) > 1:
            out.append((k, poly))
    m = Motive(base_q, tuple(out))
    if not all(is_weil_polynomial(poly, base_q ** k) for k, poly in out):
        raise ValueError("purity violated: eigenvalue modulus is not q^(k/2)")
    return m


def _from_power_sums(base_q: int, terms) -> Motive:
    """The motive whose weight-w power sums add up the Newton sequences
    s_0, s_1, ... of the terms (w, sums) at weight w.  Each s_0 is a
    degree, so their total d says how many more terms to take."""
    by_weight: dict[int, list] = {}
    for w, seq in terms:
        by_weight.setdefault(w, []).append(seq)
    pieces = []
    for w in sorted(by_weight):
        sums = map(sum, zip(*by_weight[w]))
        d = next(sums)
        pieces.append((w, _newton_coeffs([d, *islice(sums, d)], d)))
    return Motive(base_q, tuple(pieces))


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
    return _from_power_sums(a.base_q, [(k, _power_sums(x)) for k, x in a.pieces + b.pieces])


def _degrees(m: Motive) -> dict[int, int]:
    return {k: len(poly) - 1 for k, poly in m.pieces}


def _product_degrees(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Weight -> degree of the tensor product of pieces of these degrees,
    the sum over j + k = w of d_j d_k; refused past TENSOR_DEGREE_LIMIT."""
    out: dict[int, int] = {}
    for j, x in a.items():
        for k, y in b.items():
            out[j + k] = out.get(j + k, 0) + x * y
    w, d = max(out.items(), key=lambda piece: piece[1], default=(0, 0))
    if d > TENSOR_DEGREE_LIMIT:
        raise ValueError(f"tensor product piece of weight {w} has degree {d}, "
                         f"past the limit of {TENSOR_DEGREE_LIMIT}")
    return out


def tensor(a: Motive, b: Motive) -> Motive:
    """Weights add, eigenvalues multiply pairwise: power sums multiply."""
    if a.base_q != b.base_q:
        raise ValueError("base mismatch")
    _product_degrees(_degrees(a), _degrees(b))
    return _from_power_sums(a.base_q, [(j + k, map(mul, _power_sums(x), _power_sums(y)))
                                       for j, x in a.pieces for k, y in b.pieces])


def tensor_power(a: Motive, e: int) -> Motive:
    """a tensored with itself e times, refused before any factor is built
    if a piece of it would pass TENSOR_DEGREE_LIMIT."""
    if e < 0:
        raise ValueError("negative tensor power")
    reduce(_product_degrees, [_degrees(a)] * e, {0: 1})
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
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(islice(point_counts(m, n), n - 1, None))


def point_counts(m: Motive, n_max: int) -> Iterator[int]:
    """The trace formula sum_k (-1)^k s_n over the weight pieces for
    n = 1..n_max in order, each computed only when taken, from one Newton
    sequence per piece."""
    pieces = [((-1) ** k, islice(_power_sums(poly), 1, None)) for k, poly in m.pieces]
    for _ in range(n_max):
        yield sum(sign * next(sums) for sign, sums in pieces)
