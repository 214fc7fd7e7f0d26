"""Polynomial systems over Z and exhaustive point counting over F_q.

A PolySystem is a list of multivariate polynomials with integer
coefficients.  Counting reduces every coefficient mod p and lays F_q^k
out as rows, the tuples of the first k - 1 variables, times columns, the
q values of the last one, y; the product plan's first variable takes one
value per Frobenius orbit, weighted by its size.  This module parses,
plans (`PLANS`) and charges each count in pure Python.  Each plan's count
picks its own kernel; the fibre plan's (`_count_fibre`) mostly count in
pure Python too, on planes for p = 2 and 3 or through codes.  The arrays
(field tables, tiles, the join, the larger odd-p fibre counts) live in `grid`,
which imports numpy and is itself imported only when a count builds its
first grid.  Projective charts x_lead = 1 are affine counts.

Text format, one polynomial per line: integer-coefficient monomials
joined with + and -, variables x1..xk with k <= 29 (x, y, z for k <= 3),
'^' or '**' for powers, '*' optional, '#' starts a comment.  Example:

    y^2 + y - x^3 - x

A parsed polynomial is canonical: one monomial per exponent vector, none
with coefficient 0, in the order of their (variable, exponent) pairs with
exponent > 0, so the constant comes first and x^0 - 1 is the zero
polynomial.  num_vars is the highest variable index written, at exponent
0 too, except in terms that cancel as written (x3 - x3 is in one variable).
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable
from itertools import islice
from typing import NamedTuple

from .finite_field import (MAX_FIELD_SIZE, FieldSpec, Record, is_prime, make_field,
                           multiplicative_generator, prime_root)

WORK_LIMIT = 2 ** 28  # tuples a count may enumerate
DEFAULT_CHUNK_SIZE = 1 << 14
# the enumerated tuples (a plan's charge) from which a field's tiles go to a pool.
# Set on full F_2 grids, before the product grid took one row per Frobenius
# orbit: y^2 + xy + y = x^3 + x^2 + x, warm, 2 CPUs, serial vs a new 2-worker
# pool, 0.26-0.29 vs 0.30-0.34 s at 2^26 tuples (F_2^13), 1.13-1.29 vs
# 0.66-0.78 s at 2^28 (F_2^14).  On orbit rows the same curve takes 1.26-1.59 vs
# 0.84-0.94 s at 2^27 (F_11587) and 2.69-2.91 vs 1.55-1.66 s over F_151^2
POOL_MIN_TUPLES = 2 ** 27
# the largest charge at which the fibre plan counts p >= 5 in pure Python (the rule
# is `_count_fibre`'s; codes through an exp list and a log map of q Python ints): a
# sequence charged at most this never imports numpy, about 66 ms a process.
# Fresh-process wall times of the whole sequence in Python vs numpy's import and
# the array count, min of 7, 2 CPUs (`python -c pass` 38 ms): y^2 + xy = x^5 + x + 1
# to F_5^7 0.183 vs 0.134 s, and to F_5^6 (15625 rows) 0.081 vs 0.130 s, so 2^14
# keeps about 50 ms in hand.  A caller that has loaded numpy already would count
# faster on the arrays (whole sequences, warm, min of 5, arrays vs codes: the same
# curve to F_5^6 8.0 vs 27 ms); the rule does not ask, so that the kernel follows
# from the system, p and the charge alone
ARRAY_MIN_CHARGE = 2 ** 14
# the rows per block of the bit planes (`_plane_count`), which count every p = 2
# fibre plan: a plane holds one block's rows, so memory does not grow with the
# field.  Whole sequences, warm, numpy loaded, best of 3, 2 CPUs, 2^16-row blocks vs
# the arrays they replaced: y^2 + y = x^3 + x to F_2^22 67 vs 140 ms, to F_2^24
# 0.32 vs 0.50 s; y^2 + xy + y = x^3 + x^2 + x (c1 in x, an inversion a row) to
# F_2^22 0.39 vs 0.61 s, to F_2^24 2.2 vs 2.9 s; y^2 + y = x^5 to F_2^22 73 vs
# 118 ms.  `count` of the golden curve to F_2^26 took 1.5 vs 2.1-2.6 s and peaked
# at 15 vs 285 MB resident.  Blocks of 2^12, 2^14 and 2^18 rows were slower on each.
# The digit planes of p = 3 take blocks of 3^10 rows, the largest power of 3 within:
# to F_3^12, 3^9 rows were slower and 3^11 tied
PLANE_BLOCK_ROWS = 2 ** 16
# the largest charge at which the fibre plan counts p = 3 in two or more variables
# on digit planes (`_plane_count`; the rule is `_count_fibre`'s), with no numpy, no
# generator and no field table.  Fresh `count` commands, min of 7, 2 CPUs (`python
# -c pass` 45 ms), codes up to 2^14 rows and else numpy's import and the arrays vs
# the planes: y^2 + y = x^3 + x to F_3^8 0.074 vs 0.062 s, to F_3^10 0.163 vs
# 0.072 s, to F_3^12 0.212 vs 0.148 s and 35.5 vs 15.5 MB peak resident;
# y^2 + y = x^5 to F_3^10 0.162 vs 0.074 s (0.133 s in codes);
# y^2 + xy + y = x^3 + x^2 + x to F_3^12 0.231 vs 0.168 s.  To F_3^13 the arrays
# win, min of 5: 0.314 vs 0.361 s for y^2 + y = x^3 + x, 0.355 vs 0.407 s for the
# xy curve.  Surfaces (k = 3, rows q^2) to F_3^6, charged 3^12: x^2 + y^2 + z^2 = 1
# 0.156 vs 0.078 s, 2 z^2 + xyz + x^3 - y 0.154 vs 0.081 s; to F_3^7, charged 3^14,
# they tie (0.286 vs 0.263 s, 0.263 vs 0.269 s), so one bound serves every k.  A
# caller that has loaded numpy already loses only at the top (whole sequences of
# y^2 + y = x^3 + x, warm, min of 5, codes or arrays vs planes: to F_3^8 11-13 vs
# 2.7 ms, to F_3^11 32-37 vs 26-31 ms, to F_3^12 62-69 vs 71-76 ms); the rule
# does not ask
DIGIT_PLANE_MAX_CHARGE = 3 ** 12

# monomials: ((e_1, ..., e_k), coeff); a polynomial is a sorted tuple of them
Monomial = tuple[tuple[int, ...], int]
Poly = tuple[Monomial, ...]


class PolySystem(Record):
    """Polynomials with integer coefficients in num_vars variables."""

    __slots__ = ("num_vars", "polys")

    def __init__(self, num_vars: int, polys: tuple[Poly, ...]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        for poly in polys:
            for exps, _ in poly:
                if len(exps) != num_vars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
        super().__init__(num_vars, polys)

    def is_homogeneous(self) -> bool:
        for poly in self.polys:
            degs = {sum(exps) for exps, c in poly if c != 0}
            if len(degs) > 1:
                return False
        return True


class CountSequence(Record):
    """Counts N_1..N_m over F_{p^1}..F_{p^m} under one convention."""

    __slots__ = ("p", "counts", "projective_flag")

    def __init__(self, p: int, counts: tuple[int, ...], projective_flag: bool = False):
        if not is_prime(p):
            raise ValueError("not prime")
        if len(counts) < 1:
            raise ValueError("empty count sequence")
        if any(c < 0 for c in counts):
            raise ValueError("negative count")
        super().__init__(p, counts, projective_flag)


# ----------------------------------------------------------------------
# parsing

# a variable carries its power, so no token looks ahead; a lone power is misplaced
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)(?:\s*(\^|\*\*)\s*(\d+)?)?|(\^|\*\*)|\*|([+-]))")
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*\\s*")  # ends at the first character no token takes
_ALIASES = {"x": 1, "y": 2, "z": 3}


def _variable(name: str) -> int:
    """The 1-based index of x, y, z or x1, x2, ..., at most 29, before any
    exponent vector that long is built: q^29 >= 2^29 tuples pass WORK_LIMIT."""
    if name in _ALIASES:
        return _ALIASES[name]
    if name[0] != "x" or not name[1:].isdecimal():
        raise ValueError(f"unknown variable {name!r}")
    digits, top = name[1:].lstrip("0"), WORK_LIMIT.bit_length()
    if len(digits) > len(str(top)) or (idx := int(digits or "0")) > top:
        raise ValueError(f"variable {name!r} is past x{top}: no count in more "
                         f"than {top} variables fits the work limit")
    if idx < 1:
        raise ValueError(f"bad variable {name!r}")
    return idx


def _parse_poly(line: str) -> dict[tuple[tuple[int, int], ...], int]:
    """One polynomial as {((index, exponent), ...): coeff}, every
    variable it writes in a term kept, even at exponent 0; no coeff is 0.

    One pass over the tokens: a sign closes the open term, or flips the
    sign of the next, and the end of the line closes the last term."""
    if (end := _TOKENS.match(line).end()) < len(line):
        raise ValueError(f"cannot parse {line[end]!r} in polynomial {line!r}")
    terms: dict[tuple, int] = {}
    sign, term = 1, None  # term, once opened: [coeff, {index: exponent}, has a factor]

    def close():
        if not term[2]:
            raise ValueError(f"empty term in {line!r}")
        key = tuple(sorted(term[1].items()))
        terms[key] = terms.get(key, 0) + term[0]

    for num, name, power, exp, lone, op in _TOKEN.findall(line):
        if op:
            if term:
                close()
                sign, term = 1, None
            sign = -sign if op == "-" else sign
            continue
        if lone:
            raise ValueError(f"misplaced token in {line!r}")
        term = term or [sign, {}, False]
        if num:
            term[0] *= int(num)
        elif name:
            idx = _variable(name)
            if power and not exp:
                raise ValueError(f"missing exponent in {line!r}")
            term[1][idx] = term[1].get(idx, 0) + (int(exp) if power else 1)
        else:  # '*' opens a term but is no factor
            continue
        term[2] = True
    if term is None:
        raise ValueError(f"dangling sign in {line!r}")
    close()
    return {k: v for k, v in terms.items() if v != 0}


def parse_poly_system(text: str) -> PolySystem:
    """Parse the one-polynomial-per-line text format into canonical
    monomials: one per exponent vector, none with coefficient 0, sorted."""
    raw = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            raw.append(_parse_poly(line))
    if not raw:
        raise ValueError("no polynomials in input")
    k = max((idx for terms in raw for key in terms for idx, _ in key), default=1)
    polys = []
    for terms in raw:
        merged: dict[tuple, int] = {}
        for key, coeff in terms.items():
            key = tuple((idx, e) for idx, e in key if e)  # one key per exponent vector
            merged[key] = merged.get(key, 0) + coeff
        mono = []
        for key, coeff in sorted(merged.items()):
            if coeff:
                vec = [0] * k
                for idx, e in key:
                    vec[idx - 1] = e
                mono.append((tuple(vec), coeff))
        polys.append(tuple(mono))
    return PolySystem(k, tuple(polys))


def format_poly(poly, names) -> str:
    """One polynomial, monomials (exponents, coeff) in order, as signed
    c*v^e terms in the given variable names; "0" for no monomial."""
    parts = []
    for exps, coeff in poly:
        factors = [names[j] if e == 1 else f"{names[j]}^{e}" for j, e in enumerate(exps) if e > 0]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if (mag != 1 or not factors) else []) + factors)
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)  # the head term drops its "+ " and keeps "-" unspaced
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


# ----------------------------------------------------------------------
# the counting plans; the arrays they count with live in grid.py

def _tiling(q: int, num_rows: int, chunk_size: int) -> tuple[int, int, int, int]:
    """(rows per tile, columns per tile, row blocks, tiles) of a grid of
    num_rows rows and q columns."""
    rows, cols = max(1, chunk_size // q), min(q, chunk_size)
    row_blocks = -(-num_rows // rows)
    return rows, cols, row_blocks, row_blocks * -(-q // cols)


def _orbits(q: int) -> int:
    """Orbits of the Frobenius x -> x^p on F_q, q = p^n: the necklaces of n
    beads in p colours, N(p, n) = (1/n) sum_{d | n} phi(d) p^(n/d), which
    is (1/n) sum_{j < n} p^gcd(j, n) (Burnside over the n rotations) and q
    for a prime q."""
    p, n = prime_root(q)
    return sum(p ** math.gcd(j, n) for j in range(n)) // n


def _frobenius_orbits(p: int, n: int) -> tuple[list[int], list[int]]:
    """The product grid's first variable over F_q, q = p^n: one log per
    orbit of the Frobenius x -> x^p, and the orbit's size.

    On logs the Frobenius is i -> i p mod (q - 1), so the orbits of F_q^x
    are the cyclotomic cosets {i p^j mod (q - 1)}, and zero (the log
    q - 1) is an orbit of its own.  One pass over the logs in order marks
    each coset from its least element, which is the log it gives.  The
    largest orbits come first and logs ascend within a size, so zero comes
    last and the sizes, which sum to q, never increase.  A prime field
    gives every log once, in order, size 1.
    """
    m = p ** n - 1
    seen, by_size = bytearray(m), {d: [] for d in range(n, 0, -1) if n % d == 0}
    for i in range(m):
        if seen[i]:
            continue
        seen[i] = 1
        c, size = i * p % m, 1
        while c != i:
            seen[c] = 1
            c, size = c * p % m, size + 1
        by_size[size].append(i)
    by_size[1].append(m)
    return ([i for d in by_size for i in by_size[d]],
            [d for d in by_size for _ in by_size[d]])


def _tile_rows(q: int, k: int) -> int:
    """Rows of the tiled grid over F_q^k: the tuples of the first k - 1
    variables, the first of them over one element per Frobenius orbit
    (`_frobenius_orbits`); one empty row for k = 1."""
    return _orbits(q) * q ** (k - 2) if k > 1 else 1


def _group_by_last(poly, p: int):
    """(right-hand side, column terms, row terms) of one polynomial.

    The right-hand side is -c_0 over x'; column terms are the monomials
    c y^j, j > 0, whose c_j is constant; row terms are (j, c_j over x')
    for every other j > 0."""
    by_power: dict[int, list] = {}
    for exps, c in poly:
        if c % p:
            by_power.setdefault(exps[-1], []).append((exps[:-1], c))
    rhs = [(e, -c) for e, c in by_power.pop(0, [])]
    col, row = [], []
    for j, terms in sorted(by_power.items()):
        if any(any(e) for e, _ in terms):
            row.append((j, terms))
        else:
            col.extend(((j,), c) for _, c in terms)
    return rhs, col, row


def _trace_mask(modulus) -> int:
    """The absolute trace of F_2[x]/(f) on ids: bit j is Tr(x^j), the
    power sum s_j of f's roots x^(2^i), mod 2.  They are the reciprocal
    roots of f reversed, whose power sums `weil._power_sums` gives."""
    from .weil import _power_sums  # only p = 2 loads weil
    sums = islice(_power_sums(modulus[::-1]), len(modulus) - 1)
    return sum((s & 1) << j for j, s in enumerate(sums))


def _index_digit(p: int, b: int, v: int, rows: int) -> int:
    """The rows r < rows whose base-p digit b is v, as the bits of one int:
    a run of p^b ones at bit v p^b, repeated with period p^(b + 1)."""
    run, period = p ** b, p ** (b + 1)
    plane = (1 << run) - 1 << v * run
    while period < rows:
        plane |= plane << period
        period *= 2
    return plane & (1 << rows) - 1


class _Planes:
    """F_p^n, p = 2 or 3, over a block of `rows` rows: an element is a
    list of n digits, each digit one value per row, held as planes, Python
    ints with one bit per row, so one big-int operation acts on every row
    at once.  The subclasses give the algebra (`zero`, `one`, `add`,
    `scale` by an integer, `mul` and the F_p-linear Frobenius a -> a^p),
    the constant digits by value, the low row digits' planes and a
    block's points, from the system's constant y^j coefficients `coeffs`."""

    def __init__(self, spec: FieldSpec, coeffs: dict[int, int], rows: int):
        self.p, self.n, self.q, self.rows, self.coeffs = spec.p, spec.n, spec.q, rows, coeffs
        self.full = (1 << rows) - 1

    def power(self, a, e):
        """a^e for e > 0, e first brought into 1..q - 1, by Horner's rule on
        e's base-p digits: a^(p m + d) = Frob(a^m) a^d."""
        e, digits = (e - 1) % (self.q - 1) + 1, []
        while e:
            e, d = divmod(e, self.p)
            digits.append(d)
        square = self.mul(a, a) if 2 in digits else None  # p = 3 only
        *rest, top = digits
        out = a if top == 1 else square
        for d in reversed(rest):
            out = self.frobenius(out)
            if d:
                out = self.mul(out, a if d == 1 else square)
        return out

    def chain(self, a, m):
        """a^(1 + p + ... + p^(m - 1)), the product of Frob^i(a), i < m,
        by beta_(i + j) = Frob^j(beta_i) beta_j: about 2 log2 m products
        (T. Itoh, S. Tsujii, Inf. Comput. 78, 1988); a itself for m < 2."""
        beta, i = a, 1
        for bit in bin(m)[3:]:
            beta, i = self.mul(self.frobenius(beta, i), beta), 2 * i
            if bit == "1":
                beta, i = self.mul(self.frobenius(beta), a), i + 1
        return beta

    def value(self, terms, variables):
        """The sum of the terms (exponents, coefficient) over the block,
        the row variables' digits in `variables`."""
        total = self.zero
        for exps, c in terms:
            term = self.one
            for v, e in zip(variables, exps):
                if e:
                    factor = self.power(v, e)
                    term = factor if term is self.one else self.mul(term, factor)
            total = self.add(total, self.scale(term, c))
        return total


class _BitPlanes(_Planes):
    """F_2^n: a digit is one plane.  Sums are XOR; a product is the n^2
    AND/XOR schoolbook product, reduced by the taps of the modulus
    x^n = sum of its lower terms; the Frobenius, squaring, spreads the
    digits to the even powers and reduces."""

    def __init__(self, spec, coeffs, rows):
        super().__init__(spec, coeffs, rows)
        n = self.n
        self.taps = [j for j in range(n) if spec.modulus[j]]
        self.mask = _trace_mask(spec.modulus)
        self.zero, self.one, self.constants = [0] * n, [self.full] + [0] * (n - 1), (0, self.full)

    def row_digit(self, b):
        return _index_digit(2, b, 1, self.rows)

    def add(self, a, b):
        return [x ^ y for x, y in zip(a, b)]

    def scale(self, a, c):  # c is odd
        return a

    def reduce(self, t):
        """The n planes of a polynomial of degree < 2n - 1, mod the modulus."""
        n, taps = self.n, self.taps
        for d in range(len(t) - 1, n - 1, -1):
            if top := t[d]:
                for j in taps:
                    t[d - n + j] ^= top
        return t[:n]

    def mul(self, a, b):
        t = [0] * (2 * self.n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    t[i + j] ^= ai & bj
        return self.reduce(t)

    def frobenius(self, a, b=1):
        """a^(2^b)."""
        for _ in range(b):
            t = [0] * (2 * self.n - 1)
            t[::2] = a
            a = self.reduce(t)
        return a

    def trace(self, a):
        t, mask = 0, self.mask
        for j, plane in enumerate(a):
            if mask >> j & 1:
                t ^= plane
        return t

    def points(self, r, c1):
        """The block's points, rhs r, c1 its planes or None for c1 = 1: a
        row has one solution where c1 = 0 and else two or none as
        Tr(r / c1^2) is 0 or 1, since y = c1 z turns y^2 + c1 y = r into
        z^2 + z = r c1^-2 (Lidl-Niederreiter, Theorem 2.25).  c1^-2 is
        (c1^(2^(n-1) - 1))^4, by `chain`, and Tr(a b) is the sum of
        a_i Tr(x^i b), x^i b one shift and reduction after another."""
        if c1 is None:  # y^2 + y = r
            return 2 * (self.rows - self.trace(r).bit_count())
        nz = 0
        for plane in c1:
            nz |= plane
        # c1^(2^(n-1) - 1); over F_2 (n = 1), c1^4 = c1 = 1 where c1 != 0
        inverse = self.frobenius(self.chain(c1, self.n - 1), 2)
        tr = 0  # Tr(r c1^-2), the sum of r_i Tr(x^i c1^-2)
        for plane in r:
            tr ^= plane & self.trace(inverse)
            top = inverse.pop()
            inverse.insert(0, 0)
            for j in self.taps:
                inverse[j] ^= top
        return self.rows - nz.bit_count() + 2 * (nz & ~tr).bit_count()


class _DigitPlanes(_Planes):
    """F_3^n: a digit is two planes (h, l), bit r of l set where row r's
    digit is 1 and of h where it is 2 (bitslicing over F_3: T. J. Boothby,
    R. W. Bradshaw, arXiv:0901.1413).  An add is six big-int operations
    (Y. Kawahara, K. Aoki, T. Takagi, Pairing 2008, LNCS 5209), a digit
    product six more, and negation swaps h and l; a product is the n^2
    schoolbook product, reduced by x^n = -(the modulus's lower terms); the
    Frobenius, cubing, is a matrix of digits applied as adds."""

    def __init__(self, spec, coeffs, rows):
        super().__init__(spec, coeffs, rows)
        n, full = self.n, self.full
        self.spec, self.frobenius_rows = spec, {}
        self.taps = [(j, -c % 3) for j, c in enumerate(spec.modulus[:n]) if c]
        self.zero, self.one = [(0, 0)] * n, [(0, full)] + [(0, 0)] * (n - 1)
        self.constants = ((0, 0), (0, full), (full, 0))

    def row_digit(self, b):
        return _index_digit(3, b, 2, self.rows), _index_digit(3, b, 1, self.rows)

    def add(self, a, b):
        out = []
        for (xh, xl), (yh, yl) in zip(a, b):
            t = (xl | yh) ^ (xh | yl)
            out.append(((xl | yl) ^ t, (xh | yh) ^ t))
        return out

    def scale(self, a, c):
        return a if c % 3 == 1 else [(l, h) for h, l in a]

    def mul(self, a, b):
        th, tl = [0] * (2 * self.n - 1), [0] * (2 * self.n - 1)
        for i, (ah, al) in enumerate(a):
            if ah | al:
                for j, (bh, bl) in enumerate(b, i):
                    yh, yl = al & bh | ah & bl, al & bl | ah & bh
                    xh, xl = th[j], tl[j]
                    t = (xl | yh) ^ (xh | yl)
                    th[j], tl[j] = (xl | yl) ^ t, (xh | yh) ^ t
        return self.reduce(th, tl)

    def reduce(self, th, tl):
        """The n digits of a polynomial of degree < 2n - 1, mod the modulus."""
        n = self.n
        for d in range(2 * n - 2, n - 1, -1):
            if th[d] | tl[d]:
                for j, c in self.taps:
                    yh, yl = (th[d], tl[d]) if c == 1 else (tl[d], th[d])
                    xh, xl = th[d - n + j], tl[d - n + j]
                    t = (xl | yh) ^ (xh | yl)
                    th[d - n + j], tl[d - n + j] = (xl | yl) ^ t, (xh | yh) ^ t
        return list(zip(th[:n], tl[:n]))

    def frobenius(self, a, b=1):
        """a^(3^b): Frob^b is F_3-linear, the n x n matrix whose column j
        is x^(3^b j) mod f, applied as adds."""
        if b not in self.frobenius_rows:
            x = self.spec.element((0, 1)) ** 3 ** b
            cols, c = [], self.spec.one()
            for _ in range(self.n):
                cols.append(c.coeffs)
                c = c * x
            self.frobenius_rows[b] = [[(j, col[i]) for j, col in enumerate(cols) if col[i]]
                                      for i in range(self.n)]
        out = []
        for row in self.frobenius_rows[b]:
            zh = zl = 0
            for j, c in row:
                yh, yl = a[j] if c == 1 else a[j][::-1]
                t = (zl | yh) ^ (zh | yl)
                zh, zl = (zl | yl) ^ t, (zh | yh) ^ t
            out.append((zh, zl))
        return out

    def points(self, r, c1):
        """The block's points, rhs r, c1 its planes or None for a constant
        c1: a row has 1 + chi(D) solutions, D = c1^2 + 4 c2 r = c1^2 + c2 r,
        and chi(D) = D^((q - 1)/2) is the norm N(D) = D^(1 + 3 + ... +
        3^(n - 1)) (`chain`), which lies in F_3."""
        d = self.scale(r, self.coeffs[2])
        if c1 is not None:
            d = self.add(self.mul(c1, c1), d)
        elif self.coeffs.get(1):  # c1^2 = 1
            d = self.add(self.one, d)
        (h, l), *rest = self.chain(d, self.n)
        if any(xh | xl for xh, xl in rest):
            raise AssertionError(f"internal error: a norm from F_3^{self.n} is not in F_3")
        return self.rows + l.bit_count() - h.bit_count()


def _plane_count(system: PolySystem, spec: FieldSpec) -> int:
    """Points of one polynomial c2 y^2 + c1(x') y + c0(x'), c2 a constant
    nonzero mod p, over F_p^n, p = 2 or 3, on planes (`_BitPlanes`,
    `_DigitPlanes`), without numpy, a generator or any table of the field.

    The R = q^(k - 1) rows are the tuples of the row variables, row r
    holding the base-p digits of r, n to a variable, the first variable
    highest, counted in blocks of B = min(R, p^b) rows, p^b the largest
    power of p within PLANE_BLOCK_ROWS.  A row digit past log_p(B) is the
    same on the whole block, a constant digit (bitslicing: E. Biham, FSE
    1997).  For p = 2 and c1 = 0 every row has one solution, the square
    root of its rhs = -c0."""
    (rhs, col, row), = [_group_by_last(poly, spec.p) for poly in system.polys]
    p, n, k = spec.p, spec.n, system.num_vars
    coeffs = {j: c % p for (j,), c in col}
    rows, top = spec.q ** (k - 1), n * (k - 1)
    if p == 2 and not row and 1 not in coeffs:
        return rows
    depth = next(d for d in range(top, -1, -1) if p ** d <= PLANE_BLOCK_ROWS)
    block = p ** depth
    planes = (_BitPlanes if p == 2 else _DigitPlanes)(spec, coeffs, block)
    # row digits below depth vary within a block; each higher one is constant
    low, points = [planes.row_digit(b) for b in range(depth)], 0
    for start in range(0, rows, block):
        digits = low + [planes.constants[start // p ** b % p] for b in range(depth, top)]
        variables = [digits[n * (k - 2 - i):n * (k - 1 - i)] for i in range(k - 1)]
        points += planes.points(planes.value(rhs, variables),
                                planes.value(row[0][1], variables) if row else None)
    return points


def _exp_codes(spec: FieldSpec):
    """(exp, add) of a field of odd p: exp[k] the code of g^k for
    k < q - 1, g the generator of `multiplicative_generator`, and
    exp[q - 1] = 0, the code of zero; add sums two lists of codes,
    element by element.

    A code packs an element's digits into lanes of w bits, digit j at bit
    w j.  A lane holds the sum of two digits, and the top bit of
    lane + 2^(w-1) - p flags the lanes to take p from, as `grid._Multiplier`
    does.  Multiplication by g is F_p-linear: a code's image is the sum of
    the images of its low and high halves, each read from a table indexed
    by the half's lanes.  A prime field multiplies mod p.
    """
    p, n, q = spec.p, spec.n, spec.q
    w = (2 * p - 2).bit_length()
    ones = sum(1 << w * j for j in range(n))
    excess, top = ((1 << w - 1) - p) * ones, w - 1

    def plus(a, b):
        s = a + b
        return s - ((s + excess) >> top & ones) * p

    def add(a, b):
        return list(map(plus, a, b))

    def pack(digits):
        return sum(d << w * j for j, d in enumerate(digits))

    g, e, exp = multiplicative_generator(spec), 1, [1]
    if n == 1:
        h = g.index()
        for _ in range(q - 2):
            e = e * h % p
            exp.append(e)
        return exp + [0], add
    images = []  # the digits of g x^j
    for _ in range(n):
        images.append(g.coeffs)
        g = spec.element((0, *g.coeffs))
    c = (n + 1) // 2
    low, high = ([0] * (1 << w * (b - a)) for a, b in ((0, c), (c, n)))
    for table, part in ((low, images[:c]), (high, images[c:])):
        keys = values = [0]  # the half's codes with lanes below j, and their images
        for j, digits in enumerate(part):
            times = [pack([d * x % p for x in digits]) for d in range(p)]
            keys = [k + (d << w * j) for d in range(p) for k in keys]
            values = add([v for _ in times for v in values], [t for t in times for _ in values])
        for k, v in zip(keys, values):
            table[k] = v
    shift, mask, step = w * c, (1 << w * c) - 1, exp.append
    for _ in range(q - 2):
        e = plus(low[e & mask], high[e >> shift])
        step(e)
    return exp + [0], add


def _fibre_count(system: PolySystem, spec: FieldSpec) -> int:
    """Points of one polynomial c2 y^2 + c1(x') y + c0(x'), c2 a constant
    nonzero mod p, over one field of odd p, without numpy: `grid`'s rule
    (`FieldTables.quadratic_solutions`) on every row's right-hand side
    -c0 and c1, as codes (`_exp_codes`).  A row is a tuple of the row
    variables' logs, each 0..q - 2 and then q - 1 for zero, the first
    variable slowest.  In one variable the one row's discriminant d lies
    in F_p, so the count is 1 + chi_p(d)^n by Euler's criterion, and no
    table is built."""
    (rhs, col, row), = [_group_by_last(poly, spec.p) for poly in system.polys]
    p, q, m = spec.p, spec.q, spec.q - 1
    coeffs = {j: c for (j,), c in col}
    if system.num_vars == 1:
        d = (coeffs.get(1, 0) ** 2 + 4 * coeffs[2] * sum(c for _, c in rhs)) % p
        return 1 if d == 0 else 1 + (1 if pow(d, (p - 1) // 2, p) == 1 else -1) ** spec.n
    rows = q ** (system.num_vars - 1)
    exp, add = _exp_codes(spec)
    log = {e: i for i, e in enumerate(exp)}

    def codes(terms, shift=0):
        """The codes of g^shift times the sum of the terms, row by row."""
        acc = None
        for exps, c in terms:
            heads = [(log[c % p] + shift) % m]  # the term's logs over all but the last variable
            for e in exps[:-1]:
                heads = [m if a == m or e and i == m else (a + e * i) % m
                         for a in heads for i in range(q)]
            e, term = exps[-1], []
            for a in heads:
                term += ([0] * q if a == m else [exp[a]] * q if e == 0 else
                         [exp[(a + e * i) % m] for i in range(m)] + [0])
            acc = term if acc is None else add(acc, term)
        return [0] * rows if acc is None else acc

    # 1 + chi(c1^2 + 4 c2 rhs), chi the parity of the log: m is even
    disc = codes(rhs, log[4 * coeffs[2] % p])
    square = ([coeffs.get(1, 0) ** 2 % p] * rows if not row
              else [exp[2 * log[c] % m] if c else 0 for c in codes(row[0][1])])
    return sum(1 if d == 0 else 2 - 2 * (log[d] & 1) for d in add(square, disc))


def _quadratic_in_last(polys) -> bool:
    """One polynomial c2 y^2 + c1(x') y + c0(x'), c2 one constant term:
    y^2 a column term, y^1 a column or a row term, no higher power."""
    return (len(polys) == 1 and sorted(j for (j,), _ in polys[0][1]) in ([2], [1, 2])
            and all(j == 1 for j, _ in polys[0][2]))


def _count_fibre(system, spec, charge, workers, chunk_size) -> int:
    """The fibre plan's count, and its kernel rule, from p, the number of
    variables and the charge, the rows over the sequence's largest field:
    p = 2 counts on bit planes, and p = 3 in two or more variables charged
    at most DIGIT_PLANE_MAX_CHARGE rows on digit planes (`_plane_count`);
    odd p in one variable (Euler's criterion), or p >= 5 charged at most
    ARRAY_MIN_CHARGE rows, through codes (`_fibre_count`); any other on the
    arrays (`grid._Grid.fibre`).  So a sequence never pays for both its
    rows in Python and numpy's import."""
    if spec.p == 2 or spec.p == 3 and system.num_vars > 1 and charge <= DIGIT_PLANE_MAX_CHARGE:
        return _plane_count(system, spec)
    if system.num_vars == 1 or charge <= ARRAY_MIN_CHARGE:
        return _fibre_count(system, spec)
    from . import grid  # the array kernel: numpy loads with the first grid
    return grid._Grid(system, spec, chunk_size).fibre()


def _count_separable(system, spec, charge, workers, chunk_size) -> int:
    """The separable plan's count: the histogram join over every row."""
    from . import grid
    return grid._Grid(system, spec, chunk_size).join()


def _pool_size(cap: int | None, tiles: int) -> int:
    """Worker processes to start: no more than the cap, tiles or CPUs."""
    cpus = os.cpu_count() or 1
    return min(cpus if cap is None else cap, tiles, cpus)


def _count_product(system, spec, charge, workers, chunk_size) -> int:
    """The product plan's count: the tiles of the orbit-row grid, through
    `grid._count_tiles`.  A field whose own charge, the tuples its tiles
    enumerate, is at least POOL_MIN_TUPLES counts over a pool of as many
    workers as it has tiles (at most `workers` and the CPUs), started for
    this count and ended with it; each task carries the system, the field
    and a range of tiles, four per worker."""
    from . import grid
    rows = _tile_rows(spec.q, system.num_vars)
    tiles = _tiling(spec.q, rows, chunk_size)[3] if rows * spec.q >= POOL_MIN_TUPLES else 1
    size = _pool_size(workers, tiles)
    if size == 1:
        return grid._count_tiles((system, spec, chunk_size, 0, None))
    from concurrent.futures import ProcessPoolExecutor  # only pooled counts import it
    parts = min(tiles, 4 * size)
    cuts = [tiles * i // parts for i in range(parts + 1)]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return sum(pool.map(grid._count_tiles, [
            (system, spec, chunk_size, a, b) for a, b in zip(cuts, cuts[1:])]))


class Plan(NamedTuple):
    applies: Callable[[list], bool]  # on _group_by_last of every polynomial
    # tuples (or rows and columns) enumerated over F_q^k, from (q, k), before any field is built
    charge: Callable[[int, int], int]
    # (system, field, charge over the largest field, workers, chunk_size) -> points
    count: Callable[[PolySystem, FieldSpec, int, int | None, int], int]


# The ways to count the grid, in the order `auto` tries them; `method` names
# one, and each is exact for any chunk_size and worker count.  "fibre": one
# polynomial quadratic in y with a constant y^2 coefficient, c2 y^2 + c1(x')
# y + c0(x'), counts each row's solutions in y, 1 + chi(c1^2 - 4 c2 c0) for
# odd p and a trace for p = 2 (its kernels: `_count_fibre`), charged its
# q^(k - 1) rows.  "separable": one polynomial without row terms, g(x') =
# h(y), joins a q-entry histogram of every row's right-hand side with the
# columns' codes.  "product" tests each tuple of the tiled grid, whose first
# variable takes one value per Frobenius orbit and weighs its rows' hits by
# the orbit's size (the coefficients are integers, so x -> x^p maps points
# to points), paying only for row terms; it always applies, alone runs over
# a pool, and is charged the N(p, n) q^(k - 1) tuples it enumerates, for
# N(p, n) orbits.  The same grid over every row, weight 1, is the tests'
# oracle.
PLANS = {
    "fibre": Plan(_quadratic_in_last, lambda q, k: q ** (k - 1), _count_fibre),
    "separable": Plan(lambda polys: len(polys) == 1 and not polys[0][2],
                      lambda q, k: q ** (k - 1) + q, _count_separable),
    "product": Plan(lambda polys: True, lambda q, k: _tile_rows(q, k) * q, _count_product),
}


def _plan(system: PolySystem, p: int, q_max: int, *, workers: int | None, method: str,
          chunk_size: int) -> Callable[[FieldSpec], int]:
    """How system is counted over F_p and its extensions, as a function of
    one field: by the plan of PLANS that applies, charged once, for the
    largest field q_max, before any field is built, and handed to the
    plan's count, which picks its kernel (the fibre plan's rule is
    `_count_fibre`'s); a system with no equation mod p counts q^k at the
    same charge."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if method != "auto" and method not in PLANS:
        raise ValueError(f"unknown method {method!r}")
    polys = [_group_by_last(poly, p) for poly in system.polys]
    fits = [name for name, plan in PLANS.items() if plan.applies(polys)]
    if method != "auto" and method not in fits:
        raise ValueError(f"system is not {method}")
    plan, k = PLANS[fits[0] if method == "auto" else method], system.num_vars
    charge = plan.charge(q_max, k)
    if charge > WORK_LIMIT:
        raise ValueError("search space too large")
    if not any(map(any, polys)):
        return lambda spec: spec.q ** k
    return lambda spec: plan.count(system, spec, charge, workers, chunk_size)


def count_affine(system: PolySystem, spec: FieldSpec, *,
                 workers: int | None = None,
                 method: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of points of F_q^k at which every polynomial vanishes.

    method is "auto", the first of PLANS that applies, or a plan's name;
    each plan picks its own kernel (the fibre plan's rule is
    `_count_fibre`'s).  Tiles hold at most chunk_size >= 1 tuples, over a
    pool of up to `workers` processes (default the CPUs) from a charge of
    POOL_MIN_TUPLES tuples on.  WORK_LIMIT, a fixed 2^28, caps the plan's
    charge, the tuples it enumerates.
    """
    return _plan(system, spec.p, spec.q, workers=workers, method=method,
                 chunk_size=chunk_size)(spec)


def _projective_rep_count(k: int, q: int) -> int:
    return (q ** k - 1) // (q - 1)


def _chart(polys, lead: int):
    """The polynomials on the chart x_lead = 1, x_j = 0 for j < lead, in
    the coordinates after lead."""
    return tuple(tuple((exps[lead + 1:], c) for exps, c in poly if not any(exps[:lead]))
                 for poly in polys)


def count_projective_variety(system: PolySystem, spec: FieldSpec) -> int:
    """Points of projective (k-1)-space at which all polynomials vanish.

    Representatives are normalized so the first nonzero coordinate is 1,
    scanning left to right; each projective point is enumerated once.
    The points with leading coordinate `lead` form an affine chart in
    the k - 1 - lead later coordinates, counted by count_affine's plan;
    the last chart is the single point (0, ..., 0, 1).  WORK_LIMIT is
    charged once for all representatives, which bound each chart.
    """
    if not system.is_homogeneous():
        raise ValueError("not homogeneous")
    k, q = system.num_vars, spec.q
    # reps >= q^(k - 1) >= 2^(k - 1): past the limit by the exponent alone, before any power
    if k > WORK_LIMIT.bit_length() or _projective_rep_count(k, q) > WORK_LIMIT:
        raise ValueError("search space too large")
    total = 0
    for lead in range(k):
        chart, free = _chart(system.polys, lead), k - 1 - lead
        if free:
            total += count_affine(PolySystem(free, chart), spec)
        else:
            total += all(sum(c for _, c in poly) % spec.p == 0 for poly in chart)
    return total


def count_projective_space(dim: int, spec: FieldSpec) -> int:
    """|P^dim(F_q)| by enumerating representatives, checked against
    1 + q + ... + q^dim.  The system is empty, so every chart holds no
    equation mod p and counts as q^free without building field tables."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    empty = PolySystem(dim + 1, ((),))
    enumerated = count_projective_variety(empty, spec)
    closed = (spec.q ** (dim + 1) - 1) // (spec.q - 1)
    if enumerated != closed:
        raise AssertionError("projective enumeration disagrees with closed form")
    return enumerated


def affine_count_sequence(system: PolySystem, p: int, n_max: int, *,
                          extra_point: bool = False,
                          workers: int | None = None,
                          method: str = "auto") -> CountSequence:
    """Counts over F_{p^1}..F_{p^n_max} by exhaustive enumeration.

    extra_point=True adds one point at infinity per field, the projective
    convention for curves given in affine form.
    """
    if n_max < 1:  # nothing to plan: refused as empty (or p as not prime)
        return CountSequence(p, (), projective_flag=extra_point)
    # charge the largest field make_field builds; a larger one is refused before any count
    top = make_field(p, 1)
    while top.n < n_max and top.q * p <= MAX_FIELD_SIZE:
        top = make_field(p, top.n + 1)
    count = _plan(system, p, top.q, workers=workers, method=method,
                  chunk_size=DEFAULT_CHUNK_SIZE)
    fields = [make_field(p, n) for n in range(1, n_max + 1)]
    counts = tuple(count(f) + extra_point for f in fields)
    return CountSequence(p, counts, projective_flag=extra_point)
