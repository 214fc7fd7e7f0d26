"""Polynomial systems over Z and exhaustive point counting over F_q.

A PolySystem is a list of multivariate polynomials with integer
coefficients.  Counting reduces every coefficient mod p and lays F_q^k
out as rows, the tuples of the first k - 1 variables, times columns, the
q values of the last one, y; the product plan's first variable takes one
value per Frobenius orbit, weighted by its size.  This module parses,
plans (`PLANS`) and charges each count in pure Python, and counts a fibre
plan in pure Python too: for p = 2 always, on bit planes, one Python int
per coefficient holding a block of PLANE_BLOCK_ROWS rows; for odd p through
codes, up to ARRAY_MIN_CHARGE rows, where numpy's import would cost more
than the count, unless numpy is loaded already, and in one variable by
Euler's criterion.  The arrays (field tables, tiles, the join, the odd-p
fibre counts past that bound) live in `grid`, which imports numpy and is
itself imported only when a count builds its first grid.  Projective
charts x_lead = 1 are affine counts.

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
import sys
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
# the largest charge at which the fibre plan counts odd p in pure Python
# (`_fibre_count`: codes through an exp list and a log map of q Python ints) in a
# process that has not loaded numpy: a sequence charged at most this never imports
# numpy, about 66 ms a process.  Fresh-process wall times of the whole sequence in
# Python vs numpy's import and the array count, min of 7, 2 CPUs (`python -c pass`
# 38 ms): y^2 + y = x^5 to F_3^10 0.133 vs 0.146 s; y^2 + xy = x^5 + x + 1 to F_5^7
# 0.183 vs 0.134 s; on the same kernel for p = 2, before the bit planes,
# y^2 + xy + y = x^3 + x^2 + x to F_2^15 0.128 vs 0.141 s, to F_2^16 0.217 vs
# 0.154 s.  2^14 keeps 45 ms in hand.  One variable is one row whose discriminant
# lies in F_p, counted without tables, numpy loaded or not.  Once numpy is loaded
# the array kernel is faster: a mixed curve over F_2^11, warm, 0.2 vs 1.8 ms
ARRAY_MIN_CHARGE = 2 ** 14
# the rows per block of the bit planes (`_plane_count`), which count every p = 2
# fibre plan: a plane holds one block's rows, so memory does not grow with the
# field.  Whole sequences, warm, numpy loaded, best of 3, 2 CPUs, 2^16-row blocks vs
# the arrays they replaced: y^2 + y = x^3 + x to F_2^22 67 vs 140 ms, to F_2^24
# 0.32 vs 0.50 s; y^2 + xy + y = x^3 + x^2 + x (c1 in x, an inversion a row) to
# F_2^22 0.39 vs 0.61 s, to F_2^24 2.2 vs 2.9 s; y^2 + y = x^5 to F_2^22 73 vs
# 118 ms.  `count` of the golden curve to F_2^26 took 1.5 vs 2.1-2.6 s and peaked
# at 15 vs 285 MB resident.  Blocks of 2^12, 2^14 and 2^18 rows were slower on each
PLANE_BLOCK_ROWS = 2 ** 16

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


def _tile_rows(q: int, k: int) -> int:
    """Rows of the tiled grid over F_q^k: the tuples of the first k - 1
    variables, the first of them over one element per Frobenius orbit
    (grid.orbit_rows); one empty row for k = 1."""
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


def _index_bit(b: int, rows: int) -> int:
    """The rows r < rows whose bit b is set, as the bits of one int: a
    byte pattern repeated, read by int.from_bytes."""
    if b < 3:
        pattern = bytes([(0xAA, 0xCC, 0xF0)[b]]) * -(-rows // 8)
    else:
        half = 1 << b - 3
        pattern = (bytes(half) + b"\xff" * half) * (rows >> b + 1)
    return int.from_bytes(pattern, "little") & (1 << rows) - 1


def _plane_count(system: PolySystem, spec: FieldSpec) -> int:
    """Points of one polynomial y^2 + c1(x') y + c0(x') over F_2^n on bit
    planes, without numpy, a generator or any table of the field.

    The R = q^(k - 1) rows are the tuples of the row variables, row r
    holding the ids of the n-bit fields of r, the first variable highest,
    counted in blocks of B = min(R, PLANE_BLOCK_ROWS) rows.  Over a block,
    a function from the rows to F_2^n is n Python ints of B bits, plane j
    holding coefficient j of every row's value, so one big-int operation
    acts on all its rows at once (bitslicing: E. Biham, FSE 1997); a row
    bit past log2(B) is the same on the whole block, a plane of 0 or of
    all ones.  Sums are XOR; a product is the n^2 AND/XOR schoolbook
    product, reduced by the taps of the modulus x^n = sum of its lower
    terms; squaring is linear.  A row has one solution where c1 = 0 and
    else two or none as Tr(rhs / c1^2) is 0 or 1, rhs = -c0, since y = c1 z
    turns it into z^2 + z = rhs / c1^2 (Lidl-Niederreiter, Theorem 2.25).
    c1^-2 is (c1^(2^(n-1) - 1))^4, by the Itoh-Tsujii chain (Inf. Comput.
    78, 1988), and Tr(a b) is the sum of a_i Tr(x^i b), x^i b one shift
    and reduction after another."""
    (rhs, col, row), = [_group_by_last(poly, 2) for poly in system.polys]
    n, q, k = spec.n, spec.q, system.num_vars
    rows = q ** (k - 1)
    block = min(rows, PLANE_BLOCK_ROWS)
    full = (1 << block) - 1
    taps = [j for j in range(n) if spec.modulus[j]]
    mask = _trace_mask(spec.modulus)

    def reduce(t):
        """The n planes of a polynomial of degree < 2n - 1, mod the modulus."""
        for d in range(len(t) - 1, n - 1, -1):
            if top := t[d]:
                for j in taps:
                    t[d - n + j] ^= top
        return t[:n]

    def mul(a, b):
        t = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    t[i + j] ^= ai & bj
        return reduce(t)

    def square(a, times=1):
        for _ in range(times):
            t = [0] * (2 * n - 1)
            t[::2] = a
            a = reduce(t)
        return a

    def power(a, e):
        """a^e for e > 0, e first brought into 1..q - 1."""
        out = a
        for bit in bin((e - 1) % (q - 1) + 1)[3:]:
            out = square(out)
            if bit == "1":
                out = mul(out, a)
        return out

    def trace(a):
        t = 0
        for j, plane in enumerate(a):
            if mask >> j & 1:
                t ^= plane
        return t

    one = [full] + [0] * (n - 1)

    def value(terms):
        """The planes of the sum of the terms, whose coefficients are odd,
        over the block of rows the row variables' planes hold."""
        total = [0] * n
        for exps, _ in terms:
            term = one
            for v, e in zip(variables, exps):
                if e:
                    term = power(v, e) if term is one else mul(term, power(v, e))
            total = [s ^ t for s, t in zip(total, term)]
        return total

    # row bits below log2(block) vary within a block; each higher one is constant
    low, points = [_index_bit(b, block) for b in range(block.bit_length() - 1)], 0
    for start in range(0, rows, block):
        bits = low + [full if start >> b & 1 else 0 for b in range(len(low), n * (k - 1))]
        variables = [bits[n * (k - 2 - i):n * (k - 1 - i)] for i in range(k - 1)]
        if not row:  # c1 is 0: one square root of each rhs; or 1: y^2 + y = rhs
            points += 2 * (block - trace(value(rhs)).bit_count()) if (1,) in dict(col) else block
            continue
        r, c1 = value(rhs), value(row[0][1])
        nz = 0
        for plane in c1:
            nz |= plane
        # y = c1 z turns y^2 + c1 y = r into z^2 + z = r c1^-2, where c1 != 0
        beta, i = c1, 1  # beta = c1^(2^i - 1), i up to n - 1; over F_2, c1^4 = c1 = 1
        for bit in bin(n - 1)[3:]:
            beta, i = mul(square(beta, i), beta), 2 * i
            if bit == "1":
                beta, i = mul(square(beta), c1), i + 1
        inverse = square(beta, 2)
        tr = 0  # Tr(r c1^-2), the sum of r_i Tr(x^i c1^-2)
        for plane in r:
            tr ^= plane & trace(inverse)
            top = inverse.pop()
            inverse.insert(0, 0)
            for j in taps:
                inverse[j] ^= top
        points += block - nz.bit_count() + 2 * (nz & ~tr).bit_count()
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


class Plan(NamedTuple):
    applies: Callable[[list], bool]  # on _group_by_last of every polynomial
    # tuples (or rows and columns) enumerated over F_q^k, from (q, k), before any field is built
    charge: Callable[[int, int], int]
    count: Callable  # grid._Grid -> points
    # counts the tiles of the grid whose first variable runs over grid.orbit_rows,
    # which a pool may split; other plans count every row, weight 1
    tiles: bool = False


# The ways to count the grid, in the order `auto` tries them; `method` names
# one, and each is exact for any chunk_size and worker count.  "fibre": one
# polynomial quadratic in y with a constant y^2 coefficient, c2 y^2 + c1(x')
# y + c0(x'), counts each row's solutions in y, 1 + chi(c1^2 - 4 c2 c0) for
# odd p (its grid kernel) and a trace for p = 2 (on bit planes, `_plan`),
# charged its q^(k - 1) rows.  "separable":
# one polynomial without row terms, g(x') = h(y), joins a q-entry histogram
# of every row's right-hand side with the columns' codes.  "product" tests
# each tuple of the tiled grid, whose first variable takes one value per
# Frobenius orbit and weighs its rows' hits by the orbit's size (the
# coefficients are integers, so x -> x^p maps points to points), paying
# only for row terms; it always applies, alone runs over a pool, and is
# charged the N(p, n) q^(k - 1) tuples it enumerates, for N(p, n) orbits.
# The same grid over every row, weight 1, is the tests' oracle.
PLANS = {
    "fibre": Plan(_quadratic_in_last, lambda q, k: q ** (k - 1), lambda g: g.fibre()),
    "separable": Plan(lambda polys: len(polys) == 1 and not polys[0][2],
                      lambda q, k: q ** (k - 1) + q, lambda g: g.join()),
    "product": Plan(lambda polys: True, lambda q, k: _tile_rows(q, k) * q,
                    lambda g: g.count(), tiles=True),
}


def _pool_size(cap: int | None, tiles: int) -> int:
    """Worker processes to start: no more than the cap, tiles or CPUs."""
    cpus = os.cpu_count() or 1
    return min(cpus if cap is None else cap, tiles, cpus)


def _plan(system: PolySystem, p: int, q_max: int, *, workers: int | None, method: str,
          chunk_size: int) -> Callable[[FieldSpec], int]:
    """How system is counted over F_p and its extensions, as a function of
    one field: by the plan of PLANS that applies, charged once, for the
    largest field q_max, before any field is built.  The fibre plan counts
    in pure Python for p = 2, on bit planes, and for odd p in one variable,
    or when the charge is at most ARRAY_MIN_CHARGE and numpy is not loaded,
    so a sequence never pays for both its rows in Python and numpy's
    import; a system with no equation mod p counts q^k at the same
    charge."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
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
    if plan is PLANS["fibre"]:
        if p == 2:
            return lambda spec: _plane_count(system, spec)
        if p > 2 and (k == 1 or charge <= ARRAY_MIN_CHARGE and "numpy" not in sys.modules):
            return lambda spec: _fibre_count(system, spec)
    return lambda spec: _count(plan, system, spec, workers, chunk_size)


def _count(plan: Plan, system: PolySystem, spec: FieldSpec, workers: int | None,
           chunk_size: int) -> int:
    """Points of system over one field by a plan's array kernel.

    A tiles plan whose charge here, the tuples its tiles enumerate, is at
    least POOL_MIN_TUPLES counts over a pool of as many workers as this
    field has tiles (at most `workers` and the CPUs), started for this
    count and ended with it; each task carries the system, the field and
    a range of tiles, four per worker.  Planner and workers read the
    tiles from the same rows, one per Frobenius orbit of the first
    variable.
    """
    k = system.num_vars
    from . import grid  # the array kernel: numpy loads with the first grid
    pooled = plan.tiles and plan.charge(spec.q, k) >= POOL_MIN_TUPLES
    tiles = _tiling(spec.q, _tile_rows(spec.q, k), chunk_size)[3] if pooled else 1
    size = _pool_size(workers, tiles)
    if size == 1:
        first = grid.orbit_rows(spec, k) if plan.tiles else None
        return plan.count(grid._Grid(system, spec, chunk_size, first))
    from concurrent.futures import ProcessPoolExecutor  # only pooled counts import it
    parts = min(tiles, 4 * size)
    cuts = [tiles * i // parts for i in range(parts + 1)]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return sum(pool.map(grid._count_tiles, [
            (system, spec, chunk_size, a, b) for a, b in zip(cuts, cuts[1:])]))


def count_affine(system: PolySystem, spec: FieldSpec, *,
                 workers: int | None = None,
                 method: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of points of F_q^k at which every polynomial vanishes.

    method is "auto", the first of PLANS that applies, or a plan's name;
    a fibre plan counts in pure Python, without tiles, for p = 2 on bit
    planes of PLANE_BLOCK_ROWS rows, and for odd p in one variable, or up
    to ARRAY_MIN_CHARGE rows until numpy is loaded.  Tiles hold at most
    chunk_size tuples, over a pool of up to `workers` processes (default
    the CPUs) from a charge of POOL_MIN_TUPLES tuples on.  WORK_LIMIT, a
    fixed 2^28, caps the plan's charge, the tuples it enumerates.
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
