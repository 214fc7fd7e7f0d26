"""Polynomial systems over Z and exhaustive point counting over F_q.

A PolySystem is a list of multivariate polynomials with integer
coefficients.  Counting reduces every coefficient mod p and lays F_q^k
out as rows, the tuples of the first k - 1 variables, times columns, the
q values of the last one, y; the product plan's first variable takes one
value per Frobenius orbit, weighted by its size.  This module parses,
plans (`PLANS`) and charges each count in pure Python; the arrays (field
tables, tiles, the join, the fibre count) live in `grid`, which imports
numpy and is itself imported only when a count builds its first grid.
Projective charts x_lead = 1 are affine counts.

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
from typing import NamedTuple

from .finite_field import MAX_FIELD_SIZE, FieldSpec, Record, is_prime, make_field, prime_root

WORK_LIMIT = 2 ** 28  # tuples a count may enumerate
DEFAULT_CHUNK_SIZE = 1 << 14
# the enumerated tuples (a plan's charge) from which a field's tiles go to a pool.
# Set on full F_2 grids, before the product grid took one row per Frobenius
# orbit: y^2 + xy + y = x^3 + x^2 + x, warm, 2 CPUs, serial vs a new 2-worker
# pool, 0.26-0.29 vs 0.30-0.34 s at 2^26 tuples (F_2^13), 1.13-1.29 vs
# 0.66-0.78 s at 2^28 (F_2^14).  On orbit rows the same curve takes 1.26-1.59 vs
# 0.84-0.94 s at 2^27 (F_11587) and 2.69-2.91 vs 1.55-1.66 s over F_151^2
POOL_MIN_TUPLES = 2 ** 27

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
# odd p and a trace for p = 2, charged its q^(k - 1) rows.  "separable":
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


class _GridCounter:
    """One plan of PLANS for a system over F_p and its extensions, charged
    once, for the largest field q_max, before any field is built.

    One pool serves every field whose charge, the tuples its tiles
    enumerate, is at least POOL_MIN_TUPLES, with as many workers as the
    largest field has tiles (at most `workers` and the CPUs); its
    initializer hands each worker the system once, and a field then
    travels as ranges of tiles, four per worker.  Planner and workers
    read the tiles from the same rows, one per Frobenius orbit of the
    first variable.  A system with no equation mod p counts q^k at once,
    at the same charge.
    """

    def __init__(self, system: PolySystem, p: int, q_max: int, *,
                 workers: int | None, method: str, chunk_size: int):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if method != "auto" and method not in PLANS:
            raise ValueError(f"unknown method {method!r}")
        polys = [_group_by_last(poly, p) for poly in system.polys]
        self.free = not any(map(any, polys))  # no equation mod p: every tuple counts
        fits = [name for name, plan in PLANS.items() if plan.applies(polys)]
        if method != "auto" and method not in fits:
            raise ValueError(f"system is not {method}")
        self.plan, k = PLANS[fits[0] if method == "auto" else method], system.num_vars
        if self.plan.charge(q_max, k) > WORK_LIMIT:
            raise ValueError("search space too large")
        self.system, self.chunk_size, self.pool = system, chunk_size, None
        self.workers = (_pool_size(workers, _tiling(q_max, _tile_rows(q_max, k), chunk_size)[3])
                        if self.plan.tiles else 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def count(self, spec: FieldSpec) -> int:
        if self.free:
            return spec.q ** self.system.num_vars
        from . import grid  # the array kernel: numpy loads with the first grid
        k = self.system.num_vars
        if self.workers == 1 or self.plan.charge(spec.q, k) < POOL_MIN_TUPLES:
            first = grid.orbit_rows(spec, k) if self.plan.tiles else None
            return self.plan.count(grid._Grid(self.system, spec, self.chunk_size, first))
        if self.pool is None:
            from concurrent.futures import ProcessPoolExecutor  # only pooled counts import it
            self.pool = ProcessPoolExecutor(max_workers=self.workers,
                                            initializer=grid._init_worker,
                                            initargs=(self.system,))
        tiles = _tiling(spec.q, _tile_rows(spec.q, k), self.chunk_size)[3]
        parts = min(tiles, 4 * self.workers)
        cuts = [tiles * i // parts for i in range(parts + 1)]
        return sum(self.pool.map(grid._count_tiles, [
            (spec.p, spec.n, spec.modulus, self.chunk_size, a, b) for a, b in zip(cuts, cuts[1:])]))


def count_affine(system: PolySystem, spec: FieldSpec, *,
                 workers: int | None = None,
                 method: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of points of F_q^k at which every polynomial vanishes.

    method is "auto", the first of PLANS that applies, or a plan's name.
    Tiles hold at most chunk_size tuples, over up to `workers` processes
    (default the CPUs) from a charge of POOL_MIN_TUPLES tuples on.
    WORK_LIMIT, a fixed 2^28, caps the plan's charge, the tuples it
    enumerates.
    """
    with _GridCounter(system, spec.p, spec.q, workers=workers, method=method,
                      chunk_size=chunk_size) as counter:
        return counter.count(spec)


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
    with _GridCounter(system, p, top.q, workers=workers, method=method,
                      chunk_size=DEFAULT_CHUNK_SIZE) as counter:
        fields = [make_field(p, n) for n in range(1, n_max + 1)]
        counts = tuple(counter.count(f) + extra_point for f in fields)
    return CountSequence(p, counts, projective_flag=extra_point)
