"""Polynomial systems over Z and exhaustive point counting over F_q.

A PolySystem is a list of multivariate polynomials with integer
coefficients.  Counting reduces every coefficient mod p.  Elements of
F_q are integer ids (the position in the field's canonical
enumeration), evaluated as discrete logs through one set of FieldTables
per field, so that whole tiles of the search space evaluate as numpy
arrays.

The product grid tests every point of F_q^k and is the oracle.  Rows
are the tuples of the first k - 1 variables, columns the q values of
the last one, y.  Grouped by powers of y, a polynomial costs per point
only its terms whose coefficient depends on the row, plus one compare
against a right-hand side computed once per row.  A single polynomial
with no such terms, g(x') = h(y), is counted by a histogram join of the
right-hand sides with the column codes instead.  Integer counts summed
over tiles of at most chunk_size points are identical for any chunk
size and worker count.  Projective charts x_lead = 1 are affine counts.

Text format, one polynomial per line: integer-coefficient monomials
joined with + and -, variables x1..xk (x, y, z accepted for k <= 3),
'^' for powers, '*' optional, '#' starts a comment.  Example:

    y^2 + y - x^3 - x
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .finite_field import (MAX_FIELD_SIZE, FieldSpec, is_prime, make_field,
                            multiplicative_generator)

WORK_LIMIT = 2 ** 28  # tuples a count may enumerate
DEFAULT_CHUNK_SIZE = 1 << 14
# the smallest grid a pool pays for: y^2 + xy + y = x^3 + x^2 + x, warm, 2 CPUs,
# serial vs a new 2-worker pool, 0.26-0.29 vs 0.30-0.34 s at 2^26 tuples (F_2^13),
# 1.13-1.29 vs 0.66-0.78 s at 2^28 (F_2^14)
POOL_MIN_TUPLES = 2 ** 27

# monomials: ((e_1, ..., e_k), coeff); a polynomial is a sorted tuple of them
Monomial = tuple[tuple[int, ...], int]
Poly = tuple[Monomial, ...]


@dataclass(frozen=True)
class PolySystem:
    """Polynomials with integer coefficients in num_vars variables."""

    num_vars: int
    polys: tuple[Poly, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for poly in self.polys:
            for exps, _ in poly:
                if len(exps) != self.num_vars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")

    def is_homogeneous(self) -> bool:
        for poly in self.polys:
            degs = {sum(exps) for exps, c in poly if c != 0}
            if len(degs) > 1:
                return False
        return True


@dataclass(frozen=True)
class CountSequence:
    """Counts N_1..N_m over F_{p^1}..F_{p^m} under one convention."""

    p: int
    counts: tuple[int, ...]
    projective_flag: bool = False

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("not prime")
        if len(self.counts) < 1:
            raise ValueError("empty count sequence")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")


# ----------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(\^)|(\*\*)|(\*)|([+-])|(.))")
_ALIASES = {"x": 1, "y": 2, "z": 3}


def _parse_poly(line: str) -> dict[tuple[int, ...], int]:
    """One polynomial as {exponent-map-by-index: coeff}; indices 1-based."""
    terms: dict[tuple, int] = {}
    tokens = []
    for m in _TOKEN.finditer(line):
        num, name, caret, dstar, star, sign, bad = m.groups()
        if bad is not None and bad.strip():
            raise ValueError(f"cannot parse {bad!r} in polynomial {line!r}")
        if num:
            tokens.append(("num", int(num)))
        elif name:
            tokens.append(("var", name))
        elif caret or dstar:
            tokens.append(("pow", None))
        elif star:
            tokens.append(("mul", None))
        elif sign:
            tokens.append(("sign", sign))
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
            first = False
        if i >= len(tokens):
            if not first:
                raise ValueError(f"dangling sign in {line!r}")
            break
        coeff = sign
        exps: dict[int, int] = {}
        saw_factor = False
        while i < len(tokens) and tokens[i][0] != "sign":
            kind, val = tokens[i]
            if kind == "num":
                coeff *= val
                i += 1
                saw_factor = True
            elif kind == "var":
                if val in _ALIASES:
                    idx = _ALIASES[val]
                elif val[0] == "x" and val[1:].isdigit():
                    idx = int(val[1:])
                    if idx < 1:
                        raise ValueError(f"bad variable {val!r}")
                else:
                    raise ValueError(f"unknown variable {val!r}")
                i += 1
                e = 1
                if i < len(tokens) and tokens[i][0] == "pow":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise ValueError(f"missing exponent in {line!r}")
                    e = tokens[i][1]
                    i += 1
                exps[idx] = exps.get(idx, 0) + e
                saw_factor = True
            elif kind == "mul":
                i += 1
            else:
                raise ValueError(f"misplaced token in {line!r}")
        if not saw_factor:
            raise ValueError(f"empty term in {line!r}")
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0) + coeff
        first = False
    return {k: v for k, v in terms.items() if v != 0}


def parse_poly_system(text: str, num_vars: int | None = None) -> PolySystem:
    """Parse the one-polynomial-per-line text format."""
    raw = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            raw.append(_parse_poly(line))
    if not raw:
        raise ValueError("no polynomials in input")
    seen = 0
    for terms in raw:
        for key in terms:
            for idx, _ in key:
                seen = max(seen, idx)
    k = num_vars if num_vars is not None else max(seen, 1)
    if seen > k:
        raise ValueError("variable index exceeds declared num_vars")
    polys = []
    for terms in raw:
        mono = []
        for key, coeff in sorted(terms.items()):
            vec = [0] * k
            for idx, e in key:
                vec[idx - 1] = e
            mono.append((tuple(vec), coeff))
        polys.append(tuple(mono))
    return PolySystem(k, tuple(polys))


def format_poly_system(system: PolySystem) -> str:
    """Inverse of parse_poly_system, canonical form (for reports)."""
    names = (["x", "y", "z"] if system.num_vars <= 3
             else [f"x{i + 1}" for i in range(system.num_vars)])
    lines = []
    for poly in system.polys:
        parts = []
        for exps, coeff in poly:
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(names[j])
                elif e > 1:
                    factors.append(f"{names[j]}^{e}")
            mag = abs(coeff)
            body = "*".join(([str(mag)] if (mag != 1 or not factors) else []) + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        if not parts:
            lines.append("0")
        else:
            head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
            lines.append(" ".join([head] + parts[1:]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# field tables: nonzero elements as discrete logs

TABLE_BUILD_ROWS = 1 << 14


class FieldTables:
    """Discrete log tables for one FieldSpec, prime fields included.

    An element's id is its position in the field's enumeration order.
    For the smallest multiplicative generator g, exp[k] is the id of g^k
    for k < q - 1 and exp[q - 1] = 0; log inverts exp, so q - 1 is the
    log of zero.  Both are int32.  A monomial c * x^a * y^b is one sum
    of logs mod q - 1 plus a zero mask.  Sums are carried in one of two
    codes, chosen by p: for p = 2 the ids themselves, added by XOR; for
    odd p the logs, added through Zech logarithms, log(1 + g^k), since
    g^a + g^b = g^a (1 + g^(b - a)) (K. Huber, IEEE Trans. Inf. Theory
    36(4), 1990).
    """

    def __init__(self, spec: FieldSpec):
        self.p, self.m = spec.p, spec.q - 1
        self.exp = _exp_table(spec)
        self.log = np.empty(spec.q, dtype=np.int32)
        self.log[self.exp] = np.arange(spec.q, dtype=np.int32)

    @functools.cached_property
    def zech(self) -> np.ndarray:
        """zech[k] = log(1 + exp[k]); q - 1 where 1 + g^k = 0."""
        # adding 1 adds it to digit 0 of the id, wrapping p - 1 to 0
        ids = self.exp
        return self.log[np.where(ids % self.p == self.p - 1, ids - (self.p - 1), ids + 1)]

    def _term_logs(self, coeff: int, exps, variables, size: int) -> np.ndarray:
        """Logs of coeff * prod x_j^e_j, given the logs of the x_j."""
        m = self.m
        lc = int(self.log[coeff % self.p])
        used = [(v, e % m) for v, e in zip(variables, exps) if e]
        top = lc + m * sum(e for _, e in used)
        out = np.full(size, lc, dtype=np.int32 if top < 2 ** 31 else np.int64)
        if used:
            for v, e in used:
                out += e * v.astype(out.dtype, copy=False)
            _reduce(out, m)
            for v, _ in used:
                out[v == m] = m
        return out

    def values(self, terms, variables, size: int) -> np.ndarray:
        """Codes of the sum of the terms: ids for p = 2, logs for odd p."""
        acc = None
        for exps, c in terms:
            if c % self.p == 0:
                continue
            t = self._term_logs(c, exps, variables, size)
            if self.p == 2:
                t = np.take(self.exp, t)
                acc = t if acc is None else np.bitwise_xor(acc, t, out=acc)
            else:
                acc = t if acc is None else self._add_logs(acc, t)
        if acc is None:
            return np.full(size, 0 if self.p == 2 else self.m, dtype=np.int32)
        return acc

    def _add_logs(self, a, b):
        """Logs of g^a + g^b = g^a (1 + g^(b - a)); q - 1 stands for zero.

        a and b lie in [0, q - 1] and broadcast against each other."""
        m = self.m
        z = np.take(self.zech, _wrap(b - a, m))
        out = a + z
        out -= m
        _wrap(out, m)
        np.copyto(out, m, where=z == m)
        np.copyto(out, a, where=b == m)
        np.copyto(out, b, where=a == m)
        return out


def _reduce(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in place (floor division is much faster than % in numpy)."""
    x -= x // m * m
    return x


def _wrap(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in place for x in [-m, m): m added where x is negative,
    through the sign bit (a masked add branches on every element)."""
    sign = x >> (8 * x.itemsize - 1)
    sign &= m
    x += sign
    return x


def _exp_table(spec: FieldSpec) -> np.ndarray:
    """exp[k] = id of g^k, built by doubling.

    Multiplication by g^B is F_p-linear, an n x n matrix on coefficient
    vectors, and maps exp[0:B] to exp[B:2B]; its row j is g^B x^j, the
    row before times x reduced by the modulus.  Rows go through it
    TABLE_BUILD_ROWS at a time, which bounds the digit matrices.
    """
    p, n, q = spec.p, spec.n, spec.q
    powers = p ** np.arange(n, dtype=np.int64)
    modulus = np.array(spec.modulus, dtype=np.int64)
    exp = np.zeros(q, dtype=np.int32)
    exp[0] = 1
    g_b, b = np.array(multiplicative_generator(spec).coeffs, dtype=np.int64), 1
    mat = np.empty((n, n), dtype=np.int64)
    while b < q - 1:
        mat[0] = g_b
        for j in range(1, n):
            mat[j] = (np.append(0, mat[j - 1]) - mat[j - 1, -1] * modulus)[:n] % p
        rows = min(b, q - 1 - b)
        for s in range(0, rows, TABLE_BUILD_ROWS):
            t = min(s + TABLE_BUILD_ROWS, rows)
            digits = exp[s:t, None] // powers % p
            exp[b + s:b + t] = digits @ mat % p @ powers
        g_b, b = g_b @ mat % p, 2 * b
    return exp


@functools.lru_cache(maxsize=1)  # the field being counted; a sequence moves on
def _tables_for(spec: FieldSpec) -> FieldTables:
    return FieldTables(spec)


# ----------------------------------------------------------------------
# the product grid: rows x last-variable columns

_ZERO_LOG = 1 << 29  # log of zero in a term: past q - 1 <= 2^26 after one subtract


def _tiling(q: int, k: int, chunk_size: int) -> tuple[int, int, int, int]:
    """(rows per tile, columns per tile, row blocks, tiles) of the q^k grid."""
    rows, cols = max(1, chunk_size // q), min(q, chunk_size)
    row_blocks = -(-q ** (k - 1) // rows)
    return rows, cols, row_blocks, row_blocks * -(-q // cols)


class _Grid:
    """The q^k points of one system over one field, as rows x columns.

    Rows are the tuples of the first k - 1 variables x', columns the q
    values of the last variable y.  Each polynomial is grouped by powers
    of y, f = sum_j c_j(x') y^j, coefficients reduced mod p:

    - the constant c_j, j > 0, fold into one code per column;
    - c_0, negated, gives one code per row, the right-hand side;
    - each non-constant c_j, j > 0, adds the term log c_j(row) + log y^j
      per tuple: one add, one conditional subtract, a clamp that maps any
      zero factor to the log of zero, then XOR (p = 2) or a Zech add.

    A tuple lies on f when its column code plus its terms equals its
    row's right-hand side: one broadcast compare per tile, and systems
    AND their masks.  Every tuple is tested, so these tiles are the
    oracle for the join.

    A tile holds max(1, chunk_size // q) rows and min(q, chunk_size)
    columns, so no per-tuple array exceeds chunk_size elements.  Tile i
    is row block i % row_blocks of column slice i // row_blocks.  Column
    codes are kept per slice, and row codes per batch of up to
    chunk_size rows, so that their per-call cost is shared by many tiles.
    """

    def __init__(self, system: PolySystem, spec: FieldSpec, chunk_size: int):
        self.tables = _tables_for(spec)
        self.q, self.k = spec.q, system.num_vars
        self.rows, self.cols, self.row_blocks, self.tiles = _tiling(spec.q, self.k, chunk_size)
        self.batch = self.rows * max(1, chunk_size // self.rows)
        self.polys = [_group_by_last(poly, spec.p) for poly in system.polys]
        self._slice = self._row_batch = (None, None)

    def count(self, start: int = 0, stop: int | None = None) -> int:
        """Points in tiles start..stop - 1."""
        total = 0
        for i in range(start, self.tiles if stop is None else stop):
            total += self._count_tile(*divmod(i, self.row_blocks))
        return total

    def join(self) -> int:
        """Points of one polynomial without row terms: the (row, column)
        pairs whose codes are equal.  Each row batch adds its right-hand
        sides into one q-length histogram, and each column slice sums the
        histogram at its codes."""
        hist = np.zeros(self.q, dtype=np.int64)
        for bi in range(-(-self.q ** (self.k - 1) // self.batch)):
            np.add.at(hist, self._rows(bi)[0][0], 1)
        if not self.polys[0][1]:  # no column terms: every column codes zero
            return int(hist[0 if self.tables.p == 2 else self.tables.m]) * self.q
        return sum(int(np.take(hist, self._columns(ci)[0][0]).sum())
                   for ci in range(-(-self.q // self.cols)))

    def _columns(self, ci: int):
        """Per polynomial, the column codes (or None) and the logs of y^j
        of its row terms, over column slice ci."""
        if self._slice[0] != ci:
            t = self.tables
            ylog = t.log[ci * self.cols:(ci + 1) * self.cols]
            self._slice = (ci, [(t.values(col, [ylog], ylog.size) if col else None,
                                 [self._zero_log(t._term_logs(1, (j,), [ylog], ylog.size))
                                  for j, _ in terms])
                                for _, col, terms in self.polys])
        return self._slice[1]

    def _rows(self, bi: int):
        """Per polynomial, the right-hand sides and the logs of c_j of its
        row terms, over row batch bi, first variable slowest."""
        if self._row_batch[0] != bi:
            t, q, k = self.tables, self.q, self.k
            idx = np.arange(bi * self.batch, min((bi + 1) * self.batch, q ** (k - 1)),
                            dtype=np.int64)
            xs = [t.log[idx // q ** (k - 2 - j) % q] for j in range(k - 1)]
            self._row_batch = (bi, [(t.values(rhs, xs, idx.size),
                                     [self._zero_log(t.values(c, xs, idx.size), ids=t.p == 2)
                                      for _, c in terms])
                                    for rhs, _, terms in self.polys])
        return self._row_batch[1]

    def _zero_log(self, codes: np.ndarray, ids: bool = False) -> np.ndarray:
        """int32 logs of the given codes, with _ZERO_LOG for zero."""
        t = self.tables
        logs = t.log[codes] if ids else codes.astype(np.int32)
        logs[logs == t.m] = _ZERO_LOG
        return logs

    def _count_tile(self, ci: int, ri: int) -> int:
        t = self.tables
        m = t.m
        bi, r0 = divmod(ri * self.rows, self.batch)
        rows = slice(r0, r0 + self.rows)
        mask = None
        for (rhs, lcs), (col, powers) in zip(self._rows(bi), self._columns(ci)):
            acc = col
            for lc, power in zip(lcs, powers):
                s = lc[rows, None] + power
                s -= m
                _wrap(s, m)
                # a zero factor leaves s >= 2^29 - q: clipped, it is the log of zero
                if t.p == 2:
                    s = np.take(t.exp, s, mode="clip")
                    acc = s if acc is None else np.bitwise_xor(s, acc, out=s)
                else:
                    np.minimum(s, m, out=s)
                    acc = s if acc is None else t._add_logs(acc, s)
            if acc is None:
                acc = 0 if t.p == 2 else m
            hit = np.equal(acc, rhs[rows, None])
            mask = hit if mask is None else mask & hit
        tuples = (min(self.rows, self.q ** (self.k - 1) - ri * self.rows)
                  * min(self.cols, self.q - ci * self.cols))
        if mask is None:
            return tuples
        # a mask that never met a column (or a row) term is the same along that axis
        return int(np.count_nonzero(mask)) * (tuples // mask.size)


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


_worker_system: PolySystem | None = None  # the system a pool worker counts


def _init_worker(system: PolySystem) -> None:
    global _worker_system
    _worker_system = system


def _count_tiles(payload) -> int:
    p, n, modulus, chunk_size, start, stop = payload
    return _Grid(_worker_system, FieldSpec(p, n, modulus), chunk_size).count(start, stop)


def _pool_size(cap: int | None, tiles: int) -> int:
    """Worker processes to start: no more than the cap, tiles or CPUs."""
    cpus = os.cpu_count() or 1
    return min(cpus if cap is None else cap, tiles, cpus)


class _GridCounter:
    """The counting plan of one system over F_p and its extensions, with
    WORK_LIMIT charged once, for the largest field q_max, before any
    field is built.

    A single polynomial whose coefficients of y^j, j > 0, are constants
    mod p is counted by the histogram join, q^(k - 1) + q tuples; any
    other system by the tiles, q^k.  One pool serves every field whose
    tiles hold at least POOL_MIN_TUPLES tuples, with as many workers as
    the largest field has tiles (at most `workers` and the CPUs); its
    initializer hands each worker the system once, and a field then
    travels as ranges of tiles, four per worker.  A system with no
    equation mod p counts q^k at once, with the same charge.
    """

    def __init__(self, system: PolySystem, p: int, q_max: int, *,
                 workers: int | None, method: str, chunk_size: int):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if method not in ("auto", "product", "separable"):
            raise ValueError(f"unknown method {method!r}")
        polys = [_group_by_last(poly, p) for poly in system.polys]
        self.free = not any(map(any, polys))  # no equation mod p: every tuple counts
        self.join = method != "product" and len(polys) == 1 and not polys[0][2]
        if method == "separable" and not self.join:
            raise ValueError("system is not separable")
        k = system.num_vars
        if (q_max ** (k - 1) + q_max if self.join else q_max ** k) > WORK_LIMIT:
            raise ValueError("search space too large")
        self.system, self.chunk_size = system, chunk_size
        self.workers = 1 if self.join else _pool_size(workers, _tiling(q_max, k, chunk_size)[3])
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def count(self, spec: FieldSpec) -> int:
        if self.free:
            return spec.q ** self.system.num_vars
        tiles = _tiling(spec.q, self.system.num_vars, self.chunk_size)[3]
        if self.workers == 1 or spec.q ** self.system.num_vars < POOL_MIN_TUPLES:
            grid = _Grid(self.system, spec, self.chunk_size)
            return grid.join() if self.join else grid.count()
        if self.pool is None:
            from concurrent.futures import ProcessPoolExecutor  # only pooled counts import it
            self.pool = ProcessPoolExecutor(max_workers=self.workers, initializer=_init_worker,
                                            initargs=(self.system,))
        parts = min(tiles, 4 * self.workers)
        cuts = [tiles * i // parts for i in range(parts + 1)]
        return sum(self.pool.map(_count_tiles, [
            (spec.p, spec.n, spec.modulus, self.chunk_size, a, b) for a, b in zip(cuts, cuts[1:])]))


def count_affine(system: PolySystem, spec: FieldSpec, *,
                 workers: int | None = None,
                 method: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of points of F_q^k at which every polynomial vanishes.

    method: "product" tests every tuple of the q^k grid, laid out as
    rows (the first k - 1 variables) times columns (the last one), in
    tiles of at most chunk_size tuples, across up to `workers` processes
    (default the CPUs) from POOL_MIN_TUPLES tuples on; "separable" joins
    a histogram of the rows' right-hand sides with the columns' codes,
    for a single equation whose last variable separates, g(x') = h(y);
    "auto" joins when it can.  All methods count exactly, for any
    chunk_size and worker count.  WORK_LIMIT, a fixed 2^28, caps the
    tuples the chosen plan enumerates: q^k for the tiles, q^(k - 1) + q
    for the join.
    """
    with _GridCounter(system, spec.p, spec.q, workers=workers, method=method,
                      chunk_size=chunk_size) as counter:
        return counter.count(spec)


def _projective_rep_count(k: int, q: int) -> int:
    return sum(q ** (k - 1 - i) for i in range(k))


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
    reps = _projective_rep_count(k, q)
    if reps > WORK_LIMIT:
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
