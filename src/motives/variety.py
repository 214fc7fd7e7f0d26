"""Polynomial systems over Z and exhaustive point counting over F_q.

A PolySystem is a list of multivariate polynomials with integer
coefficients.  Counting reduces every coefficient mod p and enumerates
assignments; elements of F_q are integer ids (the position in the
field's canonical enumeration), evaluated as discrete logs through one
set of FieldTables per field, so that whole chunks of the search space
evaluate as numpy arrays.  The domain is partitioned into fixed
chunks and the per-chunk integer counts are summed, so results are
identical for any worker count.

Text format, one polynomial per line: integer-coefficient monomials
joined with + and -, variables x1..xk (x, y, z accepted for k <= 3),
'^' for powers, '*' optional, '#' starts a comment.  Example:

    y^2 + y - x^3 - x
"""

from __future__ import annotations

import functools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .finite_field import FieldSpec, is_prime, make_field, multiplicative_generator

DEFAULT_WORK_LIMIT = 2 ** 28
DEFAULT_CHUNK_SIZE = 1 << 14

# monomials: ((e_1, ..., e_k), coeff); a polynomial is a sorted tuple of them
Monomial = tuple[tuple[int, ...], int]
Poly = tuple[Monomial, ...]


@dataclass(frozen=True)
class PolySystem:
    """Polynomials with integer coefficients in num_vars variables."""

    num_vars: int
    polys: tuple[Poly, ...]
    homogeneous_flag: bool = False

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
            elif kind == "mul":
                i += 1
            else:
                raise ValueError(f"misplaced token in {line!r}")
            saw_factor = True
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
    system = PolySystem(k, tuple(polys))
    if system.is_homogeneous():
        system = PolySystem(k, tuple(polys), homogeneous_flag=True)
    return system


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
        """Logs of g^a + g^b = g^a (1 + g^(b - a)); q - 1 stands for zero."""
        m = self.m
        z = np.take(self.zech, _reduce(b - a, m))
        out = _reduce(a + z, m)
        out[z == m] = m
        return np.where(a == m, b, np.where(b == m, a, out))

    def zero_mask(self, poly, variables, size: int) -> np.ndarray:
        """Where the polynomial vanishes: the sum of all but its last term
        equals the last term negated."""
        last = [(exps, -c) for exps, c in poly[-1:]]
        return self.values(poly[:-1], variables, size) == self.values(last, variables, size)


def _reduce(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in place (floor division is much faster than % in numpy)."""
    x -= x // m * m
    return x


def _exp_table(spec: FieldSpec) -> np.ndarray:
    """exp[k] = id of g^k, built by doubling.

    Multiplication by g^B is F_p-linear, an n x n matrix on coefficient
    vectors, and maps exp[0:B] to exp[B:2B].  Rows go through it
    TABLE_BUILD_ROWS at a time, which bounds the digit matrices.
    """
    p, n, q = spec.p, spec.n, spec.q
    powers = p ** np.arange(n, dtype=np.int64)
    basis = [spec.from_index(p ** j) for j in range(n)]
    exp = np.zeros(q, dtype=np.int32)
    exp[0] = 1
    g_b, b = multiplicative_generator(spec), 1
    while b < q - 1:
        mat = np.array([(g_b * x).coeffs for x in basis], dtype=np.int64)
        rows = min(b, q - 1 - b)
        for s in range(0, rows, TABLE_BUILD_ROWS):
            t = min(s + TABLE_BUILD_ROWS, rows)
            digits = exp[s:t, None] // powers % p
            exp[b + s:b + t] = digits @ mat % p @ powers
        g_b, b = g_b * g_b, 2 * b
    return exp


@functools.lru_cache(maxsize=None)
def _tables_for(spec: FieldSpec) -> FieldTables:
    return FieldTables(spec)


# ----------------------------------------------------------------------
# evaluation and counting

def _eval_polys_zero_mask(tables: FieldTables, polys, var_ids) -> np.ndarray:
    """Boolean mask: all polynomials vanish at the given id assignments."""
    size = len(var_ids[0]) if var_ids else 0
    variables = [tables.log[ids] for ids in var_ids]
    mask = np.ones(size, dtype=bool)
    for poly in polys:
        mask &= tables.zero_mask(poly, variables, size)
    return mask


def _chunk_vars(q: int, k: int, start: int, stop: int):
    idx = np.arange(start, stop, dtype=np.int64)
    return [_reduce(idx // q ** (k - 1 - j), q) for j in range(k)]


def _count_chunk(payload) -> int:
    p, n, modulus, polys, k, start, stop = payload
    spec = FieldSpec(p, n, modulus)
    var_ids = _chunk_vars(spec.q, k, start, stop)
    return int(_eval_polys_zero_mask(_tables_for(spec), polys, var_ids).sum())


def _pool_size(requested: int, chunks: int) -> int:
    """Worker processes to start: no more than there are chunks or CPUs."""
    return min(requested, chunks, os.cpu_count() or 1)


def _separable_split(system: PolySystem):
    """For a single 2-variable equation with no mixed monomials, return
    (x_terms, y_terms) as univariate polynomials; otherwise None."""
    if system.num_vars != 2 or len(system.polys) != 1:
        return None
    xs, ys = [], []
    for (ex, ey), coeff in system.polys[0]:
        if ex and ey:
            return None
        if ey:
            ys.append(((ey,), coeff))
        else:
            xs.append(((ex,), coeff))
    return tuple(xs), tuple(ys)


def count_affine(system: PolySystem, spec: FieldSpec, *,
                 work_limit: int = DEFAULT_WORK_LIMIT,
                 workers: int = 1,
                 method: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of points of F_q^k at which every polynomial vanishes.

    method: "product" enumerates the full q^k grid in chunks (optionally
    across worker processes); "separable" enumerates each variable once
    for single-equation systems that split as g(x) + h(y); "auto" picks
    "separable" when it applies.  All methods count exactly; workers
    (at least 1) only affect the product grid, which starts at most one
    process per chunk and per CPU.

    The work limit caps the number of tuples the chosen method will
    enumerate (q^k for the product grid).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    q, k = spec.q, system.num_vars
    split = _separable_split(system) if method in ("auto", "separable") else None
    if method == "separable" and split is None:
        raise ValueError("system is not separable")

    if split is not None:
        if 2 * q > work_limit:
            raise ValueError("search space too large")
        tables = _tables_for(spec)
        # every element once, as its log; the order does not matter here
        every = [np.arange(q, dtype=np.int32)]
        # g(x) = -h(y): join the histograms of -g and h
        neg_g = np.bincount(tables.values([(e, -c) for e, c in split[0]], every, q), minlength=q)
        h = np.bincount(tables.values(split[1], every, q), minlength=q)
        return int(neg_g @ h)

    total = q ** k
    if total > work_limit:
        raise ValueError("search space too large")
    payloads = [(spec.p, spec.n, spec.modulus, system.polys, k, s, min(s + chunk_size, total))
                for s in range(0, total, chunk_size)]
    workers = _pool_size(workers, len(payloads))
    if workers == 1:
        return sum(map(_count_chunk, payloads))
    # four batches per worker: a task per chunk would cost more in IPC than
    # the chunk itself
    batch = -(-len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk, payloads, chunksize=batch))


def _projective_rep_count(k: int, q: int) -> int:
    return sum(q ** (k - 1 - i) for i in range(k))


def count_projective_variety(system: PolySystem, spec: FieldSpec, *,
                             work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """Points of projective (k-1)-space at which all polynomials vanish.

    Representatives are normalized so the first nonzero coordinate is 1,
    scanning left to right; each projective point is enumerated once.
    """
    if not system.homogeneous_flag or not system.is_homogeneous():
        raise ValueError("not homogeneous")
    k, q = system.num_vars, spec.q
    if _projective_rep_count(k, q) > work_limit:
        raise ValueError("search space too large")
    tables = _tables_for(spec)
    one = 1 % q  # id of the unit element
    total = 0
    for lead in range(k):
        free = k - 1 - lead
        block = q ** free
        idx = np.arange(block, dtype=np.int64)
        var_ids = []
        for j in range(k):
            if j < lead:
                var_ids.append(np.zeros(block, dtype=np.int64))
            elif j == lead:
                var_ids.append(np.full(block, one, dtype=np.int64))
            else:
                var_ids.append((idx // q ** (k - 1 - j)) % q)
        total += int(_eval_polys_zero_mask(tables, system.polys, var_ids).sum())
    return total


def count_projective_space(dim: int, spec: FieldSpec, *,
                           work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """|P^dim(F_q)| by enumerating representatives, checked against
    1 + q + ... + q^dim."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    empty = PolySystem(dim + 1, ((),), homogeneous_flag=True)
    enumerated = count_projective_variety(empty, spec, work_limit=work_limit)
    closed = (spec.q ** (dim + 1) - 1) // (spec.q - 1)
    if enumerated != closed:
        raise AssertionError("projective enumeration disagrees with closed form")
    return enumerated


def affine_count_sequence(system: PolySystem, p: int, n_max: int, *,
                          extra_point: bool = False,
                          work_limit: int = DEFAULT_WORK_LIMIT,
                          workers: int = 1,
                          method: str = "auto") -> CountSequence:
    """Counts over F_{p^1}..F_{p^n_max} by exhaustive enumeration.

    extra_point=True adds one point at infinity per field, the projective
    convention for curves given in affine form.
    """
    counts = []
    for n in range(1, n_max + 1):
        c = count_affine(system, make_field(p, n), work_limit=work_limit,
                         workers=workers, method=method)
        counts.append(c + 1 if extra_point else c)
    return CountSequence(p, tuple(counts), projective_flag=extra_point)
