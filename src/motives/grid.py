"""The array kernel of point counting: field tables and the product grid.

Elements of F_q are integer ids (the position in the field's canonical
enumeration) and discrete logs, related by one set of FieldTables per
field.  The grid enumerates every variable by its log, so that whole
tiles of the search space evaluate as numpy arrays.  `variety` plans each
count and imports this module with its first grid, so that parsing,
planning, gridless counts and the fibre counts that `variety` makes in
pure Python need no numpy: every one of p = 2, on bit planes, and those
of odd p in one variable or up to `variety.ARRAY_MIN_CHARGE` rows.  The
fibre counts here are odd p only: those past that bound, and those in a
process that has loaded numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .finite_field import FieldSpec, multiplicative_generator
from .variety import PolySystem, _group_by_last, _tiling

# ----------------------------------------------------------------------
# field tables: nonzero elements as discrete logs

TABLE_BUILD_ROWS = 1 << 14  # elements per slice of a table build
_ZERO_LOG = 1 << 29  # log of zero in a term: past q - 1 <= 2^26 after one subtract


class FieldTables:
    """Discrete log tables for one FieldSpec, prime fields included.

    An element's id is its position in the field's enumeration order.
    For the smallest multiplicative generator g, exp[k] is the id of g^k
    for k < q - 1 and exp[q - 1] = 0; log inverts exp, so q - 1 is the
    log of zero.  Both are int32, and log is built on first use.  A
    monomial c * x^a * y^b is one sum of logs mod q - 1 plus a zero mask.
    Sums are carried in one code, chosen by p and known only here
    (`zero`, `add`, `logs`): for p = 2 the ids
    themselves, added by XOR; for odd p the logs, added through Zech
    logarithms, log(1 + g^k), since g^a + g^b = g^a (1 + g^(b - a))
    (K. Huber, IEEE Trans. Inf. Theory 36(4), 1990).  Each table is
    built TABLE_BUILD_ROWS elements at a time through one workspace, so
    a field costs 4 bytes per element per table and little more.
    """

    def __init__(self, spec: FieldSpec):
        self.p, self.n, self.m = spec.p, spec.n, spec.q - 1
        self.zero = 0 if spec.p == 2 else self.m  # the code of 0
        self.exp = _exp_table(spec)

    @functools.cached_property
    def log(self) -> np.ndarray:
        """log[id] = k where exp[k] = id; built on first use, which a
        p = 2 count without row-dependent products never makes."""
        log = np.empty_like(self.exp)
        ids = np.empty(min(TABLE_BUILD_ROWS, log.size), dtype=np.intp)
        logs = np.arange(ids.size, dtype=np.int32)
        for s in range(0, log.size, ids.size):
            e = self.exp[s:s + ids.size]
            np.copyto(ids[:e.size], e)
            log[ids[:e.size]] = logs[:e.size]
            logs += ids.size
        return log

    @functools.cached_property
    def zech(self) -> np.ndarray:
        """zech[k] = log(1 + exp[k]); q - 1 where 1 + g^k = 0."""
        p, zech = self.p, np.empty_like(self.exp)
        high = np.empty(min(TABLE_BUILD_ROWS, zech.size), dtype=np.intp)
        low = np.empty_like(high)
        for s in range(0, zech.size, high.size):
            # adding 1 adds it to digit 0 of the id, wrapping p - 1 to 0
            ids = self.exp[s:s + high.size]
            h, d = high[:ids.size], low[:ids.size]
            np.floor_divide(ids, p, out=h)
            h *= p
            np.add(ids, 1, out=d)
            np.remainder(d, p, out=d)
            d += h
            np.take(self.log, d, out=zech[s:s + ids.size], mode="clip")
        return zech

    @functools.cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """One log per orbit of the Frobenius x -> x^p, and the orbit's size.

        On logs the Frobenius is i -> i p mod (q - 1), so the orbits of
        F_q^x are the cyclotomic cosets {i p^j mod (q - 1)}, and zero (the
        log q - 1) is an orbit of its own.  Each orbit gives its least log,
        the largest orbits first and logs ascending within a size, so zero
        comes last.  Both arrays are int32, and the sizes sum to q.  Each
        slice of TABLE_BUILD_ROWS logs i takes n - 1 steps
        c -> c p mod (q - 1) from c = i through one workspace: i is least
        when no step goes below it, and the last step j < n that comes
        back to i is n minus the orbit's size.
        """
        p, n, m = self.p, self.n, self.m
        rows = min(TABLE_BUILD_ROWS, m)
        i = np.arange(rows, dtype=np.int64)
        conj, high = np.empty((2, rows), dtype=np.int64)
        least, hit = np.empty((2, rows), dtype=bool)
        last = np.empty(rows, dtype=np.int32)
        logs, sizes = [], []
        for s in range(0, m, rows):
            r = min(rows, m - s)
            c, h, lt, b, back = conj[:r], high[:r], least[:r], hit[:r], last[:r]
            np.copyto(c, i[:r])
            lt.fill(True)
            back.fill(0)
            for j in range(1, n):
                c *= p
                np.floor_divide(c, m, out=h)
                h *= m
                c -= h
                np.less_equal(i[:r], c, out=b)
                lt &= b
                np.equal(c, i[:r], out=b)
                np.copyto(back, j, where=b)
            logs.append(i[:r][lt].astype(np.int32))
            sizes.append(n - back[lt])
            i += rows
        logs = np.concatenate(logs + [np.int32([m])])
        sizes = np.concatenate(sizes + [np.int32([1])])
        by_size = [sizes == d for d in range(n, 0, -1) if n % d == 0]
        return (np.concatenate([logs[b] for b in by_size]),
                np.concatenate([sizes[b] for b in by_size]))

    def _term_logs(self, coeff: int, exps, variables, size: int) -> np.ndarray:
        """Logs of coeff * prod x_j^e_j, given the logs of the x_j."""
        m = self.m
        # for p = 2 every coefficient that reaches here is 1 mod 2
        lc = 0 if self.p == 2 else int(self.log[coeff % self.p])
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
        """Codes of the sum of the terms, whose coefficients are nonzero mod p."""
        acc = None
        for exps, c in terms:
            acc = self.add(acc, self._term_logs(c, exps, variables, size))
        return np.full(size, self.zero, dtype=np.int32) if acc is None else acc

    def add(self, acc, logs: np.ndarray) -> np.ndarray:
        """Codes of acc (None for zero) plus the elements with these logs,
        any log >= q - 1 being zero; logs may be overwritten, acc is not."""
        if self.p == 2:
            ids = np.take(self.exp, logs, mode="clip")
            return ids if acc is None else np.bitwise_xor(ids, acc, out=ids)
        np.minimum(logs, self.m, out=logs)
        return logs if acc is None else self._add_logs(acc, logs)

    def logs(self, codes: np.ndarray) -> np.ndarray:
        """int32 logs of the given codes, with _ZERO_LOG for zero."""
        logs = self.log[codes] if self.p == 2 else codes.astype(np.int32)
        logs[logs == self.m] = _ZERO_LOG
        return logs

    def quadratic_solutions(self, rhs: np.ndarray, c1, c2: int) -> int:
        """Solutions y of c2 y^2 + c1 y = rhs over a field of odd p, summed
        over rows: rhs the rows' codes, c1 their int32 logs (from `logs`) or
        one integer coefficient for every row, c2 an integer nonzero mod p.

        A row has 1 + chi(c1^2 + 4 c2 rhs) solutions, chi the quadratic
        character: 0 at zero, else +1 or -1 as the log is even or odd.
        Temporaries are int32.
        """
        m = self.m
        if not isinstance(c1, np.ndarray):
            c1 = np.int32([int(self.log[c1 % self.p]) if c1 % self.p else _ZERO_LOG])
        # logs of c1^2 and of 4 c2 rhs; a zero factor stays at least 2^29 - q: zero
        sq = 2 * c1 - m
        _wrap(sq, m)
        d = self.logs(rhs)
        d += int(self.log[4 * c2 % self.p]) - m
        _wrap(d, m)
        disc = self.add(self.add(None, sq), d)
        # m is even: a zero discriminant's log is even and counts 2 - 1
        return 2 * (disc.size - int(np.count_nonzero(disc & 1))) - int(np.count_nonzero(disc == m))

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

    Multiplication by g^b maps exp[0:b] to exp[b:2b], TABLE_BUILD_ROWS
    ids at a time, and the ids of g^b x^j, j < n, to those of g^2b x^j,
    from which the next step's tables are built.
    """
    n, q = spec.n, spec.q
    exp = np.empty(q, dtype=np.int32)
    exp[0], exp[q - 1] = 1, 0
    g = multiplicative_generator(spec)
    cols = np.empty(n, dtype=np.int32)
    for j in range(n):  # the ids of g x^j
        cols[j] = g.index()
        g = spec.element((0, *g.coeffs))
    mul, b = _Multiplier(spec, min(TABLE_BUILD_ROWS, q)), 1
    while b < q - 1:
        mul.load(cols)
        rows = min(b, q - 1 - b)
        for s in range(0, rows, TABLE_BUILD_ROWS):
            t = min(s + TABLE_BUILD_ROWS, rows)
            mul(exp[s:t], exp[b + s:b + t])
        cols, b = mul(cols, np.empty_like(cols)), 2 * b
    return exp


class _Multiplier:
    """Multiplication of ids by one element h of F_q, given by `load`
    the ids of h x^j, j < n.

    The map is F_p-linear, so an id's image is the sum of the images of
    its K >= 2 chunks of c base-p digits, p^c <= 2^12 (c = 1 for larger
    p): one gather per chunk, from tables of p^c entries (the "Four
    Russians" method: Arlazarov, Dinic, Kronrod, Faradzev, 1970).  The
    images add in the kernel's two codes.  For p = 2 they are ids, added
    by XOR.  For odd p they are n packed lanes of w bits, one per digit,
    wide enough that K images add as plain integers; one gather per
    group of lanes (at most 2^12 entries, or 2^w for wider lanes) then
    reduces every lane mod p and packs the digits into an id.  A prime
    field multiplies ids mod p.  Slices of up to `rows` ids pass through
    one workspace.
    """

    def __init__(self, spec: FieldSpec, rows: int):
        p, n = self.p, self.n = spec.p, spec.n
        c = 1
        while c < n and p ** (c + 1) <= 1 << 12:
            c += 1
        # as few chunks as fit, but two at least (one would be the whole map), of equal size
        c = -(-n // max(-(-n // c), min(n, 2)))
        self.c, self.base, chunks = c, p ** c, -(-n // c)
        self.high = np.empty(rows, dtype=np.intp)
        self.low = np.empty(rows, dtype=np.intp)
        self.part = np.empty(rows, dtype=np.int32)
        if n == 1:  # no tables: ids are multiplied mod p
            return
        if p == 2:
            self.tables = np.empty((chunks, self.base), dtype=np.int32)
        else:
            w = self.w = (chunks * (p - 1)).bit_length()
            self.tables = np.empty((chunks, self.base), dtype=np.int64)
            self.acc, self.part64 = np.empty((2, rows), dtype=np.int64)
            self.powers = p ** np.arange(n, dtype=np.int64)
            self.shifts = w * np.arange(n, dtype=np.int64)
            self.ones = sum(1 << s for s in range(0, n * w, w))
            self.excess = ((1 << w - 1) - p) * self.ones
            groups = -(-n // max(1, 12 // w))
            lanes = -(-n // groups)
            self.group = 1 << lanes * w
            # a group's table is the outer sum of its lanes' digits times p^j
            digit = np.arange(1 << w, dtype=np.int32) % p
            self.reduce = np.empty((groups, self.group), dtype=np.int32)
            for g in range(groups):
                table = np.zeros(1, dtype=np.int32)
                for j in range(g * lanes, (g + 1) * lanes):
                    table = np.add.outer(digit * (p ** j if j < n else 0), table)
                self.reduce[g] = table.ravel()

    def load(self, cols: np.ndarray) -> None:
        """Build the tables of multiplication by h from the ids of h x^j."""
        if self.n == 1:
            self.h = int(cols[0])
            return
        p, c, n = self.p, self.c, self.n
        tables = self.tables
        chunks = len(tables)
        # images[j, d - 1]: the code of d h x^j; x^j past x^(n - 1) maps to 0
        images = np.zeros((chunks * c, p - 1), dtype=tables.dtype)
        if p == 2:
            images[:n, 0] = cols
        else:
            digits = cols[:, None] // self.powers % p
            images[:n] = ((np.arange(1, p)[:, None] * digits[:, None, :] % p)
                          << self.shifts).sum(axis=-1)
        images = images.reshape(chunks, c, p - 1)
        tables[:, 0] = 0
        for i in range(c):  # chunks whose top nonzero digit is digit i
            s = p ** i
            tables[:, s:p * s].reshape(chunks, p - 1, s)[...] = self._add(
                tables[:, None, :s], images[:, i, :, None])

    def _add(self, a, b):
        """The codes of the sums of two codes of elements."""
        if self.p == 2:
            return a ^ b
        x = a + b  # lanes in [0, 2p - 2]; the top bit of lane + 2^(w-1) - p flags >= p
        x -= ((x + self.excess) >> self.w - 1 & self.ones) * self.p
        return x

    def __call__(self, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The ids of h times the elements of ids, written to out, which
        must not overlap ids."""
        r = ids.size
        if self.n == 1:
            acc, high = self.low[:r], self.high[:r]
            np.copyto(acc, ids)
            acc *= self.h
            np.floor_divide(acc, self.p, out=high)
            high *= self.p
            np.subtract(acc, high, out=out)
        elif self.p == 2:
            self._gather(ids, self.base, self.tables, np.bitwise_xor, out, self.part[:r])
        else:
            acc = self._gather(ids, self.base, self.tables, np.add, self.acc[:r],
                               self.part64[:r])
            self._gather(acc, self.group, self.reduce, np.add, out, self.part[:r])
        return out

    def _gather(self, src, base, tables, combine, out, part):
        """out = combine over k of tables[k][digit k of src in `base`],
        from the top digit down."""
        r, top = src.size, len(tables) - 1
        high, low = self.high[:r], self.low[:r]
        np.floor_divide(src, base ** top, out=high)
        np.take(tables[top], high, out=out, mode="clip")
        for k in range(top - 1, -1, -1):
            high *= base
            if k:
                np.floor_divide(src, base ** k, out=low)
                np.subtract(low, high, out=high)
            else:
                np.subtract(src, high, out=high)
            np.take(tables[k], high, out=part, mode="clip")
            combine(out, part, out=out)
            high, low = low, high  # high = src // base^k
        return out


@functools.lru_cache(maxsize=1)  # the field being counted; a sequence moves on
def _tables_for(spec: FieldSpec) -> FieldTables:
    _tables_for.cache_clear()  # a miss: free the last field's tables before building
    return FieldTables(spec)


# ----------------------------------------------------------------------
# the product grid: rows x last-variable columns


class _Grid:
    """The points of one system over one field, as rows x columns.

    Rows are the tuples of the first k - 1 variables x', columns the q
    values of the last variable y, every variable read as a log (q - 1
    being the log of zero).  The first row variable runs over `first`,
    (logs, int32 weights), weights never increasing, and a row's hits
    count its weight times; by default it runs over every log once, in
    order, weight 1.  The other row variables and y run over every log in
    order, so no row or column goes through a table.  Each polynomial is
    grouped by powers of y, f = sum_j c_j(x') y^j, coefficients reduced
    mod p:

    - the constant c_j, j > 0, fold into one code per column;
    - c_0, negated, gives one code per row, the right-hand side;
    - each non-constant c_j, j > 0, adds the term log c_j(row) + log y^j
      per tuple: one add and one conditional subtract, then
      `FieldTables.add`, which takes any zero factor as zero.

    A tuple lies on f when its column code plus its terms equals its
    row's right-hand side: one broadcast compare per tile, and systems
    AND their masks.

    A tile holds max(1, chunk_size // q) rows and min(q, chunk_size)
    columns, so no per-tuple array exceeds chunk_size elements.  Tile i
    is row block i % row_blocks of column slice i // row_blocks.  Column
    codes are kept per slice, and row codes per batch of up to
    chunk_size rows, so that their per-call cost is shared by many tiles.
    """

    def __init__(self, system: PolySystem, spec: FieldSpec, chunk_size: int, first=None):
        self.tables, self.first = _tables_for(spec), first
        q, k = self.q, self.k = spec.q, system.num_vars
        self.inner = q ** max(k - 2, 0)  # rows per value of the first variable
        self.num_rows = (q if first is None else first[0].size) * self.inner if k > 1 else 1
        self.rows, self.cols, self.row_blocks, self.tiles = _tiling(q, self.num_rows, chunk_size)
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
        """Points of one polynomial without row terms: a q-entry histogram
        of the rows' right-hand sides, summed at each column slice's
        codes."""
        # a bucket counts at most q^(k - 1) <= WORK_LIMIT < 2^31 rows
        hist, one = np.zeros(self.q, dtype=np.int32), np.int32(1)
        for bi in range(-(-self.num_rows // self.batch)):
            polys, weights = self._rows(bi)
            # a Python 1 takes a slow path
            np.add.at(hist, polys[0][0], one if weights is None else weights)
        if not self.polys[0][1]:  # no column terms: every column codes zero
            return int(hist[self.tables.zero]) * self.q
        return sum(int(np.take(hist, self._columns(ci)[0][0]).sum())
                   for ci in range(-(-self.q // self.cols)))

    def fibre(self) -> int:
        """Points of one polynomial c2 y^2 + c1(x') y + c0(x') over a field
        of odd p, c2 a constant nonzero mod p (`variety` counts p = 2 on bit
        planes): the solutions in y of every row, weight 1,
        from its right-hand side -c0 and its c1 (row terms' logs, or the
        constant), through `FieldTables.quadratic_solutions`."""
        (_, col, terms), = self.polys
        coeffs = {j: c for (j,), c in col}
        c1 = coeffs.get(1, 0)
        total = 0
        for bi in range(-(-self.num_rows // self.batch)):
            ((rhs, lcs),), _ = self._rows(bi)
            total += self.tables.quadratic_solutions(rhs, lcs[0] if terms else c1, coeffs[2])
        return total

    def _columns(self, ci: int):
        """Per polynomial, the column codes (or None) and the logs of y^j
        of its row terms, over column slice ci."""
        if self._slice[0] != ci:
            t = self.tables
            ylog = np.arange(ci * self.cols, min((ci + 1) * self.cols, self.q), dtype=np.int32)
            self._slice = (ci, [(t.values(col, [ylog], ylog.size) if col else None,
                                 [t.logs(t.values([((j,), 1)], [ylog], ylog.size))
                                  for j, _ in terms])
                                for _, col, terms in self.polys])
        return self._slice[1]

    def _rows(self, bi: int):
        """Over row batch bi, first variable slowest: per polynomial, the
        right-hand sides and the logs of c_j of its row terms; and the
        rows' weights, None for weight 1."""
        if self._row_batch[0] != bi:
            t, q, k = self.tables, self.q, self.k
            # rows <= WORK_LIMIT < 2^31
            idx = np.arange(bi * self.batch, min((bi + 1) * self.batch, self.num_rows),
                            dtype=np.int32)
            xs, weights = [], None
            if k > 1:
                x0 = idx // self.inner if k > 2 else idx
                if self.first is not None:
                    weights, x0 = self.first[1][x0], self.first[0][x0]
                xs = [x0] + [idx // q ** (k - 2 - j) % q for j in range(1, k - 1)]
            self._row_batch = (bi, ([(t.values(rhs, xs, idx.size),
                                      [t.logs(t.values(c, xs, idx.size)) for _, c in terms])
                                     for rhs, _, terms in self.polys], weights))
        return self._row_batch[1]

    def _count_tile(self, ci: int, ri: int) -> int:
        t = self.tables
        m = t.m
        bi, r0 = divmod(ri * self.rows, self.batch)
        rows = slice(r0, r0 + self.rows)
        polys, weights = self._rows(bi)
        mask = None
        for (rhs, lcs), (col, powers) in zip(polys, self._columns(ci)):
            acc = col
            for lc, power in zip(lcs, powers):
                s = lc[rows, None] + power
                s -= m
                _wrap(s, m)
                acc = t.add(acc, s)  # a zero factor leaves s >= 2^29 - q: zero
            hit = np.equal(t.zero if acc is None else acc, rhs[rows, None])
            mask = hit if mask is None else mask & hit
        cols = min(self.cols, self.q - ci * self.cols)
        # a mask that never met a column (or a row) term is the same along that axis
        cols //= mask.shape[1]
        if weights is None:
            return int(np.count_nonzero(mask)) * cols
        w = weights[rows]
        if w[0] == w[-1]:  # weights never increase: one weight across the tile
            return int(np.count_nonzero(mask)) * int(w[0]) * cols
        return sum(int(np.count_nonzero(row)) * wr for row, wr in zip(mask, w.tolist())) * cols


def orbit_rows(spec: FieldSpec, k: int):
    """The product grid's first variable: one log per Frobenius orbit,
    weighted by its size (`FieldTables.orbits`), or None, every log once,
    over a prime field (every orbit one element) and for one variable (no
    row variable)."""
    return _tables_for(spec).orbits if spec.n > 1 and k > 1 else None


def _count_tiles(payload) -> int:
    """Points in a range of the tiles of the orbit-row grid (`Plan.tiles`),
    from a pool task (system, spec, chunk_size, start, stop)."""
    system, spec, chunk_size, start, stop = payload
    return _Grid(system, spec, chunk_size, orbit_rows(spec, system.num_vars)).count(start, stop)
