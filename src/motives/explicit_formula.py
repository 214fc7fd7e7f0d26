"""Prime counting: sieve, logarithmic integral, explicit formula.

The truncated explicit formula approximates the prime counting function
as a Moebius-weighted sum of a smooth term per root-rescaled argument:

    approx(x) = sum_{m=1..M} mu(m)/m * f(x^(1/m)),   x^(1/M) >= 2

where f(y) combines the principal-value logarithmic integral, one
oscillating term per nontrivial zeta zero pair, the constant ln 2, and
an archimedean tail integral.  Zero ordinates are external data, read
from a text file and validated, never computed here.

Every integral here -- li, its integer grid, the archimedean tail and
the complex terms li(y^rho) -- uses one rule: 16-node Gauss-Legendre on
each panel of a fixed partition.  Its nodes and weights are tabled
constants, equal bit for bit to numpy's leggauss(16).  Where an
integrand is singular or varies on a tiny scale, panels halve
geometrically toward that end; the singularity of li at t = 1 is removed
by a symmetric fold, and li(y^rho) reduces to an exponential integral
along a horizontal ray, two panels on [0, 10, 40], 32 nodes.

Beyond 2, li and the archimedean tail each take their value at the
edge 1 + 2^j that starts the doubling panel holding y, plus one partial
panel of 16 nodes whose logarithms both integrands share.  Their values
at the edges are their values at 2 plus prefix sums of the doubling
panels [1 + 2^(j-1), 1 + 2^j], computed here in Python, once and only as
far as an argument needs; so a value never depends on the block or the
kernel it is read in.

This module needs no numpy.  The grids of approximation_rows and
rh_bound_ratio are charged before any work, in node evaluations
(`_charge`): a grid charged at most PY_MAX_CHARGE runs in pure Python, in
blocks of _ROWS points; a larger one, and every one-point function (li,
archimedean_tail, zero_pair_terms, riemann_approx), runs on the float64
arrays of `explicit_arrays`, imported, and numpy with it, on first use.
Both kernels read the same rule, ray and edge tables.
"""

from __future__ import annotations

import math
import threading
from array import array
from importlib import resources
from itertools import accumulate
from operator import mul

from .finite_field import Record, mobius

LN2 = math.log(2.0)
SIEVE_LIMIT = 10 ** 7  # 5 bytes per integer (byte flags, then int32 counts): 50 MB
# the largest charge (`_charge`, node evaluations) at which a grid runs in pure
# Python, with no numpy.  Fresh `pi` commands, min of 9, 2 CPUs (`python -c pass`
# 51-72 ms), Python vs numpy's import and the arrays: 20/K13 (charged 23,328)
# 0.065 vs 0.149 s; K = 0 to 1500 (167,776) 0.118 vs 0.155 s, to 2400 (306,944)
# 0.154 vs 0.164 s, to 3000 (383,744) 0.171 vs 0.148 s; K = 13 to 150 (383,616)
# 0.111 vs 0.159 s, to 250 (642,816) 0.154 vs 0.152 s.  A node of li and the tail
# costs Python about twice a node of the ray (4.4 us an argument, 4.5 us an
# argument and zero), so the break-even is near 2^18.3 at K = 0 and 2^19.3 at
# K = 13; 2^18 is the largest power of two at which no grid measured ran slower
# in Python.  A caller that has loaded numpy would evaluate faster on the arrays;
# the rule does not ask, so that the kernel follows from the grid alone
PY_MAX_CHARGE = 2 ** 18
_ROWS = 2 ** 9  # grid points per block; below 10^7 each has <= 16 arguments

_ANCHOR = 14.13
_ANCHOR_TOL = 0.01


# ----------------------------------------------------------------------
# primes

class PrimeCounter(Record):
    """Sieve of Eratosthenes up to limit, kept as cumulative prime counts
    (an array('i'))."""

    __slots__ = ("limit", "pi_table")

    def __init__(self, limit: int, pi_table: array):
        super().__init__(limit, pi_table)

    @classmethod
    def build(cls, limit: int) -> "PrimeCounter":
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if limit > SIEVE_LIMIT:
            raise ValueError(f"sieve limit {limit} exceeds {SIEVE_LIMIT} "
                             "(5 bytes per integer)")
        flags = bytearray(b"\x01") * (limit + 1)
        flags[:2] = b"\x00\x00"
        for d in range(2, math.isqrt(limit) + 1):
            if flags[d]:
                flags[d * d::d] = bytes((limit - d * d) // d + 1)
        return cls(limit, array("i", accumulate(flags)))


def sieve_pi(x: float, pc: PrimeCounter) -> int:
    """Exact number of primes <= floor(x)."""
    n = math.floor(x)
    if n > pc.limit:
        raise ValueError("beyond sieve limit")
    if n < 2:
        return 0
    return pc.pi_table[n]


# ----------------------------------------------------------------------
# the rule

# The 16-node Gauss-Legendre rule on [-1, 1]: numpy's
# np.polynomial.legendre.leggauss(16) bit for bit, which is exactly
# symmetric, so its positive half is tabled and mirrored.
_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499)
_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176)
_NODES = tuple(-x for x in reversed(_HALF_NODES)) + _HALF_NODES
_WEIGHTS = _HALF_WEIGHTS[::-1] + _HALF_WEIGHTS
_RULE = tuple(zip(_NODES, _WEIGHTS))
_DEPTH = 40  # panels per graded end; the last two span 2^-39 of it each


def _toward(a: float, b: float) -> list[float]:
    """Edges from a to b whose panels halve in length toward b."""
    return [b - (b - a) * 0.5 ** i for i in range(_DEPTH)] + [b]


def _graded(a: float, b: float) -> list[float]:
    """Edges on [a, b] whose panels halve in length toward both ends."""
    mid = (a + b) / 2.0
    return _toward(mid, a)[::-1] + _toward(mid, b)[1:]


def _fixed_rule(edges):
    """(node, weight) of the rule on each panel of a partition, in order,
    one pair at a time."""
    for a, b in zip(edges, edges[1:]):
        half = (b - a) / 2.0
        mid = a + half
        for x, w in _RULE:
            yield half * x + mid, half * w


# The E1 ray for the zero terms: two panels on [0, 10, 40], 32 nodes u,
# with e^(-u) folded into the weights EW; EWU holds EW u.
_RAY_U, _ray_w = zip(*_fixed_rule([0.0, 10.0, 40.0]))
_RAY_EW = tuple(w * math.exp(-u) for u, w in zip(_RAY_U, _ray_w))
_RAY_EWU = tuple(ew * u for ew, u in zip(_RAY_EW, _RAY_U))
del _ray_w


def _panel(a: float, b: float) -> tuple[float, float]:
    """The integrals of 1/ln t and of 1/(t (t^2 - 1) ln t) over [a, b],
    1 < a <= b, by the rule on the one panel, on one set of node
    logarithms.  Past t = 1e154 t^2 overflows to inf and the second
    integrand to 0, where its value is below 1e-308."""
    half = (b - a) / 2.0
    mid = a + half
    inv = tail = 0.0
    for x, w in _RULE:
        t = half * x + mid
        ln = math.log(t)
        inv += w / ln
        tail += w / ((t * t - 1.0) * t * ln)
    return inv * half, tail * half


def _li_2() -> float:
    """li(2): the integral of 1/ln t over (0, 2) folded about t = 1, so
    that 1/ln(1+s) + 1/ln(1-s) is bounded on (0, 1) (limit 1 at s = 0)."""
    return sum(w * (1.0 / math.log1p(s) + 1.0 / math.log1p(-s))
               for s, w in _fixed_rule(_toward(0.0, 1.0)))


def _tail_2() -> float:
    """The archimedean tail at 2, as archimedean_tail evaluates it."""
    total = 0.0
    for s, w in _fixed_rule(_graded(0.0, 1.0)):
        s2 = s / 2.0
        total += s2 / ((1.0 - s2 * s2) * (LN2 - math.log(s))) * w
    return total / 2.0


# li and archimedean_tail at the doubling edges 1 + 2^j, j = 0, 1, ...; the
# edges 2, 3, 5, 9, ... reach past every float at j = 1023.  They grow under
# the lock, the tail's entry last, so a reader that finds the tail's list
# long enough finds both complete.
_LI_EDGES: list[float] = []
_TAIL_EDGES: list[float] = []
_EDGES_LOCK = threading.Lock()


def _at_edges(k: int) -> tuple[list[float], list[float]]:
    """The edge tables of li and the tail, extended to at least k entries:
    their values at 2 and the running sums of whole doubling panels, each
    computed once."""
    if len(_TAIL_EDGES) < k:
        with _EDGES_LOCK:
            if not _TAIL_EDGES:
                _LI_EDGES.append(_li_2())
                _TAIL_EDGES.append(_tail_2())
            while len(_TAIL_EDGES) < k:
                j = len(_TAIL_EDGES)
                inv, tail = _panel(1.0 + math.ldexp(1.0, j - 1), 1.0 + math.ldexp(1.0, j))
                _LI_EDGES.append(_LI_EDGES[-1] + inv)
                _TAIL_EDGES.append(_TAIL_EDGES[-1] - tail)
    return _LI_EDGES, _TAIL_EDGES


def _last_edge(y: float) -> int:
    """The k of the edge 1 + 2^(k-1) that starts the doubling panel
    holding y >= 2: k = ceil(log2(y - 1)), at least 1, read exactly off
    the exponent of y - 1."""
    mant, e = math.frexp(y - 1.0)
    return max(e - (mant == 0.5), 1)


def _li_tail(y: float) -> tuple[float, float]:
    """li(y) and archimedean_tail(y) at y >= 2, in pure Python: the edge
    tables at the edge that starts y's doubling panel, plus one partial
    panel."""
    k = _last_edge(y)
    li_edges, tail_edges = _at_edges(k)
    inv, tail = _panel(1.0 + math.ldexp(1.0, k - 1), y)
    return li_edges[k - 1] + inv, tail_edges[k - 1] - tail


def li(x: float) -> float:
    """Principal value of the integral of dt/ln t from 0 to x.

    With h = min(|x - 1|, 1), folding (1 - h, 1 + h) about t = 1 cancels
    the pole and leaves a bounded integrand on (0, h), graded toward h.
    The rest is 1/ln t on (0, 1 - h), graded toward both ends, and on
    (2, x) panels that double in length.  The error is below 1e-9 for
    |x - 1| >= 1e-7 and grows like 1e-16 / |x - 1| closer to 1, as li
    itself does when x is rounded.  Evaluated on the arrays.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if x == 1:
        raise ValueError("divergent")
    from . import explicit_arrays
    return explicit_arrays.li(x)


def archimedean_tail(y: float) -> float:
    """Integral of dt / (t (t^2 - 1) ln t) from y to infinity, y > 1.

    Substituting s = 1/t gives an integrand on (0, 1/y] that is bounded
    but not smooth at s = 0 and steep near 1/y when y is close to 1, so
    its panels halve toward both ends.  Evaluated on the arrays.
    """
    if y <= 1:
        raise ValueError("y must be > 1")
    from . import explicit_arrays
    return explicit_arrays.archimedean_tail(y)


# ----------------------------------------------------------------------
# zeta zero data

class ZeroTable(Record):
    """Increasing positive ordinates t_j of zeros 1/2 + i t_j."""

    __slots__ = ("ordinates",)

    def __init__(self, ordinates: tuple[float, ...]):
        if not ordinates:
            raise ValueError("no zeros")
        if not all(map(math.isfinite, ordinates)):
            raise ValueError("ordinates must be finite numbers")
        if ordinates[0] <= 0:
            raise ValueError("ordinates must be positive")
        if any(b <= a for a, b in zip(ordinates, ordinates[1:])):
            raise ValueError("not increasing")
        if abs(ordinates[0] - _ANCHOR) > _ANCHOR_TOL:
            raise ValueError("failed anchor: first ordinate is not near 14.13")
        super().__init__(ordinates)

    def __len__(self):
        return len(self.ordinates)


def load_zeros(path) -> ZeroTable:
    """Read a zero table: one decimal ordinate per line, '#' comments."""
    ordinates = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ordinates.append(float(line))
            except ValueError:
                raise ValueError(f"cannot parse ordinate on line {lineno}") from None
    return ZeroTable(tuple(ordinates))


def default_zero_table() -> ZeroTable:
    """The zero table shipped with the package (150 ordinates)."""
    ref = resources.files("motives").joinpath("data/zeta_zeros.txt")
    with resources.as_file(ref) as path:
        return load_zeros(path)


# ----------------------------------------------------------------------
# explicit formula

def zero_pair_terms(y: float, gammas):
    """2 Re li(y^rho) for each rho = 1/2 + i gamma, as a vector.

    li(y^rho) = Ei(rho ln y) and Re Ei(z) = -Re E1(-z); E1 is integrated
    along the horizontal ray from w = -rho ln y, where the integrand
    e^(-u) / (w + u) decays and stays far from the pole (|Im w| =
    gamma ln y > 9).  The ray is cut at u = 40, which leaves a tail
    below 1e-17 of the term, and split at 10 into two panels, 32 nodes
    in all.  Against 24 panels on [0, 60] (384 nodes), for y in [2, 10^7]
    and all 150 tabled zeros, no term is off by more than 2.0e-15 of the
    largest term at its y.  The terms are computed in float64 from the
    real and imaginary parts of 1 / (w + u).  Evaluated on the arrays, as
    the one-point case of the (arguments x zeros x nodes) product that
    approximation_rows evaluates past PY_MAX_CHARGE.
    """
    if y < 2:
        raise ValueError("y must be >= 2")
    from . import explicit_arrays
    return explicit_arrays.zero_pair_terms(y, gammas)


def _zero_sum(y: float, gammas) -> float:
    """The sum of 2 Re li(y^rho) over rho = 1/2 + i gamma, in pure Python.

    With h = ln(y) / 2 and beta = gamma ln y, the ray starts at
    w = -h - i beta, and 1 / (w + u) = (u - h + i beta) / d with
    d = (u - h)^2 + beta^2.  So the ray's integral is P + i beta Q, where
    Q = sum EW / d and P = sum EW u / d - h Q, and e^(-w) is
    sqrt(y) e^(i beta).
    """
    ln = math.log(y)
    h = 0.5 * ln
    squares = [(u - h) * (u - h) for u in _RAY_U]
    scale = -2.0 * math.sqrt(y)
    total = 0.0
    for gamma in gammas:
        beta = ln * gamma
        b2 = beta * beta
        d = [1.0 / (a + b2) for a in squares]
        q = sum(map(mul, _RAY_EW, d))
        p = sum(map(mul, _RAY_EWU, d)) - h * q
        total += scale * (p * math.cos(beta) - beta * q * math.sin(beta))
    return total


def _orders(x_max: float) -> list[int]:
    """The orders m <= log2 x_max with mu(m) != 0, increasing: those of
    the arguments y = x^(1/m) >= 2 of every x <= x_max."""
    return [m for m in range(1, math.frexp(x_max)[1]) if mobius(m)]


def _charge(rows: int, x_max: float, K: int) -> int:
    """Node evaluations of an explicit-formula grid of rows points up to
    x_max with K zero pairs: a row has at most one argument per order of
    _orders(x_max), and an argument 16 nodes for li and the tail and 32
    a zero."""
    return rows * len(_orders(x_max)) * (16 + 32 * K)


def _explicit(xs, gammas) -> tuple[list[float], list[float]]:
    """li(x) and approx(x) at each x >= 2 of a block, in pure Python.

    The arguments y = x^(1/m) >= 2 are evaluated order by order, m = 1
    first, so li(x) is li(y) at m = 1, and each x adds its mu(m)/m f(y)
    in increasing m.
    """
    li_x = [0.0] * len(xs)
    approx = [0.0] * len(xs)
    for m in _orders(max(xs)):
        root, coef = 1.0 / m, mobius(m) / m
        for i, x in enumerate(xs):
            y = x ** root
            if y < 2.0:
                continue
            li_y, tail = _li_tail(y)
            f = li_y - LN2 + tail
            if gammas:
                f -= _zero_sum(y, gammas)
            if m == 1:
                li_x[i] = li_y
            approx[i] += coef * f
    return li_x, approx


def zero_ordinates(zeros: ZeroTable, K: int) -> tuple[float, ...]:
    """The first K ordinates, refusing K < 0 and K past the table."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if K > len(zeros):
        raise ValueError("K exceeds the zero table")
    return zeros.ordinates[:K]


def riemann_approx(x: float, zeros: ZeroTable, K: int) -> float:
    """Truncated explicit-formula approximation to the prime count at x.

    Uses the first K zero pairs; K = 0 gives the smooth main term.  At
    prime x the full formula would converge to the count minus 1/2, so
    comparisons should sample away from primes.  Evaluated on the arrays.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    gammas = zero_ordinates(zeros, K)
    from . import explicit_arrays
    return explicit_arrays.explicit([x], gammas)[1][0]


def approximation_rows(xs, zeros: ZeroTable, K: int, pc: PrimeCounter):
    """(x, pi(x), li(x), approx_K(x)) for each grid point x >= 2.

    Evaluated in blocks of _ROWS points, in pure Python when the grid's
    charge is at most PY_MAX_CHARGE and on the arrays past it, so the
    working set stays near 1 MB whatever the length of the grid.
    """
    gammas = zero_ordinates(zeros, K)
    xs = array("d", xs)
    if not xs:
        return []
    if min(xs) < 2:
        raise ValueError("x must be >= 2")
    x_max = max(xs)
    if math.floor(x_max) > pc.limit:
        raise ValueError("beyond sieve limit")
    kernel = _explicit
    if _charge(len(xs), x_max, K) > PY_MAX_CHARGE:
        from . import explicit_arrays
        kernel = explicit_arrays.explicit
    pi = pc.pi_table
    rows = []
    for i in range(0, len(xs), _ROWS):
        block = xs[i:i + _ROWS]
        pis = [pi[math.floor(x)] for x in block]
        rows += zip(block, pis, *kernel(block, gammas))
    return rows


def half_integer_grid(lo: float, hi: float) -> array:
    """Points k + 1/2 inside [lo, hi], as an array('d'); never integers,
    so never primes."""
    ks = range(math.ceil(lo - 0.5), math.floor(hi - 0.5) + 1)
    return array("d", map((0.5).__add__, ks))


def rh_bound_ratio(range_max: int, pc: PrimeCounter) -> float:
    """sup over 3 <= n <= range_max of |pi(n) - li(n)| / (sqrt(n) ln n).

    Each li(n) goes through the same code as the li column of
    approximation_rows on the integers 3..range_max at K = 0, in pure
    Python or on the arrays as that grid's charge decides, so no error
    accumulates along the integers.
    """
    if range_max < 3:
        raise ValueError("range_max must be >= 3")
    if range_max > pc.limit:
        raise ValueError("beyond sieve limit")
    if _charge(range_max - 2, range_max, 0) > PY_MAX_CHARGE:
        from . import explicit_arrays
        return explicit_arrays.rh_bound_ratio(range_max, pc.pi_table)
    pi = pc.pi_table
    return max(abs(pi[n] - _li_tail(float(n))[0]) / (math.sqrt(n) * math.log(n))
               for n in range(3, range_max + 1))
