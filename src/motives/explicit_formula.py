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
constants, equal bit for bit to numpy's leggauss(16), so this module
loads numpy's core only.  Where an integrand is singular or varies
on a tiny scale, panels halve geometrically toward that end; the
singularity of li at t = 1 is removed by a symmetric fold, and li(y^rho)
reduces to an exponential integral along a horizontal ray.

The explicit formula runs in blocks of grid points.  A block gathers
every argument y = x^(1/m) >= 2 it needs and integrates once over all of
them, as float64 arrays of (arguments x nodes) or (arguments x zeros x
nodes).  Beyond 2, li and the archimedean tail each take their value at
the last edge 1 + 2^j at or below y from a table of doubling panels
computed once, plus one partial panel of 16 nodes; so a value never
depends on the block it is read in.  The ray of li(y^rho) has two
panels on [0, 10, 40], 32 nodes; against a 384-node rule, for y in
[2, 10^7] and all 150 tabled zeros, no term is off by more than 2.0e-15
of the largest term at its y.  Blocks of 512 points, cut into chunks whose temporaries
hold at most 2^15 float64 elements (256 KB) in all, keep the working set
near 1 MB whatever x_max, for up to 1024 zeros (one argument's zero
terms fill a chunk beyond that).  The temporaries of a pass over the
chunks live in one workspace that the pass allocates and every chunk
reuses, so no chunk allocates and frees its own.  The one-point
functions (li beyond 2, zero_pair_terms, riemann_approx) are the same
code on a block of one, and rh_bound_ratio runs li beyond 2 on a block
of integers; archimedean_tail evaluates its own graded rule.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .finite_field import Record, mobius

LN2 = math.log(2.0)
SIEVE_LIMIT = 10 ** 7  # 9 bytes per integer (flags plus int64 counts): 90 MB

_ANCHOR = 14.13
_ANCHOR_TOL = 0.01


# ----------------------------------------------------------------------
# primes

class PrimeCounter(Record):
    """Sieve of Eratosthenes up to limit, kept as cumulative prime counts."""

    __slots__ = ("limit", "pi_table")

    def __init__(self, limit: int, pi_table: np.ndarray):
        super().__init__(limit, pi_table)

    @classmethod
    def build(cls, limit: int) -> "PrimeCounter":
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if limit > SIEVE_LIMIT:
            raise ValueError(f"sieve limit {limit} exceeds {SIEVE_LIMIT} "
                             "(9 bytes per integer)")
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for d in range(2, int(limit ** 0.5) + 1):
            if flags[d]:
                flags[d * d::d] = False
        pi = np.cumsum(flags)
        pi.setflags(write=False)
        return cls(limit, pi)


def sieve_pi(x: float, pc: PrimeCounter) -> int:
    """Exact number of primes <= floor(x)."""
    n = math.floor(x)
    if n > pc.limit:
        raise ValueError("beyond sieve limit")
    if n < 2:
        return 0
    return int(pc.pi_table[n])


# ----------------------------------------------------------------------
# logarithmic integral

# The 16-node Gauss-Legendre rule on [-1, 1]: numpy's
# np.polynomial.legendre.leggauss(16) bit for bit, which is exactly
# symmetric, so its positive half is tabled and mirrored.
_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_DEPTH = 40  # panels per graded end; the last two span 2^-39 of it each
_BLOCK = 2 ** 15  # float64 elements in the reused workspace of a pass, which
                  # holds its per-node temporaries: 256 KB


def _rule(edges, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (..., panels, 16) and half-lengths (..., panels) of the
    16-node Gauss-Legendre rule on each panel [edges[..., i], edges[..., i+1]];
    the nodes are written into out when it is given."""
    edges = np.asarray(edges, dtype=float)
    half = np.diff(edges, axis=-1) / 2.0
    nodes = np.multiply(half[..., None], _NODES, out=out)
    nodes += (edges[..., :-1] + half)[..., None]
    return nodes, half


def _panels(f, edges) -> np.ndarray:
    """Integral of f over each panel, one partition per leading index of
    edges.  f maps the node array elementwise, in place or not, and may
    broadcast leading axes of its own."""
    nodes, half = _rule(edges)
    return f(nodes) @ _WEIGHTS * half


def _fixed_rule(edges) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the rule on a partition used throughout."""
    nodes, half = _rule(edges)
    return nodes.ravel(), (half[:, None] * _WEIGHTS).ravel()


def _chunked(f, y: np.ndarray, width: int, buffers: int = 1) -> np.ndarray:
    """f(slice, work) over consecutive slices of y, where f builds
    `buffers` temporaries of width elements per argument: each slice keeps
    them within _BLOCK elements in all.  Every slice reuses work, those
    temporaries as (buffers, arguments, width), and f returns a new array."""
    step = max(1, _BLOCK // max(width * buffers, 1))
    work = np.empty((buffers, min(step, y.size), width))
    return np.concatenate([f(y[i:i + step], work) for i in range(0, y.size, step)])


def _toward(a: float, b: float) -> np.ndarray:
    """Edges from a to b whose panels halve in length toward b."""
    return np.append(b - (b - a) * 0.5 ** np.arange(_DEPTH), b)


def _graded(a: float, b: float) -> np.ndarray:
    """Edges on [a, b] whose panels halve in length toward both ends."""
    mid = (a + b) / 2.0
    return np.concatenate([_toward(mid, a)[::-1], _toward(mid, b)[1:]])


def _inv_log(t: np.ndarray) -> np.ndarray:
    """1 / ln t, in place."""
    return np.divide(1.0, np.log(t, out=t), out=t)


def _neg_tail_integrand(t: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """-1 / (t (t^2 - 1) ln t), in place; the denominator is built in
    spare, or in a new array when none is given.  Beyond t = 1e102 it
    overflows to inf and the integrand to -0, where its value is below
    1e-308."""
    with np.errstate(over="ignore"):
        den = np.multiply(t, t, out=spare)
        den -= 1.0
        den *= t
        den *= np.log(t, out=t)
    return np.divide(-1.0, den, out=t)


def _folded(s: np.ndarray) -> np.ndarray:
    # 1/ln(1+s) + 1/ln(1-s); the 1/s poles cancel, limit 1 at s = 0
    return 1.0 / np.log1p(s) + 1.0 / np.log1p(-s)


_LI_2 = float(_panels(_folded, _toward(0.0, 1.0)).sum())  # (0, 2) folded about 1

# Beyond 2, integrals run on the panels [1 + 2^(j-1), 1 + 2^j] that double
# in length; their edges 2, 3, 5, 9, ... reach past every float.
_EDGES = 1.0 + np.ldexp(1.0, np.arange(1024))


def _at_edges(f, at_2: float) -> np.ndarray:
    """at_2 plus the integral of f from 2 to each of _EDGES, a prefix sum
    computed once, so a value never depends on the block it is read in."""
    return at_2 + np.append(0.0, np.cumsum(_panels(f, _EDGES)))


def _from_edge(f, at_edges: np.ndarray, y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """At each y >= 2, the integral of f continued from its value at the
    last edge at or below y by one partial panel, whose nodes go into
    work[0].  f maps the nodes in place, handed the rest of work, if any,
    as spare arrays of their shape."""
    k = np.maximum(np.ceil(np.log2(y - 1.0)), 1.0).astype(np.intp)
    last = np.stack([_EDGES[k - 1], y], axis=-1)
    nodes, half = _rule(last, work[0, :y.size, None])
    return at_edges[k - 1] + (f(nodes, *work[1:, :y.size, None]) @ _WEIGHTS * half)[:, 0]


_LI_EDGES = _at_edges(_inv_log, _LI_2)


def _li_from_2(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """li at each y >= 2, the partial panel's nodes in work[0]."""
    return _from_edge(_inv_log, _LI_EDGES, y, work)


def li(x: float) -> float:
    """Principal value of the integral of dt/ln t from 0 to x.

    With h = min(|x - 1|, 1), folding (1 - h, 1 + h) about t = 1 cancels
    the pole and leaves a bounded integrand on (0, h), graded toward h.
    The rest is 1/ln t on (0, 1 - h), graded toward both ends, and on
    (2, x) panels that double in length.  The error is below 1e-9 for
    |x - 1| >= 1e-7 and grows like 1e-16 / |x - 1| closer to 1, as li
    itself does when x is rounded.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if x == 1:
        raise ValueError("divergent")
    if x >= 2.0:
        return float(_chunked(_li_from_2, np.array([x], dtype=float), _NODES.size)[0])
    h = abs(x - 1.0)
    total = _panels(_inv_log, _graded(0.0, 1.0 - h)).sum()
    if x > 1.0:
        total += _panels(_folded, _toward(0.0, h)).sum()
    return float(total)


# The tail's partition of (0, 1/y] is that of (0, 1] scaled by 1/y, so its
# nodes, weights and node logarithms are computed once, for y = 1.
_TAIL_S, _TAIL_W = _fixed_rule(_graded(0.0, 1.0))
_TAIL_LOG_S = np.log(_TAIL_S)


def archimedean_tail(y: float) -> float:
    """Integral of dt / (t (t^2 - 1) ln t) from y to infinity, y > 1.

    Substituting s = 1/t gives an integrand on (0, 1/y] that is bounded
    but not smooth at s = 0 and steep near 1/y when y is close to 1, so
    its panels halve toward both ends.
    """
    if y <= 1:
        raise ValueError("y must be > 1")
    s = _TAIL_S / y
    return float(s / ((1.0 - s * s) * (math.log(y) - _TAIL_LOG_S)) @ _TAIL_W / y)


_TAIL_EDGES = _at_edges(_neg_tail_integrand, archimedean_tail(2.0))


def _tail_from_2(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """archimedean_tail at each y >= 2, as its value at 2 minus the
    integral from 2 to y on li's panels: the partial panel's nodes go into
    work[0] and the integrand's denominator into work[1]."""
    return _from_edge(_neg_tail_integrand, _TAIL_EDGES, y, work)


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

# The E1 ray for the zero terms: two panels on [0, 10, 40], 32 nodes u.
# With e^(-u) folded into the weights EW, the moment columns hold EW and
# EW u.
_RAY_U, _RAY_EW = _fixed_rule([0.0, 10.0, 40.0])
_RAY_EW *= np.exp(-_RAY_U)
_RAY_MOMENTS = np.stack([_RAY_EW, _RAY_EW * _RAY_U], axis=-1)
_ROWS = 2 ** 9  # grid points per block; below 10^7 each has <= 16 arguments


def _zero_terms(y: np.ndarray, gammas: np.ndarray, work: np.ndarray) -> np.ndarray:
    """2 Re li(y^rho) for each y (rows) and rho = 1/2 + i gamma (columns);
    1 / |w + u|^2 at the ray's nodes goes into work[0].

    With h = ln(y) / 2 and beta = gamma ln y, the ray starts at
    w = -h - i beta, and 1 / (w + u) = (u - h + i beta) / d with
    d = (u - h)^2 + beta^2.  So the ray's integral is P + i beta Q, where
    Q = sum EW / d and P = sum EW u / d - h Q, and e^(-w) is
    sqrt(y) e^(i beta).
    """
    ln = np.log(y)
    h = 0.5 * ln
    beta = np.multiply.outer(ln, gammas)
    a = np.subtract(_RAY_U, h[:, None])
    d = work[0, :y.size].reshape(*beta.shape, _RAY_U.size)
    np.add((a * a)[:, None, :], (beta * beta)[..., None], out=d)
    moments = np.reciprocal(d, out=d).reshape(-1, _RAY_U.size) @ _RAY_MOMENTS
    q, p = moments.reshape(*beta.shape, 2).transpose(2, 0, 1)
    p -= h[:, None] * q
    return -2.0 * np.sqrt(y)[:, None] * (p * np.cos(beta) - beta * q * np.sin(beta))


def zero_pair_terms(y: float, gammas: np.ndarray) -> np.ndarray:
    """2 Re li(y^rho) for each rho = 1/2 + i gamma, as a vector.

    li(y^rho) = Ei(rho ln y) and Re Ei(z) = -Re E1(-z); E1 is integrated
    along the horizontal ray from w = -rho ln y, where the integrand
    e^(-u) / (w + u) decays and stays far from the pole (|Im w| =
    gamma ln y > 9).  The ray is cut at u = 40, which leaves a tail
    below 1e-17 of the term, and split at 10 into two panels, 32 nodes
    in all.  Against 24 panels on [0, 60] (384 nodes), for y in [2, 10^7]
    and all 150 tabled zeros, no term is off by more than 2.0e-15 of the
    largest term at its y.  The terms are computed in float64 from the
    real and imaginary parts of 1 / (w + u).  This is the one-point case
    of the (arguments x zeros x nodes) product that approximation_rows
    evaluates in chunks of at most 2^15 elements.
    """
    if y < 2:
        raise ValueError("y must be >= 2")
    gammas = np.asarray(gammas, dtype=float)
    return _chunked(lambda c, work: _zero_terms(c, gammas, work), np.array([y], dtype=float),
                    gammas.size * _RAY_U.size)[0]


def _smooth_terms(y: np.ndarray, gammas: np.ndarray):
    """li(y) and f(y) at each y >= 2."""
    li_y = _chunked(_li_from_2, y, _NODES.size)
    f = li_y - LN2 + _chunked(_tail_from_2, y, _NODES.size, buffers=2)
    # zeros go in slices of at most 1024, so that one argument's
    # (zeros x nodes) temporary also stays within _BLOCK elements
    width = _BLOCK // _RAY_U.size
    for i in range(0, gammas.size, width):
        part = gammas[i:i + width]
        f -= _chunked(lambda c, work: _zero_terms(c, part, work).sum(axis=1), y,
                      part.size * _RAY_U.size)
    return li_y, f


def zero_ordinates(zeros: ZeroTable, K: int) -> np.ndarray:
    """The first K ordinates, refusing K < 0 and K past the table."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if K > len(zeros):
        raise ValueError("K exceeds the zero table")
    return np.asarray(zeros.ordinates[:K], dtype=float)


def _explicit(xs: np.ndarray, gammas: np.ndarray):
    """li(x) and approx(x) at each x >= 2 of a block.

    The arguments y = x^(1/m) >= 2 of every order m with mu(m) != 0 are
    evaluated together, m = 1 first, so li(x) is the head of li(y);
    np.bincount adds each row's mu(m)/m f(y) in increasing m.
    """
    ys, owner, coef = [], [], []
    m = 1
    while True:
        y = xs ** (1.0 / m)
        keep = np.flatnonzero(y >= 2.0)
        if not keep.size:
            break
        mu = mobius(m)
        if mu:
            ys.append(y[keep])
            owner.append(keep)
            coef.append(np.full(keep.size, mu / m))
        m += 1
    li_y, f = _smooth_terms(np.concatenate(ys), gammas)
    approx = np.bincount(np.concatenate(owner), np.concatenate(coef) * f,
                         minlength=xs.size)
    return li_y[:xs.size], approx


def riemann_approx(x: float, zeros: ZeroTable, K: int) -> float:
    """Truncated explicit-formula approximation to the prime count at x.

    Uses the first K zero pairs; K = 0 gives the smooth main term.  At
    prime x the full formula would converge to the count minus 1/2, so
    comparisons should sample away from primes.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    gammas = zero_ordinates(zeros, K)
    return float(_explicit(np.array([x], dtype=float), gammas)[1][0])


def approximation_rows(xs, zeros: ZeroTable, K: int, pc: PrimeCounter):
    """(x, pi(x), li(x), approx_K(x)) for each grid point x >= 2.

    Evaluated in blocks of _ROWS points, so the working set stays near
    1 MB whatever the length of the grid.
    """
    gammas = zero_ordinates(zeros, K)
    xs = np.asarray(xs, dtype=float)
    if xs.size and xs.min() < 2:
        raise ValueError("x must be >= 2")
    if xs.size and math.floor(xs.max()) > pc.limit:
        raise ValueError("beyond sieve limit")
    rows = []
    for i in range(0, xs.size, _ROWS):
        block = xs[i:i + _ROWS]
        pis = pc.pi_table[block.astype(np.intp)].tolist()  # floor, as x >= 2
        li_x, approx = _explicit(block, gammas)
        rows += zip(block.tolist(), pis, li_x.tolist(), approx.tolist())
    return rows


def half_integer_grid(lo: float, hi: float) -> np.ndarray:
    """Points k + 1/2 inside [lo, hi]; never integers, so never primes."""
    start = math.floor(lo) + 0.5
    if start < lo:
        start += 1.0
    return np.arange(start, hi + 1e-12, 1.0)


def rh_bound_ratio(range_max: int, pc: PrimeCounter) -> float:
    """sup over 3 <= n <= range_max of |pi(n) - li(n)| / (sqrt(n) ln n).

    Each li(n) goes through the same code as li beyond 2, so no error
    accumulates along the integers.
    """
    if range_max < 3:
        raise ValueError("range_max must be >= 3")
    if range_max > pc.limit:
        raise ValueError("beyond sieve limit")
    ns = np.arange(3, range_max + 1, dtype=float)
    pi_vals = pc.pi_table[3:range_max + 1].astype(float)
    li_vals = _chunked(_li_from_2, ns, _NODES.size)
    ratios = np.abs(pi_vals - li_vals) / (np.sqrt(ns) * np.log(ns))
    return float(ratios.max())
