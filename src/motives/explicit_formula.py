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
each panel of a fixed partition.  Where an integrand is singular or varies
on a tiny scale, panels halve geometrically toward that end; the
singularity of li at t = 1 is removed by a symmetric fold, and li(y^rho)
reduces to an exponential integral along a horizontal ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

LN2 = math.log(2.0)

_ANCHOR = 14.13
_ANCHOR_TOL = 0.01


# ----------------------------------------------------------------------
# primes

@dataclass(frozen=True)
class PrimeCounter:
    """Sieve of Eratosthenes up to limit with cumulative prime counts."""

    limit: int
    is_prime: np.ndarray
    pi_table: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimeCounter":
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for d in range(2, int(limit ** 0.5) + 1):
            if flags[d]:
                flags[d * d::d] = False
        flags.setflags(write=False)
        pi = np.cumsum(flags)
        pi.setflags(write=False)
        return cls(limit, flags, pi)


def sieve_pi(x: float, pc: PrimeCounter) -> int:
    """Exact number of primes <= floor(x)."""
    n = math.floor(x)
    if n > pc.limit:
        raise ValueError("beyond sieve limit")
    if n < 2:
        return 0
    return int(pc.pi_table[n])


def mobius(m: int) -> int:
    """Moebius function by trial factorization."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


# ----------------------------------------------------------------------
# logarithmic integral

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_DEPTH = 40  # panels per graded end; the last two span 2^-39 of it each


def _panels(f, edges) -> np.ndarray:
    """Integral of f over each panel [edges[i], edges[i+1]].

    16-node Gauss-Legendre per panel.  f maps the node array of shape
    (panels, 16) elementwise and may broadcast leading axes of its own.
    """
    edges = np.asarray(edges, dtype=float)
    half = np.diff(edges) / 2.0
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * _NODES
    return f(nodes) @ _WEIGHTS * half


def _toward(a: float, b: float) -> np.ndarray:
    """Edges from a to b whose panels halve in length toward b."""
    return np.append(b - (b - a) * 0.5 ** np.arange(_DEPTH), b)


def _graded(a: float, b: float) -> np.ndarray:
    """Edges on [a, b] whose panels halve in length toward both ends."""
    mid = (a + b) / 2.0
    return np.concatenate([_toward(mid, a)[::-1], _toward(mid, b)[1:]])


def _inv_log(t: np.ndarray) -> np.ndarray:
    return 1.0 / np.log(t)


def _folded(s: np.ndarray) -> np.ndarray:
    # 1/ln(1+s) + 1/ln(1-s); the 1/s poles cancel, limit 1 at s = 0
    return 1.0 / np.log1p(s) + 1.0 / np.log1p(-s)


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
    h = min(abs(x - 1.0), 1.0)
    total = 0.0
    if x > 1.0:
        total += _panels(_folded, _toward(0.0, h)).sum()
    if h < 1.0:
        total += _panels(_inv_log, _graded(0.0, 1.0 - h)).sum()
    if x > 2.0:
        doublings = 1.0 + 2.0 ** np.arange(math.ceil(math.log2(x - 1.0)))
        total += _panels(_inv_log, np.append(doublings, x)).sum()
    return float(total)


def li_grid(n_max: int, n_min: int = 3) -> np.ndarray:
    """li at every integer in [n_min, n_max], n_min >= 2.

    li(n_min) plus a running sum of one panel per unit interval, far
    inside the 1e-9 budget for the smooth integrand on t >= 2.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError("need 2 <= n_min <= n_max")
    steps = np.cumsum(_panels(_inv_log, np.arange(n_min, n_max + 1)))
    return li(float(n_min)) + np.append(0.0, steps)


def archimedean_tail(y: float) -> float:
    """Integral of dt / (t (t^2 - 1) ln t) from y to infinity, y > 1.

    Substituting s = 1/t gives an integrand on (0, 1/y] that is bounded
    but not smooth at s = 0 and steep near 1/y when y is close to 1.
    """
    if y <= 1:
        raise ValueError("y must be > 1")
    return float(_panels(lambda s: s / ((1.0 - s * s) * -np.log(s)),
                         _graded(0.0, 1.0 / y)).sum())


# ----------------------------------------------------------------------
# zeta zero data

@dataclass(frozen=True)
class ZeroTable:
    """Increasing positive ordinates t_j of zeros 1/2 + i t_j."""

    ordinates: tuple[float, ...]

    def __post_init__(self):
        if not self.ordinates:
            raise ValueError("no zeros")
        arr = self.ordinates
        if arr[0] <= 0:
            raise ValueError("ordinates must be positive")
        if any(b <= a for a, b in zip(arr, arr[1:])):
            raise ValueError("not increasing")
        if abs(arr[0] - _ANCHOR) > _ANCHOR_TOL:
            raise ValueError("failed anchor: first ordinate is not near 14.13")

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

def zero_pair_terms(y: float, gammas: np.ndarray) -> np.ndarray:
    """2 Re li(y^rho) for each rho = 1/2 + i gamma, as a vector.

    li(y^rho) = Ei(rho ln y) and Re Ei(z) = -Re E1(-z); E1 is integrated
    along the horizontal ray from -rho ln y, where the integrand decays
    like e^(-u) and stays far from the pole (|Im| = gamma ln y > 9).
    The truncation at u = 60 leaves a tail below 1e-26 of the term.
    """
    if y < 2:
        raise ValueError("y must be >= 2")
    ln_y = math.log(y)
    w = -(0.5 + 1j * np.asarray(gammas, dtype=float)) * ln_y

    def ray(u):  # e^(-u) / (w + u), dividing in place
        z = w[:, None, None] + u
        return np.divide(np.exp(-u), z, out=z)

    e1 = np.exp(-w) * _panels(ray, np.linspace(0.0, 60.0, 13)).sum(axis=1)
    return -2.0 * e1.real


def smooth_term(y: float, gammas: np.ndarray) -> float:
    """f(y): li(y) minus the zero-pair corrections, minus ln 2, plus the
    archimedean tail."""
    val = li(y) - LN2 + archimedean_tail(y)
    if len(gammas):
        val -= float(zero_pair_terms(y, gammas).sum())
    return val


def _rescale_orders(x: float) -> int:
    # largest M with x^(1/M) >= 2, robust against float log noise
    m = max(1, int(math.floor(math.log(x) / LN2 + 1e-9)))
    while x ** (1.0 / (m + 1)) >= 2.0:
        m += 1
    while m > 1 and x ** (1.0 / m) < 2.0:
        m -= 1
    return m


def riemann_approx(x: float, zeros: ZeroTable, K: int) -> float:
    """Truncated explicit-formula approximation to the prime count at x.

    Uses the first K zero pairs; K = 0 gives the smooth main term.  At
    prime x the full formula would converge to the count minus 1/2, so
    comparisons should sample away from primes.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    if K < 0 or K > len(zeros):
        raise ValueError("K exceeds the zero table")
    gammas = np.asarray(zeros.ordinates[:K], dtype=float)
    total = 0.0
    for m in range(1, _rescale_orders(x) + 1):
        mu = mobius(m)
        if mu:
            total += mu / m * smooth_term(x ** (1.0 / m), gammas)
    return total


def approximation_rows(xs, zeros: ZeroTable, K: int, pc: PrimeCounter):
    """(x, pi(x), li(x), approx_K(x)) for each grid point."""
    rows = []
    for x in xs:
        rows.append((float(x), sieve_pi(x, pc), li(float(x)),
                     riemann_approx(float(x), zeros, K)))
    return rows


def half_integer_grid(lo: float, hi: float) -> np.ndarray:
    """Points k + 1/2 inside [lo, hi]; never integers, so never primes."""
    start = math.floor(lo) + 0.5
    if start < lo:
        start += 1.0
    return np.arange(start, hi + 1e-12, 1.0)


def rh_bound_ratio(range_max: int, pc: PrimeCounter) -> float:
    """sup over 3 <= n <= range_max of |pi(n) - li(n)| / (sqrt(n) ln n)."""
    if range_max < 3:
        raise ValueError("range_max must be >= 3")
    if range_max > pc.limit:
        raise ValueError("beyond sieve limit")
    ns = np.arange(3, range_max + 1, dtype=float)
    pi_vals = pc.pi_table[3:range_max + 1].astype(float)
    li_vals = li_grid(range_max)
    ratios = np.abs(pi_vals - li_vals) / (np.sqrt(ns) * np.log(ns))
    return float(ratios.max())
