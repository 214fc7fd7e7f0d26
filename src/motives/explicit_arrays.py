"""The array kernel of the explicit formula: blocks of arguments as float64 arrays.

`explicit_formula` holds the rule, the ray and the edge tables of li and
the archimedean tail, and runs small grids in pure Python; it imports
this module, and numpy with it, for the one-point functions and for
grids charged past its PY_MAX_CHARGE.  Here the same constants are read
as arrays.

A block of grid points gathers every argument y = x^(1/m) >= 2 it needs
and integrates once over all of them, as float64 arrays of (arguments x
nodes) or (arguments x zeros x nodes).  The block is cut into chunks
whose temporaries hold at most 2^15 float64 elements (256 KB) in all,
which keeps the working set near 1 MB whatever x_max, for up to 1024
zeros (one argument's zero terms fill a chunk beyond that).  The
temporaries of a pass over the chunks live in one workspace that the
pass allocates and every chunk reuses, so no chunk allocates and frees
its own.  The one-point functions (li beyond 2, zero_pair_terms,
riemann_approx) are the same code on a block of one; archimedean_tail
evaluates its own graded rule.
"""

from __future__ import annotations

import math

import numpy as np

from . import explicit_formula as ef
from .finite_field import mobius

_NODES = np.array(ef._NODES)
_WEIGHTS = np.array(ef._WEIGHTS)
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


def _chunked(f, y: np.ndarray, width: int, buffers: int = 1) -> np.ndarray:
    """f(slice, work) over consecutive slices of y, where f builds
    `buffers` temporaries of width elements per argument: each slice keeps
    them within _BLOCK elements in all.  Every slice reuses work, those
    temporaries as (buffers, arguments, width), and f returns a new array."""
    step = max(1, _BLOCK // max(width * buffers, 1))
    work = np.empty((buffers, min(step, y.size), width))
    return np.concatenate([f(y[i:i + step], work) for i in range(0, y.size, step)])


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


def _from_edge(f, column: int, y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """At each y >= 2, the integral of f continued from its value at the
    edge that starts its doubling panel, from edge table `column`, by one
    partial panel, whose nodes go into work[0].  f maps the nodes in
    place, handed the rest of work, if any, as spare arrays of their
    shape."""
    mant, e = np.frexp(y - 1.0)
    k = np.maximum(e - (mant == 0.5), 1)  # ef._last_edge, elementwise
    kmax = int(k.max())
    at_edges = np.array(ef._at_edges(kmax)[column][:kmax])
    last = np.stack([np.ldexp(1.0, k - 1) + 1.0, y], axis=-1)
    nodes, half = _rule(last, work[0, :y.size, None])
    return at_edges[k - 1] + (f(nodes, *work[1:, :y.size, None]) @ _WEIGHTS * half)[:, 0]


def _li_from_2(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """li at each y >= 2, the partial panel's nodes in work[0]."""
    return _from_edge(_inv_log, 0, y, work)


def _tail_from_2(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """archimedean_tail at each y >= 2, as its value at 2 minus the
    integral from 2 to y on li's panels: the partial panel's nodes go into
    work[0] and the integrand's denominator into work[1]."""
    return _from_edge(_neg_tail_integrand, 1, y, work)


def li(x: float) -> float:
    """`explicit_formula.li` at x > 0, x != 1."""
    if x >= 2.0:
        return float(_chunked(_li_from_2, np.array([x], dtype=float), _NODES.size)[0])
    h = abs(x - 1.0)
    total = _panels(_inv_log, ef._graded(0.0, 1.0 - h)).sum()
    if x > 1.0:
        total += _panels(_folded, ef._toward(0.0, h)).sum()
    return float(total)


# The tail's partition of (0, 1/y] is that of (0, 1] scaled by 1/y, so its
# nodes, weights and node logarithms are computed once, for y = 1.
_tail_s, _tail_half = _rule(ef._graded(0.0, 1.0))
_TAIL_S = _tail_s.ravel()
_TAIL_W = (_tail_half[:, None] * _WEIGHTS).ravel()
_TAIL_LOG_S = np.log(_TAIL_S)
del _tail_s, _tail_half


def archimedean_tail(y: float) -> float:
    """`explicit_formula.archimedean_tail` at y > 1."""
    s = _TAIL_S / y
    return float(s / ((1.0 - s * s) * (math.log(y) - _TAIL_LOG_S)) @ _TAIL_W / y)


# The ray's nodes u, and its moment columns EW and EW u
_RAY_U = np.array(ef._RAY_U)
_RAY_MOMENTS = np.stack([ef._RAY_EW, ef._RAY_EWU], axis=-1)


def _zero_terms(y: np.ndarray, gammas: np.ndarray, work: np.ndarray) -> np.ndarray:
    """2 Re li(y^rho) for each y (rows) and rho = 1/2 + i gamma (columns),
    as `explicit_formula._zero_sum` derives them; 1 / |w + u|^2 at the
    ray's nodes goes into work[0]."""
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


def zero_pair_terms(y: float, gammas) -> np.ndarray:
    """`explicit_formula.zero_pair_terms` at y >= 2."""
    gammas = np.asarray(gammas, dtype=float)
    return _chunked(lambda c, work: _zero_terms(c, gammas, work), np.array([y], dtype=float),
                    gammas.size * _RAY_U.size)[0]


def _smooth_terms(y: np.ndarray, gammas: np.ndarray):
    """li(y) and f(y) at each y >= 2."""
    li_y = _chunked(_li_from_2, y, _NODES.size)
    f = li_y - ef.LN2 + _chunked(_tail_from_2, y, _NODES.size, buffers=2)
    # zeros go in slices of at most 1024, so that one argument's
    # (zeros x nodes) temporary also stays within _BLOCK elements
    width = _BLOCK // _RAY_U.size
    for i in range(0, gammas.size, width):
        part = gammas[i:i + width]
        f -= _chunked(lambda c, work: _zero_terms(c, part, work).sum(axis=1), y,
                      part.size * _RAY_U.size)
    return li_y, f


def explicit(xs, gammas) -> tuple[list[float], list[float]]:
    """li(x) and approx(x) at each x >= 2 of a block, as lists.

    The arguments y = x^(1/m) >= 2 of every order of
    `explicit_formula._orders` are evaluated together, m = 1 first, so
    li(x) is the head of li(y); np.bincount adds each row's mu(m)/m f(y)
    in increasing m.
    """
    xs = np.asarray(xs, dtype=float)
    ys, owner, coef = [], [], []
    for m in ef._orders(xs.max()):
        y = xs ** (1.0 / m)
        keep = np.flatnonzero(y >= 2.0)
        ys.append(y[keep])
        owner.append(keep)
        coef.append(np.full(keep.size, mobius(m) / m))
    li_y, f = _smooth_terms(np.concatenate(ys), np.asarray(gammas, dtype=float))
    approx = np.bincount(np.concatenate(owner), np.concatenate(coef) * f,
                         minlength=xs.size)
    return li_y[:xs.size].tolist(), approx.tolist()


def rh_bound_ratio(range_max: int, pi_table) -> float:
    """`explicit_formula.rh_bound_ratio` on the arrays, li at every
    integer 3..range_max on the code of li beyond 2."""
    ns = np.arange(3, range_max + 1, dtype=float)
    pi_vals = np.frombuffer(pi_table, dtype=np.intc)[3:range_max + 1]
    li_vals = _chunked(_li_from_2, ns, _NODES.size)
    ratios = np.abs(pi_vals - li_vals) / (np.sqrt(ns) * np.log(ns))
    return float(ratios.max())
