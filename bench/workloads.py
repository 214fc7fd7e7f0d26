"""The four benchmark workloads: fixed lists of `motives` CLI invocations.

Each workload is built from a seed.  The paper's golden curve
y^2 + y = x^3 + x is always present; the seed draws the other curves and
motive expressions.  A generated curve keeps a fixed set of monomials
whatever the seed, so the work a round does does not depend on it.
Every operation carries its own check from `checks`, computed apart from
the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

GOLDEN = checks.weierstrass(0, 0, 1, 1, 0)        # y^2 + y = x^3 + x
GENUS2 = {(0, 2): 1, (0, 1): 1, (5, 0): -1}      # y^2 + y = x^5
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its JSON report."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    known_fault: str | None = None


def seeded_weierstrass(rng: random.Random, p: int) -> tuple[int, ...]:
    """(a1, a2, a3, a4, a6), each nonzero mod p, with nonzero discriminant mod p."""
    while True:
        a = tuple(rng.randrange(1, p) - p * rng.randrange(2) for _ in range(5))
        if checks.discriminant(*a) % p:
            return a


def seeded_mixed_p2(rng: random.Random) -> tuple[int, ...]:
    """A nonsingular curve over F_2 with the xy term and six monomials.

    With a1 = a3 = 1 the discriminant is a2 + a6 mod 2, so exactly one of
    a2, a6 is set; a4 = 1 keeps the monomial count fixed.
    """
    return rng.choice(((1, 1, 1, 1, 0), (1, 0, 1, 1, 1)))


def _hasse_pair(rng: random.Random, primes) -> tuple[int, int]:
    p = rng.choice(primes)
    bound = math.isqrt(4 * p)
    return rng.randint(-bound, bound), p


def _curve_file(workdir: Path, name: str, curve: dict) -> str:
    path = workdir / f"{name}.txt"
    path.write_text(checks.curve_text(curve) + "\n")
    return str(path)


def _count(name, path, curve, p, n_max, method) -> Op:
    return Op(name, ("count", "--poly", path, "--p", str(p), "--n-max", str(n_max),
                     "--method", method),
              lambda r: checks.check_count(r, curve, p, n_max))


def grid(rng: random.Random, workdir: Path) -> list[Op]:
    """Product-grid counting: the p = 2 XOR path and the odd-p digit path."""
    ops = [_count("golden_2^12", _curve_file(workdir, "golden", GOLDEN), GOLDEN, 2, 12,
                  "product")]
    for p, n_max in ((3, 7), (5, 4)):
        curve = checks.weierstrass(*seeded_weierstrass(rng, p))
        ops.append(_count(f"seeded_{p}^{n_max}", _curve_file(workdir, f"w{p}", curve),
                          curve, p, n_max, "product"))
    return ops


def fields(rng: random.Random, workdir: Path) -> list[Op]:
    """Default planner over large fields, where per-field setup dominates."""
    golden = _curve_file(workdir, "golden", GOLDEN)
    mixed = checks.weierstrass(*seeded_mixed_p2(rng))
    g2 = _curve_file(workdir, "genus2", GENUS2)
    g2_numerator = checks.numerator_from_counts(
        3, 2, [checks.count_fp(GENUS2, 3) + 1, checks.count_fp2(GENUS2, 3) + 1])
    return [
        _count("golden_2^17", golden, GOLDEN, 2, 17, "auto"),
        _count("golden_3^10", golden, GOLDEN, 3, 10, "auto"),
        Op("genus2_zeta_3", ("zeta", "--poly", g2, "--p", "3", "--genus", "2"),
           lambda r: checks.check_zeta(r, 3, 2, g2_numerator)),
        _count("mixed_2^11", _curve_file(workdir, "mixed", mixed), mixed, 2, 11, "auto"),
    ]


def zero_table() -> list[str]:
    data = Path(__file__).resolve().parent.parent / "src" / "motives" / "data" / "zeta_zeros.txt"
    return [s for s in (line.split("#", 1)[0].strip() for line in data.read_text().splitlines())
            if s]


def _pi(rng: random.Random, x_max: float, K: int, samples: int) -> Op:
    rows = math.floor(x_max - 0.5) - 1
    picked = sorted(rng.sample(range(rows), samples))
    zeros = zero_table()
    return Op(f"pi_{x_max:g}_K{K}", ("pi", "--x-max", f"{x_max:g}", "--K", str(K)),
              lambda r: checks.check_pi(r, x_max, K, zeros, picked))


def pi(rng: random.Random, workdir: Path) -> list[Op]:
    """The explicit formula: quadrature only (K 0) and the full zero table.

    The program's inputs are fixed; the seed picks the rows that the
    mpmath evaluation of the formula checks.
    """
    return [_pi(rng, 1500, 0, 3), _pi(rng, 600, 150, 3), _pi(rng, 20, 13, 2)]


FLOAT_COUNTS = "zeta.trace_formula_count sums complex-float eigenvalue powers"


def desk(rng: random.Random, workdir: Path) -> list[Op]:
    """Short commands, where interpreter start and import dominate."""
    golden = _curve_file(workdir, "golden", GOLDEN)
    a_pred, p_pred = _hasse_pair(rng, SMALL_PRIMES + (101,))
    a_zeta, p_zeta = _hasse_pair(rng, SMALL_PRIMES)
    zeta_counts = [p_zeta ** n + 1 - s
                   for n, s in enumerate(checks.trace_powers(a_zeta, p_zeta, 7)[1:], start=1)]
    a_mot, p_mot = _hasse_pair(rng, SMALL_PRIMES)
    k_lef, q_lef = rng.randint(1, 4), rng.choice((2, 3, 4, 5, 7, 8, 9))
    dim_ps, q_ps = rng.randint(1, 3), rng.choice((2, 3, 4))
    golden_n1 = checks.count_fp(GOLDEN, 2)
    readme_counts = [5, 5, 5, 25, 25, 65, 145]
    return [
        Op("predict_golden", ("predict", "--p", "2", "--n1", "4", "--poly", golden,
                              "--n-max", "12"),
           lambda r: checks.check_predict(r, 2, 4, 12, GOLDEN)),
        Op("predict_large_n", ("predict", "--p", str(p_pred), "--n1", str(p_pred - a_pred),
                               "--n-max", "300"),
           lambda r: checks.check_predict(r, p_pred, p_pred - a_pred, 300)),
        Op("zeta_golden", ("zeta", "--poly", golden, "--p", "2", "--genus", "1"),
           lambda r: checks.check_zeta(
               r, 2, 1, checks.numerator_from_counts(2, 1, [golden_n1 + 1]))),
        Op("zeta_counts_readme", ("zeta", "--p", "2", "--counts",
                                  ",".join(map(str, readme_counts))),
           lambda r: checks.check_zeta(
               r, 2, 1, checks.numerator_from_counts(2, 1, readme_counts))),
        Op("zeta_counts_seeded", ("zeta", "--p", str(p_zeta), "--counts",
                                  ",".join(map(str, zeta_counts))),
           lambda r: checks.check_zeta(
               r, p_zeta, 1, checks.numerator_from_counts(p_zeta, 1, zeta_counts))),
        Op("motive_P2", ("motive", "--expr", "P^2", "--q", "2", "--n-max", "3"),
           lambda r: checks.check_motive_pspace(r, 2, 2, 3)),
        Op("motive_elliptic_readme", ("motive", "--expr", "elliptic a=-2 p=2", "--n-max", "4"),
           lambda r: checks.check_motive_elliptic(r, -2, 2, 4)),
        Op("motive_elliptic_seeded", ("motive", "--expr", f"elliptic a={a_mot} p={p_mot}",
                                      "--n-max", "10"),
           lambda r: checks.check_motive_elliptic(r, a_mot, p_mot, 10)),
        Op("motive_L_seeded", ("motive", "--expr", f"L^{k_lef}", "--q", str(q_lef)),
           lambda r: checks.check_motive_lefschetz(r, k_lef, q_lef, 3)),
        Op("pspace_readme", ("pspace", "--dim", "2", "--q", "2"),
           lambda r: checks.check_pspace(r, 2, 2, 1)),
        Op("pspace_seeded", ("pspace", "--dim", str(dim_ps), "--q", str(q_ps), "--n-max", "2"),
           lambda r: checks.check_pspace(r, dim_ps, q_ps, 2)),
        _pi(rng, 20, 13, 2),
        Op("motive_elliptic_101", ("motive", "--expr", "elliptic a=5 p=101", "--n-max", "10"),
           lambda r: checks.check_motive_elliptic(r, 5, 101, 10), FLOAT_COUNTS),
        Op("motive_L40", ("motive", "--expr", "L^40", "--q", "3"),
           lambda r: checks.check_motive_lefschetz(r, 40, 3, 3), FLOAT_COUNTS),
        Op("motive_P700", ("motive", "--expr", "P^700", "--q", "2"),
           lambda r: checks.check_motive_pspace(r, 700, 2, 3), FLOAT_COUNTS),
    ]


WORKLOADS = {"grid": grid, "fields": fields, "pi": pi, "desk": desk}
