"""Command-line front end: point counts, eigenvalue predictions, zeta
functions, motive calculus, and prime-counting approximations.

Every subcommand emits a single report.  The format defaults to an
aligned table on a terminal and CSV when redirected; --format forces
csv, json, or table.  All numeric output is deterministic across runs
and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from . import explicit_formula as ef
from .finite_field import is_prime, make_field
from .motive import (
    lefschetz_motive,
    motive_of_elliptic_curve,
    motive_of_projective_space,
    point_count,
    tensor_power,
)
from .variety import (
    DEFAULT_WORK_LIMIT,
    CountSequence,
    affine_count_sequence,
    count_projective_space,
    parse_poly_system,
)
from .weil import hasse_alpha, predict_affine_counts
from .zeta import curve_denominator, rational_reconstruct, zeta_series


@dataclass(frozen=True)
class RunConfig:
    command: str
    fmt: str
    poly_path: str | None = None
    p: int | None = None
    n1: int | None = None
    n_max: int = 1
    dim: int = 0
    q: int | None = None
    genus: int | None = None
    counts: tuple[int, ...] | None = None
    expr: str | None = None
    zeros_path: str | None = None
    K: int = 0
    work_limit: int = DEFAULT_WORK_LIMIT
    workers: int = 1
    method: str = "product"
    projective: bool = False
    x_max: float = 20.0


@dataclass(frozen=True)
class Report:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    extra: tuple[tuple[str, object], ...] = ()


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render(report: Report, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(report.columns)
        for row in report.rows:
            w.writerow([_fmt_value(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        payload = {"columns": list(report.columns),
                   "rows": [list(r) for r in report.rows]}
        payload.update({k: v for k, v in report.extra})
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # table
    lines = [f"{k}: {_fmt_value(v) if not isinstance(v, (list, dict)) else json.dumps(v, sort_keys=True)}"
             for k, v in report.extra]
    cells = [list(report.columns)] + [[_fmt_value(v) for v in row] for row in report.rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(report.columns))]
    for j, r in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _prime_power(q: int) -> tuple[int, int]:
    _require(q >= 2, "q must be >= 2")
    for p in range(2, q + 1):
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            _require(m == 1 and is_prime(p), "q must be a prime power")
            return p, n
    raise ValueError("q must be a prime power")


def _load_system(config: RunConfig):
    _require(config.poly_path is not None, "--poly file required")
    with open(config.poly_path) as fh:
        return parse_poly_system(fh.read())


def _cmd_count(config: RunConfig) -> Report:
    _require(config.p is not None, "--p required")
    system = _load_system(config)
    seq = affine_count_sequence(system, config.p, config.n_max,
                                extra_point=config.projective,
                                work_limit=config.work_limit,
                                workers=config.workers,
                                method=config.method)
    rows = tuple((n, config.p ** n, c) for n, c in enumerate(seq.counts, start=1))
    return Report(("n", "q", "count"), rows)


def _cmd_predict(config: RunConfig) -> Report:
    _require(config.p is not None, "--p required")
    _require(config.n1 is not None, "--n1 required (affine count over F_p)")
    alpha = hasse_alpha(config.p, config.n1)
    extra = (("alpha_re", alpha.re), ("alpha_im", alpha.im),
             ("trace", alpha.trace_a),
             ("hasse_bound", 2.0 * math.sqrt(config.p)))
    if config.poly_path:
        system = _load_system(config)
        seq = affine_count_sequence(system, config.p, config.n_max,
                                    work_limit=config.work_limit,
                                    workers=config.workers,
                                    method=config.method)
        predicted = predict_affine_counts(alpha, len(seq.counts))
        rows = tuple((n, want, c, "ok" if want == c else "MISMATCH")
                     for n, (want, c) in enumerate(zip(predicted, seq.counts), start=1))
        return Report(("n", "predicted", "brute_force", "status"), rows, extra)
    rows = tuple(enumerate(predict_affine_counts(alpha, config.n_max), start=1))
    return Report(("n", "predicted"), rows, extra)


def _zeta_counts(config: RunConfig) -> tuple[int, CountSequence]:
    if config.counts is not None:
        _require(config.p is not None, "--p required with --counts")
        return config.p, CountSequence(config.p, config.counts, projective_flag=True)
    _require(config.genus is not None, "--genus required")
    _require(config.p is not None, "--p required")
    system = _load_system(config)
    order = 2 * config.genus + 4
    seq = affine_count_sequence(system, config.p, order, extra_point=True,
                                work_limit=config.work_limit,
                                workers=config.workers,
                                method="auto")
    return config.p, seq


def _poly_str(coeffs) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = (str(mag) if j == 0
                else ("t" if mag == 1 else f"{mag}*t") if j == 1
                else (f"t^{j}" if mag == 1 else f"{mag}*t^{j}"))
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
    return " ".join([head] + parts[1:])


def _cmd_zeta(config: RunConfig) -> Report:
    p, seq = _zeta_counts(config)
    genus = config.genus if config.genus is not None else \
        max(1, (len(seq.counts) - 4) // 2)
    series = zeta_series(seq)
    rz = rational_reconstruct(series, 2 * genus, curve_denominator(p), p)
    rows = []
    for k, roots in rz.roots_by_weight:
        for r in roots:
            rows.append((k, r.real, r.imag, abs(r)))
    extra = (("numerator", list(rz.numerator)),
             ("denominator", list(rz.denominator)),
             ("display", f"({_poly_str(rz.numerator)}) / ((1 - t)(1 - {p} t))"))
    return Report(("weight", "re", "im", "abs"), tuple(rows), extra)


def _parse_motive_expr(expr: str, q: int | None):
    expr = expr.strip()
    if expr.startswith("P^"):
        _require(q is not None, "--q required for P^n")
        return motive_of_projective_space(int(expr[2:]), q)
    if expr == "P":
        _require(q is not None, "--q required for P^n")
        return motive_of_projective_space(1, q)
    if expr.startswith("L^"):
        _require(q is not None, "--q required for L^k")
        return tensor_power(lefschetz_motive(q), int(expr[2:]))
    if expr == "L":
        _require(q is not None, "--q required for L")
        return lefschetz_motive(q)
    if expr.startswith("elliptic"):
        kv = dict(part.split("=") for part in expr.split()[1:])
        _require("a" in kv and "p" in kv, "elliptic needs a=<trace> p=<prime>")
        p = int(kv["p"])
        a = int(kv["a"])
        return motive_of_elliptic_curve(hasse_alpha(p, p - a))
    raise ValueError(f"cannot parse motive expression {expr!r}")


def _cmd_motive(config: RunConfig) -> Report:
    _require(config.expr is not None, "--expr required")
    m = _parse_motive_expr(config.expr, config.q)
    pieces = {str(k): [[r.real, r.imag] for r in roots]
              for k, roots in m.weight_table().items()}
    rows = tuple((n, point_count(m, n)) for n in range(1, config.n_max + 1))
    return Report(("n", "count"), rows,
                  (("base_q", m.base_q), ("pieces", pieces)))


def _cmd_pspace(config: RunConfig) -> Report:
    _require(config.q is not None, "--q required")
    p, n = _prime_power(config.q)
    rows = []
    for m in range(1, config.n_max + 1):
        f = make_field(p, n * m)
        rows.append((m, f.q, count_projective_space(config.dim, f,
                                                    work_limit=config.work_limit)))
    return Report(("n", "q", "count"), tuple(rows),
                  (("dim", config.dim), ("closed_form", "1 + q + ... + q^dim"),))


def _cmd_pi(config: RunConfig) -> Report:
    zeros = ef.load_zeros(config.zeros_path) if config.zeros_path \
        else ef.default_zero_table()
    _require(config.K <= len(zeros), "K exceeds the zero table")
    limit = max(3, int(math.floor(config.x_max)) + 1)
    pc = ef.PrimeCounter.build(limit)
    grid = ef.half_integer_grid(2.0, config.x_max)
    rows = tuple((x, pi, li_x, approx) for x, pi, li_x, approx in
                 ef.approximation_rows(grid, zeros, config.K, pc))
    return Report(("x", "pi", "li", f"approx_{config.K}"), rows,
                  (("zero_pairs", config.K),))


_COMMANDS = {
    "count": _cmd_count,
    "predict": _cmd_predict,
    "zeta": _cmd_zeta,
    "motive": _cmd_motive,
    "pspace": _cmd_pspace,
    "pi": _cmd_pi,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="motives",
        description="point counts over finite fields, local zeta functions, "
                    "eigenvalue motives, and the prime-counting explicit formula")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json", "table"), default=None)
        sp.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT)
        sp.add_argument("--workers", type=int,
                        default=int(os.environ.get("WEIL_WORKERS", "1")))

    sp = sub.add_parser("count", help="count points of a polynomial system")
    sp.add_argument("--poly", required=True, help="polynomial system file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=1)
    sp.add_argument("--projective", action="store_true",
                    help="curve convention: affine count plus one")
    sp.add_argument("--method", choices=("product", "separable", "auto"),
                    default="product")
    common(sp)

    sp = sub.add_parser("predict", help="Frobenius eigenvalue from N_1 and predictions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True, help="affine count over F_p")
    sp.add_argument("--poly", help="optional system file for a brute-force column")
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--method", choices=("product", "separable", "auto"),
                    default="auto")
    common(sp)

    sp = sub.add_parser("zeta", help="rational zeta function of a curve")
    sp.add_argument("--poly", help="curve file (with --genus)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--genus", type=int)
    sp.add_argument("--counts", help="comma-separated projective counts N_1,N_2,...")
    common(sp)

    sp = sub.add_parser("motive", help="evaluate a motive constructor expression")
    sp.add_argument("--expr", required=True,
                    help="'P^n' | 'L^k' | 'elliptic a=<trace> p=<prime>'")
    sp.add_argument("--q", type=int, help="base field size for P^n and L^k")
    sp.add_argument("--n-max", type=int, default=3)
    common(sp)

    sp = sub.add_parser("pspace", help="points of projective space over F_{q^n}")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=1)
    common(sp)

    sp = sub.add_parser("pi", help="prime counts vs the explicit formula")
    sp.add_argument("--x-max", type=float, default=20.0)
    sp.add_argument("--K", type=int, default=0, help="number of zero pairs")
    sp.add_argument("--zeros", help="zero table path (default: bundled)")
    common(sp)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    counts = None
    if getattr(args, "counts", None):
        counts = tuple(int(c) for c in args.counts.split(","))
    fmt = args.format or ("table" if sys.stdout.isatty() else "csv")
    return RunConfig(
        command=args.command,
        fmt=fmt,
        poly_path=getattr(args, "poly", None),
        p=getattr(args, "p", None),
        n1=getattr(args, "n1", None),
        n_max=getattr(args, "n_max", 1),
        dim=getattr(args, "dim", 0),
        q=getattr(args, "q", None),
        genus=getattr(args, "genus", None),
        counts=counts,
        expr=getattr(args, "expr", None),
        zeros_path=getattr(args, "zeros", None),
        K=getattr(args, "K", 0),
        work_limit=args.work_limit,
        workers=args.workers,
        method=getattr(args, "method", "product"),
        projective=getattr(args, "projective", False),
        x_max=getattr(args, "x_max", 20.0),
    )


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one subcommand; (exit status, rendered report)."""
    try:
        _require(config.workers >= 1, "workers must be >= 1")
        return 0, render(_COMMANDS[config.command](config), config.fmt)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        return 1, f"error: {exc}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    status, text = run(config_from_args(args))
    if status == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
