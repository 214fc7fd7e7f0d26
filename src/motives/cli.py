"""Command-line front end: point counts, eigenvalue predictions, zeta
functions, motive calculus, and prime-counting approximations.

A subcommand is one parser block in `build_parser`, which registers
its handler with `set_defaults`, plus that handler: a function from the
parsed namespace to a single report.  The format defaults to an aligned
table on a terminal and CSV when redirected; --format forces csv, json,
or table.  All numeric output is deterministic across runs.

A handler imports the package modules it runs, and this module imports
none at its top, so that each command pays at start-up only for its own
modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, NamedTuple


class Report(NamedTuple):
    """A handler's result: column names, rows and extra key-value fields.
    The rows may be lazy, computed as they are taken: `render` reads them
    once, in order."""

    columns: tuple[str, ...]
    rows: Iterable[tuple]
    extra: tuple[tuple[str, object], ...] = ()


def _digits(v: int) -> int:
    """Decimal digits of |v|, without converting it to a string."""
    v = abs(v)
    d = max(0, int((v.bit_length() - 1) * 0.30102999566398120) - 1)
    while 10 ** d <= v:
        d += 1
    return max(d, 1)


def _str_digit_limit() -> int:
    """Python's int-to-str digit limit, 0 for none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _printable_rows(report: Report):
    """report.rows, read once and in order.  A row that holds an integer
    past Python's int-to-str limit is refused, by name, before it is
    formatted."""
    limit = _str_digit_limit()
    if not limit:
        yield from report.rows
        return
    safe_bits = int(limit * 3.3219280948873623) - 1  # 2^safe_bits < 10^limit
    for row in report.rows:
        for column, v in zip(report.columns, row):
            if isinstance(v, int) and v.bit_length() > safe_bits and _digits(v) > limit:
                raise ValueError(
                    f"Exceeds the limit ({limit} digits) for printing an integer: row "
                    f"{report.columns[0]}={row[0]} has a {_digits(v)}-digit {column}; "
                    f"use a smaller --n-max")
        yield row


def render(report: Report, fmt: str) -> str:
    """The report as csv, json or an aligned table.  Its rows are read once,
    in order, and each is checked as it is taken, so a row too long to
    print is refused before any later row is computed and before any row
    is formatted: an int-to-str conversion costs time quadratic in its
    digits.  A cell is its value's str (a float's str is its repr); no
    cell holds a comma, quote or newline, so csv joins cells by commas."""
    rows = tuple(_printable_rows(report))
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in (report.columns, *rows))
    if fmt == "json":
        payload = {"columns": list(report.columns), "rows": rows}
        payload.update({k: v for k, v in report.extra})
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # table
    lines = [f"{k}: {json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v}"
             for k, v in report.extra]
    cells = [list(map(str, row)) for row in (report.columns, *rows)]
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
    from .finite_field import MAX_FIELD_SIZE, prime_root

    _require(q >= 2, "q must be >= 2")
    _require(q <= MAX_FIELD_SIZE, "field too large")
    root = prime_root(q)
    _require(root is not None, "q must be a prime power")
    return root


def _load_system(path):
    from .variety import parse_poly_system

    _require(path is not None, "--poly file required")
    with open(path) as fh:
        return parse_poly_system(fh.read())


def _count_sequence(args, n_max: int, method: str, extra_point: bool = False) -> CountSequence:
    from .variety import affine_count_sequence

    return affine_count_sequence(_load_system(args.poly), args.p, n_max,
                                 extra_point=extra_point, method=method)


def _cmd_count(args) -> Report:
    seq = _count_sequence(args, args.n_max, args.method, extra_point=args.projective)
    rows = tuple((n, args.p ** n, c) for n, c in enumerate(seq.counts, start=1))
    return Report(("n", "q", "count"), rows)


def _cmd_predict(args) -> Report:
    from .weil import hasse_alpha, predict_affine_counts

    alpha = hasse_alpha(args.p, args.n1)
    upper = alpha.roots[-1]
    extra = (("alpha_re", upper.real), ("alpha_im", upper.imag), ("trace", -alpha.coeffs[1]),
             ("hasse_bound", 2.0 * math.sqrt(args.p)))
    if args.poly:
        seq = _count_sequence(args, args.n_max, "auto")
        predicted = predict_affine_counts(alpha, len(seq.counts))
        rows = tuple((n, want, c, "ok" if want == c else "MISMATCH")
                     for n, (want, c) in enumerate(zip(predicted, seq.counts), start=1))
        return Report(("n", "predicted", "brute_force", "status"), rows, extra)
    return Report(("n", "predicted"), enumerate(predict_affine_counts(alpha, args.n_max), start=1),
                  extra)


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"--counts must be comma-separated integers, got {text!r}") from None


def _cmd_zeta(args) -> Report:
    from .variety import CountSequence, format_poly
    from .zeta import curve_denominator, zeta_from_counts

    p = args.p
    if args.counts is not None:
        seq = CountSequence(p, _parse_counts(args.counts), projective_flag=True)
    else:
        _require(args.genus is not None, "--genus required")
        seq = _count_sequence(args, 2 * args.genus + 4, "auto", extra_point=True)
    genus = args.genus if args.genus is not None else \
        max(1, (len(seq.counts) - 4) // 2)
    rz = zeta_from_counts(seq.counts, 2 * genus, curve_denominator(p), p)
    # weight_pieces certifies |alpha|^2 = p^k: |alpha| comes from p, not the rounded root
    rows = tuple((k, r.real, r.imag, p ** (k // 2) * (math.sqrt(p) if k % 2 else 1.0))
                 for k, roots in rz.weight_table().items() for r in roots)
    numerator = format_poly([((j,), c) for j, c in enumerate(rz.numerator) if c], ("t",))
    extra = (("numerator", list(rz.numerator)),
             ("denominator", list(rz.denominator)),
             ("display", f"({numerator}) / ((1 - t)(1 - {p} t))"))
    return Report(("weight", "re", "im", "abs"), rows, extra)


def _parse_motive_expr(expr: str, q: int | None):
    from .finite_field import prime_root
    from .motive import (lefschetz_motive, motive_of_elliptic_curve, motive_of_projective_space,
                         tensor_power)
    from .weil import hasse_alpha

    expr = expr.strip()
    unparsed = f"cannot parse motive expression {expr!r}"

    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(unparsed) from None

    def check_base(name: str) -> None:
        _require(q is not None, f"--q required for {name}")
        # below 2, Motive refuses the base itself
        _require(q < 2 or prime_root(q) is not None, "q must be a prime power")

    def check_float_range(powers) -> None:
        """Motive.weight_table's refusal, before the pieces are built:
        weight 2j holds the eigenvalue q^j, which has no double once it
        nears 2^1024, so for q >= 2 at every j >= 1024."""
        for j in powers if q >= 2 else ():
            try:
                float(q ** min(j, 1024))
            except OverflowError:
                raise ValueError(f"weight {2 * j} eigenvalues exceed the float range") from None

    if expr.startswith("P^"):
        check_base("P^n")
        dim = number(expr[2:])
        check_float_range(range(min(dim, 1024) + 1))
        return motive_of_projective_space(dim, q)
    if expr == "P":
        check_base("P^n")
        return motive_of_projective_space(1, q)
    if expr.startswith("L^"):
        check_base("L^k")
        k = number(expr[2:])
        check_float_range([k])
        return tensor_power(lefschetz_motive(q), k)
    if expr == "L":
        check_base("L")
        return lefschetz_motive(q)
    if expr.split()[:1] == ["elliptic"]:
        pairs = [part.split("=") for part in expr.split()[1:]]
        kv = dict(kv for kv in pairs if len(kv) == 2)  # a repeated key counts once
        _require(len(kv) == len(pairs) and kv.keys() <= {"a", "p"}, unparsed)
        _require("a" in kv and "p" in kv, "elliptic needs a=<trace> p=<prime>")
        a, p = number(kv["a"]), number(kv["p"])
        _require(q is None or q == p, f"--q {q} differs from the elliptic curve's p = {p}")
        return motive_of_elliptic_curve(hasse_alpha(p, p - a))
    raise ValueError(unparsed)


def _cmd_motive(args) -> Report:
    from .motive import point_counts

    m = _parse_motive_expr(args.expr, args.q)
    pieces = {str(k): [[r.real, r.imag] for r in roots]
              for k, roots in m.weight_table().items()}
    return Report(("n", "count"), enumerate(point_counts(m, args.n_max), start=1),
                  (("base_q", m.base_q), ("pieces", pieces)))


def _cmd_pspace(args) -> Report:
    from .finite_field import make_field
    from .variety import count_projective_space

    p, n = _prime_power(args.q)
    rows = []
    for m in range(1, args.n_max + 1):
        f = make_field(p, n * m)
        rows.append((m, f.q, count_projective_space(args.dim, f)))
    return Report(("n", "q", "count"), tuple(rows),
                  (("dim", args.dim), ("closed_form", "1 + q + ... + q^dim"),))


def _cmd_pi(args) -> Report:
    from . import explicit_formula as ef

    zeros = ef.load_zeros(args.zeros) if args.zeros else ef.default_zero_table()
    ef.zero_ordinates(zeros, args.K)  # refuse a bad K before the sieve is built
    _require(math.isfinite(args.x_max), f"--x-max must be a finite number, got {args.x_max}")
    _require(args.x_max >= 2.5, f"--x-max must be >= 2.5, the first grid point, got {args.x_max}")
    _require(args.x_max < ef.SIEVE_LIMIT,
             f"--x-max must be below {ef.SIEVE_LIMIT}, the sieve cap, got {args.x_max}")
    limit = max(3, int(math.floor(args.x_max)) + 1)
    pc = ef.PrimeCounter.build(limit)
    grid = ef.half_integer_grid(2.0, args.x_max)
    rows = ef.approximation_rows(grid, zeros, args.K, pc)
    return Report(("x", "pi", "li", f"approx_{args.K}"), rows,
                  (("zero_pairs", args.K),))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="motives",
        description="point counts over finite fields, local zeta functions, "
                    "eigenvalue motives, and the prime-counting explicit formula")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.set_defaults(handler=handler)
        sp.add_argument("--format", choices=("csv", "json", "table"), default=None)

    sp = sub.add_parser("count", help="count points of a polynomial system")
    sp.add_argument("--poly", required=True, help="polynomial system file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=1)
    sp.add_argument("--projective", action="store_true",
                    help="curve convention: affine count plus one")
    sp.add_argument("--method", choices=("product", "auto"), default="product",
                    help="product: every tuple, the oracle; auto: the first plan of "
                         "motives.variety.PLANS that applies; either refuses a plan "
                         "past 2^28 tuples")
    common(sp, _cmd_count)

    sp = sub.add_parser("predict", help="Frobenius eigenvalue from N_1 and predictions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True, help="affine count over F_p")
    sp.add_argument("--poly", help="optional system file for a brute-force column")
    sp.add_argument("--n-max", type=int, default=12)
    common(sp, _cmd_predict)

    sp = sub.add_parser("zeta", help="rational zeta function of a curve")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--poly", help="curve file (with --genus)")
    source.add_argument("--counts", help="comma-separated projective counts N_1,N_2,...")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--genus", type=int)
    common(sp, _cmd_zeta)

    sp = sub.add_parser("motive", help="evaluate a motive constructor expression")
    sp.add_argument("--expr", required=True,
                    help="'P^n' | 'L^k' | 'elliptic a=<trace> p=<prime>'")
    sp.add_argument("--q", type=int, help="base field size for P^n and L^k")
    sp.add_argument("--n-max", type=int, default=3)
    common(sp, _cmd_motive)

    sp = sub.add_parser("pspace", help="points of projective space over F_{q^n}")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=1)
    common(sp, _cmd_pspace)

    sp = sub.add_parser("pi", help="prime counts vs the explicit formula")
    sp.add_argument("--x-max", type=float, default=20.0)
    sp.add_argument("--K", type=int, default=0, help="number of zero pairs")
    sp.add_argument("--zeros", help="zero table path (default: bundled)")
    common(sp, _cmd_pi)
    return ap


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in, in place, --format from the terminal: a table on one, else
    CSV.  `run` calls it; calling it again changes nothing."""
    if args.format is None:
        args.format = "table" if sys.stdout.isatty() else "csv"
    return args


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed subcommand; (exit status, rendered report)."""
    try:
        config_from_args(args)
        _require(getattr(args, "n_max", 1) >= 1, "--n-max must be >= 1")
        return 0, render(args.handler(args), args.format)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        return 1, f"error: {str(exc) or type(exc).__name__}"


def main(argv=None) -> int:
    # numpy's bundled OpenBLAS starts worker threads at import that spin idle:
    # no operand here is large enough to use them, and counts run in parallel
    # over the planner's process pool.  A caller's own value stands.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status, text = run(build_parser().parse_args(argv))
    if status == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
