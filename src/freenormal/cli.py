"""Command line surface: evaluation, data export, tables, verification.

Grammar: ``freenormal <eval|curve|density|levelsets|cumulants|asymptotics|
verify> [--flag value ...]``.  Numeric output is deterministic (fixed CSV
formatting, shortest round-trip JSON floats); complex arguments are written
``a+bi`` or ``a-bi``.  Exit codes: 0 success, 1 verification failure,
2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys

# ``output`` and ``transforms`` stay at module scope, every other layer is
# imported by the command that runs it: the benchmark's tracer
# (bench/tracer.py) wraps the functions of each loaded layer, ``output``
# included, right after ``import freenormal.cli``, and rebinds the plain
# functions held in ``_EVAL_FNS`` and ``_DISPATCH``.
from .errors import DomainError, FreeNormalError
from .output import csv_text, json_text, svg_figure, write_text
from .scaled import _EXACT_SCALE, ScaledComplex
from .transforms import f_tilde, f_tilde_prime, g_tilde, g_tilde_prime, rho

__all__ = ["main", "parse_complex", "format_value"]

_LN10 = math.log(10.0)
#: ``ln 10`` to 40 digits, for the exact base-10 reduction of a huge scale
_LN10_DIGITS = "2.302585092994045684017991454684364207601"


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` (also plain ``a``, ``bi``, ``i``).

    The trailing ``i`` becomes ``complex()``'s ``j``; a literal that already
    holds ``j`` or a parenthesis is refused.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise DomainError("empty complex literal")
    try:
        if not set("jJ(").isdisjoint(s):
            raise ValueError(s)
        if s[-1] == "i":
            # ``i``, ``+i`` and ``-i`` have the unit coefficient
            unit = s[-2:-1] in ("", "+", "-") and s[-3:-2] not in ("e", "E")
            s = s[:-1] + ("1j" if unit else "j")
        return complex(s)
    except ValueError as exc:
        raise DomainError(f"could not parse complex literal {text!r}") from exc


def _pair_text(v: complex) -> str:
    re, im = v.real + 0.0, v.imag + 0.0
    sign = "+" if im >= 0 else "-"
    return f"{re:.15g} {sign} {abs(im):.15g}i"


def format_value(value: ScaledComplex) -> str:
    """Render ``a + bi``; huge or tiny scales get a decimal exponent.

    There ``value = m e^s`` prints as ``(m e^r) * 10^k``, with ``r = s - k ln
    10`` formed in exact rationals, so the mantissa keeps the digits of ``m``.
    From ``|s| = 2**53`` on, where ``ulp(s) >= 2``, it keeps none, and
    ``DomainError`` is raised.
    """
    if value.is_zero:
        return "0 + 0i"
    s = value.log_scale
    if abs(s) <= 700.0:
        return _pair_text(value.to_complex())
    if not abs(s) < _EXACT_SCALE:
        raise DomainError(f"cannot print ~exp({s:.6g}): past exp(2**53) its scale "
                          "holds no digit of its mantissa")
    from fractions import Fraction  # imported here, so no command starts slower

    k = math.floor(value.log_abs() / _LN10)
    r = Fraction(s) - k * Fraction(_LN10_DIGITS)
    return f"({_pair_text(value.mantissa * math.exp(float(r)))}) * 10^{k}"


_EVAL_FNS = {
    "G": g_tilde,
    "Gprime": g_tilde_prime,
    "F": f_tilde,
    "Fprime": f_tilde_prime,
}


def cmd_eval(args: argparse.Namespace) -> int:
    z = parse_complex(args.z)
    if args.fn == "rho":
        if z.imag != 0.0:
            raise DomainError(f"the density is evaluated on the real line, got {z}")
        value = rho(z.real)
    else:
        value = _EVAL_FNS[args.fn](z)
    print(format_value(value))
    return 0


def _write(args: argparse.Namespace, header, rows, doc, panels=None) -> int:
    """Export one command's data as ``--format`` asks: CSV ``header`` and
    ``rows``, the JSON ``doc``, or an SVG figure of ``panels``."""
    if args.format == "csv":
        text = csv_text(header, rows)
    elif args.format == "json":
        text = json_text(doc)
    else:
        text = svg_figure(args.command_line, panels)
    write_text(args.out, text)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    from .curve import CurvePoint, trace_p0

    pts = trace_p0(args.xmin, args.xmax, args.n)
    xlog = args.xmax / args.xmin > 50.0
    hs = [p.h for p in pts]
    ylog = min(hs) > 0.0 and max(hs) / min(hs) > 1e4
    boundary = []
    g_lo, g_hi = pts[0].g, pts[-1].g
    for i in range(200):
        gx = g_lo * (g_hi / g_lo) ** (i / 199)
        boundary.append((gx, -math.pi / (2.0 * gx)))
    panels = [
        {
            "series": [("h(x)", [(p.x, p.h) for p in pts])],
            "title": "curve height h(x)",
            "xlabel": "x", "ylabel": "h",
            "xlog": xlog, "ylog": ylog,
        },
        {
            "series": [
                ("p0+", [(p.g, -p.h) for p in pts]),
                ("p0-", [(-p.g, -p.h) for p in reversed(pts)]),
                ("boundary", boundary, {"dash": True, "color": "#666"}),
            ],
            "title": "planar curve and domain boundary",
            "xlabel": "Re", "ylabel": "Im",
        },
    ]
    doc = {"points": [p._asdict() for p in pts]}
    return _write(args, CurvePoint._fields, pts, doc, panels)


def cmd_density(args: argparse.Namespace) -> int:
    from .levy import levy_density

    # levy_density is even and accepts x < 0, so the grid keeps its own wall
    if not (0.0 < args.xmin < args.xmax):
        raise DomainError(
            f"bounds must be positive and ordered, got [{args.xmin}, {args.xmax}]"
        )
    if args.n < 2:
        raise DomainError(f"need at least 2 points, got {args.n}")
    grid = [
        args.xmin + (args.xmax - args.xmin) * i / (args.n - 1)
        for i in range(args.n)
    ]
    rows = [(x, levy_density(x)) for x in grid]
    ds = [d for _, d in rows]
    panels = [
        {
            "series": [("density", rows)],
            "title": "free Levy density (even in x)",
            "xlabel": "x", "ylabel": "nu",
            "ylog": max(ds) / min(ds) > 1e4,
        }
    ]
    doc = {"points": [{"x": x, "density": d} for x, d in rows]}
    return _write(args, ["x", "density"], rows, doc, panels)


def cmd_levelsets(args: argparse.Namespace) -> int:
    from .curve import trace_level_set

    try:
        levels = [float(s) for s in args.t.split(",")]
        bbox = tuple(float(s) for s in args.bbox.split(","))
    except ValueError as exc:
        raise DomainError(f"bad numeric list: {exc}") from exc
    rows, series, doc = [], [], {"levels": []}
    for t in levels:
        traces = []
        for j, tr in enumerate(trace_level_set(t, bbox, args.step)):
            pts = [(z.real, z.imag) for z in tr.points]
            rows.extend((t, tr.branch, i, x, y) for i, (x, y) in enumerate(pts))
            series.append((f"t={t:g}" if j == 0 else "", pts))
            traces.append({"branch": tr.branch, "points": pts})
        doc["levels"].append({"t": t, "traces": traces})
    panels = [
        {
            "series": series,
            "title": "level sets of Im F",
            "xlabel": "Re", "ylabel": "Im",
        }
    ]
    return _write(args, ["t", "branch", "index", "re", "im"], rows, doc, panels)


def cmd_cumulants(args: argparse.Namespace) -> int:
    from .series import _EXACT_ORDER_MAX, boolean_cumulants, free_cumulants, moments

    if args.order < 2:
        raise DomainError(f"need --order >= 2, got {args.order}")
    if args.order > 2 * _EXACT_ORDER_MAX:  # the tables hold orders 2 to 2N
        raise DomainError(f"need --order <= {2 * _EXACT_ORDER_MAX}, got {args.order}")
    n = args.order // 2
    tables = {
        "free": [str(c) for c in free_cumulants(n)],
        "boolean": [str(c) for c in boolean_cumulants(n)],
        "moments": [str(c) for c in moments(n)],
    }
    rows = []
    for name, t in tables.items():
        # cumulant tables start at order 2, the moment table at m0
        start = 0 if name == "moments" else 1
        for k, c in enumerate(t):
            rows.append((name, 2 * (k + start), c))
    return _write(args, ["table", "order", "value"], rows, tables)


def cmd_asymptotics(args: argparse.Namespace) -> int:
    from .curve import solve_H
    from .series import (
        eval_g_asym_infinity,
        eval_g_asym_zero,
        eval_h_asym_infinity,
        eval_h_asym_zero,
    )

    zero = args.regime == "zero"
    rows = []
    for x in (1e-3, 1e-4, 1e-5, 1e-6) if zero else (6.0, 8.0, 10.0, 12.0):
        pt = solve_H(x)
        if zero:
            ga, ha = eval_g_asym_zero(x), eval_h_asym_zero(x)
        else:
            ga, ha = eval_g_asym_infinity(x, 3), eval_h_asym_infinity(x, 3).to_complex().real
        row = {
            "x": x,
            "g_solver": pt.g, "g_asym": ga,
            "g_rel_err": abs(pt.g - ga) / pt.g,
            "h_solver": pt.h, "h_asym": ha,
            "h_rel_err": abs(pt.h - ha) / pt.h,
        }
        if zero:
            row["gh_defect"] = abs(pt.g * pt.h - math.pi / 2.0)
        rows.append(row)
    panels = [
        {
            "series": [
                ("h rel err", [(r["x"], r["h_rel_err"]) for r in rows]),
                ("g rel err", [(r["x"], r["g_rel_err"]) for r in rows]),
            ],
            "title": f"solver vs {args.regime} asymptotics",
            "xlabel": "x", "ylabel": "relative error",
            "xlog": zero, "ylog": True,
        }
    ]
    doc = {"regime": args.regime, "rows": rows}
    return _write(args, list(rows[0]), [tuple(r.values()) for r in rows], doc, panels)


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_profile

    report = run_profile(args.profile)
    write_text(args.out, json_text(report))
    return 0 if report["all_passed"] else 1


def _add_export_flags(p: argparse.ArgumentParser, default: str = "csv",
                      formats=("csv", "json", "svg")) -> None:
    """``--format`` and ``--out`` of a data command, after its own flags."""
    p.add_argument("--format", default=default, choices=formats)
    p.add_argument("--out", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freenormal",
        description=(
            "Analytic continuation of the Gaussian Cauchy transform, its "
            "boundary curve, and the free Levy measure."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate one transform at one point")
    p.add_argument("--fn", required=True,
                   choices=["G", "Gprime", "F", "Fprime", "rho"])
    p.add_argument("--z", required=True, help='complex number, e.g. "1.5-0.2i"')

    for name, (x0, x1, n0) in {
        "curve": (0.01, 10.0, 400),
        "density": (0.2, 5.0, 200),
    }.items():
        p = sub.add_parser(name, help=f"export {name} data")
        p.add_argument("--xmin", type=float, default=x0)
        p.add_argument("--xmax", type=float, default=x1)
        p.add_argument("--n", type=int, default=n0)
        _add_export_flags(p)

    p = sub.add_parser("levelsets", help="trace level sets of Im F")
    p.add_argument("--t", default="0,0.1,0.4,0.7,1,1.3",
                   help="comma-separated level values")
    p.add_argument("--bbox", default="-3.2,3.2,-2.2,2.2",
                   help="re_min,re_max,im_min,im_max")
    p.add_argument("--step", type=float, default=0.08)
    _add_export_flags(p)

    p = sub.add_parser("cumulants", help="exact cumulant and moment tables")
    p.add_argument("--order", type=int, default=8)
    _add_export_flags(p, "json", ("csv", "json"))

    p = sub.add_parser("asymptotics", help="solver vs asymptotic formulas")
    p.add_argument("--regime", default="zero", choices=["zero", "infinity"])
    _add_export_flags(p)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--profile", default="full", choices=["fast", "full"])
    p.add_argument("--out", default=None)
    return parser


_DISPATCH = {
    "eval": cmd_eval,
    "curve": cmd_curve,
    "density": cmd_density,
    "levelsets": cmd_levelsets,
    "cumulants": cmd_cumulants,
    "asymptotics": cmd_asymptotics,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.command_line = "freenormal " + " ".join(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except FreeNormalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
