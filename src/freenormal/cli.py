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
from .scaled import ScaledComplex
from .transforms import f_tilde, f_tilde_prime, g_tilde, g_tilde_prime, rho

__all__ = ["main", "parse_complex", "format_value"]

_LN10 = math.log(10.0)


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` (also plain ``a``, ``bi``, ``i``)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise DomainError("empty complex literal")
    try:
        if s[-1] == "i":
            body = s[:-1]
            split = -1
            for k in range(1, len(body)):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    split = k
            if split < 0:
                re_part, im_part = "0", body
            else:
                re_part, im_part = body[:split], body[split:]
            if im_part in ("", "+"):
                im_part = "1"
            elif im_part == "-":
                im_part = "-1"
            return complex(float(re_part), float(im_part))
        return complex(float(s), 0.0)
    except ValueError as exc:
        raise DomainError(f"could not parse complex literal {text!r}") from exc


def format_value(value: ScaledComplex) -> str:
    """Render ``a + bi``; huge or tiny scales get a decimal exponent."""
    if value.is_zero:
        return "0 + 0i"
    if abs(value.log_scale) > 700.0:
        k = math.floor(value.log_abs() / _LN10)
        m = (value / ScaledComplex.exp_of(complex(k * _LN10, 0.0))).to_complex()
        re, im = m.real + 0.0, m.imag + 0.0
        sign = "+" if im >= 0 else "-"
        return f"({re:.15g} {sign} {abs(im):.15g}i) * 10^{k}"
    v = value.to_complex()
    re, im = v.real + 0.0, v.imag + 0.0
    sign = "+" if im >= 0 else "-"
    return f"{re:.15g} {sign} {abs(im):.15g}i"


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


def cmd_curve(args: argparse.Namespace) -> int:
    from .curve import trace_p0

    pts = trace_p0(args.xmin, args.xmax, args.n)
    if args.format == "csv":
        text = csv_text(
            ["x", "g", "h", "residual"],
            [(p.x, p.g, p.h, p.residual) for p in pts],
        )
    elif args.format == "json":
        text = json_text(
            {
                "points": [
                    {"x": p.x, "g": p.g, "h": p.h, "residual": p.residual}
                    for p in pts
                ]
            }
        )
    else:
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
        text = svg_figure(args.command_line, panels)
    write_text(args.out, text)
    return 0


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
    if args.format == "csv":
        text = csv_text(["x", "density"], rows)
    elif args.format == "json":
        text = json_text(
            {"points": [{"x": x, "density": d} for x, d in rows]}
        )
    else:
        ds = [d for _, d in rows]
        ylog = max(ds) / min(ds) > 1e4
        panels = [
            {
                "series": [("density", rows)],
                "title": "free Levy density (even in x)",
                "xlabel": "x", "ylabel": "nu",
                "ylog": ylog,
            }
        ]
        text = svg_figure(args.command_line, panels)
    write_text(args.out, text)
    return 0


def cmd_levelsets(args: argparse.Namespace) -> int:
    from .curve import trace_level_set

    try:
        levels = [float(s) for s in args.t.split(",")]
        bbox = tuple(float(s) for s in args.bbox.split(","))
    except ValueError as exc:
        raise DomainError(f"bad numeric list: {exc}") from exc
    if len(bbox) != 4:
        raise DomainError(f"bbox needs 4 entries, got {args.bbox!r}")
    results = [(t, trace_level_set(t, bbox, args.step)) for t in levels]
    if args.format == "csv":
        rows = []
        for t, traces in results:
            for tr in traces:
                for i, z in enumerate(tr.points):
                    rows.append((t, tr.branch, i, z.real, z.imag))
        text = csv_text(["t", "branch", "index", "re", "im"], rows)
    elif args.format == "json":
        text = json_text(
            {
                "levels": [
                    {
                        "t": t,
                        "traces": [
                            {
                                "branch": tr.branch,
                                "points": [[z.real, z.imag] for z in tr.points],
                            }
                            for tr in traces
                        ],
                    }
                    for t, traces in results
                ]
            }
        )
    else:
        series = []
        for t, traces in results:
            for j, tr in enumerate(traces):
                label = f"t={t:g}" if j == 0 else ""
                series.append(
                    (label, [(z.real, z.imag) for z in tr.points])
                )
        panels = [
            {
                "series": series,
                "title": "level sets of Im F",
                "xlabel": "Re", "ylabel": "Im",
            }
        ]
        text = svg_figure(args.command_line, panels)
    write_text(args.out, text)
    return 0


def cmd_cumulants(args: argparse.Namespace) -> int:
    from .series import boolean_cumulants, free_cumulants, moments

    n = args.order // 2
    tables = {
        "free": free_cumulants(n),
        "boolean": boolean_cumulants(n),
        "moments": moments(n),
    }
    if args.format == "json":
        text = json_text(
            {name: [str(c) for c in t.coefficients] for name, t in tables.items()}
        )
    else:
        rows = []
        for name, t in tables.items():
            # cumulant tables start at order 2, the moment table at m0
            start = 0 if name == "moments" else 1
            for k, c in enumerate(t.coefficients):
                rows.append((name, 2 * (k + start), str(c)))
        text = csv_text(["table", "order", "value"], rows)
    write_text(args.out, text)
    return 0


def cmd_asymptotics(args: argparse.Namespace) -> int:
    from .curve import solve_H
    from .series import (
        eval_g_asym_infinity,
        eval_g_asym_zero,
        eval_h_asym_infinity,
        eval_h_asym_zero,
    )

    rows = []
    if args.regime == "zero":
        for x in (1e-3, 1e-4, 1e-5, 1e-6):
            pt = solve_H(x)
            g0, h0 = eval_g_asym_zero(x), eval_h_asym_zero(x)
            rows.append(
                {
                    "x": x,
                    "g_solver": pt.g, "g_asym": g0,
                    "g_rel_err": abs(pt.g - g0) / pt.g,
                    "h_solver": pt.h, "h_asym": h0,
                    "h_rel_err": abs(pt.h - h0) / pt.h,
                    "gh_defect": abs(pt.g * pt.h - math.pi / 2.0),
                }
            )
    else:
        for x in (6.0, 8.0, 10.0, 12.0):
            pt = solve_H(x)
            gi = eval_g_asym_infinity(x, 3)
            hi = eval_h_asym_infinity(x, 3).to_complex().real
            rows.append(
                {
                    "x": x,
                    "g_solver": pt.g, "g_asym": gi,
                    "g_rel_err": abs(pt.g - gi) / pt.g,
                    "h_solver": pt.h, "h_asym": hi,
                    "h_rel_err": abs(pt.h - hi) / pt.h,
                }
            )
    if args.format == "json":
        text = json_text({"regime": args.regime, "rows": rows})
    elif args.format == "csv":
        header = list(rows[0].keys())
        text = csv_text(header, [tuple(r[k] for k in header) for r in rows])
    else:
        panels = [
            {
                "series": [
                    ("h rel err", [(r["x"], r["h_rel_err"]) for r in rows]),
                    ("g rel err", [(r["x"], r["g_rel_err"]) for r in rows]),
                ],
                "title": f"solver vs {args.regime} asymptotics",
                "xlabel": "x", "ylabel": "relative error",
                "xlog": args.regime == "zero", "ylog": True,
            }
        ]
        text = svg_figure(args.command_line, panels)
    write_text(args.out, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_profile

    report = run_profile(args.profile)
    write_text(args.out, json_text(report))
    return 0 if report["all_passed"] else 1


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
        p.add_argument("--format", default="csv", choices=["csv", "json", "svg"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("levelsets", help="trace level sets of Im F")
    p.add_argument("--t", default="0,0.1,0.4,0.7,1,1.3",
                   help="comma-separated level values")
    p.add_argument("--bbox", default="-3.2,3.2,-2.2,2.2",
                   help="re_min,re_max,im_min,im_max")
    p.add_argument("--step", type=float, default=0.08)
    p.add_argument("--format", default="csv", choices=["csv", "json", "svg"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("cumulants", help="exact cumulant and moment tables")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--format", default="json", choices=["csv", "json"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("asymptotics", help="solver vs asymptotic formulas")
    p.add_argument("--regime", default="zero", choices=["zero", "infinity"])
    p.add_argument("--format", default="csv", choices=["csv", "json", "svg"])
    p.add_argument("--out", default=None)

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
