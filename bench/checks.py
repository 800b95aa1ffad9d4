"""Verdicts on the program's outputs, against the references of ``oracles``.

``check(workload, ops, outputs)`` judges every operation of one round: an
operation fails when its output is missing, malformed or off its reference
by more than the tolerance below.  The errors of the outputs that pass are
kept per kind (``correct_digits`` is the worst of them), and properties
that span several operations (evenness, monotonicity) are checked at the
end; a violated property makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_NORMAL = 2.2250738585072014e-308

# Relative-error tolerances.  Transforms: the 1e-12 certificate on
# Xi intersect {|z| <= 30}.  Curve quantities: the solver promises a residual,
# not digits of h; just below x_hi = 6 its complex Newton keeps h
# (~1e-7 against g ~ 6) to about 3e-10 only, so 1e-8.  Above x_asymptotic
# = 30 the program returns the order-3 series, held to 1e-6.
# phi(w) = F^{-1}(w) - w loses about 2 log10|w| digits to the cancellation
# in z - w by construction; it fails when fewer than four digits survive.
TOL_TRANSFORM = 1e-12
TOL_IDENTITY = 1e-9
TOL_WITNESS = 1e-10
TOL_CURVE = 1e-8
TOL_SERIES_REGIME = 1e-6
TOL_PHI = 1e-4
TOL_TAU = 1e-6
TOL_LEVEL = 1e-9


class Checks:
    """Per-operation verdicts, worst errors and property violations."""

    def __init__(self, n_ops: int):
        self.failed = [False] * n_ops
        self.notes: list[str] = []
        self.worst_by: dict[str, float] = {}
        self.violations: list[str] = []
        # values that properties spanning several operations need
        self.density: dict[float, float] = {}
        self.boundary: dict[float, float] = {}
        self.references: dict = {}

    @property
    def worst(self) -> float:
        return max(self.worst_by.values(), default=0.0)

    def error(self, kind: str, err: float) -> None:
        """Record the error of an output that passed its check."""
        self.worst_by[kind] = max(self.worst_by.get(kind, 0.0), err)

    def violate(self, why: str) -> None:
        self.violations.append(why)


def check(workload: str, ops: list, outs: list) -> Checks:
    ck = Checks(len(ops))
    judge = {"transform_eval": _transform_op, "levy_measure": _levy_op,
             "cli_figures": _cli_op}[workload]
    for i, (op, out) in enumerate(zip(ops, outs)):
        try:
            why = judge(ck, op, out)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails its operation
            why = f"unverifiable output: {type(exc).__name__}: {exc}"
        if why:
            ck.failed[i] = True
            ck.notes.append(f"op {i} {_describe(op)}: {why}")
    if workload == "levy_measure":
        _levy_properties(ck)
    return ck


def _describe(op: dict) -> str:
    if "args" in op:
        return " ".join(op["args"])
    return json.dumps({k: v for k, v in op.items() if k != "known_failing"})


def _program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freenormal
    return freenormal


def _rel(got, ref) -> float:
    with mp.workdps(30):
        return float(abs(mp.mpmathify(got) - ref) / abs(ref))


def _curve_seed(x: float) -> complex:
    """The program's curve point as a seed; the large-x form if it has none."""
    try:
        return _program().solve_H(x).z
    except Exception:  # noqa: BLE001 - any failure of the program leaves the fallback seed
        return complex(x + 1.0 / x, 0.0)


def _density_reference(ck: Checks, a: float):
    if a not in ck.references:
        g, h = oracles.curve_point(a, _curve_seed(a))
        with mp.workdps(30):
            ck.references[a] = h / (mp.pi * mp.mpf(a) ** 2)
    return ck.references[a]


# --------------------------------------------------------------------------
# transform_eval
# --------------------------------------------------------------------------

def _transform_op(ck: Checks, op, out):
    if "error" in out:
        return f"raised {out['error']}: {out['message']}"
    v = out["value"]
    errs = oracles.transform_errors(complex(*op["z"]), v)
    errs["rho"] = oracles.rho_error(op["r"], v["rho"])
    bad = {k: e for k, e in errs.items()
           if not e <= (TOL_IDENTITY if k == "identity" else TOL_TRANSFORM)}
    if bad:
        return f"errors {bad}"
    for k in ("g", "gp", "f", "fp", "rho"):
        ck.error(f"transforms.{k}", errs[k])
    return None


# --------------------------------------------------------------------------
# levy_measure
# --------------------------------------------------------------------------

def _levy_op(ck: Checks, op, out):
    kind = op["kind"]
    val = out.get("value")
    if kind == "levy_density":
        x = op["x"]
        ref = _density_reference(ck, abs(x))
        if ref < MIN_NORMAL:
            # no binary64 value is right here: only a DomainError is
            if out.get("error") != "DomainError":
                return f"gave {out}, the true {mp.nstr(ref, 5)} is no normal float"
            return None
        if val is None or not val >= MIN_NORMAL:
            return f"gave {out}"
        err = _rel(val, ref)
        if not err <= (TOL_SERIES_REGIME if abs(x) > 30.0 else TOL_CURVE):
            return f"relative error {err:.3g}"
        ck.error("levy_density", err)
        ck.density[x] = val
    elif kind == "f_of":
        if val is None:
            return f"raised {out}"
        a = abs(op["x"])
        err = _rel(val, oracles.boundary_f(a, -val))
        if not err <= TOL_CURVE:
            return f"relative error {err:.3g}"
        ck.error("f_of", err)
        ck.boundary[a] = val
    elif kind == "in_omega":
        z = complex(*op["z"])
        ref = oracles.boundary_f(abs(z.real), -_program().f_of(z.real))
        if val is not (z.imag > ref):
            return f"gave {out}, the boundary is at {mp.nstr(ref, 8)}"
    elif kind == "voiculescu":
        if val is None:
            return f"raised {out}"
        w, phi = complex(*op["w"]), complex(*val)
        ref = oracles.voiculescu(w, phi + w)
        err = _rel(phi, ref)
        if not err <= TOL_PHI:
            return f"gave {phi}: relative error {err:.3g}"
        ck.error("voiculescu", err)
    elif kind == "semicircular_component_check":
        if val is None or not val >= MIN_NORMAL:
            return f"gave {out}"
        err = _rel(val, oracles.semicircular(op["T"]))
        if not err <= TOL_WITNESS:
            return f"relative error {err:.3g}"
        ck.error("semicircular", err)
    elif kind == "tau_total_mass":
        # Im phi(i) = -tau(R); phi(i) ~ -0.697 i
        ref = -oracles.voiculescu(1j, 0.3j).imag
        if val is None or not abs(val - ref) <= TOL_TAU:
            return f"gave {out}, -Im phi(i) is {mp.nstr(ref, 15)}"
        ck.error("tau_total_mass", _rel(val, ref))
    else:
        return f"unknown operation {kind}"
    return None


def _levy_properties(ck: Checks) -> None:
    """The density is even and |x| times it strictly decreasing; f increasing."""
    for x, d in ck.density.items():
        if x > 0 and -x in ck.density and ck.density[-x] != d:
            ck.violate(f"levy_density({x}) != levy_density({-x})")
    mags = sorted((x, d) for x, d in ck.density.items() if x > 0)
    for (a, da), (b, db) in zip(mags, mags[1:]):
        if not b * db < a * da:
            ck.violate(f"|x| density not decreasing between {a} and {b}")
    fs = sorted(ck.boundary.items())
    for (a, fa), (b, fb) in zip(fs, fs[1:]):
        if not fb > fa:
            ck.violate(f"f not increasing in |x| between {a} and {b}")


# --------------------------------------------------------------------------
# cli_figures
# --------------------------------------------------------------------------

def _options(args) -> dict:
    """``--flag value`` and ``--flag=value`` pairs of a command line."""
    opt, it = {}, iter(args)
    for a in it:
        key, eq, val = a.partition("=")
        opt[key] = val if eq else next(it)
    return opt


def _cli_op(ck: Checks, op, out):
    if out["rc"] != 0:
        return f"exited {out['rc']}: {out['stderr'][-300:]}"
    return _CLI[op["name"]](ck, _options(op["args"][1:]), out["stdout"])


def _cli_curve(ck, opt, text):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "g", "h", "residual"]:
        return f"header {rows[0]}"
    pts = [tuple(float(c) for c in r) for r in rows[1:]]
    n, lo, hi = int(opt["--n"]), float(opt["--xmin"]), float(opt["--xmax"])
    if len(pts) != n:
        return f"{len(pts)} rows, expected {n}"
    worst = 0.0
    for k, (x, g, h, res) in enumerate(pts):
        want_x = hi if k == n - 1 else lo * (hi / lo) ** (k / (n - 1))
        if not abs(x - want_x) <= 1e-13 * want_x:
            return f"row {k}: x = {x}, the grid has {want_x}"
        if not (g > 0 and h > 0 and g * h < math.pi / 2 and res <= 1e-10 * max(1.0, x)):
            return f"row {k}: not a curve point: x={x} g={g} h={h} residual={res}"
        rg, rh = oracles.curve_point(x, complex(g, -h))
        worst = max(worst, _rel(g, rg), _rel(h, rh))
    for (x, g, h, _), (x2, g2, h2, _) in zip(pts, pts[1:]):
        if not (g2 > g and h2 < h):
            ck.violate(f"curve export: g or h not monotone between x = {x} and {x2}")
    if not worst <= TOL_CURVE:
        return f"relative error {worst:.3g}"
    ck.error("cli.curve", worst)
    return None


def _cli_density(ck, opt, text):
    pts = json.loads(text)["points"]
    n, lo, hi = int(opt["--n"]), float(opt["--xmin"]), float(opt["--xmax"])
    if len(pts) != n:
        return f"{len(pts)} points, expected {n}"
    worst = 0.0
    for k, p in enumerate(pts):
        x, d = p["x"], p["density"]
        if not abs(x - (lo + (hi - lo) * k / (n - 1))) <= 1e-13 * hi:
            return f"point {k}: x = {x} is off the grid"
        if not d >= MIN_NORMAL:
            return f"density({x}) = {d}"
        worst = max(worst, _rel(d, _density_reference(ck, x)))
    for a, b in zip(pts, pts[1:]):
        if not b["x"] * b["density"] < a["x"] * a["density"]:
            ck.violate(f"density export: x density not decreasing at x = {b['x']}")
    if not worst <= TOL_CURVE:
        return f"relative error {worst:.3g}"
    ck.error("cli.density", worst)
    return None


def _cli_levelsets(ck, opt, text):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["t", "branch", "index", "re", "im"]:
        return f"header {rows[0]}"
    levels = set()
    worst = 0.0
    for r in rows[1:]:
        t = float(r[0])
        if r[1] not in ("left", "right"):
            return f"branch {r[1]!r}"
        levels.add(t)
        worst = max(worst, oracles.im_f_deviation(complex(float(r[3]), float(r[4])), t))
    want = {float(s) for s in opt["--t"].split(",")}
    if levels != want:
        return f"levels {sorted(levels)}, expected {sorted(want)}"
    if not worst <= TOL_LEVEL:
        return f"a point is {worst:.3g} off its level"
    return None


def _cli_asymptotics(ck, opt, text):
    if opt["--format"] == "svg":
        root = ET.fromstring(text.encode())
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        if len(lines) != 2:
            return f"{len(lines)} polylines, expected 2"
        for el in lines:
            xy = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
            # the series gets better with x: the plotted errors fall (the
            # screen y grows) as x grows
            if len(xy) != 4 or not all(b[0] > a[0] and b[1] > a[1] for a, b in zip(xy, xy[1:])):
                ck.violate(f"asymptotics svg: error not falling with x: {xy}")
        return None
    rows = list(csv.DictReader(io.StringIO(text)))
    if [float(r["x"]) for r in rows] != [1e-3, 1e-4, 1e-5, 1e-6]:
        return "unexpected abscissas"
    worst = 0.0
    for r in rows:
        x = float(r["x"])
        g, h = float(r["g_solver"]), float(r["h_solver"])
        rg, rh = oracles.curve_point(x, complex(g, -h))
        g0, h0 = oracles.small_x_closed_forms(x)
        worst = max(worst, _rel(g, rg), _rel(h, rh))
        if not max(_rel(float(r["g_asym"]), g0), _rel(float(r["h_asym"]), h0)) <= 1e-13:
            return f"closed forms at x = {x} are off"
        if not abs(float(r["h_rel_err"]) - abs(h - float(r["h_asym"])) / h) <= 1e-12:
            return f"h_rel_err at x = {x} is inconsistent"
    if not worst <= TOL_CURVE:
        return f"relative error {worst:.3g}"
    ck.error("cli.asymptotics", worst)
    return None


def _cli_cumulants(ck, opt, text):
    tab = json.loads(text)
    n = int(opt["--order"])
    want = {
        "free": oracles.free_cumulants(n)[1::2],
        "boolean": oracles.boolean_cumulants(n)[1::2],
        "moments": oracles.gaussian_moments(n)[0:n:2],
    }
    if {k: [Fraction(s) for s in tab[k]] for k in want} != want:
        return f"tables {tab} differ from the recursions"
    return None


_EVAL_KEYS = {"G": "g", "Gprime": "gp", "F": "f", "Fprime": "fp"}


def _cli_eval(ck, opt, text):
    m = re.fullmatch(r"\(?(\S+) ([+-]) (\S+)i\)?(?: \* 10\^(-?\d+))?", text.strip())
    if not m:
        return f"unreadable value {text!r}"
    re_part, sign, im_part, k = m.groups()
    _program()
    from freenormal.cli import parse_complex
    z = parse_complex(opt["--z"])
    if opt["--fn"] == "rho":
        ref = oracles.rho(z.real)
        scale = abs(ref)
    else:
        ref, scale = oracles.transforms(z)[_EVAL_KEYS[opt["--fn"]]]
    with mp.workdps(30):
        got = mp.mpc(float(re_part), float(sign + im_part)) * mp.mpf(10) ** int(k or 0)
        err = float(abs(got - ref) / scale)
    if not err <= TOL_TRANSFORM:
        return f"relative error {err:.3g}"
    ck.error("cli.eval", err)
    return None


def _cli_verify(ck, opt, text):
    rep = json.loads(text)
    crit = rep["criteria"]
    if not rep["all_passed"] or len(crit) != 12 or not all(c["passed"] for c in crit):
        return "a criterion failed"
    tau = crit[9]
    phi_i = oracles.voiculescu(1j, complex(*tau["phi_at_i"]) + 1j)
    if not abs(tau["tau_mass"] + phi_i.imag) <= TOL_TAU:
        return f"tau mass {tau['tau_mass']}, -Im phi(i) is {mp.nstr(-phi_i.imag, 15)}"
    ck.error("cli.verify", max(_rel(complex(*tau["phi_at_i"]), phi_i),
                               _rel(tau["tau_mass"], -phi_i.imag)))
    return None


_CLI = {
    "curve": _cli_curve, "density": _cli_density, "levelsets": _cli_levelsets,
    "asymptotics": _cli_asymptotics, "cumulants": _cli_cumulants,
    "eval": _cli_eval, "verify": _cli_verify,
}
