"""Spans and counts around the program's public functions, from outside.

``install()`` replaces every public function of the layers (``scaled``,
``transforms``, ``series``, ``curve``, ``ode``, ``levy``, ``verify``,
``output``, ``cli``) at every place a ``freenormal`` module binds it -- so
``curve.f_tilde`` is wrapped as well as ``transforms.f_tilde`` -- with a
wrapper that records a span (name, start, end, parent) and counts.  A span's
self time is its duration minus that of its child spans.  Aggregates are
kept for the whole process; the spans themselves are kept in memory only
while ``Tracer.keep_spans`` is set, and written out by the caller at the end.

Timings are histogrammed on a 1 % log grid, so medians from several
processes merge exactly.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
#: spans kept per process; the aggregates always cover every call
SPAN_CAP = 20000

# layer -> public functions that get a span
SPANNED = {
    "transforms": ("g_tilde", "g_tilde_prime", "f_tilde", "f_tilde_prime", "rho",
                   "g_tilde_contour_oracle", "contour_moment"),
    "series": ("moments", "boolean_cumulants", "free_cumulants", "h_infinity_coefficients",
               "f_infinity_coefficients", "eval_g_asym_infinity", "eval_h_asym_infinity",
               "eval_g_asym_zero", "eval_h_asym_zero", "eval_f_asym_zero"),
    "curve": ("solve_H", "trace_p0", "f_of", "in_omega", "trace_level_set"),
    "ode": ("make_anchor", "integrate", "monotonicity_certificate"),
    "levy": ("levy_density", "voiculescu", "tau_total_mass", "semicircular_component_check"),
    "verify": ("run_profile",),
    "output": ("csv_text", "json_text", "svg_figure", "write_text"),
}
# the cached exact-table builders behind the public tables and the
# asymptotic evaluators; their time is ``series.tables_s``
TABLE_BUILDERS = ("_moment_list", "_boolean_list", "_free_list", "_a_list", "_c_list")
SERIES_EVALS = ("eval_g_asym_infinity", "eval_h_asym_infinity", "eval_g_asym_zero",
                "eval_h_asym_zero", "eval_f_asym_zero")
# span entered while another is open -> counter
ANCESTOR_COUNTS = {
    "transforms.f_tilde": ("curve.solve_H", "curve.solve_H.evals"),
    "transforms.f_tilde_prime": ("curve.solve_H", "curve.solve_H.evals"),
    "curve.solve_H": ("levy.tau_total_mass", "levy.tau_total_mass.solve_H_calls"),
}
CLI_SUBCOMMANDS = ("eval", "curve", "density", "levelsets", "cumulants", "asymptotics", "verify")


def hist_bin(seconds: float) -> int:
    return int(math.floor(math.log(max(seconds, 1e-9) * 1e6) * 100.0))


def hist_median_us(hist: dict) -> float:
    """Median of a 1 %-log histogram, in microseconds (0 when empty)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    seen = 0
    for b in sorted(hist, key=int):
        seen += hist[b]
        if 2 * seen >= total:
            return math.exp((int(b) + 0.5) / 100.0)
    raise AssertionError("unreachable")


class Tracer:
    """Spans and counts of one process; ``zone_of`` and ``band_of`` key the
    ``g_tilde`` and ``solve_H`` latency histograms by argument."""

    def __init__(self, zone_of, band_of):
        self.zone_of = zone_of
        self.band_of = band_of
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.next_id = 0
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.tables_s = 0.0
        self.self_s: dict = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far except the table-building time."""
        self.tables_s += self._table_self()
        self.calls: Counter = Counter()
        self.self_s = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.hists: defaultdict = defaultdict(Counter)
        self.active: Counter = Counter()

    def _table_self(self) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith("series.table."))

    # ---- wrappers ----

    def span(self, name: str, fn, site: str | None = None, key=None):
        tr = self
        rule = ANCESTOR_COUNTS.get(name)
        counts_bytes = name == "output.write_text"

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if site is not None:
                tr.counts[site] += 1
            if rule is not None and tr.active[rule[0]]:
                tr.counts[rule[1]] += 1
            if counts_bytes:
                tr.counts["output.bytes"] += len(args[1])
            sid = tr.next_id
            tr.next_id += 1
            frame = [sid, name, _perf(), 0.0]
            parent = tr.stack[-1][0] if tr.stack else -1
            tr.stack.append(frame)
            tr.active[name] += 1
            try:
                return fn(*args, **kw)
            finally:
                end = _perf()
                tr.stack.pop()
                tr.active[name] -= 1
                dur = end - frame[2]
                if tr.stack:
                    tr.stack[-1][3] += dur
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[3]
                tr.total_s[name] += dur
                if key is not None:
                    k = key(args)
                    if k is not None:
                        tr.hists[f"{name}.{k}"][hist_bin(dur)] += 1
                if tr.keep_spans and len(tr.spans) < SPAN_CAP:
                    tr.spans.append((sid, name, frame[2], end, parent))

        return wrapper

    def counted(self, name: str, fn):
        """A wrapper that only counts calls (for very frequent cheap calls)."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            tr.counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    # ---- installation ----

    def install(self) -> None:
        """Wrap the public functions in every loaded ``freenormal`` module."""
        import freenormal.cli  # noqa: F401  (load every module before binding)
        from freenormal import scaled, series, verify

        mods = {n: m for n, m in sys.modules.items()
                if n == "freenormal" or n.startswith("freenormal.")}
        wrappers = {}
        for layer, names in SPANNED.items():
            home = mods[f"freenormal.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = (f"{layer}.{fname}", fn)
        for fname in TABLE_BUILDERS:
            fn = getattr(series, fname)
            wrappers[id(fn)] = (f"series.table.{fname}", fn)
        classify = mods["freenormal.transforms"].classify_domain
        keys = {
            "transforms.g_tilde": lambda a: self.zone_of(complex(a[0])) if a else None,
            "curve.solve_H": lambda a: self.band_of(float(a[0])) if a else None,
        }
        for mname, mod in mods.items():
            in_ode = mname == "freenormal.ode"
            for attr, val in list(vars(mod).items()):
                if val is classify:
                    setattr(mod, attr, self.counted("transforms.classify_domain.calls", val))
                elif callable(val) and id(val) in wrappers:
                    name, fn = wrappers[id(val)]
                    site = "ode.transform_calls" if in_ode and name.startswith("transforms.") else None
                    setattr(mod, attr, self.span(name, fn, site, keys.get(name)))
        # containers that hold function objects
        cli = mods["freenormal.cli"]
        transforms = mods["freenormal.transforms"]
        cli._EVAL_FNS = {k: getattr(transforms, f.__name__) for k, f in cli._EVAL_FNS.items()}
        cli._DISPATCH = {k: self.span(f"cli.{k}", f) for k, f in cli._DISPATCH.items()}
        verify.CRITERIA = tuple(
            (idx, name, self.span(f"verify.criterion_{idx}", fn), limit)
            for idx, name, fn, limit in verify.CRITERIA
        )
        orig_init = scaled.ScaledComplex.__init__
        tr = self

        def init(obj, *args, **kw):
            tr.counts["scaled.objects"] += 1
            orig_init(obj, *args, **kw)

        scaled.ScaledComplex.__init__ = init

    # ---- results ----

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "hists": {k: dict(v) for k, v in self.hists.items()},
            "tables_s": self.tables_s + self._table_self(),
        }
