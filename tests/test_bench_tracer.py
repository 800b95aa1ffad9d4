"""The benchmark tracer's hooks name functions that exist.

``bench/tracer.py`` wraps the public functions by name
(``getattr(home, fname)``), so renaming or deleting one breaks
``bench/run.py --trace 1`` while every other test passes.  The tracer is
loaded from its file, as the benchmark loads it, and only read here.
"""

import importlib.util
import sys
from pathlib import Path

import freenormal.cli  # noqa: F401  (loads every module, as the tracer does)
from freenormal import cli, series, transforms, verify

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_spanned_name_exists_where_the_tracer_looks():
    tracer = _tracer()
    missing = [f"{layer}.{fname}"
               for layer, names in tracer.SPANNED.items()
               for fname in names
               if not callable(getattr(sys.modules[f"freenormal.{layer}"], fname,
                                       None))]
    missing += [f"series.{fname}" for fname in tracer.TABLE_BUILDERS
                if not callable(getattr(series, fname, None))]
    assert missing == []


def test_the_containers_the_tracer_rewrites_exist():
    assert callable(transforms.classify_domain)
    assert all(callable(f) for f in cli._EVAL_FNS.values())
    assert set(_tracer().CLI_SUBCOMMANDS) == set(cli._DISPATCH)
    assert all(len(row) == 4 and callable(row[2]) for row in verify.CRITERIA)
