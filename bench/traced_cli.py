"""Runs one ``freenormal`` command with the benchmark's tracer installed.

Usage: ``python3 bench/traced_cli.py SUMMARY.json <freenormal arguments>``.
The command's output goes to standard output as usual; the trace summary
and the spans of the process are written to ``SUMMARY.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import freenormal.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(workloads.zone_of, workloads.band_of)
    tracer.install()
    tracer.keep_spans = True
    rc = freenormal.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps({"trace": tracer.summary(), "spans": tracer.spans}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
