"""One fresh interpreter that sets a workload up and, when told, runs it.

The parent (``run.py``) times this process from its start until it prints
``ready``: that is one set-up sample.  It then sends ``quit`` or
``go <seconds>``; on ``go`` the worker runs whole rounds of the workload's
operations, one at a time, until ``seconds`` have passed, and writes the
outputs of the first round, every operation's latency, every round's wall
time and its peak memory to the ``--out`` file.  Later rounds must repeat
the first round's outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

_perf = time.perf_counter


def ser(v):
    """JSON form of a program value; ScaledComplex keeps its exact parts."""
    if hasattr(v, "log_scale"):
        m = v.mantissa
        return [m.real, m.imag, v.log_scale]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _guard(fn):
    """Run one call; an exception is an output too (the checks judge it)."""
    try:
        return {"value": ser(fn())}
    except Exception as exc:  # noqa: BLE001 - every failure is reported, none stops the run
        return {"error": type(exc).__name__, "message": str(exc)[:300]}


# --------------------------------------------------------------------------
# set-up and operations per workload
# --------------------------------------------------------------------------

def setup_transform_eval():
    import freenormal.transforms  # noqa: F401


def warm_transform_eval():
    import freenormal
    for z in (0.5 + 0.5j, 5.0 + 0.1j, 3.0 + 5.0j, 20.0 + 5.0j, 0.05 - 10.0j):
        freenormal.transforms.f_tilde_prime(z)
        freenormal.transforms.g_tilde_prime(z)
    freenormal.transforms.rho(1.0)


def op_transform_eval(op):
    from freenormal import transforms as T
    z = complex(*op["z"])

    def call():
        return {"g": ser(T.g_tilde(z)), "gp": ser(T.g_tilde_prime(z)),
                "f": ser(T.f_tilde(z)), "fp": ser(T.f_tilde_prime(z)),
                "rho": ser(T.rho(op["r"]))}
    return lambda: _guard(call)


def setup_levy_measure():
    import freenormal.curve  # noqa: F401
    import freenormal.levy  # noqa: F401


def warm_levy_measure():
    import freenormal
    for x in (0.01, 1.0, 10.0, 33.0):
        freenormal.levy.levy_density(x)
    freenormal.curve.f_of(1.0)
    freenormal.curve.in_omega(1.0 - 0.5j)
    freenormal.levy.voiculescu(1.0 + 1.0j)
    freenormal.levy.semicircular_component_check(1.0)


def op_levy_measure(op):
    import freenormal
    L, C = freenormal.levy, freenormal.curve
    kind = op["kind"]
    if kind == "levy_density":
        return lambda: _guard(lambda: L.levy_density(op["x"]))
    if kind == "f_of":
        return lambda: _guard(lambda: C.f_of(op["x"]))
    if kind == "in_omega":
        return lambda: _guard(lambda: C.in_omega(complex(*op["z"])))
    if kind == "voiculescu":
        return lambda: _guard(lambda: L.voiculescu(complex(*op["w"])))
    if kind == "semicircular_component_check":
        return lambda: _guard(lambda: L.semicircular_component_check(op["T"]))
    if kind == "tau_total_mass":
        return lambda: _guard(lambda: L.tau_total_mass(op["tol"]))
    raise ValueError(f"unknown operation {kind}")


def setup_cli_figures():
    import freenormal.cli  # noqa: F401


def warm_cli_figures():
    pass


class CliRunner:
    """Runs CLI commands one at a time, each in a fresh interpreter.

    The commands inherit this process's environment, whose ``PYTHONPATH``
    holds the source tree (``run.py`` sets it).
    """

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.counter = 0

    def command(self, op, traced: bool):
        def call():
            if traced:
                self.counter += 1
                out = self.trace_dir / f"cmd-{self.counter}.json"
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(out), *op["args"]]
            else:
                argv = [sys.executable, "-m", "freenormal.cli", *op["args"]]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}
        return call


WORKLOADS = {
    "transform_eval": (setup_transform_eval, warm_transform_eval, op_transform_eval),
    "levy_measure": (setup_levy_measure, warm_levy_measure, op_levy_measure),
    "cli_figures": (setup_cli_figures, warm_cli_figures, None),
}


def stable_form(workload: str, out) -> str:
    """What must repeat exactly between rounds (verify reports carry timings)."""
    if workload == "cli_figures" and out.get("stdout", "").lstrip().startswith("{"):
        try:
            rep = json.loads(out["stdout"])
        except ValueError:
            return json.dumps(out, sort_keys=True)
        if isinstance(rep, dict) and "runtime_seconds" in rep:
            rep.pop("runtime_seconds")
            for c in rep.get("criteria", ()):
                c.pop("seconds", None)
            return json.dumps([out["rc"], rep], sort_keys=True)
    return json.dumps(out, sort_keys=True)


# --------------------------------------------------------------------------

def run_rounds(ops, calls, seconds, workload, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns the record."""
    # latencies in a flat array, so that the run's own bookkeeping hardly
    # adds to the peak memory measured
    lat, walls, first, mismatches = array("d"), [], None, 0
    t_begin = _perf()
    while True:
        if tracer is not None:
            tracer.keep_spans = not walls
        t0 = _perf()
        outs = []
        for call in calls:
            s = _perf()
            out = call()
            lat.append(_perf() - s)
            outs.append(out)
        walls.append(_perf() - t0)
        if first is None:
            first = outs
        else:
            mismatches += sum(stable_form(workload, a) != stable_form(workload, b)
                              for a, b in zip(first, outs))
        if _perf() - t_begin >= seconds:
            break
    if tracer is not None:
        tracer.keep_spans = False
    return {"rounds": len(walls), "walls": walls, "latencies": lat,
            "outputs": first, "mismatches": mismatches}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    w = args.workload
    setup, warm, make_op = WORKLOADS[w]
    setup()
    tracer = None
    if args.trace and w != "cli_figures":
        import workloads
        from tracer import Tracer
        tracer = Tracer(workloads.zone_of, workloads.band_of)
        tracer.install()
    warm()
    if tracer is not None:
        tracer.reset()
    print("ready", flush=True)
    cmd = sys.stdin.readline().split()
    if not cmd or cmd[0] != "go":
        return 0
    seconds = float(cmd[1])
    ops = json.loads(Path(args.inputs).read_text())["ops"]
    out_path = Path(args.out)

    if w == "cli_figures":
        runner = CliRunner(out_path.parent)
        if args.trace:
            # one untraced round for the per-command times, then traced rounds
            plain = run_rounds(ops, [runner.command(op, False) for op in ops], 0.0, w)
            record = run_rounds(ops, [runner.command(op, True) for op in ops], seconds, w)
            record["plain"] = {"latencies": plain["latencies"].tolist(), "walls": plain["walls"]}
        else:
            record = run_rounds(ops, [runner.command(op, False) for op in ops], seconds, w)
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        record = run_rounds(ops, [make_op(op) for op in ops], seconds, w, tracer)
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.summary()
            record["spans"] = tracer.spans
    record["latencies"] = record["latencies"].tolist()
    out_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
