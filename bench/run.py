"""Benchmark of freenormal: transform evaluation, Levy-measure solves and
figure regeneration through the command line, checked against mpmath.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload transform_eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1              # every workload, one after another

One run of one workload:

1. builds the workload's inputs from ``--seed`` (``workloads.py``);
2. starts five fresh interpreters one after another; each imports what the
   workload drives and warms up, and the time until it reports ready is one
   set-up sample (``setup_s`` is their median).  The last one runs whole
   rounds of the operations for ``--seconds`` (``worker.py``);
3. checks the outputs of the first round against references computed apart
   from the program (``oracles.py``) -- this time is in no metric;
4. prints one JSON object as the last line of standard output: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
   run (``tracer.py``) with ``--trace 1``.

Exit status 0 means the run completed, whatever the checks found; anything
else means no result (for example, no ``src/freenormal`` to run).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DIGITS_CAP = 17.0
#: seconds a worker may take to set up, and beyond --seconds to finish
WORKER_TIMEOUT = 150

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# running the program
# --------------------------------------------------------------------------

class RunError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    """Environment of every interpreter the benchmark starts: the source
    tree on the path, one thread for numerical libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workers(workload, run_dir, seconds, trace, samples):
    """Set up ``samples`` fresh workers in turn; the last one runs the rounds."""
    setup_times = []
    for k in range(samples):
        err_path = run_dir / f"worker-{k}.err"
        with open(err_path, "w") as err_file:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                 "--inputs", str(run_dir / "inputs.json"), "--out", str(run_dir / "record.json"),
                 "--trace", str(trace)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err_file,
                text=True, cwd=ROOT, env=_env(),
            )
            try:
                ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
                line = proc.stdout.readline() if ready else ""
                setup_times.append(time.perf_counter() - t0)
                if line.strip() != "ready":
                    raise RunError(f"worker did not start: {err_path.read_text()[-2000:]}")
                last = k == samples - 1
                proc.communicate(f"go {seconds}\n" if last else "quit\n",
                                 timeout=seconds + WORKER_TIMEOUT)
            except subprocess.TimeoutExpired:
                raise RunError("worker timed out") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RunError(f"worker failed: {err_path.read_text()[-2000:]}")
    record = json.loads((run_dir / "record.json").read_text())
    record["setup_times"] = setup_times
    return record


def import_times(samples: int = 3) -> tuple[float, float]:
    """``python -X importtime -c 'import freenormal.cli'``: medians of the
    cumulative import time of freenormal and of scipy.integrate (s)."""
    env = _env()
    own, sci = [], []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import freenormal.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
        if proc.returncode != 0:
            raise RunError(f"import failed: {proc.stderr[-2000:]}")
        t_own = t_sci = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 0 and name.split(".")[0] == "freenormal":
                t_own += cumulative
            if name == "scipy.integrate" and not t_sci:
                t_sci = cumulative
        own.append(t_own * 1e-6)
        sci.append(t_sci * 1e-6)
    return statistics.median(own), statistics.median(sci)


def digits(err: float) -> float:
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(record, ck) -> dict:
    lat = record["latencies"]
    return {
        "setup_s": (statistics.median(record["setup_times"]), "s"),
        "wall_s": (statistics.median(record["walls"]), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (record["maxrss_kb"] / 1024.0, "MB"),
        "correct_digits": (digits(ck.worst), "digits"),
    }


def per_layer(workload, record, ck, trace, cli_times, imports) -> dict:
    from tracer import CLI_SUBCOMMANDS, SERIES_EVALS, hist_median_us
    rounds = record["rounds"]
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    counts, hists = trace["counts"], trace["hists"]
    m = {}

    def per_round(v):
        return v / rounds

    m["scaled.objects"] = (per_round(counts.get("scaled.objects", 0)), "count")
    for f in ("g_tilde", "f_tilde", "f_tilde_prime"):
        m[f"transforms.{f}.calls"] = (per_round(calls.get(f"transforms.{f}", 0)), "count")
        m[f"transforms.{f}.self_s"] = (per_round(self_s.get(f"transforms.{f}", 0.0)), "s")
    m["transforms.classify_domain.calls"] = (per_round(counts.get("transforms.classify_domain.calls", 0)), "count")
    for zone in workloads.ZONES:
        m[f"transforms.g_tilde.p50_us.{zone}"] = (hist_median_us(hists.get(f"transforms.g_tilde.{zone}", {})), "us")
    m["transforms.contour_oracle.self_s"] = (per_round(
        self_s.get("transforms.g_tilde_contour_oracle", 0.0) + self_s.get("transforms.contour_moment", 0.0)), "s")
    m["series.tables_s"] = (trace["tables_s"] / (rounds if workload == "cli_figures" else 1), "s")
    m["series.asym.calls"] = (per_round(sum(calls.get(f"series.{f}", 0) for f in SERIES_EVALS)), "count")
    n_solve = calls.get("curve.solve_H", 0)
    m["curve.solve_H.calls"] = (per_round(n_solve), "count")
    m["curve.solve_H.self_s"] = (per_round(self_s.get("curve.solve_H", 0.0)), "s")
    for band, *_ in workloads.BANDS:
        m[f"curve.solve_H.p50_us.{band}"] = (hist_median_us(hists.get(f"curve.solve_H.{band}", {})), "us")
    m["curve.evals_per_solve"] = (counts.get("curve.solve_H.evals", 0) / n_solve if n_solve else 0.0, "count")
    n_f = calls.get("transforms.f_tilde", 0)
    m["curve.fprime_per_f"] = (calls.get("transforms.f_tilde_prime", 0) / n_f if n_f else 0.0, "ratio")
    for f in ("trace_p0", "f_of", "in_omega", "trace_level_set"):
        m[f"curve.{f}.calls"] = (per_round(calls.get(f"curve.{f}", 0)), "count")
        m[f"curve.{f}.self_s"] = (per_round(self_s.get(f"curve.{f}", 0.0)), "s")
    for f in ("make_anchor", "integrate"):
        m[f"ode.{f}.self_s"] = (per_round(self_s.get(f"ode.{f}", 0.0)), "s")
    m["ode.transform_calls"] = (per_round(counts.get("ode.transform_calls", 0)), "count")
    for f in ("levy_density", "voiculescu"):
        m[f"levy.{f}.calls"] = (per_round(calls.get(f"levy.{f}", 0)), "count")
        m[f"levy.{f}.self_s"] = (per_round(self_s.get(f"levy.{f}", 0.0)), "s")
    m["levy.tau_total_mass.self_s"] = (per_round(self_s.get("levy.tau_total_mass", 0.0)), "s")
    m["levy.tau_total_mass.solve_H_calls"] = (per_round(counts.get("levy.tau_total_mass.solve_H_calls", 0)), "count")
    for k in range(1, 13):
        m[f"verify.criterion_{k}.s"] = (per_round(total_s.get(f"verify.criterion_{k}", 0.0)), "s")
    for f in ("csv_text", "json_text", "svg_figure"):
        m[f"output.{f}.self_s"] = (per_round(self_s.get(f"output.{f}", 0.0)), "s")
    m["output.bytes"] = (per_round(counts.get("output.bytes", 0)), "bytes")
    m["cli.import_s"] = (imports[0], "s")
    m["cli.import_scipy_s"] = (imports[1], "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (cli_times.get(sub, 0.0), "s")
    m["trace.wall_s"] = (statistics.median(record["walls"]), "s")
    for kind, name in (("transforms", "accuracy.transforms.digits"),
                       ("levy_density", "accuracy.levy_density.digits"),
                       ("voiculescu", "accuracy.voiculescu.digits"),
                       ("f_of", "accuracy.f_of.digits")):
        errs = [e for k, e in ck.worst_by.items() if k == kind or k.startswith(kind + ".")]
        m[name] = (digits(max(errs)) if errs else 0.0, "digits")
    return m


def merge_traces(paths, first_round: int):
    """Sum the summaries of traced CLI processes; keep spans of the first round."""
    total = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}, "hists": {}, "tables_s": 0.0}
    spans = []
    for k, p in enumerate(paths):
        data = json.loads(Path(p).read_text())
        t = data["trace"]
        for key in ("calls", "self_s", "total_s", "counts"):
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for name, h in t["hists"].items():
            dst = total["hists"].setdefault(name, {})
            for b, c in h.items():
                dst[b] = dst.get(b, 0) + c
        total["tables_s"] += t["tables_s"]
        if k < first_round:
            spans.append({"process": k, "spans": data["spans"]})
    return total, spans


# --------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "freenormal" / "__init__.py").is_file():
        raise RunError(f"no program to run: {SRC / 'freenormal'} is missing")
    inputs = workloads.INPUTS[workload](seed)
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        (run_dir / "inputs.json").write_text(json.dumps(inputs))
        record = run_workers(workload, run_dir, seconds, trace, 1 if trace else SETUP_SAMPLES)
        ops = inputs["ops"]
        ck = checks.check(workload, ops, record["outputs"])
        if trace:
            if workload == "cli_figures":
                paths = sorted(run_dir.glob("cmd-*.json"), key=lambda p: int(p.stem[4:]))
                summary, spans = merge_traces(paths, len(ops))
                plain = record["plain"]["latencies"]
                by_sub: dict[str, list] = {}
                for op, t in zip(ops, plain):
                    by_sub.setdefault(op["name"], []).append(t)
                cli_times = {k: statistics.median(v) for k, v in by_sub.items()}
            else:
                summary, spans = record["trace"], [{"process": 0, "spans": record["spans"]}]
                cli_times = {}
            trace_file = OUT / f"trace-{workload}-{seed}.json"
            trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                              "summary": summary, "span_fields":
                                              ["id", "name", "start", "end", "parent"],
                                              "processes": spans}))
            metrics = per_layer(workload, record, ck, summary, cli_times, import_times())
        else:
            metrics = end_to_end(record, ck)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    per_round = len(ops)
    failed_per_round = sum(ck.failed)
    known = [bool(op.get("known_failing")) for op in ops]
    unexpected = [i for i, (f, k) in enumerate(zip(ck.failed, known)) if f and not k]
    for note in ck.notes:
        log(f"[{workload}] failed {note}")
    for v in ck.violations:
        log(f"[{workload}] property violated: {v}")
    log(f"[{workload}] worst relative errors: "
        + ", ".join(f"{k} {v:.2g}" for k, v in sorted(ck.worst_by.items())))
    if record["mismatches"]:
        log(f"[{workload}] {record['mismatches']} outputs differ from the first round")
    correct = not unexpected and not ck.violations and record["mismatches"] == 0
    return {
        "correct": correct,
        "attempted": per_round * record["rounds"],
        "failed": failed_per_round * record["rounds"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.INPUTS), default=None,
                    help="one workload (default: all three, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.INPUTS)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
    except (RunError, OSError) as exc:
        log(f"error: {exc}")
        return 2
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for k, v in res["metrics"].items():
            print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
