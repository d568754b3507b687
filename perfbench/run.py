"""Benchmark for fjump: three workloads, each run as whole passes in one
process and one thread, in a closed loop (a job starts when the previous
one returns).

    python3 perfbench/run.py --workload principal-cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # all workloads, one summary row each

A run sets up (imports fjump afresh and builds pass 0) several times and
reports the median, then runs passes until it has measured ``--seconds`` of
job time and at least 100 jobs.  Every output is checked afterwards against
the references in ``refalg``, ``newton`` and ``workloads``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per layer with
``--trace 1``, where spans are also written to ``perfbench/out``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_JOBS = 100

# Per-layer metric: (name, unit, layer, field); ``hit_ratio`` is derived.
PER_LAYER = [
    ("testideal.tau.calls", "count", "tau", "calls"),
    ("testideal.tau.chain_levels", "count", "tau", "chain_levels"),
    ("testideal.tau.self_ms", "ms", "tau", "self_ms"),
    ("oracle.power_root_vectors.calls", "count", "power_root_vectors", "calls"),
    ("oracle.power_root_vectors.ms", "ms", "power_root_vectors", "ms"),
    ("thresholds.jumps.self_ms", "ms", "jumps", "self_ms"),
    ("thresholds.jumps.tau_evals", "count", "jumps", "tau_evals"),
    ("multipoly.pow.calls", "count", "pow", "calls"),
    ("multipoly.pow.ms", "ms", "pow", "ms"),
    ("multipoly.pow.terms_out", "count", "pow", "terms_out"),
    ("frobroot.root.calls", "count", "root", "calls"),
    ("frobroot.root.ms", "ms", "root", "ms"),
    ("frobroot.root.terms_in", "count", "root", "terms_in"),
    ("frobroot.root.gens_out", "count", "root", "gens_out"),
    ("thresholds.nu.calls", "count", "nu", "calls"),
    ("thresholds.nu.self_ms", "ms", "nu", "self_ms"),
    ("thresholds.nu.root_calls", "count", "nu", "root_calls"),
    ("cli.run.self_ms", "ms", "cli", "self_ms"),
    ("jobfile.load_job.ms", "ms", "load_job", "ms"),
    ("groebner.buchberger.calls", "count", "buchberger", "calls"),
    ("groebner.buchberger.ms", "ms", "buchberger", "ms"),
    ("groebner.normal_form.calls", "count", "normal_form", "calls"),
    ("groebner.normal_form.ms", "ms", "normal_form", "ms"),
    ("groebner.ideal_power.ms", "ms", "ideal_power", "ms"),
    ("groebner.ideal_power.gens_out", "count", "ideal_power", "gens_out"),
    ("groebner.ideal_eq.calls", "count", "ideal_eq", "calls"),
    ("groebner.ideal_eq.ms", "ms", "ideal_eq", "ms"),
    ("groebner.gb.requests", "count", "gb_request", "calls"),
]


def import_fjump():
    """Import fjump from this checkout's src, dropping any earlier import so
    that set-up is measured whole each time."""
    for name in [m for m in sys.modules if m == "fjump" or m.startswith("fjump.")]:
        del sys.modules[name]
    fj = importlib.import_module("fjump")
    if not os.path.abspath(fj.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fjump was imported from {fj.__file__}, not from {SRC}")
    return fj


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    build = workloads.WORKLOADS[name]
    refs: dict = {}
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fj = import_fjump()
        jobs = build(fj, seed, 0, refs)
        setup.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    done = []  # (job, output) for every job run
    samples = []
    pass_times = []
    while True:
        t_pass = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # a failed op; the run goes on
                out = exc
            samples.append(time.perf_counter() - t0)
            done.append((job, out))
        pass_times.append(time.perf_counter() - t_pass)
        if sum(pass_times) >= seconds and len(samples) >= MIN_JOBS:
            break
        jobs = build(fj, seed, len(pass_times), refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    t_check = time.perf_counter()
    failures: dict = {}
    for job, out in done:
        try:
            if isinstance(out, Exception):
                raise workloads.Mismatch(f"raised {type(out).__name__}: {out}")
            job.check(out)
        except Exception as exc:  # a wrong or malformed output fails the op
            failures.setdefault(job.label, []).append(
                exc if isinstance(exc, workloads.Mismatch) else traceback.format_exc())
    unexpected = sorted(set(failures) - workloads.KNOWN_FAULTS[name])
    passes = len(pass_times)
    print(f"{name} seed {seed}: {passes} passes, {len(done)} jobs, {sum(pass_times):.1f} s "
          f"measured, {time.perf_counter() - t_check:.1f} s checking", file=sys.stderr)
    for label, why in sorted(failures.items()):
        print(f"failed {len(why)}x {label}: {str(why[0]).strip().splitlines()[-1]}",
              file=sys.stderr)

    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-{seed}.tsv.gz"))
        metrics = per_layer_metrics(tracer.summary(), passes)
    else:
        metrics = {
            # Every pass holds the same number of jobs; the median pass
            # time keeps one slowed pass from moving the rate.
            "jobs_per_s": (len(samples) / passes / statistics.median(pass_times), "1/s"),
            "job_p50_ms": (1000 * statistics.median(samples), "ms"),
            "job_p90_ms": (1000 * statistics.quantiles(samples, n=10)[8], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {"correct": not unexpected,
            "attempted": len(done),
            "failed": sum(len(v) for v in failures.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer_metrics(summary: dict, passes: int) -> dict:
    """Each layer figure as a mean per pass."""
    out = {name: (summary[layer].get(field, 0) / passes, unit)
           for name, unit, layer, field in PER_LAYER}
    requests = summary["gb_request"]["calls"]
    hits = summary["gb_request"]["hits"]
    out["groebner.gb.hit_ratio"] = (hits / requests if requests else 0.0, "ratio")
    return out


def run_all(args) -> int:
    """Every workload in its own process, one summary row each."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(cells))
    return status


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "fjump")):
        sys.exit(f"run.py: no fjump sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.exit(main())
