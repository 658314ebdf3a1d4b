"""envlab benchmark: one workload, one fresh process, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gap-bound --seed 1 --seconds 36 --trace 0

The workload's inputs are generated from ``--seed``.  Passes over the
workload repeat while the next one is expected to end within ``--seconds``
(at least one pass runs), and every pass's outputs are checked outside
the timed region.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced passes.  The line
before it is a report with the environment, the run-time samples and the
failed-check ratio.  ``--smoke`` swaps in tiny inputs for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("gap-bound", "cli-battery", "fine-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child process timing set-up
    return p


def _single_threaded_env():
    """One BLAS/OpenMP thread (<= nproc); must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _setup_probe(args) -> int:
    """Fresh-process import of envlab plus input generation, in seconds."""
    t0 = time.perf_counter()
    import workloads
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workloads.WORKLOADS[args.workload].setup(
            args.seed, workloads.SMOKE if args.smoke else workloads.FULL, scratch)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] * args.smoke)
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _env():
    import numpy
    import scipy

    import envlab
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "envlab": envlab.__version__,
            "git_commit": _git_commit(),
            "blas": blas.get("name"),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS}}


def _tail(samples):
    """Highest percentile with at least ten samples above it, if any."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    return {"percentile": 100.0 * (len(xs) - 10) / len(xs), "value": xs[-11]}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _passes(args, wl, inputs):
    """Timed passes while the next one fits in the budget; checks after each.

    At least one pass runs.  With tracing, passes alternate untraced and
    traced, and the traced ones also return their spans.
    """
    from tracing import Tracer
    tracer = Tracer()
    untraced, traced, checks, extras, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = args.trace == 1 and len(untraced) > len(traced)
        if use_trace:
            with tracer:
                t0 = time.perf_counter()
                outputs = wl.run(inputs)
                wall = time.perf_counter() - t0
            spans.append(tracer.take())
            traced.append(wall)
        else:
            t0 = time.perf_counter()
            outputs = wl.run(inputs)
            untraced.append(time.perf_counter() - t0)
        found, extra = wl.verify(inputs, outputs)
        checks += found
        if use_trace:
            extras.append(extra)
        if args.trace == 1 and len(traced) < len(untraced):
            continue
        # start another pass (or untraced/traced pair) only if it is
        # expected to end within the budget
        step = statistics.median(untraced) + (statistics.median(traced)
                                              if traced else 0.0)
        if time.perf_counter() - start + step > args.seconds:
            return untraced, traced, checks, extras, spans


def _layer_metrics(untraced, traced, extras, spans):
    from tracing import layer_metrics
    per_pass = [dict(layer_metrics(s, wall), **extra)
                for s, wall, extra in zip(spans, traced, extras)]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced))
    units = {"self_s": "s", "glue_s": "s", "layer_self_s": "s",
             "bytes": "bytes", "overhead_ratio": "ratio"}
    return {name: _metric(value, units.get(name.rsplit(".", 1)[1], "count"))
            for name, value in metrics.items()}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "envlab" / "__init__.py").is_file():
        print(f"error: envlab sources not found under {SRC}", file=sys.stderr)
        return 2
    _single_threaded_env()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return _setup_probe(args)

    setup = _setup_samples(args)
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs = wl.setup(args.seed,
                          workloads.SMOKE if args.smoke else workloads.FULL,
                          scratch)
        untraced, traced, checks, extras, spans = _passes(args, wl, inputs)
    finally:
        shutil.rmtree(scratch)

    failed = [name for name, ok in checks if not ok]
    run_s = statistics.median(untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": _env(),
        "run_s": {"median": run_s, "samples": len(untraced),
                  "tail": _tail(untraced), "all": untraced},
        "setup_s": {"median": statistics.median(setup), "all": setup},
        "checks_failed_ratio": len(failed) / len(checks),
        "failed_checks": sorted(set(failed)),
    }
    if args.trace:
        metrics = _layer_metrics(untraced, traced, extras, spans)
        report["traced_run_s"] = traced
        path = OUT / f"spans-{args.workload}.json"
        path.write_text(json.dumps({"report": report, "passes": spans}))
        report["spans_file"] = str(path.relative_to(ROOT))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"run_s": _metric(run_s, "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mb": _metric(peak_mb, "MB"),
                   "checks_passed_ratio": _metric(
                       1.0 - report["checks_failed_ratio"], "ratio")}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
