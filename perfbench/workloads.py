"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Each workload is a :class:`Workload` with

* ``setup(seed, sizes, scratch)``: build the inputs from the seed alone;
* ``run(inputs)``: one pass of the work a user waits for (the timed part);
* ``verify(inputs, outputs)``: correctness checks on the pass's outputs,
  run outside the timed region, returning ``[(check, ok), ...]`` and any
  extra per-layer counts the pass produced (bytes and files the CLI wrote).

``sizes`` is ``FULL`` for measurement and ``SMOKE`` for the benchmark's own
tests: tiny grids and, for the CLI, the same battery.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import envlab
import envlab.cli

SPAN = 20.0


def soft_plus(s):
    return np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)


def jittered_pair(rng, n, d_A=2, d_L=1, jitter=0.05):
    """Model pair with the acceptance test's two phi_L bumps, jittered.

    Amplitudes and widths move by up to ``jitter`` of their value and the
    centres by up to 5 * ``jitter``.  Bumps drawn afresh per seed (as the
    test-suite's seeded ``model_pair`` does) change the number of linear
    programs the 2-d envelope runs by a factor of ten between seeds, and
    the time of a 257-point family curve by a third, so the seed only
    perturbs the acceptance input.
    """
    s = np.linspace(-SPAN, SPAN, n)
    bumps = np.zeros_like(s)
    for amp, centre, width in ((-0.6, -2.0, 0.5 ** 0.5), (0.9, 3.0, 1.0)):
        amp *= rng.uniform(1.0 - jitter, 1.0 + jitter)
        centre += 5.0 * rng.uniform(-jitter, jitter)
        width *= rng.uniform(1.0 - jitter, 1.0 + jitter)
        bumps += amp * np.exp(-((s - centre) / width) ** 2)
    phi_A = envlab.SampledWeight(s, d_A * soft_plus(s), 0.0, float(d_A))
    phi_L = envlab.SampledWeight(s, d_L * soft_plus(s) + bumps, 0.0, float(d_L))
    return envlab.ModelBundlePair(phi_A, d_A, phi_L, d_L)


def bumpy_weight(rng, n, d=1):
    """Smooth non-convex weight with slope data exactly (0, d)."""
    s = np.linspace(-SPAN, SPAN, n)
    u = d * soft_plus(s)
    for _ in range(rng.integers(2, 6)):
        centre = rng.uniform(-8.0, 8.0)
        u += rng.uniform(-1.5, 1.5) * np.exp(
            -((s - centre) / rng.uniform(0.5, 3.0)) ** 2)
    return envlab.SampledWeight(s, u, 0.0, float(d))


def piecewise_quadratic_weight(rng, n, d=1):
    """Non-convex piecewise-quadratic weight with slopes v0 <= 0, v1 >= d."""
    s = np.linspace(-SPAN, SPAN, n)
    knots = np.sort(rng.uniform(-SPAN, SPAN, rng.integers(4, 9)))
    knots = np.concatenate([[-SPAN], knots, [SPAN]])
    raw = rng.uniform(-2.0, float(d) + 2.0, knots.size)
    v0 = rng.uniform(-1.0, 0.0)
    v1 = rng.uniform(float(d), float(d) + 1.0)
    if abs(raw[-1] - raw[0]) < 1e-3:
        raw[-1] += 1.0
    v = np.interp(s, knots, v0 + (raw - raw[0]) * (v1 - v0) / (raw[-1] - raw[0]))
    u = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(s))])
    return envlab.SampledWeight(s, u, float(v[0]), float(v[-1]))


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    verify: Callable


# --- gap-bound: the acceptance test's envelope-gap-bound problem ----------

def _gap_setup(seed, sizes, scratch):
    n = sizes["gap_n"]
    return {"pair": jittered_pair(np.random.default_rng(seed), n),
            "t_grid": envlab.default_t_grid(sizes["gap_t"]),
            "tau_grid": np.linspace(-30.0, 10.0, n)}


def _gap_run(inp):
    pair = inp["pair"]
    fc = envlab.family_curve(pair, inp["t_grid"])
    fw = envlab.fibered_weight(pair, fc, inp["tau_grid"])
    return envlab.minimal_singularity_gap(pair, fw)


def _gap_verify(inp, rep):
    gap, c = rep.details["observed_gap"], rep.details["C"]
    first = inp.setdefault("first_gap", gap)
    return [("gap-below-C", bool(np.isfinite(gap) and gap <= c)),
            ("gap-repeats", gap == first)], {}


# --- cli-battery: what users run ------------------------------------------

def _cli_setup(seed, sizes, scratch):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    csv = os.path.join(scratch, "weight.csv")
    envlab.save_weight_csv(bumpy_weight(rng, sizes["cli_csv_n"], d=d), csv)
    return {"seed": seed, "csv": csv, "scratch": scratch}


def _cli_run(inp):
    outs = [tempfile.mkdtemp(prefix="verify-all-", dir=inp["scratch"]),
            tempfile.mkdtemp(prefix="envelope-", dir=inp["scratch"])]
    # the CLI prints one line per check; keep it off the benchmark's stdout
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [envlab.cli.main(["verify-all", "--seed", str(inp["seed"]),
                                  "--out", outs[0]]),
                 envlab.cli.main(["envelope", "--input", inp["csv"],
                                  "--out", outs[1]])]
    return {"codes": codes, "dirs": outs}


def _cli_verify(inp, out):
    checks = [(f"exit-status-{i}", code == 0)
              for i, code in enumerate(out["codes"])]
    n_bytes = n_files = 0
    for d in out["dirs"]:
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            n_bytes += os.path.getsize(path)
            n_files += 1
            if name.endswith(".json") and not name.endswith(".csv.json"):
                with open(path, encoding="utf-8") as fh:
                    checks.append((name, json.load(fh)["status"] == "pass"))
        shutil.rmtree(d)
    return checks, {"cli.export.bytes": n_bytes, "cli.export.files": n_files}


# --- fine-grid: few large calls on the same layers -------------------------

def _fine_setup(seed, sizes, scratch):
    rng = np.random.default_rng(seed)
    n_dual = sizes["fine_dual_n"]
    dual = []
    for i in range(8):
        d = 1 + i % 3
        dual.append((piecewise_quadratic_weight(rng, n_dual, d=d),
                     envlab.SlopeInterval(0.0, float(d))))
    sandwich = bumpy_weight(rng, sizes["fine_sandwich_n"], d=1)
    m = sizes["fine_regmax_n"]
    return {"dual": dual,
            "pair": jittered_pair(rng, sizes["fine_pair_n"]),
            "t_grid": envlab.monotone_t_grid(sizes["fine_t"]),
            "sandwich": sandwich,
            "regmax": (envlab.RegularizedMaxKernel(0.5),
                       rng.normal(0.0, 1.0, (m, m)),
                       rng.normal(0.0, 1.0, (m, m)))}


def _fine_run(inp):
    dual = [(envlab.equilibrium_envelope(w, iv).values,
             envlab.hull_envelope(w, iv).values) for w, iv in inp["dual"]]
    fc = envlab.family_curve(inp["pair"], inp["t_grid"])
    family = [envlab.check_monotone_family(fc), envlab.check_right_continuity(fc)]
    w = inp["sandwich"]
    cc = envlab.comparison_constants(w, envlab.unit_boxes(w.grid[0], w.grid[-1]))
    sandwich = [envlab.check_sandwich(w, 1, m, cc) for m in (8, 64, 256)]
    kernel, x, y = inp["regmax"]
    return {"dual": dual, "reports": family + sandwich,
            "regmax": envlab.regularized_max(kernel, x, y)}


def _fine_verify(inp, out):
    checks = [(f"dual-route-{i}", float(np.abs(a - b).max()) <= 1e-8)
              for i, (a, b) in enumerate(out["dual"])]
    checks += [(rep.check, rep.passed) for rep in out["reports"]]
    kernel, x, y = inp["regmax"]
    m, top = out["regmax"], np.maximum(x, y)
    far = np.abs(x - y) >= 2.0 * kernel.epsilon
    checks.append(("regularized-max-bounds", bool(
        np.all(m >= top - 1e-12) and np.all(m <= top + kernel.epsilon + 1e-12)
        and np.array_equal(m[far], top[far]))))
    return checks, {}


WORKLOADS = {
    "gap-bound": Workload(_gap_setup, _gap_run, _gap_verify),
    "cli-battery": Workload(_cli_setup, _cli_run, _cli_verify),
    "fine-grid": Workload(_fine_setup, _fine_run, _fine_verify),
}

FULL = {"gap_n": 64, "gap_t": 129, "cli_csv_n": 4096, "fine_dual_n": 65536,
        "fine_pair_n": 4096, "fine_t": 257, "fine_sandwich_n": 2049,
        "fine_regmax_n": 256}
SMOKE = {"gap_n": 12, "gap_t": 17, "cli_csv_n": 257, "fine_dual_n": 1024,
         "fine_pair_n": 257, "fine_t": 33, "fine_sandwich_n": 257,
         "fine_regmax_n": 16}
