"""Batch front-end: envelope runs, verification suites, demo, plot export.

Subcommands: envelope, family, fiber-check, sections-check, glue-demo,
verify-all.  Every run writes one JSON report per check into the output
directory (flag --out, else $ENVLAB_OUT, else the working directory).
Exit status: 0 all checks pass, 1 a verification failed (reports are
still written), 2 input or IO trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import fiber
from .envelope import equilibrium_envelope, hull_envelope
from .errors import EnvlabError, InvalidInputError
from .family import (ModelBundlePair, check_monotone_family,
                     check_right_continuity, family_curve, monotone_t_grid)
from .gluing import RegularizedMaxKernel, hirzebruch_demo, regularized_max
from .measures import DEFAULT_BASE_MEASURE
from .report import VerificationReport
from .sections import (ToricSection, check_sandwich, coefficient_inequality,
                       comparison_constants, psi1_approximant, unit_boxes)
from .weights import (SampledWeight, SampledWeight2D, SlopeInterval,
                      _write_blocks, load_weight_csv, save_weight_csv)

__all__ = ["main", "run", "RunManifest", "export_plot_data",
           "load_plot_data", "export_report", "export_weight2d_artifacts",
           "ANCHORS"]

# registry of check names -> human anchor phrases; every emitted report
# must carry one of these (no orphan checks)
ANCHORS = {
    "envelope-oracle-equivalence": "dual-route equilibrium envelope agreement",
    "family-monotonicity": "normalized family curve monotone in t",
    "family-right-continuity": "family curve right-continuous in t",
    "fiber-volume": "fiber probability density has unit mass",
    "fiber-normalization": "closed-form fiber moment identity",
    "section-sandwich": "two-sided section approximant bounds",
    "coefficient-parseval": "fiber-degree coefficient inequality",
    "regularized-max-contract": "smoothed maximum contract clauses",
    "hirzebruch-gluing": "two-chart glued weight positivity",
    "envelope-run": "single equilibrium envelope computation",
    "envelope-gap-bound": "constrained envelope gap against weight bound",
}


# every tolerance a command reads; --tol accepts no other name
_TOLERANCE_NAMES = ("envelope", "family", "fiber", "fiber_rel", "sandwich",
                    "parseval")


@dataclass
class RunManifest:
    """Everything one batch invocation depends on."""

    command: str
    inputs: dict = field(default_factory=dict)
    out_dir: str = "."
    seed: int = 42
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        allowed = {"envelope", "family", "fiber-check", "sections-check",
                   "glue-demo", "verify-all"}
        if self.command not in allowed:
            raise ValueError(f"unknown command {self.command!r}")
        for name, tol in self.tolerances.items():
            if name not in _TOLERANCE_NAMES:
                raise ValueError(f"unknown tolerance {name!r}; allowed: "
                                 + ", ".join(_TOLERANCE_NAMES))
            if not tol > 0:
                raise ValueError(f"tolerance {name} must be positive, got {tol}")


def export_report(report: VerificationReport, out_dir, name,
                  seed=None, wall_time=None) -> str:
    payload = report.to_dict()
    payload["anchor"] = ANCHORS.get(report.check, report.check)
    payload["seed"] = seed
    payload["wall_time_s"] = wall_time
    body = json.dumps(payload, sort_keys=True, indent=2)
    path = os.path.join(str(out_dir), f"{name}.json")
    os.makedirs(str(out_dir), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # timestamp kept out of the sorted body so reports stay diffable
        fh.write(body[:-2] + f',\n  "timestamp": {time.time():.3f}\n}}\n')
    return path


def export_plot_data(w, path, envelope=None, psi=None) -> str:
    """Write gnuplot-ready columns.

    1D weights: rows ``s u u_e psi`` (envelope and approximant computed
    from the slope metadata when not supplied).  2D weights: ``tau s phi``
    rows in blank-line separated blocks, one block per tau.
    """
    path = str(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(w, SampledWeight2D):
            fh.write("# tau s phi\n")
            s_text = [f"{s:.17g}" for s in w.grid_s.tolist()]
            for tau, row in zip(w.grid_tau.tolist(), w.values):
                head = f"{tau:.17g} "
                fh.write("".join(f"{head}{s} {v:.17g}\n"
                                 for s, v in zip(s_text, row.tolist())) + "\n")
            return path
        if envelope is None:
            envelope = equilibrium_envelope(
                w, SlopeInterval(w.slope_left, w.slope_right))
        if psi is None:
            d = max(int(round(w.slope_right)), 0)
            psi = psi1_approximant(w, d, 64) if d > 0 else envelope
        fh.write("# s u u_e psi\n")
        rows = zip(w.grid.tolist(), w.values.tolist(),
                   envelope.values.tolist(), psi.values.tolist())
        _write_blocks(fh, (f"{s:.17g} {u:.17g} {ue:.17g} {p:.17g}\n"
                           for s, u, ue, p in rows))
    return path


def load_plot_data(path):
    """Read a .dat file back; returns column arrays (2D files: stacked)."""
    rows = []
    with open(str(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(t) for t in line.split()])
    return np.asarray(rows)


def export_weight2d_artifacts(named_weights: dict, out_dir) -> None:
    from .weights import save_weight2d_csv
    os.makedirs(str(out_dir), exist_ok=True)
    for name, w in named_weights.items():
        save_weight2d_csv(w, os.path.join(str(out_dir), f"{name}.csv"))
        export_plot_data(w, os.path.join(str(out_dir), f"{name}.dat"))


def _bump_pair(n=513, d_A=2, d_L=1):
    s = np.linspace(-20.0, 20.0, n)
    soft = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    # phi_A convex (the monotone-family hypotheses need it); bumps on phi_L
    phi_A = SampledWeight(s, d_A * soft, 0.0, float(d_A))
    phi_L = SampledWeight(s, d_L * soft - 0.6 * np.exp(-2.0 * (s + 2.0) ** 2)
                          + 0.9 * np.exp(-(s - 3.0) ** 2), 0.0, float(d_L))
    return ModelBundlePair(phi_A, d_A, phi_L, d_L)


def _random_weight(rng, n=513, d=1):
    """Non-convex piecewise-smooth weight with slope data (0, d)."""
    s = np.linspace(-20.0, 20.0, n)
    u = d * (np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0))
    for _ in range(rng.integers(2, 6)):
        c = rng.uniform(-8.0, 8.0)
        u += rng.uniform(-1.5, 1.5) * np.exp(-((s - c) / rng.uniform(0.5, 3.0)) ** 2)
    return SampledWeight(s, u, 0.0, float(d))


def _cmd_envelope(manifest: RunManifest):
    w = load_weight_csv(manifest.inputs["input"])
    t0 = time.time()
    env = equilibrium_envelope(
        w, SlopeInterval(w.slope_left, w.slope_right))
    oracle = hull_envelope(w, SlopeInterval(w.slope_left, w.slope_right))
    rep = VerificationReport(
        check="envelope-run",
        max_violation=float(np.abs(env.values - oracle.values).max()),
        tolerance=manifest.tolerances.get("envelope", 1e-8),
        grid={"s_points": int(w.grid.size)},
        details={"input": str(manifest.inputs["input"])})
    save_weight_csv(env, os.path.join(manifest.out_dir, "envelope.csv"))
    export_plot_data(w, os.path.join(manifest.out_dir, "envelope.dat"),
                     envelope=env)
    export_report(rep, manifest.out_dir, "envelope-run",
                  seed=manifest.seed, wall_time=time.time() - t0)
    return [rep]


def _cmd_family(manifest: RunManifest):
    t0 = time.time()
    pair = _bump_pair()
    fc = family_curve(pair, monotone_t_grid())
    reps = [check_monotone_family(fc, manifest.tolerances.get("family", 1e-9)),
            check_right_continuity(fc)]
    for rep in reps:
        export_report(rep, manifest.out_dir, rep.check,
                      seed=manifest.seed, wall_time=time.time() - t0)
    return reps


def _cmd_fiber(manifest: RunManifest, include_oracle_K=False):
    t0 = time.time()
    rng = np.random.default_rng(manifest.seed)
    tol = manifest.tolerances.get("fiber", 1e-10)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.1, 10.0, size=2)
        worst = max(worst, abs(fiber.fiber_volume(fiber.FiberMeasure(a, b)) - 1.0))
    vol = VerificationReport(
        check="fiber-volume", max_violation=worst, tolerance=tol,
        grid={"cases": 100}, details={"seed": manifest.seed})

    k_oracle = fiber.oracle_normalization()
    worst_rel = 0.0
    for _ in range(20):
        a, b = rng.uniform(0.1, 10.0, size=2)
        m = fiber.FiberMeasure(a, b)
        for t in np.linspace(0.0, 1.0, 9):
            lhs = np.exp(-fiber.bergman_fiber_integral(m, float(t))
                         + t * np.log(a) + (1.0 - t) * np.log(b))
            rhs = fiber.gamma(1.0 + t) * fiber.gamma(2.0 - t) / k_oracle
            worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    details = {"seed": manifest.seed, "K_oracle": k_oracle}
    if include_oracle_K:
        details["K_stated"] = fiber.STATED_NORMALIZATION
        details["normalizations_agree"] = bool(
            abs(k_oracle - fiber.STATED_NORMALIZATION) < 1e-9)
    norm = VerificationReport(
        check="fiber-normalization", max_violation=worst_rel,
        tolerance=manifest.tolerances.get("fiber_rel", 1e-8),
        grid={"cases": 20, "t_points": 9}, details=details)
    for rep in (vol, norm):
        export_report(rep, manifest.out_dir, rep.check,
                      seed=manifest.seed, wall_time=time.time() - t0)
    return [vol, norm]


def _cmd_sections(manifest: RunManifest):
    t0 = time.time()
    rng = np.random.default_rng(manifest.seed)
    pair = _bump_pair(257)
    w = pair.phi_A
    cc = comparison_constants(w, unit_boxes(w.grid[0], w.grid[-1]))
    reps = [check_sandwich(w, pair.d_A, 64, cc,
                           tol=manifest.tolerances.get("sandwich", 1e-9))]
    worst = 0.0
    for _ in range(20):
        coeffs = {}
        while len(coeffs) < rng.integers(1, 7):
            lk = (int(rng.integers(0, 5)), int(rng.integers(0, 3)))
            coeffs[lk] = complex(rng.normal(), rng.normal())
        worst = max(worst, coefficient_inequality(
            ToricSection(4, coeffs), pair).max_violation)
    reps.append(VerificationReport(
        check="coefficient-parseval", max_violation=worst,
        tolerance=manifest.tolerances.get("parseval", 1e-8),
        grid={"cases": 20}, details={"seed": manifest.seed}))
    for rep in reps:
        export_report(rep, manifest.out_dir, rep.check,
                      seed=manifest.seed, wall_time=time.time() - t0)
    return reps


def _regmax_contract_report(seed, cases=1000, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        x, y = rng.normal(0.0, 4.0, size=2)
        eps = rng.uniform(0.01, 2.0)
        c = rng.normal()
        k = RegularizedMaxKernel(eps)
        m = regularized_max(k, x, y)
        worst = max(worst,
                    max(x, y) - m,                              # lower bound
                    m - max(x, y) - eps,                        # upper bound
                    abs(m - regularized_max(k, y, x)),          # symmetry
                    abs(regularized_max(k, x + c, y + c) - m - c),
                    m - regularized_max(k, x + abs(c), y),
                    abs(m - max(x, y)) if abs(x - y) >= 2 * eps else 0.0)
    convex_worst = 0.0
    s = np.linspace(-3.0, 3.0, 101)
    for _ in range(100):
        a1, a2 = rng.uniform(0.1, 1.0, size=2)
        f = a1 * s * s + rng.normal() * s + rng.normal()
        g = a2 * np.abs(s - rng.normal()) + rng.normal()
        m = regularized_max(RegularizedMaxKernel(rng.uniform(0.05, 1.0)), f, g)
        convex_worst = max(convex_worst, -np.diff(m, n=2).min(), 0.0)
    return VerificationReport(
        check="regularized-max-contract",
        max_violation=max(worst, convex_worst), tolerance=tol,
        grid={"cases": cases, "convex_pairs": 100},
        details={"seed": seed, "convexity_defect": convex_worst})


def _cmd_glue(manifest: RunManifest):
    t0 = time.time()
    config = {"k": 3, "d_A": 1, "d_L": 0, "grid": 128, "epsilon": 0.25}
    if "config" in manifest.inputs:
        with open(manifest.inputs["config"], "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidInputError(
                f"config must be a JSON object, got {type(loaded).__name__}")
        config.update(loaded)
    rep = hirzebruch_demo(config, out_dir=manifest.out_dir)
    export_report(rep, manifest.out_dir, rep.check,
                  seed=manifest.seed, wall_time=time.time() - t0)
    return [rep]


def _cmd_verify_all(manifest: RunManifest):
    reps = []
    t0 = time.time()
    rng = np.random.default_rng(manifest.seed)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        w = _random_weight(rng, d=d)
        iv = SlopeInterval(0.0, float(d))
        worst = max(worst, float(np.abs(
            equilibrium_envelope(w, iv).values
            - hull_envelope(w, iv).values).max()))
    reps.append(VerificationReport(
        check="envelope-oracle-equivalence", max_violation=worst,
        tolerance=manifest.tolerances.get("envelope", 1e-8),
        grid={"cases": 10}, details={"seed": manifest.seed}))
    export_report(reps[-1], manifest.out_dir, reps[-1].check,
                  seed=manifest.seed, wall_time=time.time() - t0)

    reps += _cmd_family(manifest)
    reps += _cmd_fiber(manifest, include_oracle_K=True)
    reps += _cmd_sections(manifest)
    rep = _regmax_contract_report(manifest.seed, cases=200)
    export_report(rep, manifest.out_dir, rep.check, seed=manifest.seed,
                  wall_time=time.time() - t0)
    reps.append(rep)
    reps += _cmd_glue(manifest)
    return reps


def run(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit status."""
    try:
        handler = {
            "envelope": _cmd_envelope,
            "family": _cmd_family,
            "fiber-check": lambda m: _cmd_fiber(
                m, include_oracle_K=m.inputs.get("oracle_K", False)),
            "sections-check": _cmd_sections,
            "glue-demo": _cmd_glue,
            "verify-all": _cmd_verify_all,
        }[manifest.command]
        reports = handler(manifest)
    except (OSError, KeyError, ValueError, EnvlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        print(rep)
    return 0 if all(r.passed for r in reports) else 1


def _parser():
    p = argparse.ArgumentParser(
        prog="envlab",
        description="equilibrium envelope computations and verification suites")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=os.environ.get("ENVLAB_OUT", "."),
                        help="output directory (default $ENVLAB_OUT or .)")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="tolerance override")

    sp = sub.add_parser("envelope", help="envelope of one weight file")
    sp.add_argument("--input", required=True, help="weight CSV")
    common(sp)
    common(sub.add_parser("family", help="family curve checks"))
    sp = sub.add_parser("fiber-check", help="fiber measure checks")
    sp.add_argument("--oracle-K", action="store_true",
                    help="include both normalization constants in the report")
    common(sp)
    common(sub.add_parser("sections-check", help="section approximant checks"))
    sp = sub.add_parser("glue-demo", help="ruled-surface gluing demo")
    sp.add_argument("--config", help="demo config JSON")
    common(sp)
    common(sub.add_parser("verify-all", help="full verification battery"))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tolerances = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        try:
            tolerances[name] = float(value)
        except ValueError:
            print(f"error: bad tolerance override {item!r}", file=sys.stderr)
            return 2
    inputs = {}
    if getattr(args, "input", None):
        inputs["input"] = args.input
    if getattr(args, "config", None):
        inputs["config"] = args.config
    if getattr(args, "oracle_K", False):
        inputs["oracle_K"] = True
    try:
        manifest = RunManifest(command=args.command, inputs=inputs,
                               out_dir=args.out, seed=args.seed,
                               tolerances=tolerances)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
