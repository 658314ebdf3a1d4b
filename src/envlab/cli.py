"""Batch front-end: envelope runs, verification suites, demo, plot export.

Subcommands: envelope, family, fiber-check, sections-check, glue-demo,
verify-all.  Every run writes one JSON report per check, ``<check>.json``,
into the output directory (flag --out, else $ENVLAB_OUT, else the working
directory; created if missing).  envelope also writes the envelope as
``envelope.csv`` and gnuplot-ready ``envelope.dat`` columns (see
export_plot_data); glue-demo, and so verify-all, also writes ``glued.csv``,
``outer.csv`` and ``inner.csv``, ``tau,s,phi`` rows.  --seed defaults to
``RunManifest.seed``, a --tol name to its check's registry default, and a
glue-demo --config overrides keys of ``gluing.DEMO_CONFIG``.  fiber-check
always reports both normalization constants, K_oracle and K_stated.
Exit status: 0 all checks pass, 1 a verification failed (reports are
still written), 2 input or IO trouble.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .checks import CHECKS, TOLERANCE_NAMES
from .envelope import equilibrium_envelope
from .errors import EnvlabError, InvalidInputError, NoEnvelopeError
from .family import (ModelBundlePair, check_monotone_family,
                     check_right_continuity, family_curve, monotone_t_grid)
from .gluing import hirzebruch_demo
from .report import VerificationReport
from .sections import (check_sandwich, comparison_constants, psi1_approximant,
                       unit_boxes)
from .weights import (SampledWeight, load_weight_csv, save_weight2d_csv,
                      save_weight_csv)

__all__ = ["main", "run", "RunManifest", "export_plot_data",
           "export_report", "export_weight2d_artifacts"]


@dataclass
class RunManifest:
    """Everything one batch invocation depends on."""

    command: str
    inputs: dict = field(default_factory=dict)
    out_dir: str = "."
    seed: int = 42
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name, tol in self.tolerances.items():
            if name not in TOLERANCE_NAMES:
                raise ValueError(f"unknown tolerance {name!r}; allowed: "
                                 + ", ".join(TOLERANCE_NAMES))
            if not (tol > 0 and math.isfinite(tol)):
                raise ValueError(
                    f"tolerance {name} must be positive and finite, got {tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def tol(self, check: str) -> float:
        """``check``'s tolerance: its --tol override, else its default."""
        entry = CHECKS[check]
        return self.tolerances.get(entry.tol_name, entry.tol)


def export_report(report: VerificationReport, out_dir,
                  seed=None, wall_time=None) -> str:
    """Write ``<out_dir>/<report.check>.json``; a check outside the registry
    raises KeyError."""
    payload = report.to_dict()
    payload["anchor"] = CHECKS[report.check].anchor
    payload["seed"] = seed
    payload["wall_time_s"] = wall_time
    payload["timestamp"] = round(time.time(), 3)
    path = os.path.join(str(out_dir), f"{report.check}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def export_plot_data(w, path, envelope=None) -> str:
    """Write gnuplot-ready columns of a 1D weight.

    Rows ``s u u_e psi`` (the envelope computed from the slope metadata
    when not supplied), with psi the m = 64 approximant of degree
    d = round(slope_right), or the envelope when d = 0; when no slope k/64
    lies in the weight's slope interval there is no approximant, and the
    rows are ``s u u_e``.
    """
    path = str(path)
    # every column is computed before the file opens, so a failure leaves
    # no partial file behind
    if envelope is None:
        envelope = equilibrium_envelope(w, w.slope_interval)
    d = max(int(round(w.slope_right)), 0)
    try:
        psi = psi1_approximant(w, d, 64) if d > 0 else envelope
    except NoEnvelopeError:
        psi = None  # no slope k/64 in the interval, so no psi column
    rows = zip(w.grid.tolist(), w.values.tolist(), envelope.values.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if psi is None:
            fh.write("# s u u_e\n")
            fh.writelines(f"{s:.17g} {u:.17g} {ue:.17g}\n" for s, u, ue in rows)
        else:
            fh.write("# s u u_e psi\n")
            fh.writelines(f"{s:.17g} {u:.17g} {ue:.17g} {p:.17g}\n"
                          for (s, u, ue), p in zip(rows, psi.values.tolist()))
    return path


def export_weight2d_artifacts(named_weights: dict, out_dir) -> None:
    """Write each 2D weight as ``<out_dir>/<name>.csv``, ``tau,s,phi`` rows."""
    os.makedirs(str(out_dir), exist_ok=True)
    for name, w in named_weights.items():
        save_weight2d_csv(w, os.path.join(str(out_dir), f"{name}.csv"))


def _bump_pair(n=513):
    """Model pair of degrees d_A = 2, d_L = 1 on n points of [-20, 20]."""
    s = np.linspace(-20.0, 20.0, n)
    soft = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    # phi_A convex (the monotone-family hypotheses need it); bumps on phi_L
    phi_A = SampledWeight(s, 2 * soft, 0.0, 2.0)
    phi_L = SampledWeight(s, soft - 0.6 * np.exp(-2.0 * (s + 2.0) ** 2)
                          + 0.9 * np.exp(-(s - 3.0) ** 2), 0.0, 1.0)
    return ModelBundlePair(phi_A, 2, phi_L, 1)


def _random_case(rng, i):
    """Non-convex piecewise-smooth weight with slope data (0, d), and d."""
    d = int(rng.integers(1, 4))
    s = np.linspace(-20.0, 20.0, 513)
    u = d * (np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0))
    for _ in range(rng.integers(2, 6)):
        c = rng.uniform(-8.0, 8.0)
        u += rng.uniform(-1.5, 1.5) * np.exp(-((s - c) / rng.uniform(0.5, 3.0)) ** 2)
    return SampledWeight(s, u, 0.0, float(d)), d


# Each command handler builds its inputs once and yields its reports;
# run() times, exports and prints them.

def _cmd_envelope(manifest: RunManifest):
    source = manifest.inputs.get("input")
    if source is None:
        raise InvalidInputError("envelope needs an input weight CSV")
    w = load_weight_csv(source)
    env = equilibrium_envelope(w, w.slope_interval)
    export_plot_data(w, os.path.join(manifest.out_dir, "envelope.dat"),
                     envelope=env)
    save_weight_csv(env, os.path.join(manifest.out_dir, "envelope.csv"))
    yield checks.check_envelope_run(w, env, str(source),
                                    manifest.tol("envelope-run"))


def _cmd_family(manifest: RunManifest):
    fc = family_curve(_bump_pair(), monotone_t_grid())
    yield check_monotone_family(fc, manifest.tol("family-monotonicity"))
    yield check_right_continuity(fc)


def _cmd_fiber(manifest: RunManifest):
    rng = np.random.default_rng(manifest.seed)
    yield checks.check_fiber_volume(rng, 100, manifest.tol("fiber-volume"))
    yield checks.check_fiber_normalization(
        rng, 20, manifest.tol("fiber-normalization"))


def _cmd_sections(manifest: RunManifest):
    rng = np.random.default_rng(manifest.seed)
    pair = _bump_pair(257)
    w = pair.phi_A
    cc = comparison_constants(w, unit_boxes(w.grid[0], w.grid[-1]))
    yield check_sandwich(w, pair.d_A, 64, cc,
                         tol=manifest.tol("section-sandwich"))
    yield checks.check_coefficient_parseval(
        rng, pair, 20, manifest.tol("coefficient-parseval"))


def _cmd_glue(manifest: RunManifest):
    config = {}
    if "config" in manifest.inputs:
        path = manifest.inputs["config"]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidInputError(f"config {path} is not JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidInputError(
                f"config must be a JSON object, got {type(config).__name__}")
    report, weights = hirzebruch_demo(config)
    export_weight2d_artifacts(weights, manifest.out_dir)
    yield report


def _cmd_verify_all(manifest: RunManifest):
    yield checks.check_envelope_oracle_equivalence(
        np.random.default_rng(manifest.seed), _random_case, 10,
        manifest.tol("envelope-oracle-equivalence"))
    yield from _cmd_family(manifest)
    yield from _cmd_fiber(manifest)
    yield from _cmd_sections(manifest)
    yield checks.check_regularized_max_contract(
        np.random.default_rng(manifest.seed), 200)
    yield from _cmd_glue(manifest)


# command name -> (handler, help); the parser and RunManifest read this
COMMANDS = {
    "envelope": (_cmd_envelope, "envelope of one weight file"),
    "family": (_cmd_family, "family curve checks"),
    "fiber-check": (_cmd_fiber, "fiber measure checks"),
    "sections-check": (_cmd_sections, "section approximant checks"),
    "glue-demo": (_cmd_glue, "ruled-surface gluing demo"),
    "verify-all": (_cmd_verify_all, "full verification battery"),
}


def run(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit status.

    Each report's ``wall_time_s`` is the time its handler spent producing
    it since the previous report (shared inputs count toward the first
    check that uses them); export time is not included.
    """
    reports = []
    try:
        os.makedirs(manifest.out_dir, exist_ok=True)
        start = time.perf_counter()
        handler, _ = COMMANDS[manifest.command]
        for rep in handler(manifest):
            export_report(rep, manifest.out_dir, seed=manifest.seed,
                          wall_time=time.perf_counter() - start)
            reports.append(rep)
            start = time.perf_counter()
    except (OSError, EnvlabError) as exc:
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
    sp = {name: sub.add_parser(name, help=text)
          for name, (_, text) in COMMANDS.items()}
    sp["envelope"].add_argument("--input", required=True, help="weight CSV")
    sp["glue-demo"].add_argument("--config", help="demo config JSON")
    for command in sp.values():
        command.add_argument("--out", default=os.environ.get("ENVLAB_OUT", "."),
                             help="output directory (default $ENVLAB_OUT or .)")
        command.add_argument("--seed", type=int, default=RunManifest.seed)
        command.add_argument("--tol", action="append", default=[],
                             metavar="NAME=VALUE", help="tolerance override")
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
    inputs = {k: v for k, v in vars(args).items()
              if k in ("input", "config") and v}
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
