"""Batch front-end: envelope runs, verification suites, demo, plot export.

Subcommands: envelope, family, fiber-check, sections-check, glue-demo,
verify-all.  Every run writes one JSON report per check into the output
directory (flag --out, else $ENVLAB_OUT, else the working directory;
created if missing).
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

from . import checks
from .checks import CHECKS, TOLERANCE_NAMES
from .envelope import equilibrium_envelope
from .errors import EnvlabError, InvalidInputError
from .family import (ModelBundlePair, check_monotone_family,
                     check_right_continuity, family_curve, monotone_t_grid)
from .gluing import hirzebruch_demo
from .report import VerificationReport
from .sections import (check_sandwich, comparison_constants, psi1_approximant,
                       unit_boxes)
from .weights import (SampledWeight, SampledWeight2D, _write_blocks,
                      load_weight_csv, save_weight2d_csv, save_weight_csv)

__all__ = ["main", "run", "RunManifest", "export_plot_data",
           "load_plot_data", "export_report", "export_weight2d_artifacts"]


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
            if not tol > 0:
                raise ValueError(f"tolerance {name} must be positive, got {tol}")

    def tol(self, check: str) -> float:
        """``check``'s tolerance: its --tol override, else its default."""
        entry = CHECKS[check]
        return self.tolerances.get(entry.tol_name, entry.tol)


def export_report(report: VerificationReport, out_dir, name,
                  seed=None, wall_time=None) -> str:
    """Write ``<out_dir>/<name>.json``; a check outside the registry raises KeyError."""
    payload = report.to_dict()
    payload["anchor"] = CHECKS[report.check].anchor
    payload["seed"] = seed
    payload["wall_time_s"] = wall_time
    body = json.dumps(payload, sort_keys=True, indent=2)
    path = os.path.join(str(out_dir), f"{name}.json")
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
            envelope = equilibrium_envelope(w, w.slope_interval)
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
    save_weight_csv(env, os.path.join(manifest.out_dir, "envelope.csv"))
    export_plot_data(w, os.path.join(manifest.out_dir, "envelope.dat"),
                     envelope=env)
    yield checks.check_envelope_run(w, env, str(source),
                                    manifest.tol("envelope-run"))


def _cmd_family(manifest: RunManifest):
    fc = family_curve(_bump_pair(), monotone_t_grid())
    yield check_monotone_family(fc, manifest.tol("family-monotonicity"))
    yield check_right_continuity(fc)


def _cmd_fiber(manifest: RunManifest, oracle_K):
    rng = np.random.default_rng(manifest.seed)
    yield checks.check_fiber_volume(rng, 100, manifest.tol("fiber-volume"))
    yield checks.check_fiber_normalization(
        rng, 20, manifest.tol("fiber-normalization"), oracle_K)


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
    config = {"k": 3, "d_A": 1, "d_L": 0, "grid": 128, "epsilon": 0.25}
    if "config" in manifest.inputs:
        with open(manifest.inputs["config"], "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidInputError(
                f"config must be a JSON object, got {type(loaded).__name__}")
        config.update(loaded)
    report, weights = hirzebruch_demo(config)
    export_weight2d_artifacts(weights, manifest.out_dir)
    yield report


def _cmd_verify_all(manifest: RunManifest):
    yield checks.check_envelope_oracle_equivalence(
        np.random.default_rng(manifest.seed), _random_case, 10,
        manifest.tol("envelope-oracle-equivalence"))
    yield from _cmd_family(manifest)
    yield from _cmd_fiber(manifest, oracle_K=True)
    yield from _cmd_sections(manifest)
    yield checks.check_regularized_max_contract(
        np.random.default_rng(manifest.seed), 200,
        manifest.tol("regularized-max-contract"))
    yield from _cmd_glue(manifest)


# command name -> (handler, help); the parser and RunManifest read this
COMMANDS = {
    "envelope": (_cmd_envelope, "envelope of one weight file"),
    "family": (_cmd_family, "family curve checks"),
    "fiber-check": (lambda m: _cmd_fiber(m, m.inputs.get("oracle_K", False)),
                    "fiber measure checks"),
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
            export_report(rep, manifest.out_dir, rep.check, seed=manifest.seed,
                          wall_time=time.perf_counter() - start)
            reports.append(rep)
            start = time.perf_counter()
    except (OSError, ValueError, EnvlabError) as exc:
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
    sp["fiber-check"].add_argument(
        "--oracle-K", action="store_true",
        help="include both normalization constants in the report")
    sp["glue-demo"].add_argument("--config", help="demo config JSON")
    for command in sp.values():
        command.add_argument("--out", default=os.environ.get("ENVLAB_OUT", "."),
                             help="output directory (default $ENVLAB_OUT or .)")
        command.add_argument("--seed", type=int, default=42)
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
              if k in ("input", "config", "oracle_K") and v}
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
