"""Batch front-end: envelope runs, verification suites, demo, plot export.

Subcommands: envelope, family, fiber-check, sections-check, glue-demo,
verify-all.  Every run writes one JSON report per check, ``<check>.json``,
into the output directory (flag --out, else $ENVLAB_OUT, else the working
directory; created if missing).  envelope also writes the envelope as
``envelope.csv`` and gnuplot-ready ``envelope.dat`` columns (see
export_plot_data); glue-demo, and so verify-all, also writes ``glued.csv``,
``outer.csv`` and ``inner.csv``, ``tau,s,phi`` rows.  --seed defaults to
42, a --tol name to its check's registry default, and a glue-demo --config
overrides keys of ``gluing.DEMO_CONFIG``.  fiber-check
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

import numpy as np

from . import checks
from .envelope import equilibrium_envelope
from .errors import EnvlabError, InvalidInputError, NoEnvelopeError
from .family import (ModelBundlePair, check_monotone_family,
                     check_right_continuity, family_curve, monotone_t_grid)
from .gluing import hirzebruch_demo
from .report import CHECKS, TOLERANCE_NAMES, VerificationReport
from .sections import (check_sandwich, comparison_constants, psi1_approximant,
                       unit_boxes)
from .weights import (SampledWeight, load_weight_csv, save_weight2d_csv,
                      save_weight_csv)

__all__ = ["main", "run", "export_plot_data", "export_report",
           "export_weight2d_artifacts"]


def export_report(report: VerificationReport, out_dir,
                  seed=None, wall_time=None) -> str:
    """Write ``<out_dir>/<report.check>.json`` with its check's anchor."""
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


def export_plot_data(w, path, envelope) -> str:
    """Write gnuplot-ready columns of a 1D weight and its envelope.

    Rows ``s u u_e psi``, with psi the m = 64 approximant of degree
    d = round(slope_right), or the envelope when d = 0; when no slope k/64
    lies in the weight's slope interval there is no approximant, and the
    rows are ``s u u_e``.
    """
    path = str(path)
    # every column is computed before the file opens, so a failure leaves
    # no partial file behind
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

def _cmd_envelope(args):
    w = load_weight_csv(args.input)
    env = equilibrium_envelope(w, w.slope_interval)
    export_plot_data(w, os.path.join(args.out, "envelope.dat"), env)
    save_weight_csv(env, os.path.join(args.out, "envelope.csv"))
    yield checks.check_envelope_run(w, env, args.input)


def _cmd_family(args):
    fc = family_curve(_bump_pair(), monotone_t_grid())
    yield check_monotone_family(fc)
    yield check_right_continuity(fc)


def _cmd_fiber(args):
    rng = np.random.default_rng(args.seed)
    yield checks.check_fiber_volume(rng, 100)
    yield checks.check_fiber_normalization(rng, 20)


def _cmd_sections(args):
    rng = np.random.default_rng(args.seed)
    pair = _bump_pair(257)
    w = pair.phi_A
    cc = comparison_constants(w, unit_boxes(w.grid[0], w.grid[-1]))
    yield check_sandwich(w, pair.d_A, 64, cc)
    yield checks.check_coefficient_parseval(rng, pair, 20)


def _cmd_glue(args):
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidInputError(
                    f"config {args.config} is not JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidInputError(
                f"config must be a JSON object, got {type(config).__name__}")
    report, weights = hirzebruch_demo(config)
    export_weight2d_artifacts(weights, args.out)
    yield report


def _cmd_verify_all(args):
    yield checks.check_envelope_oracle_equivalence(
        np.random.default_rng(args.seed), _random_case, 10)
    yield from _cmd_family(args)
    yield from _cmd_fiber(args)
    yield from _cmd_sections(args)
    yield checks.check_regularized_max_contract(
        np.random.default_rng(args.seed), 200)
    yield from _cmd_glue(args)


# command name -> (handler, help); the parser and run() read this
COMMANDS = {
    "envelope": (_cmd_envelope, "envelope of one weight file"),
    "family": (_cmd_family, "family curve checks"),
    "fiber-check": (_cmd_fiber, "fiber measure checks"),
    "sections-check": (_cmd_sections, "section approximant checks"),
    "glue-demo": (_cmd_glue, "ruled-surface gluing demo"),
    "verify-all": (_cmd_verify_all, "full verification battery"),
}


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line; returns the process exit status.

    ``args`` comes from the parser, with ``args.tol`` checked into a
    name -> value dict (see main).  Each report takes its check's --tol
    override, if any, before it is exported.  Its ``wall_time_s`` is the
    time its handler spent producing it since the previous report (shared
    inputs count toward the first check that uses them); export time is
    not included.
    """
    reports = []
    try:
        os.makedirs(args.out, exist_ok=True)
        start = time.perf_counter()
        for rep in COMMANDS[args.command][0](args):
            rep.tolerance = args.tol.get(CHECKS[rep.check].tol_name,
                                         rep.tolerance)
            export_report(rep, args.out, seed=args.seed,
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
    p.set_defaults(config=None)  # verify-all runs the glue demo unconfigured
    for command in sp.values():
        command.add_argument("--out", default=os.environ.get("ENVLAB_OUT", "."),
                             help="output directory (default $ENVLAB_OUT or .)")
        command.add_argument("--seed", type=int, default=42)
        command.add_argument("--tol", action="append", default=[],
                             metavar="NAME=VALUE", help="tolerance override")
    return p


def _check_args(args) -> None:
    """Turn ``args.tol`` into a name -> value dict; check it and --seed."""
    tolerances = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        try:
            tolerances[name] = float(value)
        except ValueError:
            raise ValueError(f"bad tolerance override {item!r}") from None
    for name, tol in tolerances.items():
        if name not in TOLERANCE_NAMES:
            raise ValueError(f"unknown tolerance {name!r}; allowed: "
                             + ", ".join(TOLERANCE_NAMES))
        if not (tol > 0 and math.isfinite(tol)):
            raise ValueError(
                f"tolerance {name} must be positive and finite, got {tol}")
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    args.tol = tolerances


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
