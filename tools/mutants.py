"""Re-runnable mutation checks: apply each catalogued mutant to a temporary
copy of the package and its tests, run only the tests named to kill it, and
print a JSON summary of what happened.

    python tools/mutants.py > mutants.json

The entries run ``JOBS`` at a time, each in its own temporary directory.

Each entry names a file under the repository, an exact source snippet that
must occur there once, its replacement, and the pytest ids to run.  An
entry ``expect``s to be ``killed`` (some named test fails) or, for a known
equivalent mutant, to ``survive`` (every named test passes), with its
reason.  The outcome of an entry is one of

* ``killed`` or ``survived``;
* ``stale``: the snippet no longer occurs exactly once, so the entry must
  follow the code it mutates;
* ``error``: pytest could not run the named tests (a renamed test, say),
  or they ran past ``TIMEOUT`` seconds.

The summary lists the entries by outcome and, under ``unexpected``, every
entry whose outcome is not its expectation; the exit status is 1 when that
list is not empty.  Only the standard library is used.  The tier-1 suite
applies no mutant; ``tests/test_mutants.py`` checks only that every entry
is fresh and names tests that exist.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600.0
JOBS = 2

ENV1D = "src/envlab/envelope.py"
ENV2D = "src/envlab/envelope2d.py"
T1D = "tests/test_envelope.py"
T2D = "tests/test_envelope2d.py"
SECTIONS = "src/envlab/sections.py"
TSEC = "tests/test_sections.py"
FIBER = "src/envlab/fiber.py"
WEIGHTS = "src/envlab/weights.py"
TFIB = "tests/test_fiber.py"

CATALOGUE = [
    # the constrained back transform shared by the 1-d and 2-d envelopes
    {"id": "kernel-hi-from-left-line",
     "file": ENV1D,
     "find": 'j[:2], j[-2:] = a, cross.searchsorted(hi, "right")',
     "replace": "j[:2], j[-2:] = a, b",
     "tests": [f"{T1D}::test_back_transform_matches_searchsorted"],
     "expect": "killed",
     "reason": "u*(hi) from the line left of a crossing at hi moves the "
               "envelope by an ulp"},
    {"id": "kernel-two-neighbours",
     "file": ENV1D,
     "find": "    c += 1\n    return np.maximum(best, lam[c] * s - ustar[c])",
     "replace": "    return best",
     "tests": [f"{T1D}::test_back_transform_matches_searchsorted",
               f"{T1D}::test_back_transform_on_tied_and_duplicate_points"],
     "expect": "killed",
     "reason": "the counted candidate's right neighbour is the maximiser "
               "past the last active index"},
    {"id": "kernel-count-skips-lo",
     "file": ENV1D,
     "find": "np.bincount(act[1:-2], minlength=s.size)",
     "replace": "np.bincount(act[2:-2], minlength=s.size)",
     "tests": [f"{T1D}::test_back_transform_matches_searchsorted",
               f"{T1D}::test_back_transform_on_tied_and_duplicate_points"],
     "expect": "killed",
     "reason": "not counting lo's active index places points one "
               "candidate low"},
    {"id": "kernel-hull-overflow-unchecked",
     "file": ENV1D,
     "find": "        env = np.minimum(env, u)\n"
             "    return SampledWeight(s, _finite(env), lo, hi)",
     "replace": "        env = np.minimum(env, u)\n"
                "    return SampledWeight(s, env, lo, hi)",
     "tests": [f"{T1D}::test_envelope_out_of_float_range_is_a_typed_error"],
     "expect": "killed",
     "reason": "the hull oracle blames the caller's finite values"},
    # the 1-d line envelope's merge of convex runs and the quickhull oracle
    {"id": "merge-segment-starts-at-run-head",
     "file": ENV1D,
     "find": "A[s + 1:] = [q]",
     "replace": "A[s + 1:] = [a]",
     "tests": [f"{T1D}::test_upper_line_envelope_brute_force",
               f"{T1D}::test_upper_line_envelope_matches_stack"],
     "expect": "killed",
     "reason": "a run's lines that its bridge line popped come back"},
    {"id": "quickhull-drops-collinear-neighbours",
     "file": ENV1D,
     "find": "pts = np.flatnonzero(mid <= 0.0) + 1",
     "replace": "pts = np.flatnonzero(mid < 0.0) + 1",
     "tests": [f"{T1D}::test_monotone_chain_lower_brute_force",
               f"{T1D}::test_monotone_chain_lower_degenerate_shapes"],
     "expect": "killed",
     "reason": "a point on the chord of its neighbours is on the hull when "
               "they are"},
    # the 2-d envelope's triangle scan
    {"id": "facet-cover-ignores-upper-edge",
     "file": ENV2D,
     "find": "short = np.where(tau <= t1, s0 + (s1 - s0) * lam01, "
             "s1 + (s2 - s1) * lam12)",
     "replace": "short = s0 + (s1 - s0) * lam01",
     "tests": [f"{T2D}::test_nodes_under_in_p_facets_take_the_facet_plane",
               f"{T2D}::test_matches_dense_two_pass"],
     "expect": "killed",
     "reason": "above its middle vertex a triangle's rows run past its edge, "
               "so nodes whose maximiser is on the boundary of P take an "
               "in-P plane below the envelope"},
    # the per-edge use of the kernel
    {"id": "edge-ties-by-increasing-u",
     "file": ENV2D,
     "find": "order = np.lexsort((-u, s))",
     "replace": "order = np.lexsort((u, s))",
     "tests": [f"{T2D}::test_edge_back_transform_matches_dense_edge_maximum",
               f"{T2D}::test_matches_dense_two_pass"],
     "expect": "killed",
     "reason": "the line envelope keeps the lowest of equal-slope lines"},
    {"id": "edge-loop-open",
     "file": ENV2D,
     "find": "for p, q in zip(poly, np.roll(poly, -1, axis=0)):",
     "replace": "for p, q in zip(poly[:-1], poly[1:]):",
     "tests": [f"{T2D}::test_segment_polytope_in_either_vertex_order",
               f"{T2D}::test_matches_dense_two_pass"],
     "expect": "killed",
     "reason": "the closing edge, and all of a point P, is never walked"},
    {"id": "edge-overflow-warns",
     "file": ENV2D,
     "find": 'with np.errstate(over="ignore", invalid="ignore"):\n'
             "        for p, q",
     "replace": 'with np.errstate(over="warn", invalid="warn"):\n'
                "        for p, q",
     "tests": [f"{T2D}::test_envelope_2d_out_of_float_range_is_a_typed_error"],
     "expect": "killed",
     "reason": "overflow warnings reach the caller before the typed error"},
    # the streamed row reductions of the family and section checks
    {"id": "monotone-stream-skips-last-row",
     "file": "src/envlab/family.py",
     "find": "zip(fc.psi[1:], scale[1:])",
     "replace": "zip(fc.psi[1:-1], scale[1:-1])",
     "tests": ["tests/test_family.py::"
               "test_streamed_monotone_check_matches_dense_formula"],
     "expect": "killed",
     "reason": "a drop into the last t row goes unseen"},
    {"id": "lattice-max-drops-first-row",
     "file": SECTIONS,
     "find": "vals = lattice[0] * w.grid - c[0]",
     "replace": "vals = np.full(w.grid.shape, -np.inf)",
     "tests": [f"{TSEC}::test_lattice_max_matches_dense_maximum_on_signed_zeros",
               f"{TSEC}::test_psi_approximants_are_dense_lattice_maxima"],
     "expect": "killed",
     "reason": "the k = 0 monomial is the maximiser far to the left"},
    {"id": "parseval-block-narrower-than-stride",
     "file": SECTIONS,
     "find": "block = slice(j, j + _PARSEVAL_BLOCK)\n"
             "        width = min(_PARSEVAL_BLOCK, n_s - j)",
     "replace": "block = slice(j, j + _PARSEVAL_BLOCK - 1)\n"
                "        width = min(_PARSEVAL_BLOCK - 1, n_s - j)",
     "tests": [f"{TSEC}::test_parseval_reports_match_stacked_formula"
               "_on_partial_blocks"],
     "expect": "killed",
     "reason": "the last column of every full block never enters the total"},
    {"id": "parseval-group-skips-first-theta",
     "file": SECTIONS,
     "find": "for slab in f.reshape(-1, n_r, width):",
     "replace": "for slab in f.reshape(-1, n_r, width)[1:]:",
     "tests": ["tests/test_acceptance.py::test_coefficient_parseval"],
     "expect": "killed",
     "reason": "the first angle theta of every group never enters the "
               "total, so it falls short of the components' sum"},
    {"id": "parseval-kernel-key-ignores-m",
     "file": SECTIONS,
     "find": "def _parseval_kernel(pair, m):\n",
     "replace": "def _parseval_kernel(pair, m, _first_m={}):\n"
                "    m = _first_m.setdefault(id(pair), m)\n",
     "tests": [f"{TSEC}::test_parseval_reports_match_stacked_formula"],
     "expect": "killed",
     "reason": "a second power on the same pair reuses the first power's "
               "kernel"},
    {"id": "parseval-phi-loop-skips-last-angle",
     "file": SECTIONS,
     "find": "for p in range(n_phi):",
     "replace": "for p in range(n_phi - 1):",
     "tests": [f"{TSEC}::test_parseval_reports_match_stacked_formula"],
     "expect": "killed",
     "reason": "the last angle phi never enters the total"},
    {"id": "parseval-overflow-guard-removed",
     "file": SECTIONS,
     "find": "    if not all(map(math.isfinite, [total, *terms.values()])):\n",
     "replace": "    if False:\n",
     "tests": [f"{TSEC}::test_parseval_past_float_range_is_a_precision_error"],
     "expect": "killed",
     "reason": "past the float range the report reads nan and fails "
               "instead of raising"},
    {"id": "parseval-overflow-warns",
     "file": SECTIONS,
     "find": '@np.errstate(over="ignore", invalid="ignore")\n'
             "def coefficient_inequality(",
     "replace": "def coefficient_inequality(",
     "tests": [f"{TSEC}::test_parseval_past_float_range_is_a_precision_error"],
     "expect": "killed",
     "reason": "overflow warnings reach the caller before the typed error"},
    {"id": "exp-mask-keeps-skipped-entries",
     "file": SECTIONS,
     "find": "        expo[~keep] = 0.0\n",
     "replace": "",
     "tests": [f"{TSEC}::test_log_norms_match_exp_everywhere"],
     "expect": "killed",
     "reason": "the skipped entries keep their exponents, so the sum is "
               "not the sum of exp"},
    # the fiber quadratures' exp-sinh rule
    {"id": "exp-sinh-level-skips-odd-nodes",
     "file": FIBER,
     "find": "x = np.arange(h - _X_MAX, _X_MAX, h if k == 0 else 2.0 * h)",
     "replace": "x = np.arange(2.0 * h - _X_MAX, _X_MAX, h if k == 0 else 2.0 * h)",
     "tests": [f"{TFIB}::test_exp_sinh_rule_matches_quadpack"],
     "expect": "killed",
     "reason": "a level that sums the previous nodes again agrees with "
               "them at once, so the rule stops at its first step"},
    {"id": "exp-sinh-centred-at-one",
     "file": FIBER,
     "find": "return math.sqrt(m.b / m.a)",
     "replace": "return 1.0",
     "tests": [f"{TFIB}::test_wide_ratios_match_closed_forms"],
     "expect": "killed",
     "reason": "at wide b/a the density's peak falls between the nodes"},
    {"id": "exp-sinh-float-range-unguarded",
     "file": FIBER,
     "find": 'with np.errstate(all="raise", under="ignore"):',
     "replace": 'with np.errstate(under="ignore"):',
     "tests": [f"{TFIB}::test_out_of_float_range_is_a_precision_error"],
     "expect": "killed",
     "reason": "an overflowing integrand warns and ends in NaN, not in a "
               "typed error"},
    # the envelope command's plot file
    {"id": "psi-column-guard-inverted",
     "file": "src/envlab/cli.py",
     "find": "if psi is None:",
     "replace": "if psi is not None:",
     "tests": ["tests/test_cli.py::test_envelope_command_empty_slope_lattice",
               "tests/test_cli.py::test_plot_data_1d_roundtrip"],
     "expect": "killed",
     "reason": "the psi column is written exactly when there is no "
               "approximant"},
    # the one file of each 2D weight
    {"id": "weight2d-csv-short-phi",
     "file": WEIGHTS,
     "find": 'f"{head}{s},{v!r}\\n"',
     "replace": 'f"{head}{s},{v:.15g}\\n"',
     "tests": ["tests/test_cli.py::test_glue_demo_with_config"],
     "expect": "killed",
     "reason": "15 digits do not read back as the weight's values"},
    # relative violations divide by the larger side, with no floor
    {"id": "holder-scale-floor",
     "file": FIBER,
     "find": "scale = max(abs(lhs), abs(rhs)) or 1.0",
     "replace": "scale = max(abs(lhs), abs(rhs), 1e-300)",
     "tests": [f"{TFIB}::test_holder_violation_is_scale_free"],
     "expect": "killed",
     "reason": "at a = b = 1e150 both sides are below the floor"},
    {"id": "parseval-scale-floor",
     "file": SECTIONS,
     "find": "scale = total or sum(terms.values()) or 1.0",
     "replace": "scale = max(total, 1e-300)",
     "tests": [f"{TSEC}::test_coefficient_inequality_is_scale_free"],
     "expect": "killed",
     "reason": "at 2^-500 times the coefficients the total is below the "
               "floor"},
    # the chart-box constants of the gap bound and the section sandwich
    {"id": "box-ends-dropped",
     "file": SECTIONS,
     "find": "    pts[starts], pts[starts + sizes - 1] = a, b\n",
     "replace": "",
     "tests": [f"{TSEC}::test_box_without_grid_points_is_measured_at_its_ends"],
     "expect": "killed",
     "reason": "a box is measured at the grid points beside it, not at its "
               "ends"},
    {"id": "box-c2-smallest-box",
     "file": SECTIONS,
     "find": "float((-np.log(dens)).max())",
     "replace": "float((-np.log(dens)).min())",
     "tests": [f"{TSEC}::test_comparison_constants_scale_with_the_weight"],
     "expect": "killed",
     "reason": "the density ratio is read in the box nearest s = 0 instead "
               "of at a grid end"},
    {"id": "reversed-box-accepted",
     "file": SECTIONS,
     "find": "        if b < a:",
     "replace": "        if False:",
     "tests": [f"{TSEC}::test_comparison_constants_cover_errors"],
     "expect": "killed",
     "reason": "a box (b, a) with b > a covers nothing but is measured at "
               "its two ends"},
    # the fibered weight reads the family curve of its own pair only
    {"id": "fibered-weight-pair-unchecked",
     "file": "src/envlab/family.py",
     "find": "    if fc.pair is not pair:",
     "replace": "    if False:",
     "tests": ["tests/test_family.py::test_fibered_weight_needs_its_own_family_curve"],
     "expect": "killed",
     "reason": "another pair's offsets are mixed into this pair's weight"},
    # the gluing verdict's rounding floor
    {"id": "glue-rounding-floor-unguarded",
     "file": "src/envlab/gluing.py",
     "find": 'if floor > (tol := CHECKS["hirzebruch-gluing"].tol):',
     "replace": "if False:",
     "tests": ["tests/test_cli.py::test_glue_demo_past_the_rounding_floor"],
     "expect": "killed",
     "reason": "a defect that is all rounding passes at epsilon = 1e300 and "
               "fails at 1e10"},
    # the registry's default tolerances and the --tol overrides
    {"id": "registry-tolerance-missing",
     "file": "src/envlab/report.py",
     "find": '"family curve right-continuous in t", None, 1e-9)',
     "replace": '"family curve right-continuous in t", None, None)',
     "tests": ["tests/test_cli.py::test_anchor_registry_covers_emitted_checks"],
     "expect": "killed",
     "reason": "the report carries no tolerance, so it has no verdict"},
    {"id": "registry-tolerance-loosened",
     "file": "src/envlab/report.py",
     "find": '"fiber probability density has unit mass", "fiber", 1e-10)',
     "replace": '"fiber probability density has unit mass", "fiber", 1e-3)',
     "tests": ["tests/test_cli.py::test_registry_default_tolerances_are_pinned"],
     "expect": "killed",
     "reason": "every report reads the loosened default, so only the "
               "pinned table sees it"},
    {"id": "tol-override-dropped",
     "file": "src/envlab/cli.py",
     "find": "            rep.tolerance = args.tol.get(CHECKS[rep.check].tol_name,\n"
             "                                         rep.tolerance)\n",
     "replace": "",
     "tests": ["tests/test_cli.py::test_tolerance_overrides_reach_their_reports"],
     "expect": "killed",
     "reason": "--tol is validated and then ignored"},
    {"id": "negative-seed-accepted",
     "file": "src/envlab/cli.py",
     "find": "    if args.seed < 0:",
     "replace": "    if False:",
     "tests": ["tests/test_cli.py::test_negative_seed"],
     "expect": "killed",
     "reason": "numpy takes no negative seed, so the run ends in a raw "
               "ValueError instead of an error line"},
    # mutants the Parseval check cannot see: its total depends on |F|^2
    # averaged over full periods only, which a conjugated factor leaves
    # unchanged; only the byte-for-byte comparison with the stacked formula
    # sees the conjugated product round differently
    {"id": "parseval-conjugate-fiber-factor",
     "file": SECTIONS,
     "find": "np.exp(1j * k * phi)",
     "replace": "np.exp(-1j * k * phi)",
     "tests": [TSEC, "tests/test_acceptance.py::test_coefficient_parseval"],
     "expect": "killed",
     "reason": "the total rounds differently, though it is the same "
               "integral"},
    {"id": "parseval-conjugate-base",
     "file": SECTIONS,
     "find": "np.exp(1j * th * degrees)",
     "replace": "np.exp(-1j * th * degrees)",
     "tests": [TSEC, "tests/test_acceptance.py::test_coefficient_parseval"],
     "expect": "killed",
     "reason": "as for the fiber factor: the same integral, rounded "
               "differently"},
    # the one convex hull of every slope polytope
    {"id": "hull-keeps-straight-turns",
     "file": WEIGHTS,
     "find": "if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 1e-12:",
     "replace": "if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > -1e-12:",
     "tests": [f"{T2D}::test_zero_area_polytope_is_its_segment_or_point"],
     "expect": "killed",
     "reason": "a collinear set keeps its middle vertices, once per chain"},
    {"id": "polygon-interior-vertex-accepted",
     "file": WEIGHTS,
     "find": "    if (_edge_turns(p, hull) > 1e-12).all(axis=1).any():\n"
             '        raise InvalidInputError("slope_polytope vertices are not convex")\n',
     "replace": "",
     "tests": ["tests/test_weights.py::test_weight2d_validation"],
     "expect": "killed",
     "reason": "a reflex vertex is silently hulled away"},
    {"id": "glue-hulls-outer-polytope-only",
     "file": "src/envlab/gluing.py",
     "find": "_convex_hull(np.vstack([outer.slope_polytope, inner.slope_polytope]))",
     "replace": "_convex_hull(outer.slope_polytope)",
     "tests": ["tests/test_gluing.py::test_glue_merges_polytopes_into_their_hull"],
     "expect": "killed",
     "reason": "the inner chart's slopes drop out of the glued polytope"},
]


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in COPIED:
        path = os.path.join(ROOT, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(path, dest)


def summary_ids(stdout):
    """Test ids on pytest's short-summary lines: a test that failed
    (``FAILED``) or whose setup or teardown raised (``ERROR``)."""
    return [line.split(" ", 1)[1].split(" - ")[0]
            for line in stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def run_entry(entry):
    """Apply ``entry`` to a fresh copy, run its tests; the outcome record."""
    record = {"id": entry["id"], "expect": entry["expect"]}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        target = os.path.join(tmp, entry["file"])
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        hits = text.count(entry["find"])
        if hits != 1:
            record.update(outcome="stale", detail=f"snippet found {hits} times")
            return record
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(entry["find"], entry["replace"]))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *entry["tests"]]
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            record.update(outcome="error", detail=f"timed out after {TIMEOUT} s")
            return record
        record["seconds"] = round(time.perf_counter() - start, 2)
        # pytest: 0 all passed, 1 some test failed, anything else did not run
        if done.returncode == 0:
            record["outcome"] = "survived"
        elif done.returncode == 1:
            record["outcome"] = "killed"
            record["detail"] = summary_ids(done.stdout)[:3]
        else:
            record.update(outcome="error",
                          detail=(done.stdout + done.stderr).strip()[-400:])
    return record


def summarise(records):
    wanted = {"killed": "killed", "survive": "survived"}
    out = {k: [r["id"] for r in records if r["outcome"] == k]
           for k in ("killed", "survived", "stale", "error")}
    out["unexpected"] = [r["id"] for r in records
                         if r["outcome"] != wanted[r["expect"]]]
    out["entries"] = records
    return out


def main():
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        records = list(pool.map(run_entry, CATALOGUE))
    for r in records:
        print(f"{r['id']:34s} {r['outcome']:8s} (expect {r['expect']})",
              file=sys.stderr)
    summary = summarise(records)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["unexpected"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
