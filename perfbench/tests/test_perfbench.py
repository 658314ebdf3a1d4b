"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

They use the ``--smoke`` inputs, apart from the 2-d envelope oracle, which
checks the primary route on the full gap-bound input (about ten seconds).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import envlab  # noqa: E402
import envlab.cli  # noqa: E402
import envlab.family  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import _tail  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_result_line(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])["report"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert report["checks_failed_ratio"] == 0.0
    assert set(report["env"]) >= {"nproc", "python", "numpy", "scipy", "envlab",
                                  "git_commit", "blas_threads"}
    assert not [p for p in (HERE / "out").iterdir() if p.is_dir()]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_split_in_smoke_traces():
    """envelope2d only on gap-bound; fiber and Parseval only on cli-battery."""
    layer = {}
    for workload in ("gap-bound", "cli-battery", "fine-grid"):
        done = _run("--workload", workload, "--seed", "4", "--seconds", "0",
                    "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        layer[workload] = {k: v["value"] for k, v in metrics.items()}
    calls_2d = "envelope2d.equilibrium_envelope_2d.calls"
    assert layer["gap-bound"][calls_2d] == 1
    assert layer["cli-battery"][calls_2d] == layer["fine-grid"][calls_2d] == 0
    for name in ("fiber.fiber_volume.calls", "fiber.bergman_fiber_integral.calls",
                 "sections.coefficient_inequality.calls", "cli.export.files"):
        assert layer["cli-battery"][name] > 0
        assert layer["gap-bound"][name] == layer["fine-grid"][name] == 0


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "gap-bound", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_rebinds_imported_names_and_restores_them():
    original = envlab.equilibrium_envelope
    with tracing.Tracer() as tracer:
        for module in (envlab, envlab.family, envlab.cli, envlab.sections):
            assert module.equilibrium_envelope is not original
        assert envlab.gluing.family_curve is envlab.family.family_curve
        envlab.family_curve(workloads.jittered_pair(np.random.default_rng(0), 65),
                            [0.0, 0.5])
    for module in (envlab, envlab.family, envlab.cli, envlab.sections):
        assert module.equilibrium_envelope is original
    spans = tracer.take()
    assert [s["name"] for s in spans] == ["family.family_curve"] + \
        ["envelope.equilibrium_envelope"] * 2
    assert spans[1]["parent"] == spans[2]["parent"] == 0


def test_layer_metrics_self_time_and_glue():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None, "error": False},
        {"name": "fiber.fiber_volume", "start": 1.0, "end": 3.0, "parent": 0,
         "error": True},
        {"name": "cli.export", "start": 4.0, "end": 8.0, "parent": 0, "error": False},
        {"name": "sections.psi1_approximant", "start": 5.0, "end": 6.0, "parent": 2,
         "error": False},
    ]
    m = tracing.layer_metrics(spans, wall_s=12.0)
    assert m["cli.main.self_s"] == 4.0
    assert m["cli.export.self_s"] == 3.0
    assert m["fiber.fiber_volume.self_s"] == 2.0
    assert m["fiber.fiber_volume.calls"] == 1 and m["fiber.errors"] == 1
    assert m["trace.glue_s"] == 2.0
    assert m["trace.layer_self_s"] + m["trace.glue_s"] == 12.0
    assert set(m) == set(tracing.METRICS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert _tail(list(range(10))) is None
    tail = _tail(list(range(20)))
    assert tail == {"percentile": 50.0, "value": 9}


def test_envelope_2d_against_per_node_lp_on_gap_bound_input():
    """Primary 2-d route vs an independent LP over all nodes and P's rows."""
    sizes = workloads.FULL
    inp = workloads.WORKLOADS["gap-bound"].setup(5, sizes, None)
    pair = inp["pair"]
    w = envlab.naive_fibered_weight(pair, inp["tau_grid"])
    env = envlab.equilibrium_envelope_2d(w).values.ravel()
    tt, ss = np.meshgrid(w.grid_tau, w.grid_s, indexing="ij")
    wt, ws, uu = tt.ravel(), ss.ravel(), w.values.ravel()
    # Cayley polytope 0 <= p <= 1, 0 <= q <= p d_A + (1 - p) d_L, over (p, q, alpha)
    d_A, d_L = pair.d_A, pair.d_L
    a_poly = [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [-(d_A - d_L), 1, 0]]
    b_poly = [0, 1, 0, d_L]
    a_ub = np.vstack([np.stack([wt, ws, np.ones_like(wt)], axis=1), a_poly])
    b_ub = np.concatenate([uu, b_poly])
    scale = max(1.0, float(np.abs(uu).max()))
    rng = np.random.default_rng(20261017)
    for v in rng.choice(uu.size, size=24, replace=False):
        res = linprog(c=[-wt[v], -ws[v], -1.0], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * 3, method="highs")
        assert res.success
        assert abs(-res.fun - env[v]) <= 1e-7 * scale, v
