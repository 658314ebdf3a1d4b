import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envlab import (FiberMeasure, SampledWeight, equilibrium_envelope,
                    holder_fiber_chain, save_weight_csv)
from envlab.gluing import GRID_MAX, hirzebruch_demo
from envlab import cli
from envlab.cli import export_plot_data, export_report, main
from envlab.report import CHECKS, TOLERANCE_NAMES, VerificationReport

SRC = Path(__file__).resolve().parents[1] / "src"


def _convex_csv(tmp_path):
    s = np.linspace(-10, 10, 257)
    u = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    w = SampledWeight(s, u, 0.0, 1.0)
    path = tmp_path / "convex.csv"
    save_weight_csv(w, path)
    return path, w


def test_unknown_command_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_envelope_command_convex_fixed_point(tmp_path):
    path, w = _convex_csv(tmp_path)
    out = tmp_path / "fresh" / "nested"  # run() creates it
    code = main(["envelope", "--input", str(path), "--out", str(out)])
    assert code == 0
    out_csv = np.loadtxt(out / "envelope.csv", delimiter=",", skiprows=1)
    assert np.abs(out_csv[:, 1] - w.values).max() <= 1e-10
    assert (out / "envelope.dat").exists()
    report = json.loads((out / "envelope-run.json").read_text())
    assert report["status"] == "pass"
    assert report["seed"] == 42


def test_envelope_command_missing_input(tmp_path):
    code = main(["envelope", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_envelope_command_empty_input(tmp_path):
    # a fresh process, so a warning numpy prints would reach its stderr
    path = tmp_path / "empty.csv"
    path.write_text("")
    (tmp_path / "empty.csv.json").write_text(
        json.dumps({"slope_left": 0.0, "slope_right": 1.0}))
    done = subprocess.run(
        [sys.executable, "-m", "envlab.cli", "envelope", "--input", str(path),
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_envelope_command_empty_slope_lattice(tmp_path):
    # no k/64 lies in [0.501, 0.51]: the envelope exists, the psi column
    # has no approximant and is left out
    s = np.linspace(-10, 10, 257)
    path = tmp_path / "narrow.csv"
    save_weight_csv(SampledWeight(s, 0.505 * s + np.sin(s), 0.501, 0.51), path)
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "envlab.cli", "envelope", "--input", str(path),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads((out / "envelope-run.json").read_text())
    assert report["check"] == "envelope-run" and report["status"] == "pass"
    text = (out / "envelope.dat").read_text()
    assert text.startswith("# s u u_e\n")
    cols = np.loadtxt(out / "envelope.dat", ndmin=2)
    assert cols.shape == (s.size, 3)
    env = np.loadtxt(out / "envelope.csv", delimiter=",", skiprows=1)
    assert cols[:, 2].tobytes() == env[:, 1].tobytes()


def test_bad_tolerance_flag(tmp_path):
    code = main(["family", "--out", str(tmp_path), "--tol", "family=abc"])
    assert code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-9"])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, value):
    code = main(["family", "--out", str(tmp_path), "--tol", f"family={value}"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not os.listdir(tmp_path)


def test_envelope_command_bool_slope_sidecar(tmp_path, capsys):
    path = tmp_path / "w.csv"
    save_weight_csv(SampledWeight(np.linspace(-5, 5, 65), np.zeros(65), 0.0, 1.0), path)
    (tmp_path / "w.csv.json").write_text(
        json.dumps({"slope_left": False, "slope_right": True}))
    out = tmp_path / "out"
    code = main(["envelope", "--input", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad slope sidecar"), err
    assert os.listdir(out) == []


def test_unknown_tolerance_name(tmp_path, capsys):
    code = main(["family", "--out", str(tmp_path), "--tol", "familly=1e-9"])
    assert code == 2
    err = capsys.readouterr().err
    assert "familly" in err
    assert "envelope, family, fiber, fiber_rel, sandwich, parseval" in err
    assert not os.listdir(tmp_path)


def test_glue_demo_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grdi": 48}))
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "grdi" in err and "k, d_A, d_L, grid, epsilon" in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_fiber_check_oracle_flag(tmp_path, capsys):
    # both constants are always reported, so there is no flag to ask for them
    code = main(["fiber-check", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "fiber-normalization.json").read_text())
    assert rep["details"]["K_oracle"] == pytest.approx(2.0)
    assert rep["details"]["K_stated"] == 4.0
    assert rep["details"]["normalizations_agree"] is False
    with pytest.raises(SystemExit) as exc:
        main(["fiber-check", "--oracle-K", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    assert "--oracle-K" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ENVLAB_OUT", str(tmp_path))
    code = main(["fiber-check"])
    assert code == 0
    assert (tmp_path / "fiber-volume.json").exists()


def test_glue_demo_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 48}))
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    # each weight's one file, tau,s,phi rows tau-major, reads back exactly
    _, weights = hirzebruch_demo({"grid": 48})
    for name in ("glued", "outer", "inner"):
        w = weights[name]
        n_tau, n_s = w.values.shape
        tau, s, phi = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",",
                                 skiprows=1).T
        assert np.array_equal(tau, np.repeat(w.grid_tau, n_s))
        assert np.array_equal(s, np.tile(w.grid_s, n_tau))
        assert np.array_equal(phi, w.values.ravel())


@pytest.mark.parametrize("grid", [10 ** 30, GRID_MAX + 1])
def test_glue_demo_grid_past_bound(tmp_path, capsys, grid):
    # rejected at the config stage, before any grid array is allocated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid}))
    tracemalloc.start()
    try:
        code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"grid must be <= {GRID_MAX}, got {grid}" in err[0]
    assert peak < 1 << 20
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_glue_demo_integral_floats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3.0, "grid": 48.0, "epsilon": 1}))
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "hirzebruch-gluing.json").read_text())
    assert report["grid"] == {"tau_points": 48, "s_points": 48}
    assert report["details"]["k"] == 3 and type(report["details"]["k"]) is int
    assert type(report["details"]["epsilon"]) is float


def test_report_determinism(tmp_path):
    rep = VerificationReport("fiber-volume", 1e-12, 1e-10, {"cases": 1}, {})
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = export_report(rep, tmp_path / "a", seed=7, wall_time=None)
    p2 = export_report(rep, tmp_path / "b", seed=7, wall_time=None)
    assert Path(p1) == tmp_path / "a" / "fiber-volume.json"
    strip = lambda p: [l for l in open(p) if "timestamp" not in l]
    assert strip(p1) == strip(p2)
    body = json.loads(open(p1).read())
    assert "timestamp" in body and body["anchor"] == CHECKS["fiber-volume"].anchor


def test_report_rejects_unregistered_check():
    with pytest.raises(KeyError):
        VerificationReport("orphan-check", 0.0, 1.0, {}, {})


def test_registry_default_tolerances_are_pinned():
    # every report takes its default from the registry, so this table is
    # the one other copy that notices a loosened default
    assert {name: c.tol for name, c in CHECKS.items()} == {
        "envelope-oracle-equivalence": 1e-8,
        "family-monotonicity": 1e-9,
        "family-right-continuity": 1e-9,
        "fiber-volume": 1e-10,
        "fiber-normalization": 1e-8,
        "fiber-power-mean": 1e-10,
        "section-sandwich": 1e-9,
        "coefficient-parseval": 1e-8,
        "regularized-max-contract": 1e-10,
        "hirzebruch-gluing": 1e-9,
        "envelope-run": 1e-8,
        "envelope-gap-bound": 0.0,
    }


def test_export_power_mean_report(tmp_path):
    rep = holder_fiber_chain(FiberMeasure(2.0, 0.5), 0.5, 2)
    path = Path(export_report(rep, tmp_path))
    assert path == tmp_path / "fiber-power-mean.json"
    body = json.loads(path.read_text())
    assert body["anchor"] == CHECKS["fiber-power-mean"].anchor
    assert body["tolerance"] == CHECKS["fiber-power-mean"].tol


def test_unregistered_check_is_a_program_fault(tmp_path, monkeypatch):
    # a handler emitting a check outside the registry is a bug, not bad input
    def orphan(args):
        yield VerificationReport("orphan-check", 0.0, 1.0, {}, {})

    monkeypatch.setitem(cli.COMMANDS, "family", (orphan, "family curve checks"))
    with pytest.raises(KeyError):
        main(["family", "--out", str(tmp_path)])


def test_value_error_in_handler_is_a_program_fault(tmp_path, monkeypatch):
    # a shape or broadcast bug inside a handler is not bad input
    def broken(args):
        raise ValueError("operands could not be broadcast together")
        yield

    monkeypatch.setitem(cli.COMMANDS, "family", (broken, "family curve checks"))
    with pytest.raises(ValueError):
        main(["family", "--out", str(tmp_path)])


def test_negative_seed(tmp_path, capsys):
    assert main(["fiber-check", "--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed"), err


def test_glue_demo_config_not_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad")
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config"), err


@pytest.fixture(scope="module")
def verify_all_run(tmp_path_factory):
    """One timed ``verify-all --seed 3``: (out dir, exit code, wall time)."""
    out = tmp_path_factory.mktemp("verify-all")
    start = time.perf_counter()
    code = main(["verify-all", "--seed", "3", "--out", str(out)])
    return out, code, time.perf_counter() - start


def _reports(out):
    return {name: json.loads((out / name).read_text())
            for name in os.listdir(out)
            if name.endswith(".json") and not name.endswith(".csv.json")}


def test_anchor_registry_covers_emitted_checks(verify_all_run, tmp_path):
    out, code, _ = verify_all_run
    assert code == 0
    for name, rep in _reports(out).items():
        assert name == rep["check"] + ".json"
        assert rep["seed"] == rep["details"].get("seed", 3) == 3
        assert rep["anchor"] == CHECKS[rep["check"]].anchor
    path, _ = _convex_csv(tmp_path)
    assert main(["envelope", "--input", str(path), "--out", str(tmp_path)]) == 0
    reports = [rep for d in (out, tmp_path) for rep in _reports(d).values()]
    # every run above is at default tolerances
    for rep in reports:
        assert rep["tolerance"] == CHECKS[rep["check"]].tol
    emitted = {rep["check"] for rep in reports}
    # the acceptance suite runs envelope-gap-bound and the fiber tests and
    # demo 03 run fiber-power-mean; no CLI command does
    assert set(CHECKS) - emitted == {"envelope-gap-bound", "fiber-power-mean"}


def test_tolerance_overrides_reach_their_reports(tmp_path):
    # at 1e-300 every overridden check fails on its rounding error alone;
    # a check without a --tol name keeps its default
    s = np.linspace(-10, 10, 257)
    bumpy = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0) + np.exp(-s * s)
    path = tmp_path / "bumpy.csv"
    save_weight_csv(SampledWeight(s, bumpy, 0.0, 1.0), path)
    every = [arg for name in TOLERANCE_NAMES
             for arg in ("--tol", f"{name}=1e-300")]
    runs = {"all": (["verify-all", "--seed", "3", *every], TOLERANCE_NAMES),
            "envelope": (["envelope", "--input", str(path),
                          "--tol", "envelope=1e-300"], ("envelope",))}
    for label, (argv, names) in runs.items():
        out = tmp_path / label
        assert main(argv + ["--out", str(out)]) == 1
        reports = _reports(out).values()
        assert {CHECKS[rep["check"]].tol_name for rep in reports} >= set(names)
        for rep in reports:
            entry = CHECKS[rep["check"]]
            want = 1e-300 if entry.tol_name in names else entry.tol
            assert rep["tolerance"] == want, rep["check"]


def test_wall_times_are_per_check(verify_all_run):
    out, _, elapsed = verify_all_run
    times = [rep["wall_time_s"] for rep in _reports(out).values()]
    assert len(times) == 9 and all(t > 0 for t in times)
    assert sum(times) <= elapsed


def test_verify_all_writes_reports_and_csvs(verify_all_run):
    # one JSON per check and one CSV per glued weight, nothing else
    out, _, _ = verify_all_run
    reports = set(_reports(out))
    assert len(reports) == 9
    assert sorted(set(os.listdir(out)) - reports) == [
        "glued.csv", "inner.csv", "outer.csv"]


def test_plot_data_1d_roundtrip(tmp_path):
    _, w = _convex_csv(tmp_path)
    path = export_plot_data(w, tmp_path / "w.dat",
                            equilibrium_envelope(w, w.slope_interval))
    cols = np.loadtxt(path, ndmin=2)
    assert cols.shape == (w.grid.size, 4)
    assert np.abs(cols[:, 0] - w.grid).max() == 0.0
    assert np.abs(cols[:, 1] - w.values).max() == 0.0


AWKWARD = [-0.0, 5e-324, 0.1, 1 / 3, 1e300, -2.5e-17]


def test_plot_data_matches_per_element_format(tmp_path):
    # reference: one f-string per element on numpy scalars
    grid = np.concatenate([np.linspace(-3.0, -1.0, 5000),
                           np.sort(np.array(AWKWARD))])
    cols = [np.resize(np.roll(AWKWARD, i), grid.size) for i in range(2)]
    # slope data (0, 0): no approximant, so the psi column is the envelope
    w, env = (SampledWeight(grid, c, 0.0, 0.0) for c in cols)
    expected = "# s u u_e psi\n" + "".join(
        f"{s:.17g} {u:.17g} {ue:.17g} {ue:.17g}\n"
        for s, u, ue in zip(w.grid, w.values, env.values))
    export_plot_data(w, tmp_path / "w.dat", envelope=env)
    assert (tmp_path / "w.dat").read_text() == expected
    assert "-0 " in expected and "4.9406564584124654e-324" in expected


@pytest.mark.parametrize("config, floor", [
    ({"epsilon": 1e300}, "6e+285"), ({"epsilon": 1e10}, "7.69e-05"),
    ({"k": 100000}, "4.69e-09")])
def test_glue_demo_past_the_rounding_floor(tmp_path, capsys, config, floor):
    # the defect of such a weight is rounding: 0 for epsilon = 1e300, a
    # failure for the other two; either way there is no verdict to give
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage 'verify'")
    assert f"rounding floor {floor} " in lines[0]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("config, stage, message", [
    ([1, 2], None, "config must be a JSON object"),
    ({"k": None}, "config", "config k must be a finite number"),
    ({"epsilon": "wide"}, "config", "config epsilon must be a finite number"),
    ({"grid": 2}, "normalize", "grid=2"),
    ({"grid": -1}, "config", "grid must be >= 2"),
    ({"k": 2.5}, "config", "config k must be an integer, got 2.5"),
    ({"d_A": 1.5}, "config", "config d_A must be an integer"),
    ({"d_L": 0.5}, "config", "config d_L must be an integer"),
    ({"grid": 16.5}, "config", "config grid must be an integer"),
    ({"k": True}, "config", "config k must be a finite number, got True"),
    ({"grid": False}, "config", "config grid must be a finite number"),
    ({"k": "3"}, "config", "config k must be a finite number, got '3'"),
    ({"epsilon": "0.5"}, "config", "config epsilon must be a finite number"),
    ({"epsilon": True}, "config", "config epsilon must be a finite number"),
], ids=["not-an-object", "null-value", "non-numeric-value", "empty-annulus",
        "negative-grid", "fractional-k", "fractional-d_A", "fractional-d_L",
        "fractional-grid", "boolean-k", "boolean-grid", "string-k",
        "string-epsilon", "boolean-epsilon"])
def test_glue_demo_bad_config(tmp_path, capsys, config, stage, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["glue-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    if stage is not None:
        assert f"stage '{stage}'" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


# ---------------------------------------------------------------------------
# The exit-status contract of main() on generated inputs.

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(),
    st.just(10 ** 400), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _weight_csvs(draw):
    """Weight CSV text: empty, one row, non-numeric, non-increasing or valid."""
    kind = draw(st.sampled_from(
        ["empty", "one-row", "non-numeric", "non-increasing", "valid"]))
    if kind == "empty":
        return draw(st.sampled_from(["", "s,u\n"]))
    n = 1 if kind == "one-row" else draw(st.integers(2, 24))
    s = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    s = sorted(s, reverse=kind == "non-increasing")
    if kind == "valid":
        s = [x + i for i, x in enumerate(sorted(s))]
    u = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rows = [f"{a!r},{b!r}" for a, b in zip(s, u)]
    if kind == "non-increasing":
        rows.append(rows[-1])
    if kind == "non-numeric":
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            ["x,1.0", "1.0,", "1.0;2.0", "nan,inf", "0x1,2"]))
    return "s,u\n" + "".join(row + "\n" for row in rows)


@st.composite
def _sidecars(draw):
    """Sidecar JSON text: a scalar, an object missing a key, or both keys
    holding scalars (numbers included); None leaves the sidecar out."""
    kind = draw(st.sampled_from(["absent", "scalar", "missing-key", "object"]))
    if kind == "absent":
        return None
    if kind == "scalar":
        return json.dumps(draw(_JSON_SCALARS))
    value = st.one_of(_JSON_SCALARS, st.floats(-3.0, 3.0))
    keys = ["slope_left", "slope_right"]
    if kind == "missing-key":
        keys = [draw(st.sampled_from(keys))]
    return json.dumps({k: draw(value) for k in keys})


@st.composite
def _glue_configs(draw):
    """Glue-demo configs: known and unknown keys with bool, str, float and
    int values; grid is always set and at most 48."""
    keys = st.sampled_from(["k", "d_A", "d_L", "epsilon", "grdi", "eps"])
    config = draw(st.dictionaries(keys, _JSON_SCALARS, max_size=4))
    config["grid"] = draw(st.one_of(
        st.integers(-2, 48), st.floats(max_value=48.0), st.booleans(),
        st.text(max_size=3), st.none()))
    return config


_BAD_TOL_VALUES = ["inf", "-inf", "nan", "0", "-0.0", "-1e-9", "-3", "abc"]


@st.composite
def _cli_cases(draw):
    """(argv template, files): "{d}" in argv stands for the case directory."""
    command = draw(st.sampled_from(["envelope", "glue-demo"]))
    files = {}
    if command == "envelope":
        argv = ["envelope", "--input", "{d}/w.csv"]
        files["w.csv"] = draw(_weight_csvs())
        sidecar = draw(_sidecars())
        if sidecar is not None:
            files["w.csv.json"] = sidecar
    else:
        argv = ["glue-demo", "--config", "{d}/cfg.json"]
        files["cfg.json"] = json.dumps(draw(_glue_configs()))
    if draw(st.booleans()):
        name = draw(st.sampled_from(list(TOLERANCE_NAMES) + ["bogus", ""]))
        value = draw(st.sampled_from(
            _BAD_TOL_VALUES if name in TOLERANCE_NAMES
            else _BAD_TOL_VALUES + ["1e-9"]))
        argv += ["--tol", f"{name}={value}"]
    return argv + ["--out", "{d}/out"], files


@settings(max_examples=60, deadline=None)
@given(_cli_cases())
@example(case=(["glue-demo", "--config", "{d}/cfg.json", "--out", "{d}/out"],
               {"cfg.json": json.dumps({"k": 10 ** 400, "grid": 8})}))
def test_main_exit_status_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([a.replace("{d}", d) for a in argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not any(line.startswith("error:") for line in lines), lines
