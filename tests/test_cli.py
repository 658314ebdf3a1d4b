import json
import os
import time

import numpy as np
import pytest

from envlab import SampledWeight, SampledWeight2D, save_weight_csv
from envlab.checks import CHECKS
from envlab import cli
from envlab.cli import (RunManifest, export_plot_data, export_report,
                        load_plot_data, main, run)
from envlab.report import VerificationReport


def _convex_csv(tmp_path):
    s = np.linspace(-10, 10, 257)
    u = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    w = SampledWeight(s, u, 0.0, 1.0)
    path = tmp_path / "convex.csv"
    save_weight_csv(w, path)
    return path, w


def test_manifest_validation():
    with pytest.raises(ValueError):
        RunManifest(command="bogus")
    with pytest.raises(ValueError):
        RunManifest(command="family", tolerances={"family": -1.0})


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


def test_bad_tolerance_flag(tmp_path):
    code = main(["family", "--out", str(tmp_path), "--tol", "family=abc"])
    assert code == 2


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


def test_fiber_check_oracle_flag(tmp_path):
    code = main(["fiber-check", "--oracle-K", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "fiber-normalization.json").read_text())
    assert rep["details"]["K_oracle"] == pytest.approx(2.0)
    assert rep["details"]["K_stated"] == 4.0
    assert rep["details"]["normalizations_agree"] is False


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
    for name in ("glued", "outer", "inner"):
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}.dat").exists()


def test_report_determinism(tmp_path):
    rep = VerificationReport("fiber-volume", 1e-12, 1e-10, {"cases": 1}, {})
    p1 = export_report(rep, tmp_path, "a", seed=7, wall_time=None)
    p2 = export_report(rep, tmp_path, "b", seed=7, wall_time=None)
    strip = lambda p: [l for l in open(p) if "timestamp" not in l]
    assert strip(p1) == strip(p2)
    body = json.loads(open(p1).read())
    assert "timestamp" in body and body["anchor"] == CHECKS["fiber-volume"].anchor


def test_export_rejects_unregistered_check(tmp_path):
    rep = VerificationReport("orphan-check", 0.0, 1.0, {}, {})
    with pytest.raises(KeyError):
        export_report(rep, tmp_path, "orphan")
    assert not os.listdir(tmp_path)


def test_unregistered_check_is_a_program_fault(tmp_path, monkeypatch):
    # a handler emitting a check outside the registry is a bug, not bad input
    def orphan(manifest):
        yield VerificationReport("orphan-check", 0.0, 1.0, {}, {})

    monkeypatch.setitem(cli.COMMANDS, "family", (orphan, "family curve checks"))
    with pytest.raises(KeyError):
        main(["family", "--out", str(tmp_path)])


def test_envelope_manifest_without_input(tmp_path, capsys):
    assert run(RunManifest("envelope", out_dir=str(tmp_path))) == 2
    assert "input" in capsys.readouterr().err


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
    emitted = {rep["check"] for d in (out, tmp_path) for rep in _reports(d).values()}
    # the acceptance suite runs envelope-gap-bound; no CLI command does
    assert set(CHECKS) - emitted == {"envelope-gap-bound"}


def test_wall_times_are_per_check(verify_all_run):
    out, _, elapsed = verify_all_run
    times = [rep["wall_time_s"] for rep in _reports(out).values()]
    assert len(times) == 9 and all(t > 0 for t in times)
    assert sum(times) <= elapsed


def test_plot_data_1d_roundtrip(tmp_path):
    _, w = _convex_csv(tmp_path)
    path = export_plot_data(w, tmp_path / "w.dat")
    cols = load_plot_data(path)
    assert cols.shape == (w.grid.size, 4)
    assert np.abs(cols[:, 0] - w.grid).max() == 0.0
    assert np.abs(cols[:, 1] - w.values).max() == 0.0


def test_plot_data_2d_blocks(tmp_path):
    gt = np.linspace(0, 1, 3)
    gs = np.linspace(0, 1, 4)
    w = SampledWeight2D(gt, gs, np.arange(12.0).reshape(3, 4))
    path = export_plot_data(w, tmp_path / "w2.dat")
    text = open(path).read()
    assert text.count("\n\n") == gt.size  # one blank separator per tau block
    cols = load_plot_data(path)
    assert cols.shape == (12, 3)
    assert np.abs(cols[:, 2] - w.values.ravel()).max() == 0.0


AWKWARD = [-0.0, 5e-324, 0.1, 1 / 3, 1e300, -2.5e-17]


def test_plot_data_matches_per_element_format(tmp_path):
    # reference: one f-string per element on numpy scalars
    grid = np.concatenate([np.linspace(-3.0, -1.0, 5000),
                           np.sort(np.array(AWKWARD))])
    cols = [np.resize(np.roll(AWKWARD, i), grid.size) for i in range(3)]
    w, env, psi = (SampledWeight(grid, c, 0.0, 1.0) for c in cols)
    expected = "# s u u_e psi\n" + "".join(
        f"{s:.17g} {u:.17g} {ue:.17g} {p:.17g}\n"
        for s, u, ue, p in zip(w.grid, w.values, env.values, psi.values))
    export_plot_data(w, tmp_path / "w.dat", envelope=env, psi=psi)
    assert (tmp_path / "w.dat").read_text() == expected

    axis = np.sort(np.array(AWKWARD))
    w2 = SampledWeight2D(axis, axis, np.array([np.roll(AWKWARD, i)
                                               for i in range(axis.size)]))
    expected = "# tau s phi\n"
    for i, tau in enumerate(w2.grid_tau):
        for s, v in zip(w2.grid_s, w2.values[i]):
            expected += f"{tau:.17g} {s:.17g} {v:.17g}\n"
        expected += "\n"
    export_plot_data(w2, tmp_path / "w2.dat")
    assert (tmp_path / "w2.dat").read_text() == expected
    assert "-0 " in expected and "4.9406564584124654e-324" in expected


@pytest.mark.parametrize("config, stage, message", [
    ([1, 2], None, "config must be a JSON object"),
    ({"k": None}, "config", "config k must be a finite number"),
    ({"epsilon": "wide"}, "config", "config epsilon must be a finite number"),
    ({"grid": 2}, "normalize", "grid=2"),
    ({"grid": -1}, "config", "grid must be >= 2"),
], ids=["not-an-object", "null-value", "non-numeric-value", "empty-annulus",
        "negative-grid"])
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
