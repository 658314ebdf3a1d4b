"""scipy stays off the import path: a fresh process imports the CLI and runs
its scipy-free commands with no scipy module loaded, and scipy loads on
first use by the fiber quadratures and the 2-d envelope."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from envlab import SampledWeight, save_weight_csv

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, csv = sys.argv[1:]
import envlab, envlab.cli
loaded, codes = {"import": scipy_modules()}, {}
for argv in (["envelope", "--input", csv], ["family"], ["sections-check"],
             ["glue-demo"], ["fiber-check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = envlab.cli.main(argv + ["--out", f"{out}/{argv[0]}"])
    loaded[argv[0]] = scipy_modules()

import numpy as np
t = np.linspace(-2.0, 2.0, 9)
tt, ss = np.meshgrid(t, t, indexing="ij")
w = envlab.SampledWeight2D(t, t, tt ** 2 + ss ** 2 - np.cos(3.0 * tt),
                           [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
env = envlab.equilibrium_envelope_2d(w).values
codes["envelope2d"] = int(not bool(np.all(env <= w.values)))
loaded["envelope2d"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_loads_only_on_first_use(tmp_path):
    s = np.linspace(-10.0, 10.0, 65)
    csv = tmp_path / "weight.csv"
    save_weight_csv(SampledWeight(s, np.abs(s) + np.sin(s), -1.0, 1.0), csv)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "out"), str(csv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == {"envelope": 0, "family": 0, "sections-check": 0,
                               "glue-demo": 0, "fiber-check": 0, "envelope2d": 0}
    loaded = result["loaded"]
    for step in ("import", "envelope", "family", "sections-check", "glue-demo"):
        assert loaded[step] == [], step
    assert "scipy.integrate" in loaded["fiber-check"]
    assert "scipy.spatial" in loaded["envelope2d"]
