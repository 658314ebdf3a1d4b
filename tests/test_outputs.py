"""tools/outputs.py, the output comparison of two trees: run on the working
tree against itself it finds nothing, and it names every kind of change."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _outputs():
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = _outputs()


def test_working_tree_against_itself_differs_nowhere(tmp_path):
    short = [c for c in OUTPUTS.COMMANDS
             if c[0] in ("envelope-4096", "glue-demo-empty-config")]
    assert len(short) == 2
    runs = [OUTPUTS.run_tree(str(ROOT), short, str(tmp_path / k)) for k in "ab"]
    # the commands ran: a report with its volatile fields, and an exit 2
    code, _, _, files = runs[0]["envelope-4096"]
    assert code == 0 and b'"wall_time_s"' in files["out/envelope-run.json"]
    assert {"out/envelope.csv", "out/envelope.dat"} <= files.keys()
    code, out, err, _ = runs[0]["glue-demo-empty-config"]
    assert code == 2 and not out and err.startswith(b"error: ")
    assert OUTPUTS.compare(*runs) == []


def test_compare_names_each_difference_and_drops_only_volatile_lines():
    report = (b'{\n  "check": "x",\n  "details": {\n    "timestamp": 1\n  },\n'
              b'  "timestamp": 1.5,\n  "wall_time_s": 0.25\n}\n')
    base = {"run": (0, b"ok\n", b"", {"out/r.json": report, "out/gone.csv": b"1\n"})}
    same = {"run": (0, b"ok\n", b"", {
        "out/r.json": report.replace(b"1.5", b"9.5").replace(b"0.25", b"0.5"),
        "out/gone.csv": b"1\n"})}
    assert OUTPUTS.compare(base, same) == []
    nested = report.replace(b'"timestamp": 1\n', b'"timestamp": 2\n')
    head = {"run": (2, b"ok\n", b"error: x\n", {"out/r.json": nested,
                                                 "out/new.csv": b"1\n"})}
    lines = [line for line in OUTPUTS.compare(base, head)
             if not line.startswith(" ")]
    assert lines == ["run: exit status 0 -> 2", "run: stderr differs",
                     "run: out/gone.csv only in ref",
                     "run: out/new.csv only in tree", "run: out/r.json differs"]
