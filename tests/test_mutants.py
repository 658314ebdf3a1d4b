"""The mutation catalogue in tools/mutants.py stays fresh: every snippet
occurs once in its file and every test it names exists.  No mutant is
applied here; ``python tools/mutants.py`` does that."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _mutants()
CATALOGUE = MUTANTS.CATALOGUE


def _test_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("entry", CATALOGUE, ids=lambda e: e["id"])
def test_catalogue_entry_is_fresh(entry):
    text = (ROOT / entry["file"]).read_text(encoding="utf-8")
    assert text.count(entry["find"]) == 1
    for test_id in entry["tests"]:
        path, _, name = test_id.partition("::")
        assert (ROOT / path).is_file(), test_id
        if name:
            assert name.partition("[")[0] in _test_functions(ROOT / path), test_id


def test_summary_ids_take_failed_and_error_lines():
    # pytest -q output: a failed test, a fixture that raised, and an
    # indented FAILED inside a traceback that is not a summary line
    stdout = (
        "F.E                                                  [100%]\n"
        "=========================== FAILURES ===========================\n"
        "    FAILED tests/test_a.py::indented - quoted in a traceback\n"
        "=================== short test summary info ====================\n"
        "FAILED tests/test_a.py::test_one[3] - AssertionError: assert 1 == 2\n"
        "ERROR tests/test_cli.py::test_two - TypeError: '<=' not supported\n"
        "FAILED tests/test_a.py::test_three\n"
        "2 failed, 1 passed, 1 error in 0.12s\n")
    assert MUTANTS.summary_ids(stdout) == [
        "tests/test_a.py::test_one[3]", "tests/test_cli.py::test_two",
        "tests/test_a.py::test_three"]
