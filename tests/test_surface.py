"""The public surface: every exported name resolves and the demos still run
against the current API."""

import importlib
import pathlib
import pkgutil
import runpy

import pytest

import envlab

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    modules = [envlab] + [importlib.import_module(f"envlab.{info.name}")
                          for info in pkgutil.iter_modules(envlab.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("name", ["01_envelopes.py", "02_family_and_gap.py",
                                  "03_fiber_calculus.py", "04_sections.py",
                                  "05_gluing_hirzebruch.py"])
def test_demo_runs(name):
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0
