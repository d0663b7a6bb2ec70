"""The project metadata in pyproject.toml."""

import importlib
import pathlib
import re

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_import():
    # a dependency that cannot be installed must not be declared
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps
    for spec in deps:
        importlib.import_module(re.match(r"[A-Za-z0-9_.-]+", spec).group(0).replace("-", "_"))
