import importlib
import tomllib
from pathlib import Path


def test_console_scripts_import():
    # every declared console script must resolve to a callable
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))
