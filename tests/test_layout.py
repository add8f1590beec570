"""Layering rules.

- No module of the package uses a private (leading underscore) name of
  another of its modules, whether imported by name
  (`from .game import _helper`) or reached through an imported module
  (`from . import game; game._helper`).
- Every name the benchmark's tracer (`perfbench/tracing.py`) wraps is
  still bound where the tracer looks it up.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import quantgame

PACKAGE = Path(quantgame.__file__).resolve().parent


def _is_ours(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "quantgame"


def private_uses(source: str):
    """(line, name) of every private name taken from another package module."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_ours(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "quantgame"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("source", [
    "from .game import _quick_report\n",
    "from quantgame.game import observed_mixture, _LM_TOL\n",
    "from . import game\nx = game._SOLVER_SEED\n",
])
def test_detector_flags_private_names(source):
    assert private_uses(source)


def test_detector_allows_public_names():
    assert private_uses("from .game import observed_mixture\n"
                        "from . import montecarlo\nmontecarlo.sample_paths\n"
                        "from dataclasses import _MISSING_TYPE\n") == []


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    offenders = {p.name: private_uses(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_benchmark_binding_sites_exist():
    # the tracer is loaded from its file, unchanged: perfbench is no package
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._SITES
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing._SITES
               if not hasattr(owner, attr)]
    assert missing == []
