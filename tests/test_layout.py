"""Layering rules.

- No module of the package uses a private (leading underscore) name of
  another of its modules, whether imported by name
  (`from .game import _helper`) or reached through an imported module
  (`from . import game; game._helper`).
- Every name the benchmark's tracer (`perfbench/tracing.py`) wraps is
  still bound where the tracer looks it up.
- Every name the package exports, and every public function, class and
  method it defines, has a reader in the library or the benchmark, so
  no helper survives that only tests use.
- Every defaulted parameter of a public function or method is passed by
  some call in the library or the benchmark, so no knob survives that
  only tests turn, and omitted by some such call, so no default survives
  that only tests read: run settings have one home, the config
  dataclasses and the command-line flags.
- No module of the package imports another inside a function, and the
  graph of module-level imports (imports under `if TYPE_CHECKING:` left
  out) has no cycle.
- No module of the package imports `scipy.optimize`, `scipy.sparse` or
  `scipy.linalg`, at module level or inside a function, and importing the
  package and its command line loads none of them: the package needs
  none of them, and they cost every process about a quarter of its
  memory.
- Importing the package and its command line loads no `scipy.special`,
  and neither do loading a state, the Monte Carlo estimators, the
  path-dependence probes and chain translation: it loads where a beta
  part is first priced, at about a third of a Monte Carlo process's
  memory.
"""

import ast
import graphlib
import importlib.util
import os
import re
import subprocess
import sys
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


def package_imports(source: str, modules):
    """(line, module, inside a function) for each import of one of
    `modules`, the package's module names; imports under
    `if TYPE_CHECKING:` are left out."""
    found = []

    def visit(node, in_function):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            node = ast.Module(body=node.orelse, type_ignores=[])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        elif isinstance(node, ast.ImportFrom) and _is_ours(node):
            module = node.module or ""
            if node.level == 0:
                module = module.partition(".")[2]  # drop the leading "quantgame"
            names = [module.split(".")[0]] if module else [a.name for a in node.names]
            found.extend((node.lineno, m, in_function) for m in names if m in modules)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                module = rest.split(".")[0]
                if top == "quantgame" and module in modules:
                    found.append((node.lineno, module, in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def import_cycle(sources):
    """A cycle, as a list of module names, in the module-level import
    graph of `sources` (module name -> source), or None."""
    graph = {name: {m for _line, m, in_function in package_imports(src, sources)
                    if not in_function}
             for name, src in sources.items()}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def test_detector_flags_function_imports_and_cycles():
    sources = {"game": "from . import montecarlo\n",
               "montecarlo": "from .game import GameState\n"}
    assert import_cycle(sources)
    assert package_imports("def f():\n    from . import montecarlo\n",
                           sources) == [(2, "montecarlo", True)]
    sources["montecarlo"] = ("from typing import TYPE_CHECKING\n"
                             "if TYPE_CHECKING:\n    from .game import GameState\n"
                             "import quantgame.game\n")
    assert package_imports(sources["montecarlo"], sources) == [(4, "game", False)]
    sources["montecarlo"] = sources["montecarlo"].replace("import quantgame.game", "")
    assert import_cycle(sources) is None


def _package_sources():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_the_package_inside_a_function():
    sources = _package_sources()
    offenders = {name: [(line, m) for line, m, in_function in package_imports(src, sources)
                        if in_function]
                 for name, src in sources.items()}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_module_import_graph_is_acyclic():
    assert import_cycle(_package_sources()) is None


HEAVY_MODULES = ("scipy.optimize", "scipy.sparse", "scipy.linalg")


def heavy_imports(source: str):
    """(line, module) for each import of a module of HEAVY_MODULES, or of
    one inside it, anywhere in `source`, inside functions too; reaching
    one as an attribute of an imported `scipy` (which SciPy loads on
    first access) counts as importing it."""
    tree = ast.parse(source)
    # names bound to `scipy` itself: `import scipy [as sp]`, `import scipy.special`
    scipy_names = {alias.asname or "scipy" for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "scipy" or alias.name.startswith("scipy.")
                   and alias.asname is None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in scipy_names):
            names = [f"scipy.{node.attr}"]
        else:
            continue
        found.extend((node.lineno, heavy) for heavy in HEAVY_MODULES
                     if any(n == heavy or n.startswith(heavy + ".") for n in names))
    return found


@pytest.mark.parametrize("source", [
    "import scipy.optimize\n",
    "from scipy import special, optimize as opt\n",
    "def f():\n    from scipy.sparse.linalg import spsolve\n",
    "class A:\n    def g(self):\n        import scipy.linalg as la\n",
    "import scipy as sp\ndef h(f, x):\n    return sp.optimize.minimize(f, x)\n",
    "import scipy.special\nscipy.linalg.solve\n",
])
def test_detector_flags_heavy_scipy_imports(source):
    assert heavy_imports(source)


def test_detector_allows_light_scipy_imports():
    assert heavy_imports("from scipy import special\nimport scipy.special\n"
                         "from .optimize import x\nimport linalg\n"
                         "import numpy as np\nnp.linalg.norm\n"
                         "import scipy.special as sps\nsps.linalg\n") == []


def test_no_module_imports_a_heavy_scipy_module():
    found = {name: heavy_imports(src) for name, src in _package_sources().items()}
    assert {name: f for name, f in found.items() if f} == {}


def _fresh(script: str) -> str:
    """Standard output of `script` in a fresh interpreter: this one has
    loaded every module through other tests."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_heavy_scipy_module():
    script = ("import sys, quantgame, quantgame.cli\n"
              f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))\n")
    assert _fresh(script).strip() == "[]"


def test_only_pricing_a_beta_part_loads_scipy_special():
    root = PACKAGE.parents[1]
    script = f"""
import sys
import numpy as np
import quantgame, quantgame.cli
from quantgame import (BetaDensity, MixtureDensity, NoiseKernel, chain_translate,
                       estimate_losses, load_config, load_state, path_dependence_probes,
                       true_env_residuals)
loaded = ["scipy.special" in sys.modules]
game = load_config({str(root / "configs" / "reference.cfg")!r}).game()
state = load_state({str(root / "perfbench" / "fixtures" / "reference_state.json")!r}, game)
estimate_losses(3, state, game, 5000, 1)
true_env_residuals(3, state, game, 5000, 1)
path_dependence_probes(state.quantizers, game.comm, 4, 11)
chain_translate(state.quantizers, [0, 1, 2], np.linspace(0.1, 0.9, 9),
                NoiseKernel("triangular", 0.02))
loaded.append("scipy.special" in sys.modules)
m = MixtureDensity.from_beta(BetaDensity(2, 5)).partial_moments([0, 0.5, 1])
loaded.append("scipy.special" in sys.modules)
print(loaded, m.tolist())
"""
    want = quantgame.MixtureDensity.from_beta(quantgame.BetaDensity(2, 5)).partial_moments(
        [0, 0.5, 1])
    assert _fresh(script).strip() == f"{[False, False, True]} {want.tolist()}"


def test_hellinger_beta_loads_scipy_special():
    script = ("from quantgame import BetaDensity, hellinger_beta\n"
              "print(repr(hellinger_beta(BetaDensity(2, 5), BetaDensity(3, 1.5))))\n")
    want = quantgame.hellinger_beta(quantgame.BetaDensity(2, 5), quantgame.BetaDensity(3, 1.5))
    assert _fresh(script).strip() == repr(want)


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


# the paper's analysis API, kept for callers outside the library: the
# exact loss of a quantizer against a source and the true environment of
# an agent
READERLESS_EXPORTS = {"quantization_loss", "true_environment"}


def exports(init_source: str):
    """Names `__init__.py` imports from the package's modules."""
    return {alias.asname or alias.name
            for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source: str):
    """Names of the public functions, classes and methods a module defines."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_")}


def library_reads(source: str):
    """Names a module reads: Name loads, attribute names and names taken
    by `from ... import`; a `def` or `class` statement reads nothing, and
    a read inside a definition of the same name (recursion, or delegation
    such as a `pdf` method calling a part's `pdf`) does not count."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unread_names(names, module_sources, bench_text: str):
    """Those of `names` that no package module reads and the benchmark
    never names (its tracer names the sites it wraps by string)."""
    read = set().union(*(library_reads(src) for src in module_sources))
    return {name for name in names
            if name not in read and not re.search(rf"\b{name}\b", bench_text)}


def test_detector_flags_unused_export():
    init = "from .game import solve, helper\n"
    assert unread_names(exports(init), ["def helper():\n    pass\n",
                                        "def solve():\n    return 1\n"],
                        "game.solve") == {"helper"}


def test_detector_flags_unread_methods():
    # a method read only by its own delegation, and a function read only by
    # its own recursion, have no reader; the benchmark names `Mixture`
    source = ("class Mixture:\n"
              "    def pdf(self, x):\n"
              "        return self.part.pdf(x)\n"
              "    def mass(self):\n"
              "        return 1.0\n"
              "def depth(n):\n"
              "    return 0 if n == 0 else depth(n - 1)\n"
              "def total(m):\n"
              "    return m.mass()\n"
              "TOTAL = total(Mixture())\n")
    assert unread_names(definitions(source), [source], "Mixture") == {"pdf", "depth"}


def _bench_sources():
    return [p.read_text() for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))]


def _library_and_benchmark():
    modules = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    return modules, "\n".join(_bench_sources())


def test_every_export_has_a_library_reader():
    modules, bench = _library_and_benchmark()
    init = (PACKAGE / "__init__.py").read_text()
    assert READERLESS_EXPORTS <= exports(init)
    assert unread_names(exports(init), modules, bench) - READERLESS_EXPORTS == set()


def test_every_definition_has_a_library_reader():
    modules, bench = _library_and_benchmark()
    defined = set().union(*(definitions(src) for src in modules))
    assert unread_names(defined, modules, bench) - READERLESS_EXPORTS == set()


def defaulted_parameters(source: str):
    """{(function, parameter): position} for each defaulted parameter of
    the public functions and methods `source` defines. The position is the
    one a call passes it at (None for keyword-only): a method's first
    parameter (self or cls) is not counted, a staticmethod's is."""
    found = {}

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    bound = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                                 for d in child.decorator_list)
                    first = len(positional) - len(args.defaults)
                    for pos, arg in enumerate(positional[first:], first):
                        found[(child.name, arg.arg)] = pos - bound
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found[(child.name, arg.arg)] = None
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return found


def _calls(defaulted, call_sources):
    """For each call in `call_sources` to a function of `defaulted` (callees
    matched by name): the set of its defaulted parameters that the call
    passes, by position or keyword; a `*` or `**` argument passes every
    parameter it can."""
    for source in call_sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keys = [key for key in defaulted if key[0] == name]
            if keys:
                yield keys, {
                    key for key in keys
                    if defaulted[key] is not None and (starred or defaulted[key] < len(call.args))
                    or any(k.arg in (key[1], None) for k in call.keywords)}


def unpassed_parameters(defaulted, call_sources):
    """Those (function, parameter) keys of `defaulted` that no call in
    `call_sources` passes."""
    passed = set().union(*(p for _keys, p in _calls(defaulted, call_sources)))
    return set(defaulted) - passed


def unomitted_parameters(defaulted, call_sources):
    """Those (function, parameter) keys of `defaulted` that every call in
    `call_sources` passes, so that no call reads the default."""
    omitted = set().union(*(set(keys) - p for keys, p in _calls(defaulted, call_sources)))
    return set(defaulted) - omitted


def test_detector_flags_unpassed_parameters():
    source = ("def design(d, levels=None, tol=1e-10, *, cap=5):\n"
              "    return d\n"
              "class Q:\n"
              "    def scale(self, x, by=2.0):\n"
              "        return x\n"
              "    @staticmethod\n"
              "    def make(n=1):\n"
              "        return Q()\n"
              "def _private(k=0):\n"
              "    return k\n"
              "design(1, 4)\n"
              "Q.make(3)\n"
              "Q().scale(1.0)\n")
    defaulted = defaulted_parameters(source)
    assert defaulted == {("design", "levels"): 1, ("design", "tol"): 2,
                         ("design", "cap"): None, ("scale", "by"): 1, ("make", "n"): 0}
    assert unpassed_parameters(defaulted, [source, "design(2, cap=1)\n"]) == {
        ("design", "tol"), ("scale", "by")}
    assert unpassed_parameters(defaulted, [source, "design(*a, **k)\nQ().scale(*xs)\n"]) == set()


def test_detector_flags_unomitted_parameters():
    # `design` always gets its tol, `scale` its by, and `make` is never
    # called; `cap` and `levels` are omitted somewhere, a `*` or `**`
    # argument omits nothing it can fill
    source = ("def design(d, levels=None, tol=1e-10, *, cap=5):\n"
              "    return d\n"
              "class Q:\n"
              "    def scale(self, x, by=2.0):\n"
              "        return x\n"
              "    @staticmethod\n"
              "    def make(n=1):\n"
              "        return Q()\n"
              "design(1, 4, 1e-9)\n"
              "design(1, tol=1e-9, cap=2)\n"
              "Q().scale(1.0, 3.0)\n")
    defaulted = defaulted_parameters(source)
    assert unomitted_parameters(defaulted, [source]) == {
        ("design", "tol"), ("scale", "by"), ("make", "n")}
    assert unomitted_parameters(defaulted, [source, "Q().scale(*xs)\ndesign(**k)\n"]) == {
        ("design", "tol"), ("scale", "by"), ("make", "n")}
    assert unomitted_parameters(defaulted, [source, "Q.make()\nQ().scale(2.0)\n"]) == {
        ("design", "tol")}


def _library_knobs():
    # the command line's entry point and the analysis API serve callers
    # outside the library
    modules, _bench = _library_and_benchmark()
    knobs = {key: pos for source in modules
             for key, pos in defaulted_parameters(source).items()
             if key[0] not in READERLESS_EXPORTS and key != ("main", "argv")}
    return knobs, modules + _bench_sources()


def test_every_defaulted_parameter_is_passed():
    knobs, call_sources = _library_knobs()
    assert unpassed_parameters(knobs, call_sources) == set()


def test_every_default_is_relied_on():
    # a default that every library and benchmark call overrides is read
    # only by tests: the setting belongs to the caller
    knobs, call_sources = _library_knobs()
    assert unomitted_parameters(knobs, call_sources) == set()
