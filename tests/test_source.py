"""Checks of the package source, the static ones made with the standard library's ast only.

Every module under src/crem must use each name it imports, so that a
deleted code path does not leave its imports behind.  The package's
__init__ is exempt: it imports names only to re-export them.  Every
flag of a crem subcommand must be read by that command's handler or by
main, so that no flag is accepted and then ignored.  Every
CalibrationConfig field must be set by crem calibrate, so that no setting
is left that only tests reach.  Every numpy array
a crem module holds at module level must be read-only, so that no
caller can change a shared default under every other caller.  Every
dataclass a crem module defines must be frozen, so that no record can
be changed after its checks have run.  Every functools cache a crem
module defines must be cleared by the autouse fixture of conftest, so
that no kept value leaks from one test into the next.  Every private
function or class a crem module defines at module level must be read
somewhere in the package, so that code only tests reach does not stay, and no
default of a private function may be one that every call in the package
passes, so that no default stays that only tests omit.  The package's
settable values, its defaulted function parameters plus its
defaulted dataclass fields, are pinned at one count, so that a change which
adds a setting raises the pin in its own diff and one which removes a
setting lowers it.  The model's domain of (theta, delta, q_s) is written
once, so that no second copy of the rule can drift from it.  The planar
chain has one record, the one namedtuple with the field e_x, so that no
second chain record can drift from it.  A batch is split into blocks in one
place, so that no second block loop can drift from it.  A measurement's commands
are read in one place, so that the one-psi rule there is the only one, and its
obs_mask only where it is checked and where it is weighed, so that the shared-mask
rule there is the only one.  The core converts sample values to floats in one helper,
so that no second conversion makes a scalar sample a 0-d array again.  crem.__version__
is the [project] version of pyproject.toml, so that the two cannot drift apart.
"""
import argparse
import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

import crem
from crem import CalibrationConfig, cli
from conftest import KEPT_VALUES

SRC = Path(__file__).resolve().parent.parent / "src" / "crem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of every name the source imports and never reads, in line order."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy.linalg\n"
              "from .model import a, b as c\n"
              "print(a, numpy.linalg.norm)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def args_read(function: ast.FunctionDef):
    """Every attribute the function reads from its name ``args``."""
    return {node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_cli_flag_is_read():
    # a flag that neither its command's handler nor main reads is accepted and ignored
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    unread = []
    for name, parser in commands.choices.items():
        read = (args_read(functions[parser.get_default("func").__name__])
                | args_read(functions["main"]))
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    assert unread == []


def test_every_calibration_setting_is_set_by_the_cli():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    handler = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "cmd_calibrate")
    passed = {keyword.arg for node in ast.walk(handler)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "CalibrationConfig" for keyword in node.keywords}
    fields = {field.name for field in dataclasses.fields(CalibrationConfig)}
    assert sorted(fields - passed) == []


def writeable_arrays(namespace: dict):
    """Names of the writeable numpy arrays in the namespace, sorted."""
    return sorted(name for name, value in namespace.items()
                  if isinstance(value, np.ndarray) and value.flags.writeable)


def test_checker_flags_writeable_arrays():
    frozen = np.zeros(3)
    frozen.flags.writeable = False
    namespace = {"_B": np.zeros(3), "_A": np.eye(2), "_FROZEN": frozen, "_LIST": [0.0]}
    assert writeable_arrays(namespace) == ["_A", "_B"]


# importing crem.__main__ would run the command line
@pytest.mark.parametrize("name", ["crem"] + [f"crem.{p.stem}" for p in MODULES
                                             if p.stem != "__main__"])
def test_module_level_arrays_are_read_only(name):
    assert writeable_arrays(vars(importlib.import_module(name))) == [], name


def mutable_dataclasses(module):
    """Names of the dataclasses the module defines that are not frozen, sorted."""
    return sorted(name for name, value in vars(module).items()
                  if dataclasses.is_dataclass(value) and isinstance(value, type)
                  and value.__module__ == module.__name__
                  and not value.__dataclass_params__.frozen)


def test_checker_flags_mutable_dataclasses():
    module = types.ModuleType("probe")
    for name, frozen in (("Open", False), ("Closed", True), ("Loose", False)):
        cls = dataclasses.make_dataclass(name, [("x", float)], frozen=frozen)
        cls.__module__ = "probe"
        setattr(module, name, cls)
    module.Imported = CalibrationConfig
    assert mutable_dataclasses(module) == ["Loose", "Open"]


@pytest.mark.parametrize("name", [f"crem.{p.stem}" for p in MODULES if p.stem != "__main__"])
def test_every_dataclass_is_frozen(name):
    assert mutable_dataclasses(importlib.import_module(name)) == [], name


CACHE_DECORATORS = {"functools.lru_cache", "lru_cache", "functools.cache", "cache"}


def cached_functions(source: str):
    """Names of the functions the source decorates with a functools cache, sorted."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
                          in CACHE_DECORATORS for dec in node.decorator_list))


def test_checker_flags_cached_functions():
    source = ("import functools\n"
              "from functools import cache, cached_property, lru_cache\n"
              "@functools.lru_cache(maxsize=1)\ndef a(x): return x\n"
              "@lru_cache\ndef b(x): return x\n"
              "class C:\n"
              "    @cache\n    def c(self): return 1\n"
              "    @cached_property\n    def d(self): return 1\n"
              "def e(x): return x\n")
    assert cached_functions(source) == ["a", "b", "c"]


def test_fixture_clears_every_cache():
    # conftest's fresh_scalar_solve clears exactly KEPT_VALUES
    cached = sorted(f"{path.stem}.{name}" for path in MODULES
                    for name in cached_functions(path.read_text(encoding="utf-8")))
    kept = sorted(f"{f.__module__.removeprefix('crem.')}.{f.__name__}" for f in KEPT_VALUES)
    assert cached == kept


def private_definitions(source: str):
    """Names of the private functions and classes the source defines at module level, sorted."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__"))


def names_read(source: str):
    """Every name the source loads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def test_checker_flags_private_definitions():
    source = ("import numpy as np\n"
              "def _a(x): return x\n"
              "class _B: pass\n"
              "def public(): return _a(1)\n"
              "def __getattr__(name): pass\n"
              "class C:\n"
              "    def _method(self): pass\n")
    assert private_definitions(source) == ["_B", "_a"]
    assert {"_a", "np", "_umath"} <= names_read(source + "np.linalg._umath\n")
    assert "_B" not in names_read(source)


def test_every_private_definition_is_read_in_the_package():
    # a helper that only tests call is dead code in the package
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    read = set().union(*(names_read(source) for source in sources.values()))
    unread = sorted(f"{stem}.{name}" for stem, source in sources.items()
                    for name in private_definitions(source) if name not in read)
    assert unread == []


def passes(call: ast.Call, index, name: str) -> bool:
    """Whether the call surely passes the parameter name, by keyword or, if index is not None,
    at that position; a call with *args or **kwargs may not."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords):
        return False
    return any(kw.arg == name for kw in call.keywords) or (
        index is not None and len(call.args) > index)


def defaults_always_passed(sources: dict):
    """'module.function(parameter)' of every defaulted parameter of a private module-level
    function that each call of the function in the sources passes, sorted.  Calls are matched
    by name, bare or as an attribute; a function that no source calls is left to
    test_every_private_definition_is_read_in_the_package."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for stem, tree in trees.items():
        for f in tree.body:
            if not (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f.name.startswith("_") and not f.name.startswith("__")):
                continue
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                          if d is not None]
            sites = calls.get(f.name, [])
            found += [f"{stem}.{f.name}({name})" for i, name in defaulted
                      if sites and all(passes(call, i, name) for call in sites)]
    return sorted(found)


def test_checker_flags_defaults_every_call_passes():
    sources = {"a": ("def _f(x, n=0, *, m=1): return x\n"
                     "def _g(x, y=2): return x\n"
                     "def _h(x, z=3): return x\n"
                     "def _unused(x, v=5): return x\n"
                     "def public(x, w=4): return x\n"),
               "b": ("import a\n"
                     "from a import _f, _g, _h, public\n"
                     "_f(1, 2, m=3)\na._f(1, n=0, m=1)\n"
                     "_g(1, 2)\n_g(1)\n"
                     "_h(*[1, 2])\n"
                     "public(1, 4)\n")}
    assert defaults_always_passed(sources) == ["a._f(m)", "a._f(n)"]


def test_no_private_default_is_passed_by_every_call():
    # a default that every call in the package overrides serves only the tests that omit it
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert defaults_always_passed(sources) == []


# defaulted function parameters plus defaulted dataclass fields under src/crem
SETTABLE_VALUES = 16
DATACLASS_DECORATORS = {"dataclass", "dataclasses.dataclass"}


def settable_values(source: str) -> int:
    """Defaulted parameters of every function and lambda, plus fields with a default of
    every dataclass, that the source defines."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
                in DATACLASS_DECORATORS for dec in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_checker_counts_settable_values():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "def a(x, y=1, *args, z=2, w, **kw): return lambda v=0: v\n"
              "@dataclass(frozen=True)\nclass B:\n"
              "    x: int\n    y: int = 1\n    z: list = field(default_factory=list)\n"
              "    def m(self, k=3): return k\n"
              "@dataclasses.dataclass\nclass C:\n    x: int = 0\n"
              "class D:\n    x: int = 0\n")
    # a: y, z and the lambda's v; B: y, z and m's k; C: x; D is no dataclass
    assert settable_values(source) == 7


def test_settable_values_are_pinned():
    # a new setting raises this pin in the diff that adds it, and says why
    count = sum(settable_values(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))
    assert count == SETTABLE_VALUES


def test_domain_is_written_once():
    # model._check_domain holds the one copy of the rule and its message
    copies = {path.name: count for path in SRC.glob("*.py")
              if (count := path.read_text(encoding="utf-8").count("(-pi, pi]"))}
    assert copies == {"model.py": 1}


def records_with_field(source: str, field: str):
    """Names of the namedtuple and NamedTuple records the source defines with the field."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) in ("namedtuple", "collections.namedtuple")):
            spec = node.value.args[1]
            fields = (spec.value.replace(",", " ").split() if isinstance(spec, ast.Constant)
                      else [ast.literal_eval(e) for e in spec.elts])
            if field in fields:
                names.append(node.targets[0].id)
        elif (isinstance(node, ast.ClassDef)
              and any(ast.unparse(b) in ("NamedTuple", "typing.NamedTuple") for b in node.bases)
              and any(isinstance(s, ast.AnnAssign) and s.target.id == field for s in node.body)):
            names.append(node.name)
    return names


def test_checker_finds_records_with_a_field():
    source = ("from collections import namedtuple\n"
              "from typing import NamedTuple\n"
              "A = namedtuple('A', 'x e_x')\n"
              "B = namedtuple('B', ['e_x', 'y'])\n"
              "C = namedtuple('C', 'e_xz, y')\n"
              "class D(NamedTuple):\n    e_x: float\n"
              "class E(NamedTuple):\n    e_z: float\n")
    assert records_with_field(source, "e_x") == ["A", "B", "D"]


def test_planar_chain_has_one_record():
    # kinematics._Chain is the one record of the chain that poses, Jacobians and the fit read
    records = [f"{path.stem}.{name}" for path in SRC.glob("*.py")
               for name in records_with_field(path.read_text(encoding="utf-8"), "e_x")]
    assert records == ["kinematics._Chain"]


def block_splitters(source: str):
    """Names of the functions the source defines that read _BLOCK or call range with a step,
    sorted: each one forms the slices of a batch's blocks."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                (isinstance(n, ast.Name) and n.id == "_BLOCK")
                or (isinstance(n, ast.Call) and ast.unparse(n.func) == "range"
                    and len(n.args) == 3) for n in ast.walk(node)):
            names.append(node.name)
    return sorted(names)


def test_checker_finds_block_splitters():
    source = ("_BLOCK = 4\n"
              "def a(n): return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]\n"
              "def b(n): return [slice(i, i + 4) for i in range(0, n, 4)]\n"
              "def c(n):\n    for i in range(n): pass\n"
              "def d(x): return x[:_BLOCK]\n")
    assert block_splitters(source) == ["a", "b", "d"]


def test_batches_are_split_in_one_place():
    # model._blocks forms the block slices of micro_trajectory and identification_jacobian
    splitters = [f"{path.stem}.{name}" for path in SRC.glob("*.py")
                 for name in block_splitters(path.read_text(encoding="utf-8"))]
    assert splitters == ["model._blocks"]


def command_readers(source: str):
    """Names of the functions the source defines that read a measurement's commands, sorted:
    .psi or .q_s of a name other than self (a record's own check) and fit (the
    calibration._Fit arrays)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Attribute) and n.attr in ("psi", "q_s")
                and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "fit"))
                for n in ast.walk(node)):
            names.append(node.name)
    return sorted(names)


def test_checker_finds_command_readers():
    source = ("def a(ms): return [m.psi.theta for m in ms]\n"
              "def b(ms): return [m.q_s for m in ms]\n"
              "def c(fit): return fit.q_s\n"
              "class M:\n    def check(self): return self.psi, self.q_s\n"
              "def d(psi): return psi.theta\n"
              "def e(data): return data.fit.q_s\n")
    assert command_readers(source) == ["a", "b", "e"]


def test_commands_are_read_in_one_place():
    # calibration._commands reads (theta, delta, q_s) and gives one value for one psi
    readers = [f"{path.stem}.{name}" for path in SRC.glob("*.py")
               for name in command_readers(path.read_text(encoding="utf-8"))]
    assert readers == ["calibration._commands"]


def mask_readers(source: str):
    """Names of the functions the source defines that read an .obs_mask attribute, a method
    as Class.method, sorted."""
    tree = ast.parse(source)
    owner = {id(f): f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body}
    return sorted(owner.get(id(node), "") + node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(n, ast.Attribute) and n.attr == "obs_mask"
                          for n in ast.walk(node)))


def test_checker_finds_mask_readers():
    source = ("class M:\n"
              "    def __post_init__(self): return self.obs_mask\n"
              "    def other(self): return 1\n"
              "def a(ms): return [m.obs_mask for m in ms]\n"
              "def b(obs_mask): return obs_mask\n"
              "def c(m): return getattr(m, 'R_bar')\n")
    assert mask_readers(source) == ["M.__post_init__", "a"]


def test_masks_are_read_in_one_place():
    # Measurement checks its obs_mask, and calibration._stack alone weighs it: the shared-mask
    # rule there is the only one
    readers = [f"{path.stem}.{name}" for path in SRC.glob("*.py")
               for name in mask_readers(path.read_text(encoding="utf-8"))]
    assert readers == ["calibration.Measurement.__post_init__", "calibration._stack"]


def float_conversions(source: str):
    """Names of the functions the source defines that call np.asarray with dtype float, a
    method as Class.method, sorted."""
    tree = ast.parse(source)
    owner = {id(f): f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body}

    def converts(n):
        return (isinstance(n, ast.Call) and ast.unparse(n.func) in ("np.asarray", "numpy.asarray")
                and any(ast.unparse(d) in ("float", "np.float64") for d in
                        n.args[1:2] + [kw.value for kw in n.keywords if kw.arg == "dtype"]))
    return sorted(owner.get(id(node), "") + node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(converts(n) for n in ast.walk(node)))


def test_checker_finds_float_conversions():
    source = ("import numpy as np\n"
              "def a(x): return np.asarray(x, dtype=float)[()]\n"
              "def b(x): return np.asarray(x, float)\n"
              "def c(x): return np.asarray(x, dtype=bool)\n"
              "def d(x): return np.asarray(x)\n"
              "class E:\n    def f(self, x): return np.asarray(x, dtype=np.float64)\n")
    assert float_conversions(source) == ["E.f", "a", "b"]


# callers besides model._float that convert with np.asarray(..., dtype=float), and why each
# may: they convert no sample of a solve
FLOAT_CONVERSIONS_ALLOWED = {
    "model.UncertaintyParams.from_array": "reads the three coefficients of a k vector",
}


def test_samples_are_converted_in_one_place():
    # model._float makes a scalar a numpy scalar; np.asarray alone makes a 0-d array, on
    # which each numpy operation of a scalar solve costs about ten times as much
    found = [f"{stem}.{name}" for stem in ("model", "kinematics", "differential")
             for name in float_conversions((SRC / f"{stem}.py").read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(["model._float", *FLOAT_CONVERSIONS_ALLOWED])


def test_version_is_the_project_version():
    # a regex, for tomllib is missing on Python 3.10
    text = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert crem.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
