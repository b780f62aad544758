"""Package-wide checks: exported names resolve and are reached from the
package, the README or the benchmark tracer, the names the tracer wraps
resolve, only the CLI writes files or defines output columns,
the walk alone carries the truncation height, ``lattice.layout`` alone
builds kernels, and only the handlers that need scipy load it."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import softpin

MODULES = ["softpin"] + [
    f"softpin.{m.name}" for m in pkgutil.iter_modules(softpin.__path__)
]
WRITE_MODE_CHARS = set("wax+")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _load_tracer():
    """bench/tracer.py as a module, read from the checkout, not edited."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr, *_ in _load_tracer().TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def _loads_by_definition() -> dict:
    """(module, top-level name) -> the names its code loads, read off the
    AST of each package module: a Name or attribute read, or a name
    imported from a module.  Statements that define no name are keyed by
    (module, None)."""
    loads = {}
    for path in Path(softpin.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(top, "targets", [])
            owner = getattr(top, "name", None) or (
                targets[0].id if len(targets) == 1
                and isinstance(targets[0], ast.Name) else None)
            names = loads.setdefault((path.stem, owner), set())
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                elif isinstance(getattr(node, "ctx", None), ast.Load):
                    names.add(getattr(node, "id", getattr(node, "attr", "")))
    return loads


def test_every_exported_name_is_reached():
    # an exported name is loaded by package code other than its own
    # definition and the definitions found unreached, named in README.md,
    # or wrapped by the benchmark tracer; what only tests use lives in
    # tests/oracles.py
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    traced = {(module.rpartition(".")[2], attr.split(".")[0])
              for module, attr, *_ in _load_tracer().TRACED}
    loads = _loads_by_definition()
    unreached = set()
    candidates = {
        (name.rpartition(".")[2], n) for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", ())
        if not re.search(rf"\b{n}\b", readme)
    } - traced
    while True:
        found = {(module, n) for module, n in candidates - unreached
                 if not any(n in names for key, names in loads.items()
                            if key != (module, n) and key not in unreached)}
        if not found:
            break
        unreached |= found
    assert sorted(unreached) == []


def _write_calls(source: str) -> list[int]:
    """Line numbers of open(..., <write mode>) and Path.write_* calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        if name != "open":
            continue
        modes = list(node.args) + [k.value for k in node.keywords if k.arg == "mode"]
        for arg in modes:
            text = arg.value if isinstance(arg, ast.Constant) else None
            if (isinstance(text, str) and set(text) <= set("rwxabt+")
                    and set(text) & WRITE_MODE_CHARS):
                lines.append(node.lineno)
    return lines


def test_only_the_cli_opens_files_for_writing():
    package = Path(softpin.__file__).parent
    writers = {
        path.stem for path in package.glob("*.py")
        if _write_calls(path.read_text(encoding="utf-8"))
    }
    assert writers == {"cli"}


def test_only_the_cli_defines_output_columns():
    owners = {
        name for name in MODULES
        for n in vars(importlib.import_module(name)) if n.endswith("_COLUMNS")
    }
    assert owners == {"softpin.cli"}


def _public_functions(name: str):
    """(qualified name, function) of each public function and public method
    of a public class defined in module ``name``."""
    for attr, obj in vars(importlib.import_module(name)).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != name:
            continue
        if inspect.isfunction(obj):
            yield attr, obj
        elif inspect.isclass(obj):
            yield from ((f"{attr}.{k}", m) for k, m in vars(obj).items()
                        if not k.startswith("_") and inspect.isfunction(m))


def test_no_public_function_takes_a_truncation_height():
    # the walk's l_max is the one knob: WalkSpec.resolve_l
    takers = [f"{name}.{qual}" for name in MODULES
              for qual, fn in _public_functions(name)
              if "l" in inspect.signature(fn).parameters]
    assert takers == []


def test_only_layout_builds_kernels():
    builders = set()
    for path in Path(softpin.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", ""))
                if name in ("FoldedKernel", "SignedKernel"):
                    builders.add((path.stem, getattr(top, "name", None)))
    assert builders == {("lattice", "layout")}


_SCIPY_IMPORTS = textwrap.dedent("""
    import sys, tempfile
    from softpin import cli

    SCIPY = ("scipy.special", "scipy.optimize", "scipy.integrate")
    pinning = {"walk": {"alpha": 0.5}, "potential": {"kind": "pinning"}}
    out = tempfile.mkdtemp()
    for sub, task in [
        ("localize", {"beta": 0.5, "h": 0.1}),
        ("critical-curve", {"beta_grid": [0.5]}),
        ("free-energy", {"beta": 0.5, "h": 0.2, "n_max": 64}),
        # past the weight cap: the partition sweep runs in logs
        ("free-energy", {"beta": 40.0, "h": 0.0, "n_max": 64}),
    ]:
        assert cli.run(sub, {"model": pinning, "task": task,
                             "numerics": {"m_max": 256}}, out=out) == 0
        assert "jsonschema" not in sys.modules, sub
    print(*(m in sys.modules for m in SCIPY))
    assert cli.run("scaling", {
        "model": {"walk": {"alpha": 0.6},
                  "potential": {"kind": "power_tail", "theta": 3.0}},
        "task": {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0, "h_hat": 0.1,
                 "n_ladder": [64], "cstar_phi": 0.5, "cstar_phi2": 0.4},
    }, out=out) == 0
    assert "jsonschema" not in sys.modules, "scaling"
    assert cli.run("bessel-check", {"task": {"alpha": 0.5, "n": 16}},
                   out=out) == 0
    assert "jsonschema" not in sys.modules, "bessel-check"
    assert cli.run("continuum", {"task": {"alpha": 0.6, "theta": 0.6,
                                          "beta_hat": 1.0, "h_hat": 0.5}},
                   out=out) == 0
    assert "jsonschema" not in sys.modules, "continuum"
    print(*(m in sys.modules for m in SCIPY))
""")


def test_numpy_only_subcommands_load_no_scipy():
    # a fresh process: the test session has scipy loaded already, and
    # jsonschema, which only the tests use
    src = str(Path(softpin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_IMPORTS], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # special, optimize, integrate: none after the numpy-only subcommands
    # (free energies on the linear and the log path), all once scaling and
    # bessel-check have run
    assert proc.stdout.split("\n")[:2] == ["False False False",
                                            "True True True"]
