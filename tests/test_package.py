"""Package-wide checks: exported names resolve, the names the benchmark
tracer wraps resolve, only the CLI writes files or defines output columns,
the walk alone carries the truncation height, and ``lattice.layout`` alone
builds kernels."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
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
