"""Tools that read the library by name or by annotation keep working.

The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or a traced benchmark run fails. Annotations of
public dataclasses must resolve under ``typing.get_type_hints``. The
runtime imports nothing outside the standard library.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
import typing
from pathlib import Path

import nashcones

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for short, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{short}.{func}"


def test_public_dataclass_annotations_resolve():
    # `from __future__ import annotations` leaves string annotations, so a
    # name the defining module does not import raises NameError only here
    for name in nashcones.__all__:
        obj = getattr(nashcones, name)
        if dataclasses.is_dataclass(obj):
            typing.get_type_hints(obj)


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "nashcones").glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"nashcones"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
