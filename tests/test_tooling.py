"""Tools that read the library by name or by annotation keep working.

The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or a traced benchmark run fails. Annotations of
public dataclasses must resolve under ``typing.get_type_hints``.
"""

import dataclasses
import importlib
import importlib.util
import typing
from pathlib import Path

import nashcones

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
