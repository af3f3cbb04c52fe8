"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for short, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{short}.{func}"
