"""Tools that read the library by name or by annotation keep working.

The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or a traced benchmark run fails, and its Hilbert
probes must still see every candidate. Annotations of public dataclasses
must resolve under ``typing.get_type_hints``. The runtime imports nothing
outside the standard library, and README's library example prints what
its comments say.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import re
import sys
import typing
from pathlib import Path

import nashcones

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = _load_tracing()
    for short, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{short}.{func}"


def test_tracer_counts_the_hilbert_candidates_and_basis():
    # the benchmark's hilbert.kept_ratio sees the candidates only through
    # the parallelepiped_points calls made inside hilbert_basis
    tracing = _load_tracing()
    # install wraps the traced names in every module, so all are imported
    modules = {short: importlib.import_module(f"{tracing.PACKAGE}.{short}") for short in tracing.TRACED}
    hilbert, cones = modules["hilbert"], modules["cones"]
    c = cones.cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)])
    assert not c.is_simplicial
    candidates = set(c.rays).union(*map(hilbert.parallelepiped_points, hilbert.triangulate(c)))
    candidates.discard((0,) * c.dim)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        basis = hilbert.hilbert_basis(c)
    finally:
        tracer.uninstall()
    assert len(basis.elements) < len(candidates)
    assert tracer.counts["hilbert.candidates"] == len(candidates)
    assert tracer.counts["hilbert.kept"] == len(basis.elements)


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


def test_readme_library_example_prints_what_its_comments_say():
    # each print line of README's Library block ends in a comment giving
    # its output, with "..." standing for any text
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    promised = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert promised
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(promised)
    for got, want in zip(printed, promised):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), (got, want)
