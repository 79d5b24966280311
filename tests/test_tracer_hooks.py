"""The names bench/tracer.py wraps must exist in the package.

The tracer patches each layer's functions at the names their callers look
up (`owner.__dict__[attr]`), so deleting or renaming one breaks traced
benchmark runs.  This runs its `instrument` once and undoes it, so such a
deletion fails the default test run as well as `python -m pytest bench`.
The converse holds too: a module may import a name it never uses only when
the tracer patches it there, so an import left behind when the tracer moves
fails here, with no linter needed.
"""
import ast
import importlib.util
from pathlib import Path
from types import ModuleType

from conftest import iwasawa
from fuchsian import cover, halfplane, reps

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_name_and_unpatches():
    tracer_mod = _load_tracer()
    originals = {
        (mod, name): mod.__dict__[name]
        for mod in (cover, reps)
        for name in ("lift", "cover_mul", "cover_inv")
    }
    matmul = halfplane.Mat2.__dict__["__matmul__"]
    A, B = iwasawa(0.3, 0.5, -0.7), iwasawa(-1.2, -0.4, 0.9)
    untraced = A @ B
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        patched = list(tracer._patches)
        for (mod, name), fn in originals.items():
            assert mod.__dict__[name] is not fn
            assert mod.__dict__[name].__wrapped__ is fn
        traced = A @ B
        assert tracer.summary()["halfplane.matmul"]["calls"] == 1
        assert repr(traced) == repr(untraced) and type(traced) is halfplane.Mat2
    finally:
        tracer.unpatch()
    assert patched and not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    for (mod, name), fn in originals.items():
        assert mod.__dict__[name] is fn
    assert halfplane.Mat2.__dict__["__matmul__"] is matmul


def _unreferenced_imports(path: Path) -> set:
    """Names the module imports (from __future__ aside) and never names again."""
    imported, named = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    return imported - named


def test_every_unreferenced_import_is_a_tracer_hook():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        hooks = {
            (owner.__name__, attr)
            for owner, attr, _ in tracer._patches
            if isinstance(owner, ModuleType)
        }
    finally:
        tracer.unpatch()
    for path in sorted(Path(cover.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"fuchsian.{path.stem}"
        stale = {name for name in _unreferenced_imports(path) if (module, name) not in hooks}
        assert not stale, f"{module} imports {sorted(stale)} and neither uses them nor has them patched"
