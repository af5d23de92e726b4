"""Public surface: every exported name and every traced benchmark layer
resolves, so a removal cannot leave a stale export or trace target; and
scalar arguments are checked only by the two ``numerics`` validators."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import rislab

MODULES = ["rislab"] + [
    f"rislab.{info.name}"
    for info in pkgutil.iter_modules(rislab.__path__)
    if info.name != "__main__"
]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SOURCES = Path(rislab.__file__).resolve().parent
# integer tests that each module used to roll by hand, with their own answers
HAND_ROLLED = re.compile(r"!= int\(|operator\.index\b|isinstance\([^()]*\bbool\b")


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_benchmark_trace_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, module_name, path in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), layer


def test_scalar_arguments_are_checked_only_by_the_numerics_validators():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        validators = set()
        if path.name == "numerics.py":
            for node in ast.parse(source).body:
                if isinstance(node, ast.FunctionDef) and node.name in ("check_count", "check_real"):
                    validators.update(range(node.lineno, node.end_lineno + 1))
        for i, line in enumerate(source.splitlines(), start=1):
            if i not in validators and HAND_ROLLED.search(line):
                found.append(f"{path.name}:{i}: {line.strip()}")
    assert not found, "use numerics.check_count or check_real:\n" + "\n".join(found)
