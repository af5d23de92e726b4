"""Public surface: every exported name and every traced benchmark layer
resolves, so a removal cannot leave a stale export or trace target."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rislab

MODULES = ["rislab"] + [
    f"rislab.{info.name}"
    for info in pkgutil.iter_modules(rislab.__path__)
    if info.name != "__main__"
]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
