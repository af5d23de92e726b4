"""Public surface: every exported name, every traced benchmark layer and
every name the README imports resolves, so a removal cannot leave a
stale export, trace target or quick start; and scalar arguments are
checked only by the two ``numerics`` validators."""

import ast
import importlib
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
README = Path(__file__).resolve().parents[1] / "README.md"
# ``from rislab import a, b`` or ``from rislab.mod import a as b``, one line each
README_IMPORT = re.compile(r"^\s*from (rislab(?:\.\w+)*) import (.+)$", re.MULTILINE)
SOURCES = Path(rislab.__file__).resolve().parent
# integer tests that each module used to roll by hand, with their own answers
HAND_ROLLED = re.compile(r"!= int\(|operator\.index\b|isinstance\([^()]*\bbool\b")


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_readme_imports_resolve():
    imports = README_IMPORT.findall(README.read_text(encoding="utf-8"))
    assert imports, "README imports nothing from rislab"
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        wanted = [name.split(" as ")[0].strip("() ") for name in names.split(",")]
        missing = [name for name in wanted if name and not hasattr(module, name)]
        assert not missing, f"README imports {missing} from {module_name}"


def test_benchmark_trace_targets_resolve_to_callables():
    # TARGETS is read from the tracer's source, not run, so nothing is
    # written beside it
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for layer, module_name, path in targets:
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
