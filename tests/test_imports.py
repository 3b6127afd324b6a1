"""Module boundaries: no ``infmc`` module reaches into a sibling's private
names, and the package re-exports only what its modules declare public."""
import ast
import importlib
from pathlib import Path

import infmc

PACKAGE_DIR = Path(infmc.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _private_sibling_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("infmc"):
            continue
        found += [f"{'.' * node.level}{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_guard_sees_relative_and_absolute_private_imports():
    source = "from .factorized import _draw\nfrom infmc.models import x, _y\nfrom numpy import _z\n"
    assert _private_sibling_imports(source) == [".factorized._draw", "infmc.models._y"]


def test_no_module_imports_private_names_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := _private_sibling_imports(path.read_text()))
    }
    assert offenders == {}


def test_every_public_name_resolves():
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"infmc.{path.stem}")
            missing += [f"{path.stem}.{n}" for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_public_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    undeclared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            declared = importlib.import_module(f"infmc.{node.module}").__all__
            undeclared += [f"{node.module}.{a.name}" for a in node.names if a.name not in declared]
    assert undeclared == []


def test_no_module_uses_scipys_logsumexp():
    """``estimators.log_sum_exp`` is the package's one log-sum-exp kernel."""
    users = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("scipy")
                and any(a.name == "logsumexp" for a in node.names)
            )
            if imported or (isinstance(node, ast.Attribute) and node.attr == "logsumexp"):
                users.append(path.name)
    assert users == []


def _object_arrays(source: str) -> list[int]:
    """Lines that ask numpy for an array of Python objects: ``dtype=object``."""
    return [
        node.value.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.keyword)
        and node.arg == "dtype"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]


def test_no_module_builds_object_arrays():
    """Samples are held as arrays per block, never as one Python object per sample."""
    assert _object_arrays("a = np.empty(0, dtype=object)\nb = np.zeros(2, dtype=float)\n") == [1]
    offenders = [
        f"{path.name}:{line}" for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _object_arrays(path.read_text())
    ]
    assert offenders == []


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_each_density_writes_its_log_density_once():
    """A density defines the batched ``log_density_each`` and ``sample_batch``
    only, and the one-point ``log_density`` and ``sample`` are derived from
    them: one formula and one sampler per density, none drawn point by point."""
    classes = {cls for cls in _subclasses(infmc.Density) if cls.__module__.startswith("infmc.")}
    own = sorted(cls.__qualname__ for cls in classes if {"log_density", "sample"} & set(vars(cls)))
    unbatched = sorted(cls.__qualname__ for cls in classes if cls.sample_batch is infmc.Density.sample_batch)
    assert len(classes) >= 8 and own == [] and unbatched == []


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for anything but names and attributes."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)) is not None:
        return base + [node.attr]
    return None


def test_every_name_the_benchmark_traces_exists():
    """``perfbench/spans.py`` wraps package names by attribute; a renamed or
    deleted one would only fail a traced benchmark run."""
    modules = {name: importlib.import_module(f"infmc.{name}") for name in
               ("distributions", "estimators", "experiments", "factorized", "models", "pmc")}
    missing, seen = [], 0
    for node in ast.walk(ast.parse(SPANS.read_text())):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            seen += 1
            target = modules[chain[0]]
            for attr in chain[1:]:
                if not hasattr(target, attr):
                    missing.append(".".join(chain))
                    break
                target = getattr(target, attr)
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == ["DENSITY_METHODS"]:
            # wrapped on every Density subclass that defines them, by name
            missing += [k.value for k in node.value.keys if not hasattr(modules["distributions"].Density, k.value)]
    assert seen > 20 and missing == []
