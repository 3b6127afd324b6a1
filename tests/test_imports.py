"""Module boundaries: no ``infmc`` module reaches into a sibling's private
names, the package root imports nothing, so each public name is imported
from the one module that defines it, and importing the package loads no
scipy module."""
import ast
import importlib
import os
import subprocess
import sys
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


def _modules() -> list:
    """Every module of the package but its root, imported."""
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    return [importlib.import_module(f"infmc.{p.stem}") for p in paths if p.stem != "__init__"]


def test_every_public_name_resolves():
    missing = [f"{m.__name__}.{n}" for m in _modules() for n in m.__all__ if not hasattr(m, n)]
    assert missing == []


def test_package_root_imports_nothing():
    """One address per public name: its defining module, which is also the
    one namespace a monkeypatch has to reach."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


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


def _module_level_scipy_imports(source: str) -> list[int]:
    """Lines that import scipy while the module loads: outside every function body."""
    found, todo = [], [ast.parse(source)]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(node.lineno)
            todo.append(node)
    return sorted(found)


def test_no_module_imports_scipy_at_module_level():
    """scipy loads only inside the functions that need it, never with ``import infmc``."""
    source = ("import scipy.special\nfrom scipy import stats\nclass A:\n    import scipy\n"
              "def f():\n    from scipy.special import gammaln\nimport scipyx\nfrom .scipy import y\n")
    assert _module_level_scipy_imports(source) == [1, 2, 4]
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line in _module_level_scipy_imports(path.read_text())
    ]
    assert offenders == []


_LIGHT_RUNS = """
import sys
from infmc.experiments import ExperimentConfig, dmm_replication, gauss_replication
from infmc.rng import RandomSource

def loaded():
    return "scipy.special" in sys.modules

print(loaded())
gauss_replication(ExperimentConfig("gauss-centered", 1), 200, RandomSource(1).child(0, 0))
print(loaded())
small = dict(budgets=(40,), generations=2, data_count=20)
dmm_replication(ExperimentConfig("dmm-gauss", 1, **small), 40, RandomSource(1).child(0, 0))
print(loaded())
dmm_replication(ExperimentConfig("dmm-t", 1, **small), 40, RandomSource(1).child(0, 0))
print(loaded())
"""


def test_gaussian_runs_never_load_scipy_special():
    """``import infmc``, a gauss-centered and a dmm-gauss replication leave
    ``scipy.special`` unloaded; the Student-t mixture's array log-gamma loads
    it.  A fresh interpreter, since this one has loaded it already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _LIGHT_RUNS], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "True"]


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
    _modules()  # every subclass, wherever it is defined
    base = infmc.distributions.Density
    classes = {cls for cls in _subclasses(base) if cls.__module__.startswith("infmc.")}
    own = sorted(cls.__qualname__ for cls in classes if {"log_density", "sample"} & set(vars(cls)))
    unbatched = sorted(cls.__qualname__ for cls in classes if cls.sample_batch is base.sample_batch)
    names = {"DiagGaussian", "Dirichlet", "Gamma", "MixtureAssignmentProposal", "ScalarInverseWishart", "StudentT",
             "TupleDensity"}
    assert {cls.__qualname__ for cls in classes} == names and own == [] and unbatched == []


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


def _unused_imports(source: str) -> list[str]:
    """Names a module-level import binds that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_no_module_keeps_an_unused_import():
    """A stale import is dead code, and perfbench patches every namespace
    that holds a traced name, so it would patch one more."""
    source = ("from __future__ import annotations\nimport os, numpy as np\nimport a.b\nfrom .m import x, y as z\n"
              "def f():\n    import sys\n    return np.zeros(x)\nclass C(a.b.Base):\n    pass\n")
    assert _unused_imports(source) == ["os", "z"]
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert offenders == {}
