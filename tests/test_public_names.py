"""The public surface of tubelab: each module's __all__, the names the package
re-exports, and the runtime dependencies (numpy only; scipy is installed in
some environments but not declared, so the package must not import it)."""

import ast
import importlib
from pathlib import Path

import pytest

import tubelab

SRC = Path(tubelab.__file__).resolve().parent
MODULES = ("grid", "geometry", "measures", "structure", "constructions", "lab")


@pytest.mark.parametrize("mod_name", MODULES)
def test_every_name_in_all_resolves(mod_name):
    mod = importlib.import_module(f"tubelab.{mod_name}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"tubelab.{mod_name}.__all__ names missing members: {missing}"


def test_reexports_are_in_their_modules_all():
    tree = ast.parse((SRC / "__init__.py").read_text())
    outside = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"tubelab.{node.module}").__all__
            outside += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in exported
            ]
    # lab's names are re-exported lazily, through the package's __getattr__
    lab = importlib.import_module("tubelab.lab")
    outside += [f"lab.{name}" for name in tubelab._LAB_NAMES if name not in lab.__all__]
    assert not outside, f"re-exported but not in the module's __all__: {outside}"
    assert all(getattr(tubelab, name) is getattr(lab, name) for name in tubelab._LAB_NAMES)


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "scipy" in roots:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"scipy imported at {offenders}"


def test_lab_imports_no_private_name_from_tubelab():
    # lab drives the measures through their public entry points
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse((SRC / "lab.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "tubelab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"lab imports private names {private}"


def _names(path: Path) -> set[str]:
    """Every identifier a module names: imported, read, called or as an
    attribute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_constructions_builds_families_through_the_array_constructor():
    # generators hand keys and code arrays to LineFamily._from_arrays, which
    # alone runs the batched checks and makes the objects unchecked
    checks = {"_check_codes", "_check_in_tube", "_param_ranges"}
    fast_paths = {"__new__", "_from_checked", "_from_frame", "_from_sorted_codes"}
    used = _names(SRC / "constructions.py") & (checks | fast_paths)
    assert not used, f"constructions names {sorted(used)}"


def test_only_geometry_runs_the_batched_tube_check():
    users = [p.name for p in sorted(SRC.glob("*.py")) if "_check_in_tube" in _names(p)]
    assert users == ["geometry.py"], users
