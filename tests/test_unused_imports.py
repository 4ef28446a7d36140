"""No module of the package imports a name it never uses.

The lint job runs ruff's F401 for the same defect, but only in CI; this
check runs with the unit suite, so a deletion that leaves a dead import
behind fails where it is made.  A name counts as used when the module reads
it anywhere (string annotations included) or lists it in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each import -> the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """String constants inside annotations (``x: "List[int]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield part.value


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used |= {
            node.id
            for node in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(node, ast.Name)
        }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return used


def test_every_imported_name_is_used():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1]):
            if name not in used:
                offenders.append(f"{path.relative_to(PACKAGE.parent)}:{line}: {name}")
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)


def _module_private_definitions(tree: ast.Module):
    """Module-level ``_private`` functions and classes -> the line defining each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def _referenced_names(tree: ast.Module) -> set:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_helper_is_used():
    # A deletion that removes a helper's last caller leaves the helper dead.
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _module_private_definitions(tree)
        if name not in referenced
    ]
    assert offenders == [], "private helpers nothing in the package uses:\n" + "\n".join(
        offenders
    )


def _self_attributes(function: ast.FunctionDef) -> dict:
    """Attributes ``function`` assigns on ``self`` -> the line assigning each."""
    return {
        node.attr: node.lineno
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def test_every_workspace_buffer_is_read():
    # A buffer the sweep kernels stopped reading still costs its bytes in
    # every arena.  Reads inside ``__init__`` (the ``owned`` byte tally, the
    # arrays derived there) do not count.
    backends = PACKAGE / "core" / "backends"
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(backends.glob("*.py"))
    }
    workspace_class = next(
        node
        for node in trees["workspace.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "SweepWorkspace"
    )
    init = next(
        node
        for node in workspace_class.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    in_init = {id(node) for node in ast.walk(init)}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in in_init
    }
    offenders = [
        f"workspace.py:{line}: {name}"
        for name, line in sorted(_self_attributes(init).items(), key=lambda item: item[1])
        if name not in read
    ]
    assert offenders == [], "SweepWorkspace attributes nothing reads:\n" + "\n".join(offenders)
