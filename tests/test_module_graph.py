"""Every module under ``src/repro`` must be reachable from a CLI verb.

The walk parses each module with :mod:`ast` and follows every ``import``
and ``from ... import`` statement, including the lazy imports inside
function bodies, starting from ``repro.cli``, ``repro.__main__`` and the
module column of the registry table, which the CLI imports by name when
a verb runs.  Importing a module also runs its parent packages'
``__init__``, so those are reached (and walked) too.  A module the walk
never reaches is code no verb can run; delete it, or allowlist it here
with the reason it stays.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, Set

from repro.experiments import registry

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

# Module -> why it stays although no verb imports it.
ALLOWED_ORPHANS = {
    "repro.hardware.memmodel": (
        "reference memory-hierarchy model: tests/hardware/test_memmodel.py "
        "checks the calibrated host-vs-SNIC memory cost ratios against it"),
}


def _module_files() -> Dict[str, str]:
    """Dotted module name -> path, for every ``.py`` under src/repro."""
    files: Dict[str, str] = {}
    root = os.path.join(SRC, "repro")
    for directory, _dirs, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            files[".".join(parts)] = path
    return files


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _imports(tree: ast.AST, package: str, modules: Set[str]) -> Iterator[str]:
    """Every module the import statements anywhere under ``tree`` load.

    ``package`` is the package relative imports resolve against.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module
                                          else []))
            yield target
            for alias in node.names:
                if f"{target}.{alias.name}" in modules:
                    yield f"{target}.{alias.name}"


def _package_of(name: str, path: str) -> str:
    return name if path.endswith("__init__.py") else name.rpartition(".")[0]


def _reachable(files: Dict[str, str]) -> Set[str]:
    modules = set(files)
    stack = ["repro.cli", "repro.__main__",
             *(module for _name, module, _title in registry.TABLE)]
    seen: Set[str] = set()
    while stack:
        name = stack.pop()
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            module = ".".join(parts[:depth])
            if module in modules and module not in seen:
                seen.add(module)
                stack.extend(_imports(_parse(files[module]),
                                      _package_of(module, files[module]),
                                      modules))
    return seen


def test_every_module_is_reached_from_a_verb():
    files = _module_files()
    reached = _reachable(files)
    orphans = sorted(set(files) - reached - set(ALLOWED_ORPHANS))
    assert not orphans, (
        "modules no verb reaches (delete them, or allowlist one with a "
        f"reason): {orphans}")
    for name in ALLOWED_ORPHANS:
        assert name in files, f"allowlisted {name} no longer exists"
        assert name not in reached, (
            f"{name} is reached now; drop it from the allowlist")
