"""Every module, function, class and method under ``src/repro`` must be used.

Two gates share one :mod:`ast` parse of the package.

*Modules.* Every module must be reachable from a CLI verb.
The walk parses each module with :mod:`ast` and follows every ``import``
and ``from ... import`` statement, including the lazy imports inside
function bodies, starting from ``repro.cli``, ``repro.__main__`` and the
module column of the registry table, which the CLI imports by name when
a verb runs.  Importing a module also runs its parent packages'
``__init__``, so those are reached (and walked) too.  A module the walk
never reaches is code no verb can run; delete it, or allowlist it here
with the reason it stays.

*Definitions.* Every top-level function and class, and every method of a
top-level class, must be named somewhere in ``src/repro`` by code that is
itself used: as a bare name, as an attribute (``obj.name``), or as a
string constant (``"name"``, ``"pkg.module.name"``).  A definition's own
body, a module's ``__all__`` and the bodies of unused definitions do not
count, and the check runs to a fixpoint, so a chain of definitions only
each other call dies together.  Dunders are exempt (the interpreter
calls them).  Names match by spelling alone, so a method is used when any
``.name`` with its spelling is; the gate misses some dead code but never
flags live code.  A definition only tests use is dead code; delete it,
or allowlist it here with the reason it stays.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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


def test_no_package_init_imports_anything():
    files = _module_files()
    importing = sorted(
        name for name, path in files.items()
        if path.endswith("__init__.py")
        and any(isinstance(node, (ast.Import, ast.ImportFrom))
                for node in ast.walk(_parse(path))))
    assert not importing, (
        "package __init__ modules re-export again; import each name from "
        f"its defining module instead: {importing}")


# -- definitions --------------------------------------------------------------

# Qualified name (a definition, or a whole module) -> why it stays although
# nothing in src/repro uses it.  Its body's references count as uses.
ALLOWED_UNREFERENCED: Dict[str, str] = {
    # Test oracles: the scalar twins the fast kernels are checked against.
    "repro.core.queueing.lindley_waits_reference": (
        "scalar oracle of lindley_waits (tests/core/test_queueing_vectorized"
        ".py, the speed gate in tests/core/test_kernel_speed.py); also a "
        "perfbench span target"),
    "repro.core.queueing.simulate_batch_server_reference": (
        "scalar oracle of simulate_batch_server (same two test modules); "
        "also a perfbench span target"),
    "repro.core.queueing.QueueOutcome.component_residual": (
        "attribution conservation check: tests/analysis/test_attribution.py "
        "asserts the components sum to each sojourn"),
    "repro.functions.crypto.aes.decrypt_block": (
        "inverse cipher (with its _inv_* helpers) for the AES round-trip "
        "tests in tests/functions/test_crypto.py and test_builder_oracles.py"),
    "repro.hardware.memmodel": (
        "reference memory-hierarchy model (see ALLOWED_ORPHANS)"),
    # Checkers the tests and the CI jobs run on what the program writes.
    "repro.analysis.export.validate_artifact": (
        "JSON-artifact schema checker: the CI smoke matrices and "
        "tests/test_cold_start.py validate every verb's --json output"),
    "repro.obs.openmetrics.parse_openmetrics": (
        "strict OpenMetrics parser: the CI metrics job and "
        "tests/obs/test_openmetrics.py parse every --metrics-out exposition"),
    # Pinned by name in perfbench/spans.py::TARGETS, which wraps each one
    # and fails on a missing attribute; they go with the benchmark change
    # that moves spans into the program (ROADMAP item 1).
    "repro.core.analytic.mmc_wait_mean": (
        "perfbench span target; keeps erlang_c, another one, alive"),
    "repro.experiments.measurement.sweep_operating_rate": (
        "perfbench span target; keeps _trusted_run_at and core/sweep.py's "
        "search alive"),
    "repro.offload.loadbalancer.simulate_balancer": "perfbench span target",
}

_DOTTED = re.compile(r"[A-Za-z_][\w]*(?:[.:][A-Za-z_]\w*)*")


class _Definition(NamedTuple):
    key: str             # module.qualname
    name: str
    parent: Optional[str]  # the class key, for a method


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and _DOTTED.fullmatch(child.value)):
            yield from re.split(r"[.:]", child.value)


def _is_all(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _index(files: Dict[str, str]) -> Tuple[Dict[str, _Definition],
                                           List[Tuple[str, Optional[str]]]]:
    """Every checked definition, and every (name, owner key) reference.

    A reference's owner is the innermost checked definition containing
    it, or ``None`` at module level (always live).
    """
    definitions: Dict[str, _Definition] = {}
    references: List[Tuple[str, Optional[str]]] = []
    for module, path in files.items():
        for stmt in _parse(path).body:
            if _is_all(stmt):
                continue
            if not isinstance(stmt, _DEFS):
                references.extend((n, None) for n in _names_in(stmt))
                continue
            key = f"{module}.{stmt.name}"
            definitions[key] = _Definition(key, stmt.name, None)
            if not isinstance(stmt, ast.ClassDef):
                references.extend((n, key) for n in _names_in(stmt))
                continue
            for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                references.extend((n, key) for n in _names_in(part))
            for member in stmt.body:
                owner = key
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = f"{key}.{member.name}"
                    definitions[owner] = _Definition(owner, member.name, key)
                references.extend((n, owner) for n in _names_in(member))
    return definitions, references


def _live(definitions: Dict[str, _Definition],
          references: List[Tuple[str, Optional[str]]],
          roots: Set[str]) -> Set[str]:
    """Keys of the definitions used from module level or a live owner."""
    by_name: Dict[str, List[Optional[str]]] = {}
    for name, owner in references:
        by_name.setdefault(name, []).append(owner)

    def rooted(d: _Definition) -> bool:
        return (_is_dunder(d.name) or d.key in roots
                or d.key.rpartition(".")[0] in roots
                or (d.parent is not None
                    and d.parent.rpartition(".")[0] in roots))

    live = {key for key, d in definitions.items() if rooted(d)}
    changed = True
    while changed:
        changed = False
        for key, d in definitions.items():
            if key in live:
                continue
            for owner in by_name.get(d.name, ()):
                if owner is None or (owner in live and owner != key
                                     and definitions[owner].parent != key
                                     and (definitions[owner].parent is None
                                          or definitions[owner].parent in live)):
                    live.add(key)
                    changed = True
                    break
    return live


def _unreferenced(definitions: Dict[str, _Definition],
                  live: Set[str]) -> Set[str]:
    """Dead definitions; a dead class stands for its methods."""
    return {key for key, d in definitions.items() if key not in live
            and (d.parent is None or d.parent in live)}


def test_every_definition_is_referenced():
    files = _module_files()
    definitions, references = _index(files)
    roots = set(ALLOWED_UNREFERENCED)
    live = _live(definitions, references, roots)
    dead = sorted(_unreferenced(definitions, live))
    assert not dead, (
        "definitions nothing in src/repro uses (delete them, or allowlist "
        f"one with a reason): {dead}")
    for entry, reason in ALLOWED_UNREFERENCED.items():
        assert reason.strip(), f"allowlisted {entry} has no reason"
        covered = [key for key in definitions
                   if key == entry or key.startswith(entry + ".")]
        assert covered, f"allowlisted {entry} no longer exists"
        without = _live(definitions, references, roots - {entry})
        assert not set(covered) <= without, (
            f"{entry} is used now; drop it from the allowlist")
