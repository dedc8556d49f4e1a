"""Every module and function under ``src/repro`` must run under some verb.

The gate reads what the verbs execute, not what the source spells.  The
record (``tests/conftest.py``) is the union of the code objects that ran
under:

- every registry verb at ``--smoke`` with ``--json``, each in a fresh
  process, with the ``--csv``, ``--metrics-out``/``--metrics-interval``,
  ``--trace`` and ``--run-dir`` paths folded into them;
- a supervised ``--jobs 2`` traced ``report --smoke``, whose forked
  workers record themselves; ``--resume`` of the cluster run directory,
  ``status`` and ``status --json`` on it, and ``trace fig7 --smoke``;
- the default ``report`` in-process under both engines, and at
  ``--jobs 2`` with every batch on forked workers (the golden tests' own
  runs).

A definition is every ``def``: functions, methods and nested functions.
It ran when a code object with its file, first line and name did; a
decorated ``def``'s code starts at its first decorator.  Lambdas and
comprehensions are not checked, and dunders are exempt (the interpreter
calls them).  A module ran when its body did.  What never ran is code no
verb needs: delete it, or list it in ``ALLOWED_UNEXECUTED`` with its
reason.  An entry covers the definitions nested in what it names.

Two static gates read only the source, so they fail in seconds, before
any verb has run.  *Modules*: every module must be reachable from a verb
by following ``import`` statements, lazy ones inside function bodies
too, from ``repro.cli``, ``repro.__main__`` and the registry's module
column; importing a module also runs its parent packages' ``__init__``.
*Definitions*: every top-level function and class, and every method of
a top-level class, must be named by code that is itself used: as a bare
name, an attribute or a string constant.  Names match by spelling alone,
so these gates miss dead code the execution gate finds, but they never
flag live code.  What they let stay is listed in ``UNIMPORTED`` and
``UNREFERENCED``; its reason is its ``ALLOWED_UNEXECUTED`` entry.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

from repro.experiments import registry
from tests.conftest import EXTRA_RUNS, SRC, CodeKey

# Kinds of ALLOWED_UNEXECUTED entry.  Only a WORKER entry may also run:
# it runs in a thread of a worker, where the profiler does not follow.
ORACLE = "test oracle"
CHECKER = "output checker"
PERFBENCH = "perfbench span target (ROADMAP item 1)"
ERROR = "error or fault path"
WORKER = "worker side"
SERVER = "--metrics-port server"
REFERENCE = "reference model"

ALLOWED_UNEXECUTED: Dict[str, Tuple[str, str]] = {
    # Test oracles: the slow, obviously right twins the fast code is
    # checked against.
    "repro.core.queueing.lindley_waits_reference": (ORACLE, (
        "scalar Lindley recursion (tests/core/test_queueing_vectorized.py, "
        "the speed gate in tests/core/test_kernel_speed.py); also a "
        "perfbench span target")),
    "repro.core.queueing.simulate_batch_server_reference": (ORACLE, (
        "scalar batch server (same two test modules); also a perfbench "
        "span target")),
    "repro.core.queueing.QueueOutcome.component_residual": (ORACLE, (
        "attribution conservation: tests/analysis/test_attribution.py "
        "checks the components sum to each sojourn")),
    "repro.functions.crypto.aes.decrypt_block": (ORACLE, (
        "inverse cipher for the AES round trips in tests/functions/"
        "test_crypto.py and test_builder_oracles.py")),
    "repro.functions.crypto.aes._add_round_key": (ORACLE, "decrypt_block's"),
    "repro.functions.crypto.aes._inv_sub_bytes": (ORACLE, "decrypt_block's"),
    "repro.functions.crypto.aes._inv_shift_rows": (ORACLE, "decrypt_block's"),
    "repro.functions.crypto.aes._inv_mix_columns": (ORACLE, "decrypt_block's"),
    "repro.functions.compression.deflate.compress": (ORACLE, (
        "writes the real bit stream whose size deflate.measure computes "
        "without writing it (tests/functions/test_compression.py)")),
    "repro.functions.compression.deflate.decompress": (ORACLE, (
        "inflates compress's stream back, so the round trip proves the "
        "stream measure sizes is a valid one")),
    "repro.functions.compression.lz77.decompress": (ORACLE,
                                                    "decompress's"),
    "repro.functions.compression.huffman._limit_lengths": (ORACLE,
                                                           "compress's"),
    "repro.functions.compression.huffman.canonical_codes": (ORACLE,
                                                            "compress's"),
    "repro.functions.compression.huffman.serialize_lengths": (ORACLE,
                                                              "compress's"),
    "repro.functions.compression.huffman.BitWriter": (ORACLE, "compress's"),
    "repro.functions.compression.huffman.BitReader": (ORACLE,
                                                      "decompress's"),
    "repro.functions.compression.huffman.Decoder": (ORACLE, "decompress's"),
    "repro.functions.compression.huffman.deserialize_lengths": (
        ORACLE, "decompress's"),
    "repro.functions.mica.MicaStore.put": (ORACLE, (
        "one insert at a time: tests/functions/test_builder_oracles.py "
        "checks put_many against it")),
    "repro.functions.mica.MicaStore.get": (ORACLE, (
        "one lookup at a time: test_builder_oracles.py checks get_batch "
        "against it")),
    # Checkers the tests run on what the program writes.
    "repro.analysis.export.validate_artifact": (CHECKER, (
        "JSON-artifact schema checker: tests/test_cold_start.py validates "
        "every verb's --json output")),
    "repro.analysis.export._is_type": (CHECKER, "validate_artifact's"),
    "repro.obs.openmetrics.parse_openmetrics": (CHECKER, (
        "strict OpenMetrics parser: tests/obs/ parse every --metrics-out "
        "exposition")),
    "repro.obs.openmetrics._family_of": (CHECKER, "parse_openmetrics's"),
    # Pinned by name in perfbench/spans.py::TARGETS, which fails on a
    # missing attribute; they go with the benchmark change that moves the
    # spans into the program.
    "repro.core.analytic.erlang_c": (PERFBENCH, "span target"),
    "repro.core.analytic.mmc_wait_mean": (PERFBENCH, "span target"),
    "repro.core.queueing.lindley_waits": (PERFBENCH, "span target"),
    "repro.experiments.measurement.sweep_operating_rate": (PERFBENCH,
                                                           "span target"),
    "repro.experiments.measurement._trusted_run_at": (
        PERFBENCH, "sweep_operating_rate's"),
    "repro.core.sweep.SweepResult": (PERFBENCH, "sweep_operating_rate's"),
    "repro.core.sweep._failed_probe_metrics": (PERFBENCH,
                                               "sweep_operating_rate's"),
    "repro.core.sweep._acceptable": (PERFBENCH, "sweep_operating_rate's"),
    "repro.core.sweep._cold_probe_count": (PERFBENCH,
                                           "sweep_operating_rate's"),
    "repro.core.sweep.find_max_sustainable_rate": (PERFBENCH,
                                                   "sweep_operating_rate's"),
    "repro.offload.loadbalancer.simulate_balancer": (PERFBENCH,
                                                     "span target"),
    "repro.experiments.registry.load_all": (PERFBENCH, (
        "perfbench/spans.py loads every experiment module before it wraps "
        "the targets")),
    # Error and fault paths: no healthy verb run takes them.
    "repro.obs.slo.SloFinding.describe": (ERROR, (
        "the SLO-drift warning; every verb's numbers sit inside their "
        "bands")),
    "repro.cluster.fabric.LeafSpineFabric._unroutable": (ERROR, (
        "a packet for an address outside the topology")),
    "repro.core.cache.ResultCache._quarantine": (ERROR, (
        "moves a corrupt on-disk cache entry aside")),
    "repro.core.executor.UnitFailure.describe": (ERROR,
                                                 "a failed work unit"),
    "repro.core.executor.QuarantinedUnitError.quarantined_units": (
        ERROR, "a run that quarantined poison-pill units"),
    "repro.experiments.registry.PartialResult.notice": (ERROR, (
        "a partially degraded run's notice")),
    # Worker side: a thread the profiler does not follow.
    "repro.runfarm.health.start_heartbeat._beat_loop": (
        WORKER, "a supervised worker's heartbeat thread"),
    "repro.obs.openmetrics.MetricsServer": (SERVER, (
        "live GET /metrics while a run is in flight: tests/obs/"
        "test_openmetrics.py scrapes it")),
    "repro.hardware.memmodel": (REFERENCE, (
        "memory-hierarchy model: tests/hardware/test_memmodel.py checks the "
        "calibrated host-vs-SNIC memory cost ratios against it")),
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


# -- the static gates ---------------------------------------------------------

# Modules no import statement reaches from a verb.
UNIMPORTED = ("repro.hardware.memmodel",)

# Definitions nothing used in src/repro names.  Their bodies' names count
# as uses.
UNREFERENCED = (
    "repro.core.queueing.lindley_waits_reference",
    "repro.core.queueing.simulate_batch_server_reference",
    "repro.core.queueing.QueueOutcome.component_residual",
    "repro.functions.crypto.aes.decrypt_block",
    "repro.functions.compression.deflate.decompress",
    "repro.functions.compression.lz77.decompress",
    "repro.hardware.memmodel",
    "repro.analysis.export.validate_artifact",
    "repro.obs.openmetrics.parse_openmetrics",
    "repro.core.analytic.mmc_wait_mean",
    "repro.experiments.measurement.sweep_operating_rate",
    "repro.offload.loadbalancer.simulate_balancer",
    "repro.experiments.registry.load_all",
)


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
    orphans = sorted(set(files) - reached - set(UNIMPORTED))
    assert not orphans, (
        "modules no verb reaches (delete them, or list one in UNIMPORTED "
        f"and ALLOWED_UNEXECUTED with a reason): {orphans}")
    for name in UNIMPORTED:
        assert name in ALLOWED_UNEXECUTED, f"{name} has no reason"
        assert name in files, f"allowlisted {name} no longer exists"
        assert name not in reached, (
            f"{name} is reached now; drop it from UNIMPORTED")


_DOTTED = re.compile(r"[A-Za-z_][\w]*(?:[.:][A-Za-z_]\w*)*")


class _Named(NamedTuple):
    key: str               # module.qualname
    name: str
    parent: Optional[str]  # the class key, for a method


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


def _index(files: Dict[str, str]) -> Tuple[Dict[str, _Named],
                                           List[Tuple[str, Optional[str]]]]:
    """Every checked definition, and every (name, owner key) reference.

    A reference's owner is the innermost checked definition containing
    it, or ``None`` at module level (always live).
    """
    named: Dict[str, _Named] = {}
    references: List[Tuple[str, Optional[str]]] = []
    for module, path in files.items():
        for stmt in _parse(path).body:
            if _is_all(stmt):
                continue
            if not isinstance(stmt, _DEFS):
                references.extend((n, None) for n in _names_in(stmt))
                continue
            key = f"{module}.{stmt.name}"
            named[key] = _Named(key, stmt.name, None)
            if not isinstance(stmt, ast.ClassDef):
                references.extend((n, key) for n in _names_in(stmt))
                continue
            for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                references.extend((n, key) for n in _names_in(part))
            for member in stmt.body:
                owner = key
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = f"{key}.{member.name}"
                    named[owner] = _Named(owner, member.name, key)
                references.extend((n, owner) for n in _names_in(member))
    return named, references


def _live(named: Dict[str, _Named],
          references: List[Tuple[str, Optional[str]]],
          roots: Set[str]) -> Set[str]:
    """Keys of the definitions used from module level or a live owner."""
    by_name: Dict[str, List[Optional[str]]] = {}
    for name, owner in references:
        by_name.setdefault(name, []).append(owner)

    def rooted(d: _Named) -> bool:
        return (_is_dunder(d.name) or d.key in roots
                or d.key.rpartition(".")[0] in roots
                or (d.parent is not None
                    and d.parent.rpartition(".")[0] in roots))

    live = {key for key, d in named.items() if rooted(d)}
    changed = True
    while changed:
        changed = False
        for key, d in named.items():
            if key in live:
                continue
            for owner in by_name.get(d.name, ()):
                if owner is None or (owner in live and owner != key
                                     and named[owner].parent != key
                                     and (named[owner].parent is None
                                          or named[owner].parent in live)):
                    live.add(key)
                    changed = True
                    break
    return live


def test_every_definition_is_referenced():
    named, references = _index(_module_files())
    roots = set(UNREFERENCED)
    live = _live(named, references, roots)
    # A dead class stands for its methods.
    dead = sorted(key for key, d in named.items() if key not in live
                  and (d.parent is None or d.parent in live))
    assert not dead, (
        "definitions nothing in src/repro uses (delete them, or list one "
        f"in UNREFERENCED and ALLOWED_UNEXECUTED with a reason): {dead}")
    for entry in UNREFERENCED:
        assert entry in ALLOWED_UNEXECUTED, f"{entry} has no reason"
        covered = [key for key in named
                   if key == entry or key.startswith(entry + ".")]
        assert covered, f"allowlisted {entry} no longer exists"
        without = _live(named, references, roots - {entry})
        assert not set(covered) <= without, (
            f"{entry} is used now; drop it from UNREFERENCED")


# -- the execution gate ---------------------------------------------------------


class Definition(NamedTuple):
    qualname: str          # module.Class.method.nested
    path: str              # relative to src/
    line: int              # co_firstlineno; 0 for a module body
    name: str              # co_name
    parent: Optional[str]  # enclosing def, or the module; None for a module


def definitions(module: str, path: str, source: str) -> Iterator[Definition]:
    """The module body and every ``def`` in ``source``, nested ones too."""
    yield Definition(module, path, 0, "<module>", None)

    def walk(body, prefix: str, parent: str) -> Iterator[Definition]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{node.name}", parent)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                line = min([node.lineno]
                           + [d.lineno for d in node.decorator_list])
                yield Definition(qualname, path, line, node.name, parent)
                yield from walk(node.body, qualname, qualname)
            else:
                # defs under if/try/with blocks
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from walk(getattr(node, field, ()), prefix, parent)

    yield from walk(ast.parse(source).body, module, module)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unexecuted(sources: Dict[str, Tuple[str, str]], executed: Set[CodeKey],
               allowed: Dict[str, Tuple[str, str]]) -> List[str]:
    """The gate's failures.

    ``sources`` maps a dotted module name to (path relative to src/,
    source text); ``executed`` holds (path, co_firstlineno, co_name) of
    every code object that ran; ``allowed`` maps a qualified name to
    (kind, reason).
    """
    # A list, not a dict: a property's getter and setter share a name.
    found = [d for module, (path, source) in sources.items()
             for d in definitions(module, path, source)]
    bodies = {path for path, _line, name in executed if name == "<module>"}
    ran = {d for d in found
           if (d.path in bodies if d.parent is None
               else (d.path, d.line, d.name) in executed)}
    ran_names = {d.qualname for d in ran}
    failures = []
    covered: Set[str] = set()
    for entry, (kind, reason) in sorted(allowed.items()):
        if not reason.strip():
            failures.append(f"{entry}: allowlisted without a reason")
        names = {d.qualname for d in found if d.qualname == entry
                 or d.qualname.startswith(entry + ".")}
        if not names:
            failures.append(f"{entry}: allowlisted but no longer defined")
        elif kind != WORKER and names & ran_names:
            failures.append(f"{entry}: ran ({sorted(names & ran_names)[0]}); "
                            "drop it from the allowlist")
        covered |= names
    for d in found:
        if (d in ran or d.qualname in covered or _is_dunder(d.name)
                # the enclosing scope that never ran is reported instead
                or (d.parent is not None and d.parent not in ran_names)):
            continue
        failures.append(f"{d.qualname} ({d.path}:{d.line or 1}) never ran")
    return failures


def _sources() -> Dict[str, Tuple[str, str]]:
    sources = {}
    for module, path in _module_files().items():
        with open(path, encoding="utf-8") as handle:
            sources[module] = (os.path.relpath(path, SRC), handle.read())
    return sources


def test_every_definition_runs_under_a_verb(fresh_runs, hybrid_report,
                                            hybrid_report_jobs2, sim_report):
    for label in (*(name for name, _m, _t in registry.TABLE), *EXTRA_RUNS):
        proc = fresh_runs.result(label)
        assert proc.returncode == 0, (label, proc.stderr[-2000:])
    failures = unexecuted(_sources(), fresh_runs.executed(),
                          ALLOWED_UNEXECUTED)
    assert not failures, (
        "code no verb runs (delete it, or allowlist it in "
        "ALLOWED_UNEXECUTED with a reason):\n" + "\n".join(failures))


# -- the gate's own cases -----------------------------------------------------

_SYNTHETIC = '''\
import functools


def called():
    def inner():
        return 1
    return inner()


def never():
    return 2


class Box:
    def used(self):
        return 3

    def unused(self):
        return 4


@functools.lru_cache(maxsize=None)
@functools.wraps(called)
def decorated():
    return 5


def outer():
    def nested_never():
        return 6
    return 7


class Gauge:
    @property
    def level(self):
        return 8

    @level.setter
    def level(self, value):
        self._level = value
'''


def _run_synthetic(calls: str) -> Set[CodeKey]:
    """Compile and run ``_SYNTHETIC``, then ``calls``; return what ran.

    The keys come from real code objects, so the decorated case checks
    this interpreter's ``co_firstlineno``.
    """
    import cProfile

    code = compile(_SYNTHETIC, "synthetic.py", "exec")
    namespace: dict = {}
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    try:
        exec(code, namespace)
        exec(calls, namespace)
    finally:
        profiler.disable()
    return {(s.code.co_filename, s.code.co_firstlineno, s.code.co_name)
            for s in profiler.getstats() if not isinstance(s.code, str)
            and s.code.co_filename == "synthetic.py"}


_ALL_CALLS = ("called(); never(); Box().used(); Box().unused(); "
              "decorated(); outer(); gauge = Gauge(); gauge.level = 9; "
              "gauge.level")


def _gate(executed, allowed=None):
    return unexecuted({"pkg.mod": ("synthetic.py", _SYNTHETIC)}, executed,
                      allowed or {})


class TestGate:
    def test_a_def_that_never_ran_is_flagged(self):
        failures = _gate(_run_synthetic(
            _ALL_CALLS.replace("never(); ", "")))
        assert [f.split()[0] for f in failures] == [
            "pkg.mod.never", "pkg.mod.outer.nested_never"]

    def test_an_unused_method_is_flagged(self):
        failures = _gate(_run_synthetic(
            _ALL_CALLS.replace("Box().unused(); ", "")))
        assert failures[0].startswith("pkg.mod.Box.unused ")

    def test_a_nested_def_is_covered(self):
        failures = _gate(_run_synthetic(_ALL_CALLS))
        assert failures == [
            "pkg.mod.outer.nested_never (synthetic.py:29) never ran"]

    def test_a_nested_def_of_a_def_that_never_ran_is_not_repeated(self):
        failures = _gate(_run_synthetic(
            _ALL_CALLS.replace("called(); ", "")))
        assert failures[0].startswith("pkg.mod.called ")
        assert not any("inner" in f for f in failures)

    def test_a_decorated_def_matches_by_its_first_decorator_line(self):
        executed = _run_synthetic(_ALL_CALLS)
        assert ("synthetic.py", 22, "decorated") in executed
        assert not [f for f in _gate(executed) if "decorated" in f]
        missing = _gate(_run_synthetic(
            _ALL_CALLS.replace("decorated(); ", "")))
        assert "pkg.mod.decorated (synthetic.py:22) never ran" in missing

    def test_a_getter_is_checked_apart_from_its_setter(self):
        failures = _gate(_run_synthetic(
            _ALL_CALLS.removesuffix("; gauge.level")))
        assert "pkg.mod.Gauge.level (synthetic.py:35) never ran" in failures

    def test_a_module_body_that_never_ran_stands_for_its_defs(self):
        assert _gate(set()) == ["pkg.mod (synthetic.py:1) never ran"]

    def test_an_allowlisted_def_passes(self):
        assert _gate(_run_synthetic(_ALL_CALLS), {
            "pkg.mod.outer.nested_never": (ORACLE, "checks outer")}) == []

    def test_an_entry_without_a_reason_fails(self):
        failures = _gate(_run_synthetic(_ALL_CALLS), {
            "pkg.mod.outer.nested_never": (ORACLE, " ")})
        assert failures == [
            "pkg.mod.outer.nested_never: allowlisted without a reason"]

    def test_an_entry_for_a_missing_name_fails(self):
        failures = _gate(_run_synthetic(_ALL_CALLS), {
            "pkg.mod.outer.nested_never": (ORACLE, "checks outer"),
            "pkg.mod.gone": (ORACLE, "checks gone")})
        assert failures == [
            "pkg.mod.gone: allowlisted but no longer defined"]

    def test_an_executed_entry_fails(self):
        failures = _gate(_run_synthetic(_ALL_CALLS), {
            "pkg.mod.outer.nested_never": (ORACLE, "checks outer"),
            "pkg.mod.never": (ERROR, "raises")})
        assert failures == [
            "pkg.mod.never: ran (pkg.mod.never); drop it from the allowlist"]

    def test_an_executed_worker_entry_passes(self):
        assert _gate(_run_synthetic(_ALL_CALLS), {
            "pkg.mod.outer.nested_never": (ORACLE, "checks outer"),
            "pkg.mod.never": (WORKER, "runs in a forked worker")}) == []

    @pytest.mark.parametrize("entry", ["pkg.mod", "pkg.mod.Box"])
    def test_an_entry_covers_what_it_encloses(self, entry):
        executed = _run_synthetic("")
        failures = _gate(executed, {entry: (REFERENCE, "reference")})
        flagged = {f.split()[0] for f in failures}
        if entry == "pkg.mod":
            assert failures == ["pkg.mod: ran (pkg.mod); drop it from the "
                                "allowlist"]
        else:
            assert "pkg.mod.Box.unused" not in flagged
            assert "pkg.mod.never" in flagged
