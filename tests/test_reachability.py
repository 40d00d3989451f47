"""Nothing lives in ``src/repro`` that only its own tests import.

A static pass over the import graph: start from everything that really runs
(``repro/cli.py``, ``repro/__main__.py``, ``examples/``, ``benchmarks/``),
follow imports transitively, and fail on any module the closure never
reaches. ``from pkg import Name`` is resolved *through* the package's
``__init__`` to the module that defines ``Name`` — a package re-exporting a
module does not make that module reachable, only somebody using the name
does. Imports inside functions count (the factory and the proc worker import
each other lazily); ``tests/`` is deliberately not a root.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept although no root reaches them. Every entry needs a reason.
ALLOWED_UNREACHED = {
    "repro.agent.data_client": (
        "the paper's Fig. 4 interception surface: the drop-in client an "
        "agent framework calls instead of its search API"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source_modules() -> dict[str, Path]:
    return {_module_name(path): path for path in SRC.rglob("*.py")}


MODULES = _source_modules()


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _imports(path: Path, name: str):
    """``(module, imported_name | None)`` for every import statement in
    ``path``, function-level ones included, relative ones made absolute."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*anchor, base] if base else anchor)
            for alias in node.names:
                yield base, alias.name


def _assigned_literal(path: Path, target: str, default):
    """The literal a module assigns to ``target`` at top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == target for t in node.targets)
        ):
            return ast.literal_eval(node.value)
    return default


def _lazy_exports(path: Path) -> dict[str, str]:
    """``name -> module`` from a package's ``_LAZY = {name: (module, attr)}``
    table (``repro.store`` resolves its heavier exports on first access)."""
    table = _assigned_literal(path, "_LAZY", {})
    return {key: module for key, (module, _) in table.items()}


def _resolve(module: str, imported: str | None, seen=()) -> str | None:
    """The ``src/repro`` module an import lands in (None: not ours)."""
    if imported is not None and f"{module}.{imported}" in MODULES:
        return f"{module}.{imported}"
    if module not in MODULES:
        return None
    if imported is None or not _is_package(module) or (module, imported) in seen:
        return module
    init = MODULES[module]
    for source, name in _imports(init, module):
        if name == imported:
            return _resolve(source, name, (*seen, (module, imported)))
    lazy = _lazy_exports(init).get(imported)
    return lazy if lazy in MODULES else module


def _edges(path: Path, name: str) -> set[str]:
    return {
        target
        for module, imported in _imports(path, name)
        if (target := _resolve(module, imported)) is not None
    }


def _root_scripts() -> list[Path]:
    return [
        path
        for folder in ("examples", "benchmarks")
        for path in (ROOT / folder).rglob("*.py")
    ]


def reachable() -> set[str]:
    frontier = {"repro.cli", "repro.__main__"}
    for path in _root_scripts():
        frontier |= _edges(path, "")
    closure: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier |= _edges(MODULES[name], name) - closure
    return closure


def test_every_source_module_is_reached_by_something_that_runs():
    closure = reachable()
    unreached = {
        name
        for name in MODULES
        if not _is_package(name) and name not in closure
    }
    assert unreached - set(ALLOWED_UNREACHED) == set(), (
        "modules only tests import (delete them, or allowlist with a reason): "
        f"{sorted(unreached - set(ALLOWED_UNREACHED))}"
    )


def test_every_exported_index_and_arena_name_is_used_by_something_that_runs():
    """The module pass cannot see a *name* that only tests import. For the
    index and arena packages, every public name must be imported by something
    that runs, other than the module defining it and the ``__init__``
    re-exporting it: the check that flags an index or an arena tier the day
    its last caller leaves."""
    importers = [(MODULES[name], name) for name in reachable()]
    importers += [(path, "") for path in _root_scripts()]
    unused = []
    for exporter in ("repro.ann", "repro.core.arena"):
        exported = _assigned_literal(MODULES[exporter], "__all__", [])
        assert exported, f"{exporter} declares no __all__ to hold to this"
        for public in exported:
            home = _resolve(exporter, public)
            used = any(
                imported == public and _resolve(module, imported) == home
                for path, name in importers
                if name not in (exporter, home)
                for module, imported in _imports(path, name)
            )
            if not used:
                unused.append(f"{exporter}.{public}")
    assert unused == [], f"exported, but only tests use them: {unused}"


def test_allowlist_holds_no_stale_or_unexplained_entries():
    closure = reachable()
    for name, reason in ALLOWED_UNREACHED.items():
        assert name in MODULES, f"{name} no longer exists; drop it from the allowlist"
        assert name not in closure, f"{name} is reached now; drop it from the allowlist"
        assert len(reason.split()) >= 5, f"{name}: give a real reason"


def test_resolution_goes_through_reexports_and_lazy_tables():
    # `from repro.core import Query` lands in the defining module ...
    assert _resolve("repro.core", "Query") == "repro.core.types"
    # ... a submodule import lands on the submodule ...
    assert _resolve("repro.store", "persist") == "repro.store.persist"
    # ... and repro.store's lazy table is followed too.
    assert _resolve("repro.store", "ReplicaNode") == "repro.store.replication"
    assert _resolve("numpy", "ndarray") is None
