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
ALLOWED_UNREACHED: dict[str, str] = {}

#: Public top-level names kept although only tests use them; each needs a reason.
ALLOWED_TEST_ONLY = {
    "repro.agent.parser.extract_blocks": (
        "the reader of the tag format the agents render: the trajectory "
        "and parser tests hold the rendered output to the paper's grammar"
    ),
    "repro.embedding.model.cosine_similarity": (
        "the tests' reference measure: paraphrase and embedder tests state "
        "their bounds as a cosine, independent of the index's scoring"
    ),
}

#: Public methods and properties kept although only tests use them.
ALLOWED_TEST_ONLY_MEMBERS = {
    "repro.serving.gpu.GpuDevice.rental_gpu_seconds": (
        "the rental side of Table 5's cost model: a GPU bills wall time "
        "busy or idle, and the colocation tests pin that against busy time"
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


def _names_in(node: ast.AST, inside: frozenset = frozenset()):
    """Every name ``node`` mentions, except one mentioned only inside a
    ``def`` of the same name: a method delegating to its namesake on
    another object is not a caller of it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _names_in(child, inside)


def _mentioned(closure: set[str]) -> set[str]:
    """Every name that running code calls, references or ``getattr``-s: an
    attribute, a bare name, a string constant. An import alone is not a
    mention, and neither is a package's ``__all__`` listing a name, nor a
    name used only inside the ``def`` that defines it."""
    mentioned = set()
    for path in [MODULES[name] for name in closure] + _root_scripts():
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in statement.targets
            ):
                continue
            mentioned.update(_names_in(statement))
    return mentioned


def _test_only_top_level_names(closure: set[str]) -> list[str]:
    # An allowlisted module is kept, and so is what it uses.
    mentioned = _mentioned(closure | set(ALLOWED_UNREACHED))
    return [
        f"{name}.{node.name}"
        for name in sorted(closure)
        for node in ast.parse(MODULES[name].read_text(encoding="utf-8")).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in mentioned
    ]


def test_every_public_top_level_name_is_used_by_something_that_runs():
    """The module pass one level down: every public class and function at
    the top of a module that runs is named by something that runs. Being
    imported, or re-exported in a package's ``__all__``, is not a use."""
    unused = set(_test_only_top_level_names(reachable())) - set(ALLOWED_TEST_ONLY)
    assert unused == set(), (
        "top-level names only tests use (delete them, or allowlist with a "
        f"reason): {sorted(unused)}"
    )


def _test_only_members(closure: set[str]) -> list[str]:
    mentioned = _mentioned(closure)
    return [
        f"{name}.{cls.name}.{function.name}"
        for name in sorted(closure)
        for cls in ast.walk(ast.parse(MODULES[name].read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for function in cls.body
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not function.name.startswith("_")
        and function.name not in mentioned
    ]


def test_every_public_method_is_used_by_something_that_runs():
    """The same question one level down, by name: every public method or
    property of a class in a module that runs is called, read or
    ``getattr``-ed by name from something that runs. A name any running
    code mentions counts for every member of that name (an override is used
    through its base). Members of an allowlisted unreached module are
    covered by that module's entry."""
    unused = set(_test_only_members(reachable())) - set(ALLOWED_TEST_ONLY_MEMBERS)
    assert unused == set(), (
        "public methods or properties only tests use (delete them, or "
        f"allowlist with a reason): {sorted(unused)}"
    )


def test_allowlist_holds_no_stale_or_unexplained_entries():
    closure = reachable()
    for name, reason in ALLOWED_UNREACHED.items():
        assert name in MODULES, f"{name} no longer exists; drop it from the allowlist"
        assert name not in closure, f"{name} is reached now; drop it from the allowlist"
        assert len(reason.split()) >= 5, f"{name}: give a real reason"
    test_only = _test_only_top_level_names(closure) + _test_only_members(closure)
    for name, reason in {**ALLOWED_TEST_ONLY, **ALLOWED_TEST_ONLY_MEMBERS}.items():
        assert name in test_only, f"{name} is gone or used now; drop it from the allowlist"
        assert len(reason.split()) >= 5, f"{name}: give a real reason"


def test_resolution_goes_through_reexports_and_lazy_tables():
    # `from repro.core import Query` lands in the defining module ...
    assert _resolve("repro.core", "Query") == "repro.core.types"
    # ... a submodule import lands on the submodule ...
    assert _resolve("repro.store", "persist") == "repro.store.persist"
    # ... and repro.store's lazy table is followed too.
    assert _resolve("repro.store", "ReplicaNode") == "repro.store.replication"
    assert _resolve("numpy", "ndarray") is None
