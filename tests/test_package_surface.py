"""Package-surface tests: imports, exports, and version metadata.

Guards against broken `__all__` lists, stale re-exports, and modules
that only break when first imported.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

ALL_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


def test_package_has_modules():
    assert len(ALL_MODULES) > 25


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.core",
        "repro.crypto",
        "repro.mem",
        "repro.persistency",
        "repro.recovery",
        "repro.sim",
        "repro.system",
        "repro.workloads",
        "repro.analysis",
        "repro.campaign",
        "repro.app",
        "repro.sweep",
        "repro.telemetry",
    ],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_api_is_usable():
    # The README quickstart's names all exist at the top level.
    for name in (
        "FunctionalSecureMemory",
        "run_benchmark",
        "run_trace",
        "SystemConfig",
        "TraceSimulator",
        "UpdateScheme",
        "PersistencyModel",
    ):
        assert hasattr(repro, name)


# ----------------------------------------------------------------------
# the scheme table is the one place that names schemes
# ----------------------------------------------------------------------

SRC = pathlib.Path(repro.__file__).parent

SCHEME_MEMBER_ALLOWLIST = {
    # The scheme -> scoreboard-class link (the table cannot import the
    # scoreboards without a cycle).
    ("core/schedulers.py", "SCOREBOARDS"),
    # Default arguments and the normalization baseline.
    ("system/config.py", "SystemConfig.scheme"),
    ("core/update_engine.py", "EngineConfig.scheme"),
    ("core/controller.py", "MemoryControllerPipeline.__init__:defaults"),
    ("analysis/recovery.py", "BASELINE_SCHEME"),
}


def _owned_statements(body, prefix=""):
    """(owner label, AST node) per statement, descending into classes;
    a function's default arguments are owned apart from its body."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _owned_statements(stmt.body, f"{prefix}{stmt.name}.")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            label = f"{prefix}{stmt.name}"
            defaults = stmt.args.defaults + [d for d in stmt.args.kw_defaults if d]
            for default in defaults:
                yield f"{label}:defaults", default
            for inner in stmt.body + stmt.decorator_list:
                yield label, inner
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            yield f"{prefix}{names[0] if names else '<assign>'}", stmt
        else:
            yield f"{prefix}<statement>", stmt


def _scheme_member_refs():
    members = {scheme.name for scheme in repro.UpdateScheme}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "core/schemes.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, stmt in _owned_statements(tree.body):
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in members
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "UpdateScheme"
                ):
                    found.add((module, owner))
    return found


def test_only_the_scheme_table_names_schemes():
    stray = _scheme_member_refs() - SCHEME_MEMBER_ALLOWLIST
    assert not stray, f"schemes named outside core/schemes.py: {sorted(stray)}"


def test_no_scheme_roster_literals_in_campaign_or_recovery():
    names = {scheme.value for scheme in repro.UpdateScheme}
    paths = sorted((SRC / "campaign").glob("*.py")) + [SRC / "analysis" / "recovery.py"]
    rosters = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                values = [
                    e.value
                    for e in node.elts
                    if isinstance(e, ast.Constant) and e.value in names
                ]
                if len(values) >= 2:
                    rosters.append((path.relative_to(SRC).as_posix(), node.lineno))
    assert not rosters, f"hand-kept scheme rosters: {rosters}"


# ----------------------------------------------------------------------
# one crash path: both campaigns crash and recover in one function
# ----------------------------------------------------------------------


def _functions_calling(paths, methods):
    """``(module, function)`` for every function whose own body calls a
    method named in ``methods``."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in methods
                ):
                    found.add((path.relative_to(SRC).as_posix(), node.name))
    return found


def test_campaigns_crash_and_recover_in_one_function():
    paths = sorted((SRC / "campaign").glob("*.py"))
    crashers = _functions_calling(paths, {"crash", "crashed_copy"})
    recoverers = _functions_calling(paths, {"recover"})
    assert crashers == recoverers == {("campaign/engine.py", "crash_and_recover")}
