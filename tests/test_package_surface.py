"""Package-surface tests: imports, exports, and version metadata.

Guards against broken `__all__` lists, stale re-exports, and modules
that only break when first imported.
"""

import ast
import collections
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

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


def test_importing_repro_loads_no_numpy_or_sweep_runner():
    code = (
        "import sys, repro; "
        "assert 'numpy' not in sys.modules; "
        "assert 'repro.sweep.runner' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


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


# ----------------------------------------------------------------------
# every src definition has a caller outside the tests
# ----------------------------------------------------------------------

CHECKOUT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src/repro", "benchmarks", "examples", "perfbench")

ORACLE = "oracle the tests compare the models against"
FAULT_HOOK = "fault-injection hook"
MEMO_PROBE = "memo-bound probe for the run profile's memo inventory"
TEST_INPUT = "test-input generator"

TESTS_ONLY_ALLOWLIST = {
    "core/invariants.py::check_root_order": ORACLE,
    "core/invariants.py::completions_in_order": ORACLE,
    "mem/wpq.py::gather_before_release_violations": ORACLE,
    "system/secure_memory.py::FunctionalSecureMemory.committed_state": ORACLE,
    "system/secure_memory.py::FunctionalSecureMemory.tamper_data": FAULT_HOOK,
    "crypto/sgx_tree.py::SGXCounterTree.drop_node": FAULT_HOOK,
    "crypto/bmt.py::BMTGeometry.memo_info": MEMO_PROBE,
    "workloads/synthetic.py::sequential_stream": TEST_INPUT,
    "workloads/synthetic.py::strided_stream": TEST_INPUT,
    "workloads/synthetic.py::uniform_random": TEST_INPUT,
    "workloads/synthetic.py::zipfian": TEST_INPUT,
}
"""``src`` definitions that only the tests call, each with its reason."""


def _scanned_definitions(tree):
    """``(qualified name, name)`` of each top-level function and class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _tests_only_definitions():
    """Scanned ``src`` definitions whose name occurs only where it is
    defined, counting every identifier (strings and comments included:
    ``perfbench/spans.py`` patches methods by quoted name) outside the
    tests and the packages' ``__init__`` re-exports."""
    trees = {}
    occurrences = collections.Counter()
    defined = collections.Counter()
    for directory in CALLER_DIRS:
        for path in sorted((CHECKOUT / directory).rglob("*.py")):
            if directory == "src/repro" and path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            tree = trees[path] = ast.parse(text)
            occurrences.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
            defined.update(
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
    src = CHECKOUT / "src" / "repro"
    return {
        f"{path.relative_to(src).as_posix()}::{qualified}"
        for path, tree in trees.items()
        if src in path.parents
        for qualified, name in _scanned_definitions(tree)
        if occurrences[name] <= defined[name]
    }


def test_every_src_definition_has_a_caller_outside_the_tests():
    stray = _tests_only_definitions() - TESTS_ONLY_ALLOWLIST.keys()
    assert not stray, (
        "definitions that only the tests call (delete them, or allowlist "
        f"them with a reason): {sorted(stray)}"
    )


def test_tests_only_allowlist_is_current():
    stale = TESTS_ONLY_ALLOWLIST.keys() - _tests_only_definitions()
    assert not stale, f"allowlisted names that gained a caller or are gone: {sorted(stale)}"
