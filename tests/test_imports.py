"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import lagflag

PACKAGE = Path(lagflag.__file__).parent


def _import_graph() -> dict[str, set[str]]:
    """Each module's module-level ``from . import x`` and ``from .x import ...`` targets."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        targets = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module.split(".")[0])
        graph[path.stem] = targets
    return graph


def _reached(graph: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = list(graph[start])
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(graph.get(module, ()))
    return seen


def test_the_import_graph_has_no_cycle():
    graph = _import_graph()
    assert {"basis", "counting", "diagrams", "verify"} <= set(graph)
    cyclic = sorted(module for module in graph if module in _reached(graph, module))
    assert cyclic == []


def test_counting_reaches_only_the_diagram_layer():
    # the counted oracle stays apart from the bases it checks
    assert _reached(_import_graph(), "counting") <= {"diagrams", "errors", "record"}


#: Bindings kept unused: perfbench/test_harness.py's
#: ``Spans::test_installed_wraps_every_binding_and_restores`` asserts that
#: these modules bind ``boundary``.
UNUSED_ALLOWED = {("basis", "boundary"), ("marking", "boundary")}


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    unused = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"  # its imports are the package's exports
        for name in _unused_imports(path)
    }
    assert unused == UNUSED_ALLOWED
