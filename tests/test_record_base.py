"""`lagflag.record.Record` is the one home of equality, hashing and immutability.

No other class in the package defines or assigns ``__eq__``, ``__hash__``,
``__setattr__`` or ``__delattr__``: a value type takes them from `Record`,
or stays a tuple.
"""

import ast
from pathlib import Path

import lagflag

PACKAGE = Path(lagflag.__file__).parent
OWNED = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def _names(target: ast.expr) -> set[str]:
    """The names an assignment target binds, and the attributes it sets."""
    names = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _owners(tree: ast.Module) -> set[tuple[str, str]]:
    """``(class or "<module>", name)`` for each definition or assignment of an owned name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound = {stmt.name}
                elif isinstance(stmt, ast.Assign):
                    bound = set().union(*map(_names, stmt.targets))
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    bound = _names(stmt.target)
                else:
                    continue
                found.update((node.name, name) for name in bound & OWNED)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # ``Cls.__eq__ = ...`` anywhere, outside a class body too
                if isinstance(target, ast.Attribute) and target.attr in OWNED:
                    found.add(("<module>", target.attr))
    return found


def test_only_the_record_base_owns_equality_hash_and_immutability():
    owners = {
        (path.stem, cls, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name in _owners(ast.parse(path.read_text()))
    }
    assert owners == {("record", "Record", name) for name in OWNED}


def test_the_scan_sees_each_way_of_owning_a_name():
    source = """
class A:
    def __eq__(self, other): ...
class B:
    __hash__ = None
class C:
    __setattr__, other = object.__setattr__, 1
C.__delattr__ = object.__delattr__
"""
    assert _owners(ast.parse(source)) == {
        ("A", "__eq__"),
        ("B", "__hash__"),
        ("C", "__setattr__"),
        ("<module>", "__delattr__"),
    }
