"""README's Library block runs, and gives what its comments say.

The block is run statement by statement.  A comment that opens with a
literal (up to a colon or two spaces) claims the statement's value: its
``repr`` for a Python literal, its text for a descriptor (``LF[...]``).
A comment that opens with ``DescriptorError: <message>`` claims that the
statement raises it with that message.  Other comments claim nothing.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from lagflag import DescriptorError

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
    return text[start : text.index("\n```", start)]


def _comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def _run(stmt: ast.stmt, scope: dict):
    """Run one statement; the value of an expression, or of the names an assignment binds."""
    code = ast.Module([stmt], type_ignores=[])
    if isinstance(stmt, ast.Expr):
        return eval(compile(ast.Expression(stmt.value), str(README), "eval"), scope)
    exec(compile(code, str(README), "exec"), scope)
    if isinstance(stmt, ast.Assign):
        return eval(ast.unparse(stmt.targets[0]), scope)
    return None


def test_the_library_block_gives_what_its_comments_say():
    source = _library_block()
    comments = _comments(source)
    scope: dict = {}
    claims = raised = 0
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.lineno, "")
        if comment.startswith("DescriptorError: "):
            message = comment.removeprefix("DescriptorError: ")
            with pytest.raises(DescriptorError, match=f"^{re.escape(message)}$"):
                _run(stmt, scope)
            raised += 1
            continue
        value = _run(stmt, scope)
        claim = re.split(r":| {2}", comment)[0]
        if claim.startswith("LF["):
            assert str(value) == claim, ast.unparse(stmt)
            claims += 1
            continue
        try:
            literal = ast.literal_eval(claim)
        except (ValueError, SyntaxError):
            continue
        assert repr(value) == repr(literal), ast.unparse(stmt)
        claims += 1
    assert (claims, raised) == (8, 1)
