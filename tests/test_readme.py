"""The package's public names and the README quick start that uses them."""

import ast
import re
from pathlib import Path
from types import ModuleType

import wplarcs

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _matches(value, shown: str) -> bool:
    # A comment is a Python literal, "<n> arcs" for a collection, or a repr.
    arcs = re.fullmatch(r"(\d+) arcs", shown)
    if arcs:
        return len(value) == int(arcs.group(1))
    try:
        return value == ast.literal_eval(shown)
    except (ValueError, SyntaxError):
        return repr(value) == shown


def test_quick_start_results():
    source = _quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            continue
        expression = ast.Expression(statement.value)
        value = eval(compile(expression, str(README), "eval"), namespace)
        shown = lines[statement.end_lineno - 1].split("#", 1)[1].strip()
        assert _matches(value, shown), f"{lines[statement.lineno - 1]} gave {value!r}"
        checked += 1
    assert checked == 5


def test_all_lists_public_names_only():
    assert len(set(wplarcs.__all__)) == len(wplarcs.__all__)
    for name in wplarcs.__all__:
        assert not isinstance(getattr(wplarcs, name), ModuleType), name
