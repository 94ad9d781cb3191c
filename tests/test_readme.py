"""The README's Python examples, run.

The ```python blocks of README.md run in order, in one namespace. A statement
that is an expression followed by a comment, `expr  # value`, must have
repr(expr) == value. The value may go on over indented comment-only lines below
the expression, each `#` and one space dropped and the rest joined as written.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def printed_values(source: str) -> dict:
    """{last line of an expression statement: the repr that its comments print}."""
    comments = {tok.start[0]: tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    lines = source.splitlines()
    values = {}
    for node in ast.parse(source).body:
        end = node.end_lineno
        if not isinstance(node, ast.Expr):
            continue
        parts = [comments[end].string] if end in comments else []
        line = end + 1
        # a continuation is an indented comment alone on its line
        while line in comments and comments[line].start[1] > 0 and \
                lines[line - 1].lstrip().startswith("#"):
            parts.append(comments[line].string)
            line += 1
        if parts:
            values[end] = "".join(part[2:] for part in parts)
    return values


def test_readme_python_examples_print_what_they_say():
    namespace: dict = {}
    checked = 0
    for source in python_blocks():
        values = printed_values(source)
        for node in ast.parse(source).body:
            if node.end_lineno in values:
                expr = compile(ast.Expression(node.value), str(README), "eval")
                assert repr(eval(expr, namespace)) == values[node.end_lineno], \
                    ast.get_source_segment(source, node)
                checked += 1
            else:
                exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    assert checked >= 6
