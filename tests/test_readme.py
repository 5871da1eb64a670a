"""The examples of README.md run as written.

Every ``spinverlinde`` line of the "Command line" block exits 0 in process,
and each ``levels`` conversion prints the value that ends its trailing
comment.  The "Library quick tour" block executes, its ``assert`` included,
and each bare expression whose comment starts with an integer evaluates to
that integer.
"""

import ast
import re
import shlex
from pathlib import Path

from spinverlinde.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the level-2 ``heading``."""
    text = README.read_text()
    start = text.index(f"```{language}\n", text.index(f"\n## {heading}\n")) + len(language) + 4
    return text[start : text.index("```", start)]


def test_command_line_examples_exit_zero(capsys):
    lines = [line for line in fenced_block("Command line", "sh").splitlines() if line.startswith("spinverlinde ")]
    conversions = []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "levels" and "#" in line:
            # text output: a header, then the one row, whose last cell is to_value
            to_value = int(out.splitlines()[1].split()[-1])
            assert to_value == int(re.findall(r"\d+", line.partition("#")[2])[-1]), line
            conversions.append(to_value)
    assert any("--so3-level" in line and ".." in line for line in lines)
    assert conversions == [8, 8, 6]


def test_library_quick_tour_runs_with_its_values():
    block = fenced_block("Library quick tour", "python")
    namespace: dict = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = re.match(r"\s*(\d+)", comment)
        if value and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            assert eval(code, namespace) == int(value.group(1)), line
            checked.append(int(value.group(1)))
    assert checked == [10, 6, 1, 1, 84]
