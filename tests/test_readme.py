"""The examples in README.md, run as written.

Each `print(...)  # ...` line in the "Library use" blocks carries the
output it should produce; a loop's lines are joined there with " / ".
The blocks share one namespace, in order, as a reader would paste them.
The `$ brauercalc ...` example is run through cli.main and compared
with the text shown under it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from brauercalc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def test_library_use_blocks_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library use"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        expected = []
        for line in block.splitlines():
            if line.lstrip().startswith("print(") and "  # " in line:
                expected.extend(line.split("  # ", 1)[1].strip().split(" / "))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        assert out.getvalue().splitlines() == expected


def test_command_line_example_matches_main(capsys):
    example = re.search(r"```\n\$ (brauercalc .*?)\n(.*?)```", _section("Command line"), re.S)
    argv = shlex.split(example.group(1))[1:]
    assert argv[0] == "ram"
    assert main(argv) == 0
    assert capsys.readouterr().out == example.group(2)
