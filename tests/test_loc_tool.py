"""tools/loc.py: the one way "less code" is counted."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "loc", os.path.join(ROOT, "tools", "loc.py"))
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import os            # trailing comment: the line still counts


def f(x):
    """Docstring."""
    text = """a string that is data,
    not a docstring # and no comment"""
    return (x +
            1)       # a statement over two lines
'''


def test_code_lines_exclude_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    code, physical = loc.code_lines(str(path))
    # import, def, the two-line string assignment, the two-line return.
    assert code == 6
    assert physical == len(SOURCE.splitlines())


def test_table_covers_every_module_under_src(capsys):
    assert loc.main([os.path.join(ROOT, "src")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.split()[0].endswith("db/physical.py") for line in out)
    total = out[-1].split()
    assert total[0] == "total" and 0 < int(total[1]) < int(total[2])


def test_a_reader_that_closes_the_pipe_early_ends_the_tool_quietly():
    # Closing the only read end before the tool prints makes its first
    # write fail, as ``python tools/loc.py src | head -1`` can.
    tool = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "tools", "loc.py"),
         os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    tool.stdout.close()
    stderr = tool.stderr.read()
    tool.stderr.close()
    assert tool.wait(timeout=60) == 0
    assert stderr == b""
