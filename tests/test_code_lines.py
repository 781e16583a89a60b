"""scripts/code_lines.py counts code lines: not blank, comment or docstring lines."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # counted: code with a trailing comment


class A:
    """Class docstring."""

    x = """a string assigned,
not a docstring"""

    def f(self, y):
        """Function docstring,

        with a blank line inside."""
        "a string statement that is not first"
        return (y +
                1)


async def g():
    """Async docstring."""
    pass
'''


def test_sample():
    # import, class A, x (2 lines), def f, the string statement, return (2 lines), async def g, pass
    assert code_lines.code_lines(SAMPLE) == 10


def test_directory(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 1\nb.py 10\ntotal 11\n"
