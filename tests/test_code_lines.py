"""The size tool ``tools/code_lines.py``: it counts the lines that hold code,
leaving out docstrings, comment-only lines and blank lines."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


def test_module_class_and_function_docstrings_are_not_counted():
    source = '''\
        """A module docstring
        over two lines."""


        class A:
            """A class docstring."""

            def f(self):
                """A function docstring,
                over two lines."""
                return 1


        async def g():
            """An async function docstring."""
            return 2
        '''
    assert count(source) == 5  # class, def, return, async def, return


def test_comment_only_and_blank_lines_are_not_counted():
    source = """\
        # a comment

        x = 1
            # an indented comment

        y = 2
        """
    assert count(source) == 2


def test_a_code_line_with_a_trailing_comment_is_counted():
    assert count("x = 1  # one\n# none\n") == 1


def test_a_multi_line_string_that_is_not_a_docstring_is_counted_line_by_line():
    source = '''\
        def f():
            x = 1
            s = """not
        a docstring"""
            return s
        '''
    assert count(source) == 5


def test_a_string_after_the_first_statement_is_code():
    assert count('x = 1\n"""a string statement"""\n') == 2


def test_main_sums_the_files_named(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text('"""doc"""\nx = 1\n')
    b.write_text("y = 2\n\nz = 3\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3\n"
