"""The maintenance scripts under ``tools/``."""
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# every kind of line: its code lines are those listed in CODE_LINES
SAMPLE = '''"""A module docstring
over two lines."""
# a comment-only line

import math  # a comment after code


class Shape:
    """A class docstring."""

    sides = 0

    def area(self):
        """A function
        docstring."""
        return 0.0

    async def wait(self):
        """An async function docstring."""
        "a string statement that is not the first"


def table():
    # a function without a docstring
    text = """a multi-line
string that is code

but for its blank line"""
    return (
        math.pi,
    )
'''
CODE_LINES = (5, 8, 11, 13, 16, 18, 20, 23, 25, 26, 28, 29, 30, 31)


def code_lines(*checkouts):
    out = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), *map(str, checkouts)],
        capture_output=True, text=True, check=True,
    ).stdout
    return [line.split() for line in out.splitlines()]


def checkout(root: Path, files: dict[str, str]) -> Path:
    package = root / "src" / "pcfgtk"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return root


class TestCodeLines:
    def test_counts_each_kind_of_line(self, tmp_path):
        one = checkout(tmp_path / "one", {"sample.py": SAMPLE})
        assert code_lines(one) == [["sample.py", "14"], ["total", "14"]]
        # deleting a code line takes one off the count, any other line none
        lines = SAMPLE.splitlines(keepends=True)
        for i in (3, 4, 9, 11, 26, 27):
            cut = checkout(tmp_path / f"cut{i}", {"sample.py": "".join(lines[: i - 1] + lines[i:])})
            assert code_lines(cut)[-1] == ["total", str(14 - (i in CODE_LINES))]

    def test_two_checkouts_give_both_counts_and_the_difference(self, tmp_path):
        one = checkout(tmp_path / "one", {"sample.py": SAMPLE, "gone.py": "x = 1\ny = 2\n"})
        two = checkout(
            tmp_path / "two", {"sample.py": SAMPLE + "z = 3\n", "new.py": '"""Doc."""\n'}
        )
        assert code_lines(one, two) == [
            ["gone.py", "2", "0", "-2"],
            ["new.py", "0", "0", "+0"],
            ["sample.py", "14", "15", "+1"],
            ["total", "16", "15", "-1"],
        ]


class TestCheckouts:
    # a path that is not a checkout would make every command fail alike,
    # and the digests agree; each tool stops first with one line naming it
    @pytest.mark.parametrize("tool", ["code_lines.py", "output_digests.py"])
    def test_a_directory_without_the_package_is_rejected(self, tmp_path, tool):
        good = checkout(tmp_path / "good", {"sample.py": SAMPLE})
        empty = tmp_path / "empty"
        empty.mkdir()
        for args in ([tmp_path / "nosuch"], [good, empty], [empty, good], ["nosuch1", "nosuch2"]):
            bad = next(arg for arg in args if arg != good)
            proc = subprocess.run(
                [sys.executable, str(TOOLS / tool), *map(str, args)],
                capture_output=True, text=True, cwd=tmp_path,
            )
            assert proc.returncode != 0
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == [f"{bad}: not a pcfgtk checkout (no src/pcfgtk)"]

    @pytest.mark.parametrize("tool", ["code_lines.py", "output_digests.py"])
    def test_usage_names_checkout_directories(self, tool):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / tool), "a", "b", "c"], capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert "checkout directory (not a commit id)" in proc.stderr
