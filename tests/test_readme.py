"""The README's library quick start runs and shows what its comments say,
and its command-line synopsis matches the parser."""
import argparse
import ast
import re
from pathlib import Path

from pcfgtk.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_results():
    """Run the "Library quick start" code block of README.md statement by
    statement; return (source, value, comment) for each bare expression."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    results = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            results.append((ast.get_source_segment(block, node.value), value, comment))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return results


def test_quick_start_values_match_its_comments():
    results = quick_start_results()
    verdicts = [(value, comment.split()[0]) for src, value, comment in results if src.endswith(".verdict")]
    assert verdicts == [("inconsistent", "'inconsistent'"), ("consistent", "'consistent'")]
    (derivations,) = [value for src, value, _ in results if src.startswith("nbest(")]
    assert len(derivations) == 2


def readme_commands():
    """The README "Command line" block as {subcommand: its usage text}."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```\n(.*?)```", text, re.S).group(1)
    usage = {}
    for line in block.splitlines():
        if line.startswith("pcfgtk "):
            command = line.split()[1]
            usage[command] = line
        else:
            usage[command] += line
    return usage


def test_command_line_block_lists_the_parser_flags():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser_flags = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    readme_flags = {
        name: set(re.findall(r"--[a-z][a-z-]*", text)) for name, text in readme_commands().items()
    }
    assert readme_flags == parser_flags


def test_command_line_block_shows_the_parser_defaults():
    shown = {
        (name, flag): value
        for name, text in readme_commands().items()
        for flag, value in re.findall(r"\[(--[a-z-]+) ([0-9][^\]]*)\]", text)
    }
    assert set(shown) == {("consistency", "--tol"), ("nbest", "--n"), ("oracle-enum", "--cap")}
    for (name, flag), value in shown.items():
        default = vars(build_parser().parse_args([name, "GRAMMAR"]))[flag[2:]]
        assert default == float(value), (name, flag)
