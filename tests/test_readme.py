"""The README's library quick start runs and shows what its comments say."""
import ast
import re
from pathlib import Path

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
