"""Print one sha256 digest per command of a fixed ``python -m pcfgtk`` matrix.

Usage: ``python tools/output_digests.py [CHECKOUT]``

Runs the command line of the pcfgtk in ``CHECKOUT/src`` (default: the
checkout holding this script) over fixed inputs: the seed-0 G100 grammar
and its bracketed block in ``tests/data`` (also read as a plain corpus, its
brackets dropped), and the toy grammar ``S -> S S | a`` with a plain and a
bracketed corpus.  For each grammar the matrix holds ``validate``,
``consistency``, ``inside``, ``viterbi``, ``nbest --n 10`` and
``oracle-enum`` (each on the plain and the bracketed corpus), and ``train``
for every (reference mode, competing mode) pair with subset enforcement on
and off.  A command's digest covers its exit code, stdout, stderr and the
files it writes (``--out-grammar``, ``--report``).

Two checkouts print the same lines exactly when every command behaves the
same to the byte, so a change meant to keep every output is checked by
diffing this script's output at its parent and at the change.  Inputs and
outputs live in a temporary directory that is the commands' working
directory, and a warning's source location (its file path and line number,
which name the checkout and not the behaviour) is dropped before hashing.
"""
from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
DATA = HERE / "tests" / "data"

GRAMMARS = ("g100", "toy")
TOY = "S -> S S 0.4\nS -> a 0.6\n"
TOY_PLAIN = "a\na a\na a a\na a a a a\n"
TOY_BRACKETED = "( a a ) ( a a )\n( ( a a ) a )\na ( a a ) a a\n"

REF_MODES = ("viterbi", "nbest", "bracketed_viterbi")
COMP_MODES = ("all", "nbest", "bracketed_all")
TRAIN_FLAGS = ["--h", "0.5", "--n-ref", "2", "--n-comp", "3", "--iters", "3"]

# "path:line: SomeWarning: message" and the source line echoed below it
_WARNING = re.compile(r"^.*:\d+: (\w+Warning: .*\n)(?:  .*\n)?", re.MULTILINE)


def write_inputs(work: Path) -> None:
    """Write each of ``GRAMMARS`` into ``work`` with its plain and bracketed corpus."""
    block = (DATA / "g100-seed0-block.txt").read_text(encoding="utf-8")
    plain = "".join(" ".join(line.replace("(", " ").replace(")", " ").split()) + "\n"
                    for line in block.splitlines())
    files = {
        "g100.g": (DATA / "g100-seed0.g").read_text(encoding="utf-8"),
        "g100.txt": plain,
        "g100-bracketed.txt": block,
        "toy.g": TOY,
        "toy.txt": TOY_PLAIN,
        "toy-bracketed.txt": TOY_BRACKETED,
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def commands(stem: str) -> list[list[str]]:
    g = f"{stem}.g"
    bracketed = ["--bracketed-corpus", f"{stem}-bracketed.txt"]
    matrix = [["validate", g], ["consistency", g]]
    for parse in (["inside"], ["viterbi"], ["nbest", "--n", "10"], ["oracle-enum"]):
        matrix += [[parse[0], g, f"{stem}.txt", *parse[1:]], [parse[0], g, *bracketed, *parse[1:]]]
    for ref in REF_MODES:
        for comp in COMP_MODES:
            for enforce in ([], ["--no-enforce-subset"]):
                matrix.append(
                    ["train", g, *bracketed, "--out-grammar", "out.g", "--report", "out.csv",
                     "--ref-mode", ref, "--comp-mode", comp, *enforce, *TRAIN_FLAGS]
                )
    return matrix


def digest(argv: list[str], work: Path, env: dict) -> str:
    for name in ("out.g", "out.csv"):
        (work / name).unlink(missing_ok=True)
    run = subprocess.run(
        [sys.executable, "-m", "pcfgtk", *argv], cwd=work, env=env, capture_output=True, text=True
    )
    h = hashlib.sha256()
    for part in (str(run.returncode), run.stdout, _WARNING.sub(r"\1", run.stderr)):
        h.update(part.encode() + b"\0")
    for name in ("out.g", "out.csv"):
        path = work / name
        h.update(path.read_bytes() if path.exists() else b"<none>")
        h.update(b"\0")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else HERE
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        for stem in GRAMMARS:
            for command in commands(stem):
                print(f"{digest(command, work, env)}  {' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
