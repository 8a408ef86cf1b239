"""Print one sha256 digest per command of a fixed ``python -m pcfgtk`` matrix.

Usage: ``python tools/output_digests.py [CHECKOUT [OTHER]]``

Runs the command line of the pcfgtk in ``CHECKOUT/src`` (default: the
checkout holding this script) over fixed inputs: the seed-0 G100 grammar
with its bracketed block in ``tests/data`` (also read as a plain corpus, its
brackets dropped) and its plain corpus of falling sentence lengths, and the
toy grammar ``S -> S S | a`` with a plain, a bracketed and a falling-length
corpus.  For each grammar the matrix holds ``validate``, ``consistency``,
``inside``, ``viterbi`` and ``nbest --n 10`` (each on the plain, the
bracketed and the falling-length corpus), ``oracle-enum`` (on the plain and
the bracketed corpus only, as it lists every derivation), and ``train`` for
every (reference mode, competing mode) pair with subset enforcement on and
off.  A third grammar, ``S -> S S 1e-60 | a 1.0``, gives masses that leave
the range of the plain inside pass from three tokens on (``chart._E_MIN``),
so its rows compare the scaled pass too: ``validate``, ``inside``,
``viterbi`` and ``nbest --n 10`` on its plain corpus, and one ``train`` with
a complete competing set at ``--eta 30``, whose objective leaves the range
after the first step as well.  Last, ``inside`` and one ``train`` with a
complete competing set read the toy grammar on a twelve tokens long
sentence, whose widest span has a single row of eleven candidates, the one
row shape that the chart sums other than by adding column after column
(``chart._row_sums``).  That row summed pairwise moves the ``train``
row's digest; ``inside`` prints 12 significant digits, too few to show a
last-bit change.  They stay off ``nbest`` and ``oracle-enum``, as every toy
derivation ties and those would list all 58,786 of them.  So two rows run
``hex_digits.py`` (``HEX_SCRIPT``, written next to the inputs) rather than
the command line, on the G100 plain and bracketed corpus: per sentence it
prints ``float.hex()`` of the ``inside`` log probability and each
``nbest(..., 10)`` derivation's rule ids and ``float.hex()`` log
probability, every bit of each.  A command's digest covers its exit code,
stdout, stderr and the files it writes (``--out-grammar``, ``--report``).

Two checkouts print the same lines exactly when every command behaves the
same to the byte.  Given a second checkout ``OTHER``, the script runs each
command under both, prints both digests where they differ, and exits with
status 1 if any command differs, so a change meant to keep every output is
checked by one run naming its parent and the change.  Below a command that
differs it prints the largest absolute and the largest relative difference
between the numbers of the two outputs (stdout, the report CSV and the
output grammar, read in order), so a change that moves low bits shows how
far in the same run (a number near zero, such as a step size at rounding
level, can move far relative to itself and little in absolute terms); or
that the outputs differ in more than their numbers.  Inputs and outputs
live in a temporary directory that is the commands' working directory, and
a warning's source location (its file path and line number, which name the
checkout and not the behaviour) is dropped before hashing.
"""
from __future__ import annotations

import hashlib
import math
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
TOY_DESCENDING = "a a a a a a\na a a a\na a\na\n"
TOY_LONG = " ".join(["a"] * 12) + "\n"
TINY = "S -> S S 1e-60\nS -> a 1.0\n"
TINY_PLAIN = "a a\na a a\na a a a a a a a\na a a a a\n"

REF_MODES = ("viterbi", "nbest", "bracketed_viterbi")
COMP_MODES = ("all", "nbest", "bracketed_all")
TRAIN_FLAGS = ["--h", "0.5", "--n-ref", "2", "--n-comp", "3", "--iters", "3"]

# "path:line: SomeWarning: message" and the source line echoed below it
_WARNING = re.compile(r"^.*:\d+: (\w+Warning: .*\n)(?:  .*\n)?", re.MULTILINE)
_NUMBER = re.compile(
    r"[-+]?(?:inf|nan|0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)
OUTPUTS = ("out.g", "out.csv")

HEX_SCRIPT_NAME = "hex_digits.py"
HEX_SCRIPT = """\
import sys
from pcfgtk import inside, load_grammar, nbest, read_bracketed_corpus, read_corpus
g = load_grammar(sys.argv[1])
read = read_bracketed_corpus if sys.argv[3:] == ["--bracketed"] else read_corpus
for s in read(sys.argv[2]):
    print(inside(g, s.tokens, s.brackets).log_string_prob.hex())
    for d in nbest(g, s.tokens, 10, s.brackets).derivations:
        print(*d.rules, d.log_prob.hex())
"""


def write_inputs(work: Path) -> None:
    """Write each of ``GRAMMARS`` into ``work`` with its plain, bracketed and
    falling-length corpus, the toy grammar's long sentence, the tiny-mass
    grammar with its corpus, and ``HEX_SCRIPT``."""
    block = (DATA / "g100-seed0-block.txt").read_text(encoding="utf-8")
    plain = "".join(" ".join(line.replace("(", " ").replace(")", " ").split()) + "\n"
                    for line in block.splitlines())
    files = {
        "g100.g": (DATA / "g100-seed0.g").read_text(encoding="utf-8"),
        "g100.txt": plain,
        "g100-bracketed.txt": block,
        "g100-descending.txt": (DATA / "g100-seed0-descending.txt").read_text(encoding="utf-8"),
        "toy.g": TOY,
        "toy.txt": TOY_PLAIN,
        "toy-bracketed.txt": TOY_BRACKETED,
        "toy-descending.txt": TOY_DESCENDING,
        "toy-long.txt": TOY_LONG,
        "tiny.g": TINY,
        "tiny.txt": TINY_PLAIN,
        HEX_SCRIPT_NAME: HEX_SCRIPT,
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def commands(stem: str) -> list[list[str]]:
    g = f"{stem}.g"
    bracketed = ["--bracketed-corpus", f"{stem}-bracketed.txt"]
    matrix = [["validate", g], ["consistency", g]]
    for parse in (["inside"], ["viterbi"], ["nbest", "--n", "10"], ["oracle-enum"]):
        matrix += [[parse[0], g, f"{stem}.txt", *parse[1:]], [parse[0], g, *bracketed, *parse[1:]]]
        if parse[0] != "oracle-enum":
            matrix.append([parse[0], g, f"{stem}-descending.txt", *parse[1:]])
    for ref in REF_MODES:
        for comp in COMP_MODES:
            for enforce in ([], ["--no-enforce-subset"]):
                matrix.append(
                    ["train", g, *bracketed, "--out-grammar", "out.g", "--report", "out.csv",
                     "--ref-mode", ref, "--comp-mode", comp, *enforce, *TRAIN_FLAGS]
                )
    return matrix


def fallback_commands() -> list[list[str]]:
    """The rows of the grammar whose masses leave the plain pass's range."""
    parses = [["inside"], ["viterbi"], ["nbest", "--n", "10"]]
    return [["validate", "tiny.g"]] + [[p[0], "tiny.g", "tiny.txt", *p[1:]] for p in parses] + [
        ["train", "tiny.g", "tiny.txt", "--out-grammar", "out.g", "--report", "out.csv",
         "--ref-mode", "viterbi", "--comp-mode", "all", "--eta", "30", *TRAIN_FLAGS]
    ]


def long_commands() -> list[list[str]]:
    """The rows of the toy grammar's single-row widest span."""
    return [
        ["inside", "toy.g", "toy-long.txt"],
        ["train", "toy.g", "toy-long.txt", "--out-grammar", "out.g", "--report", "out.csv",
         "--ref-mode", "viterbi", "--comp-mode", "all", *TRAIN_FLAGS],
    ]


def hex_commands() -> list[list[str]]:
    """The rows that print every bit of G100's inside and n-best scores."""
    return [
        [HEX_SCRIPT_NAME, "g100.g", "g100.txt"],
        [HEX_SCRIPT_NAME, "g100.g", "g100-bracketed.txt", "--bracketed"],
    ]


def run(argv: list[str], work: Path, env: dict) -> tuple[str, list[str]]:
    """A command's digest, and its stdout and the files it wrote; a
    command naming ``HEX_SCRIPT_NAME`` runs that script, any other the
    pcfgtk command line."""
    for name in OUTPUTS:
        (work / name).unlink(missing_ok=True)
    program = [] if argv[0] == HEX_SCRIPT_NAME else ["-m", "pcfgtk"]
    proc = subprocess.run(
        [sys.executable, *program, *argv], cwd=work, env=env, capture_output=True, text=True
    )
    h = hashlib.sha256()
    for part in (str(proc.returncode), proc.stdout, _WARNING.sub(r"\1", proc.stderr)):
        h.update(part.encode() + b"\0")
    texts = [proc.stdout]
    for name in OUTPUTS:
        path = work / name
        data = path.read_bytes() if path.exists() else b"<none>"
        h.update(data + b"\0")
        texts.append(data.decode("utf-8"))
    return h.hexdigest(), texts


def largest_differences(a: list[str], b: list[str]) -> tuple[float, float] | None:
    """The largest ``|x - y|`` and the largest ``|x - y| / max(|x|, |y|)``
    over the numbers of two commands' outputs, paired in order (0 where
    both are equal); None when the outputs differ in more than their
    numbers."""
    if [_NUMBER.sub("#", t) for t in a] != [_NUMBER.sub("#", t) for t in b]:
        return None
    absolute = relative = 0.0
    for ta, tb in zip(a, b):
        for x, y in zip(map(_float, _NUMBER.findall(ta)), map(_float, _NUMBER.findall(tb))):
            if x == y or math.isnan(x) and math.isnan(y):
                continue
            scale = max(abs(x), abs(y))
            if math.isnan(x) or math.isnan(y) or math.isinf(scale):
                return math.inf, math.inf
            absolute = max(absolute, abs(x - y))
            relative = max(relative, abs(x - y) / scale)
    return absolute, relative


def _float(number: str) -> float:
    return float.fromhex(number) if "x" in number else float(number)


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        sys.exit(__doc__.split("\n\n")[1])
    checkouts = [Path(arg).resolve() for arg in argv] or [HERE]
    envs = [dict(os.environ, PYTHONPATH=str(checkout / "src")) for checkout in checkouts]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        matrix = [c for stem in GRAMMARS for c in commands(stem)]
        for command in matrix + fallback_commands() + long_commands() + hex_commands():
            runs = [run(command, work, env) for env in envs]
            digests = dict.fromkeys(d for d, _ in runs)
            print(f"{'  '.join(digests)}  {' '.join(command)}", flush=True)
            if len(digests) > 1:
                differ += 1
                moved = largest_differences(runs[0][1], runs[1][1])
                print(
                    "    outputs differ in more than their numbers"
                    if moved is None
                    else "    largest absolute difference {:.3g}, relative {:.3g}".format(*moved),
                    flush=True,
                )
    if differ:
        print(f"{differ} commands differ between the checkouts", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
