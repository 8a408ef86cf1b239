"""Every accepted command line ends in its output or in one error line.

Draws small grammars (a nonterminal without rules on some right-hand side,
an unreachable one, subnormal probabilities), one to three sentences (some
holding the unknown token ``c``; a bracketed corpus may hold a malformed
line), and every subcommand with its flags over their accepted ranges,
extremes included, and runs ``cli.main`` in-process.  A run either
exits 0 with nothing on stderr and no warning but ``DegenerateDeltaWarning``,
or exits 1 with one ``error: ...`` line on stderr and no warning.  A
``train`` error on a grammar that ``validate`` accepts never blames the
grammar's probabilities.  ``--iters`` is drawn from 0 to 3 only, as the
iteration count sets the run time.
"""
import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcfgtk import DegenerateDeltaWarning
from pcfgtk.cli import main
from pcfgtk.estimator import COMP_MODES, REF_MODES

# D has no rules; a block other than S's that no right-hand side names is unreachable
NONTERMINALS = ("S", "A", "B")
RIGHT_HAND_SIDES = [("a",), ("b",)] + [(x, y) for x in NONTERMINALS + ("D",) for y in NONTERMINALS]
EXTREMES = [5e-324, 1e-300, 1e300, 1.7e308]
# what the grammar's own checks say of a probability vector
GRAMMAR_FAULTS = ("outside ]0, 1]", "probabilities for ")
MALFORMED = ("( a", "a )", "( ) a")


def _floats(lo: float, hi: float, exclude_max: bool = False) -> st.SearchStrategy[float]:
    """Floats from lo to hi, each end and extreme within the range drawn often."""
    top = math.nextafter(hi, lo) if exclude_max else hi
    ends = [x for x in (lo, *EXTREMES, top) if lo <= x <= top]
    return st.floats(lo, hi, exclude_max=exclude_max) | st.sampled_from(ends)


@st.composite
def grammars(draw) -> str:
    """A grammar file over the terminals a and b, each given a lexical rule
    in some block, with probabilities normalized per block."""
    lhss = ["S", *draw(st.lists(st.sampled_from(NONTERMINALS[1:]), unique=True, max_size=2))]
    blocks = {}
    for lhs in lhss:
        blocks[lhs] = draw(st.lists(st.sampled_from(RIGHT_HAND_SIDES), min_size=1, max_size=3, unique=True))
    for terminal in ("a",), ("b",):
        if not any(terminal in rhss for rhss in blocks.values()):
            blocks[draw(st.sampled_from(lhss))].append(terminal)
    lines = []
    for lhs, rhss in blocks.items():
        weights = draw(st.lists(_floats(5e-324, 1.0), min_size=len(rhss), max_size=len(rhss)))
        total = math.fsum(weights)
        lines += [f"{lhs} -> {' '.join(rhs)} {w / total!r}" for rhs, w in zip(rhss, weights)]
    return "\n".join(lines) + "\n"


@st.composite
def corpora(draw) -> tuple[bool, list[str]]:
    """Whether the corpus is bracketed, and its lines, each with at most one
    bracket; in some corpora a line holds the unknown token c, and some
    bracketed corpora hold a malformed line."""
    bracketed = draw(st.booleans())
    sentences = st.lists(st.sampled_from("ab"), min_size=1, max_size=4)
    sentences = draw(st.lists(sentences, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        tokens = draw(st.sampled_from(sentences))
        tokens[draw(st.integers(0, len(tokens) - 1))] = "c"
    lines = []
    for tokens in sentences:
        if bracketed and len(tokens) > 1:
            i = draw(st.integers(0, len(tokens) - 1))
            j = draw(st.integers(i + 1, len(tokens)))
            tokens = tokens[:i] + ["(", *tokens[i:j], ")"] + tokens[j:]
        lines.append(" ".join(tokens))
    if bracketed and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED)))
    return bracketed, lines


@st.composite
def commands(draw, name: str, options: dict) -> list[str]:
    """A subcommand and its flags, each left out or given a drawn value
    (True for a flag that takes none)."""
    argv = [name]
    for flag, values in options.items():
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag] if value is True else [flag, str(value)]
    return argv


COUNTS = st.integers(-1, 4) | st.just(10**18)
TRAIN = commands(
    "train",
    {
        "--ref-mode": st.sampled_from(REF_MODES),
        "--comp-mode": st.sampled_from(COMP_MODES),
        "--n-ref": COUNTS,
        "--n-comp": COUNTS,
        "--no-enforce-subset": st.just(True),
        "--h": _floats(0.0, 1.0, exclude_max=True),
        "--eta": _floats(5e-324, 1.7e308),
        "--epsilon": _floats(5e-324, 1.7e308),
        "--iters": st.integers(0, 3),
        "--rel-tol": _floats(0.0, 1.7e308),
        "--min-prob": _floats(5e-324, 1.0, exclude_max=True),
    },
)
NBEST = commands("nbest", {"--n": st.integers(1, 4) | st.just(10**18)})
ORACLE_ENUM = commands("oracle-enum", {"--cap": st.integers(-1, 6) | st.just(10**18)})
CONSISTENCY = commands(
    "consistency", {"--tol": _floats(5e-324, 1.7e308), "--format": st.sampled_from(["text", "csv"])}
)
INSIDE, VITERBI, VALIDATE = (commands(name, {}) for name in ("inside", "viterbi", "validate"))
# subcommands that read no corpus
NO_CORPUS = ("consistency", "validate")

# train three times in nine, as it reads the most flags
COMMANDS = st.sampled_from(
    [TRAIN, TRAIN, TRAIN, NBEST, ORACLE_ENUM, CONSISTENCY, INSIDE, VITERBI, VALIDATE]
).flatmap(lambda command: command)


def run(argv) -> tuple[int, str, set]:
    """``cli.main``'s exit code, stderr and warning categories."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")  # recorded, not raised as pytest's filter would
        code = main(argv)
    return code, err.getvalue(), {w.category for w in caught}


TOY = "S -> S S 0.4\nS -> a 0.6\n"
AAA = (False, ["a a a"])
VITERBI_ONE_STEP = ["--ref-mode", "viterbi", "--iters", "1"]


@settings(derandomize=True, database=None, max_examples=450, deadline=None)
@given(grammar=grammars(), corpus=corpora(), command=COMMANDS)
@example(
    grammar=TOY,
    corpus=AAA,
    command=["train", *VITERBI_ONE_STEP, "--comp-mode", "nbest", "--n-comp", "3", "--eta", "1e308"],
)
@example(
    grammar="S -> S S 0.01\nS -> a 0.99\n",
    corpus=AAA,
    command=["train", *VITERBI_ONE_STEP, "--comp-mode", "all", "--eta", "1e308"],
)
@example(
    grammar=TOY,
    corpus=AAA,
    command=["train", *VITERBI_ONE_STEP, "--comp-mode", "all", "--min-prob", "0.5"],
)
def test_every_accepted_input_ends_in_output_or_one_error_line(grammar, corpus, command):
    bracketed, lines = corpus
    with tempfile.TemporaryDirectory() as tmp:
        grammar_path, corpus_path = Path(tmp, "g.g"), Path(tmp, "corpus.txt")
        grammar_path.write_text(grammar, encoding="utf-8")
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        name, *flags = command
        argv = [name, str(grammar_path)]
        if name not in NO_CORPUS:
            argv += ["--bracketed-corpus", str(corpus_path)] if bracketed else [str(corpus_path)]
        if name == "train":
            argv += ["--out-grammar", str(Path(tmp, "out.g")), "--report", str(Path(tmp, "out.csv"))]
        code, err, kinds = run(argv + flags)
        valid = run(["validate", str(grammar_path)])[0] == 0
    if code == 0:
        assert err == "" and kinds <= {DegenerateDeltaWarning}, (err, kinds)
        return
    assert code == 1 and not kinds, (code, err, kinds)
    assert err.startswith("error: ") and err.splitlines() == [err[:-1]], err
    if name == "train" and valid:
        assert not any(fault in err for fault in GRAMMAR_FAULTS), err
