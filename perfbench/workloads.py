"""The benchmark's workloads: seeded inputs, timed work items, output checks.

``parse``, ``nbest`` and ``train`` each turn a seed into grammar and corpus
files (``prepare``), load them the way the command line does (``load``), and
then run numbered work items (``run``).  Item ``i`` uses corpus entry
``i % size``; ``check`` verifies one item's output, and ``reference_entry``
and ``compare`` record and compare the default seed's outputs.

The timed code looks pcfgtk functions up as module attributes
(``chart.viterbi``) at each call, so that a traced run's wrappers see them.
The checks use the names bound below at import time, which are always the
original functions, so checking never shows up in a trace.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gen
from pcfgtk import chart, cli, corpus, derivations, estimator, grammar, kbest
from pcfgtk.chart import viterbi as checked_viterbi
from pcfgtk.derivations import (
    Derivation,
    derivation_probability,
    derivation_spans,
    replay_derivation,
)
from pcfgtk.estimator import TrainReport
from pcfgtk.grammar import parse_grammar, serialize_grammar

NBEST_N = 10
TRAIN_ITERS = 2
TRAIN_FLAGS = (
    "--ref-mode", "viterbi", "--comp-mode", "all",
    "--h", "0.3", "--eta", "1", "--epsilon", "1", "--rel-tol", "0",
    "--iters", str(TRAIN_ITERS),
)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    """Generated files: one grammar, the corpus files, and what each item reads."""

    workdir: Path
    grammar: Path
    corpora: tuple[Path, ...]
    reader: str  # name of the pcfgtk.corpus reader for the corpus files
    items: tuple[str, ...]  # corpus text each work item reads


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def crosses(i: int, j: int, a: int, b: int) -> bool:
    """Half-open spans overlap without nesting (written apart from pcfgtk's)."""
    return (i < a < j < b) or (a < i < b < j)


class ParseWorkload:
    """Inside, Viterbi and tree rendering per sentence over ``G100``."""

    name = "parse"
    lengths = range(6, 17)
    block_items = len(lengths)
    sentences_per_item = 1

    def prepare(self, rng: random.Random, workdir: Path, blocks: int) -> Inputs:
        g = gen.g100(rng)
        lines = gen.corpus_lines(rng, g, self.lengths, blocks, bracketed=False)
        return _write_single(workdir, self.name, g, lines, "read_corpus")

    def load(self, inputs: Inputs):
        g = grammar.load_grammar(inputs.grammar)
        return g, getattr(corpus, inputs.reader)(inputs.corpora[0])

    def run(self, state, i: int):
        g, sentences = state
        tokens = sentences[i % len(sentences)].tokens
        log_inside = chart.inside(g, tokens).log_string_prob
        d, log_prob = chart.viterbi(g, tokens)
        tree = derivations.format_tree(derivations.derivation_tree(g, d))
        return {"inside": log_inside, "rules": d.rules, "log_prob": log_prob, "tree": tree}

    def check(self, state, i: int, out) -> list[str]:
        g, sentences = state
        tokens = list(sentences[i % len(sentences)].tokens)
        problems = []
        if replay_derivation(g, out["rules"]) != tokens:
            problems.append("Viterbi derivation does not yield the sentence")
        d = Derivation(out["rules"], len(tokens), out["log_prob"])
        if derivation_probability(g, d) != out["log_prob"]:
            problems.append("Viterbi log probability differs from derivation_probability")
        if not out["log_prob"] <= out["inside"]:
            problems.append("Viterbi log probability exceeds the inside log probability")
        if _tree_leaves(out["tree"]) != tokens:
            problems.append("rendered tree does not spell the sentence")
        return problems

    def reference_entry(self, out):
        return {"rules": digest(out["rules"]), "log_prob": out["log_prob"], "inside": out["inside"]}

    def compare(self, ref, out) -> list[str]:
        problems = []
        if ref["rules"] != digest(out["rules"]) or ref["log_prob"] != out["log_prob"]:
            problems.append("Viterbi derivation differs from the reference")
        if not close(ref["inside"], out["inside"]):
            problems.append("inside log probability differs from the reference")
        return problems


class NbestWorkload:
    """Bracket-constrained ``nbest(n=10)`` and tree rendering over ``G100``."""

    name = "nbest"
    lengths = range(6, 11)
    block_items = len(lengths)
    sentences_per_item = 1

    def prepare(self, rng: random.Random, workdir: Path, blocks: int) -> Inputs:
        g = gen.g100(rng)
        lines = gen.corpus_lines(rng, g, self.lengths, blocks, bracketed=True)
        return _write_single(workdir, self.name, g, lines, "read_bracketed_corpus")

    load = ParseWorkload.load

    def run(self, state, i: int):
        g, sentences = state
        sent = sentences[i % len(sentences)]
        result = kbest.nbest(g, sent.tokens, NBEST_N, sent.brackets)
        trees = [
            derivations.format_tree(derivations.derivation_tree(g, d))
            for d in result.derivations
        ]
        return {"derivs": [(d.rules, d.log_prob) for d in result.derivations], "trees": trees}

    def check(self, state, i: int, out) -> list[str]:
        g, sentences = state
        sent = sentences[i % len(sentences)]
        tokens = list(sent.tokens)
        derivs = out["derivs"]
        if not derivs:
            return ["n-best list is empty"]
        problems = []
        if len({rules for rules, _ in derivs}) != len(derivs):
            problems.append("n-best list repeats a derivation")
        if any(a < b for (_, a), (_, b) in zip(derivs, derivs[1:])):
            problems.append("n-best log probabilities increase")
        if len(out["trees"]) != len(derivs):
            problems.append("not one rendered tree per derivation")
        for rules, log_prob in derivs:
            d = Derivation(rules, len(tokens), log_prob)
            if replay_derivation(g, rules) != tokens:
                problems.append("an n-best derivation does not yield the sentence")
            elif any(
                crosses(x, y, a, b)
                for x, y in derivation_spans(g, d)
                for a, b in sent.brackets.spans
            ):
                problems.append("an n-best derivation crosses a bracket")
        best = checked_viterbi(g, sent.tokens, sent.brackets)
        if best is None or (best[0].rules, best[1]) != derivs[0]:
            problems.append("first n-best derivation is not the bracketed Viterbi derivation")
        return problems

    def reference_entry(self, out):
        return {"derivs": digest([(rules, lp.hex()) for rules, lp in out["derivs"]])}

    def compare(self, ref, out) -> list[str]:
        if ref["derivs"] != self.reference_entry(out)["derivs"]:
            return ["n-best derivations differ from the reference"]
        return []


class TrainWorkload:
    """``pcfgtk train`` in-process over ``Gsmall``, one command per sentence.

    Each sentence is its own corpus file and one work item.  Every sentence
    of a given length has the same number of derivations, so the commands
    of a block (lengths 4, 5 and 6) cost the same whatever the seed.
    """

    name = "train"
    lengths = range(4, 7)
    block_items = len(lengths)
    sentences_per_item = TRAIN_ITERS

    def prepare(self, rng: random.Random, workdir: Path, blocks: int) -> Inputs:
        g = gen.gsmall(rng)
        lines = gen.corpus_lines(rng, g, self.lengths, blocks, bracketed=False)
        gpath = workdir / "train.g"
        gpath.write_text(g.text(), encoding="utf-8")
        paths = []
        for k, line in enumerate(lines):
            path = workdir / f"train-{k}.txt"
            path.write_text(line + "\n", encoding="utf-8")
            paths.append(path)
        return Inputs(workdir, gpath, tuple(paths), "read_corpus", tuple(lines))

    def load(self, inputs: Inputs):
        return inputs, inputs.grammar.read_text(encoding="utf-8")

    def run(self, state, i: int):
        inputs, _ = state
        k = i % len(inputs.corpora)
        out_grammar = inputs.workdir / f"trained-{k}.g"
        report = inputs.workdir / f"trained-{k}.csv"
        argv = ["train", str(inputs.grammar), str(inputs.corpora[k]),
                "--out-grammar", str(out_grammar), "--report", str(report), *TRAIN_FLAGS]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"train exited with {status}: {stderr.getvalue().strip()}")
        return {
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "report": report.read_text(encoding="utf-8"),
            "grammar": out_grammar.read_text(encoding="utf-8"),
        }

    def check(self, state, i: int, out) -> list[str]:
        _, start_text = state
        problems = []
        if out["stderr"]:
            problems.append("train wrote to stderr")
        header, *rows = out["report"].splitlines()
        rows = [row.split(",") for row in rows]
        if header != TrainReport.CSV_HEADER:
            problems.append("unexpected report header")
        if [row[0] for row in rows] != [str(k) for k in range(1, TRAIN_ITERS + 1)]:
            problems.append(f"report does not list iterations 1..{TRAIN_ITERS}")
        if len(out["stdout"].splitlines()) != TRAIN_ITERS:
            problems.append(f"train did not print {TRAIN_ITERS} objectives")
        if any(row[-1] != "0" for row in rows):
            problems.append("train skipped a sentence")
        text = out["grammar"]
        if serialize_grammar(parse_grammar(text)) != text:
            problems.append("final grammar does not survive serialize(parse(text))")
        rules, probs = _grammar_rows(text)
        if rules != _grammar_rows(start_text)[0]:
            problems.append("final grammar has a different rule set")
        sums: dict[str, list[float]] = {}
        for (lhs, _), p in zip(rules, probs):
            sums.setdefault(lhs, []).append(p)
        if not all(0.0 < p <= 1.0 for p in probs) or any(
            abs(math.fsum(ps) - 1.0) > 1e-9 for ps in sums.values()
        ):
            problems.append("final grammar is not proper")
        return problems

    def reference_entry(self, out):
        objectives = [float(line.split(",")[1]) for line in out["report"].splitlines()[1:]]
        return {"objectives": objectives, "probs": _grammar_rows(out["grammar"])[1]}

    def compare(self, ref, out) -> list[str]:
        now = self.reference_entry(out)
        problems = []
        for key in ("objectives", "probs"):
            if len(ref[key]) != len(now[key]) or not all(map(close, ref[key], now[key])):
                problems.append(f"training {key} differ from the reference")
        return problems


@dataclass
class Checker:
    """Checks each item's output once per corpus entry, outside the timing.

    A later item over the same corpus entry must reproduce the first
    output exactly (pcfgtk is deterministic), which bounds the checking
    cost by the corpus size however fast the program gets.
    """

    workload: object
    state: object
    inputs: object
    reference: dict | None
    seen: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def __call__(self, i: int, out, error: BaseException | None) -> bool:
        if error is not None:
            self.problems.append((i, "".join(traceback.format_exception_only(error)).strip()))
            return False
        k = i % len(self.inputs.items)
        key = digest(out)
        if k in self.seen:
            first_key, first_ok = self.seen[k]
            if key != first_key:
                self.problems.append((i, "output differs from an earlier run of the same input"))
                return False
            return first_ok
        try:
            problems = self.workload.check(self.state, i, out)
            if self.reference is not None and k < len(self.reference["items"]):
                ref = self.reference["items"][k]
                if ref["input"] != digest(self.inputs.items[k]):
                    problems.append("input differs from the one the reference was recorded for")
                else:
                    problems += self.workload.compare(ref, out)
        except Exception as exc:  # a malformed output can make a check raise
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.problems += [(i, p) for p in problems]
        self.seen[k] = (key, not problems)
        return not problems


def load_reference(path: Path, name: str, inputs: Inputs) -> dict:
    """The recorded default-seed outputs of one workload."""
    recorded = json.loads(path.read_text(encoding="utf-8"))["workloads"][name]
    if recorded["grammar"] != digest(inputs.grammar.read_text(encoding="utf-8")):
        raise RuntimeError(f"{path.name} was recorded for another {name} grammar")
    return recorded


WORKLOADS = {w.name: w for w in (ParseWorkload(), NbestWorkload(), TrainWorkload())}


def _write_single(workdir: Path, name: str, g, lines: list[str], reader: str) -> Inputs:
    gpath = workdir / f"{name}.g"
    cpath = workdir / f"{name}.txt"
    gpath.write_text(g.text(), encoding="utf-8")
    cpath.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return Inputs(workdir, gpath, (cpath,), reader, tuple(lines))


def _tree_leaves(tree: str) -> list[str]:
    return [part.rstrip(")") for part in tree.split() if not part.startswith("(")]


def _grammar_rows(text: str):
    """(lhs, rhs) per rule line and the probabilities, in file order."""
    rules, probs = [], []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "->":
            rules.append((parts[0], tuple(parts[2:-1])))
            probs.append(float(parts[-1]))
    return rules, probs


def _count_derivs(counts, result) -> None:
    counts["kbest.nbest.derivs"] += len(result.derivations)


def _count_realized(counts, realized) -> None:
    if realized is None:
        counts["estimator.skipped"] += 1
    else:
        counts["estimator.ref_derivs"] += len(realized.ref)
        counts["estimator.comp_derivs"] += len(realized.comp)


def trace_points():
    """Where a traced run wraps pcfgtk: (module, attribute, span name, counter).

    Each function is wrapped in every module its callers look it up from.
    """
    return [
        (grammar, "load_grammar", "grammar.load", None),
        (cli, "load_grammar", "grammar.load", None),
        (corpus, "read_corpus", "corpus.read", None),
        (corpus, "read_bracketed_corpus", "corpus.read", None),
        (cli, "read_corpus", "corpus.read", None),
        (cli, "read_bracketed_corpus", "corpus.read", None),
        (chart, "inside", "chart.inside", None),
        (chart, "viterbi", "chart.viterbi", None),
        (estimator, "viterbi", "chart.viterbi", None),
        (kbest, "nbest", "kbest.nbest", _count_derivs),
        (estimator, "nbest", "kbest.nbest", _count_derivs),
        (derivations, "derivation_tree", "derivations.tree", None),
        (derivations, "format_tree", "derivations.tree", None),
        (estimator, "realize_delta_sets", "estimator.realize", _count_realized),
        (estimator, "accumulate_realized", "estimator.accumulate", None),
        (estimator, "objective_over_sets", "estimator.objective", None),
        (estimator, "check_consistency", "consistency.check", None),
        (cli, "train", "estimator.step", None),
        (cli, "main", "cli.train", None),
    ]
