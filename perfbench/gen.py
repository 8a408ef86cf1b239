"""Seeded synthetic grammars and corpora for the benchmark.

Everything here is a pure function of a ``random.Random`` stream, so one
seed always yields the same grammar and corpus text.  The generator never
calls pcfgtk: sentences come from sampling random derivation trees of a
chosen length directly from the generated rule set, so every sentence is in
the language by construction and carries the gold spans of its tree.  A
parser defect therefore cannot filter or shape the inputs it is tested on.

Sampling ignores rule probabilities: at each node it draws a split point and
a rule uniformly.  Probabilities only matter to the parsers, which is why
``G100`` may be inconsistent (spectral radius about 1.4) without harm.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GenGrammar:
    """A CNF rule set: per nonterminal, binary RHS pairs and terminals."""

    nonterminals: tuple[str, ...]
    binary: dict[str, tuple[tuple[str, str], ...]]
    lexical: dict[str, tuple[str, ...]]
    probs: dict[tuple[str, tuple[str, ...]], float]

    def text(self) -> str:
        """The grammar in pcfgtk's file format, probabilities at full precision."""
        lines = [f"%start {self.nonterminals[0]}"]
        for nt in self.nonterminals:
            rhss = list(self.binary[nt]) + [(t,) for t in self.lexical[nt]]
            for rhs in rhss:
                lines.append(f"{nt} -> {' '.join(rhs)} {self.probs[(nt, rhs)]!r}")
        return "\n".join(lines) + "\n"


def _normalized(weights: list[float]) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


# G100's rule set comes from this fixed seed and only its probabilities from
# the workload seed.  How densely a random rule set fills the chart varies
# from one draw to the next, and with it the parsing cost by 30% or more;
# fixing the rule set keeps one seed's figures comparable with another's.
_G100_RULES_SEED = 100


def g100(rng: random.Random) -> GenGrammar:
    """10 nonterminals, 15 terminals, 7 binary + 3 lexical rules each (100 rules).

    Each terminal is emitted by exactly two nonterminals, so every chart
    cell of width one holds two entries whatever the sentence.
    """
    shape = random.Random(_G100_RULES_SEED)
    nts = ("S",) + tuple(f"N{i}" for i in range(1, 10))
    terms = [f"t{i}" for i in range(15)]
    pairs = [(b, c) for b in nts for c in nts]
    binary = {nt: tuple(shape.sample(pairs, 7)) for nt in nts}
    while True:
        slots = terms * 2
        shape.shuffle(slots)
        lexical = {nt: tuple(slots[3 * i : 3 * i + 3]) for i, nt in enumerate(nts)}
        if all(len(set(ts)) == 3 for ts in lexical.values()):
            break
    probs = {}
    for nt in nts:
        rhss = list(binary[nt]) + [(t,) for t in lexical[nt]]
        for rhs, p in zip(rhss, _normalized([rng.uniform(0.1, 1.0) for _ in rhss])):
            probs[(nt, rhs)] = p
    return GenGrammar(nts, binary, lexical, probs)


# Gsmall's rule set is fixed so that its ambiguity, and so the cost of
# enumerating every derivation, does not change with the seed: every
# nonterminal emits both terminals, so a sentence of length 4, 5 or 6 has
# exactly 81, 522 or 3596 derivations whatever its tokens.
_GSMALL_BINARY = {
    "S": (("A", "B"), ("B", "A"), ("S", "S")),
    "A": (("A", "B"), ("S", "A")),
    "B": (("B", "A"), ("A", "S")),
}
# Each nonterminal puts this much mass on binary rules.  Every rule has two
# children, so each row of the expectation matrix sums to twice this and the
# spectral radius is exactly 0.84: Gsmall is consistent for every seed.
_GSMALL_BINARY_MASS = 0.42


def gsmall(rng: random.Random) -> GenGrammar:
    """Nonterminals S/A/B, terminals a/b, 13 rules; ambiguous and consistent."""
    nts = ("S", "A", "B")
    binary = dict(_GSMALL_BINARY)
    lexical = {nt: ("a", "b") for nt in nts}
    probs = {}
    for nt in nts:
        bin_ps = _normalized([rng.uniform(0.1, 1.0) for _ in binary[nt]])
        lex_ps = _normalized([rng.uniform(0.1, 1.0) for _ in lexical[nt]])
        for rhs, p in zip(binary[nt], bin_ps):
            probs[(nt, rhs)] = p * _GSMALL_BINARY_MASS
        for t, p in zip(lexical[nt], lex_ps):
            probs[(nt, (t,))] = p * (1.0 - _GSMALL_BINARY_MASS)
    return GenGrammar(nts, binary, lexical, probs)


def sample_tree(rng: random.Random, g: GenGrammar, nt: str, length: int):
    """A random derivation tree of ``nt`` over exactly ``length`` tokens.

    A leaf is ``(nt, terminal)``; an inner node is ``(nt, left, right)``.
    """
    if length == 1:
        return (nt, rng.choice(g.lexical[nt]))
    split = rng.randint(1, length - 1)
    left, right = rng.choice(g.binary[nt])
    return (nt, sample_tree(rng, g, left, split), sample_tree(rng, g, right, length - split))


def tree_tokens(tree) -> list[str]:
    if len(tree) == 2:
        return [tree[1]]
    return tree_tokens(tree[1]) + tree_tokens(tree[2])


def _spans(tree, start: int, out: list) -> int:
    """Append ``(start, end, is_leaf)`` for every node; returns the end."""
    end = start + 1 if len(tree) == 2 else _spans(tree[2], _spans(tree[1], start, out), out)
    out.append((start, end, len(tree) == 2))
    return end


def kept_spans(rng: random.Random, tree) -> set[tuple[int, int]]:
    """The gold spans a bracketed sentence keeps, each with probability 1/2.

    Leaf spans and the whole-sentence span constrain nothing and are kept
    independently.  The inner spans, which decide how much of the chart the
    brackets cut away, are kept as a uniformly random half (the odd one out
    by a coin flip).  Independent coin flips would leave some sentences with
    almost no constraint, and those take 20 times longer than the rest, so a
    few of them would swing a whole run's throughput.
    """
    nodes: list[tuple[int, int, bool]] = []
    length = _spans(tree, 0, nodes)
    inner = [(i, j) for i, j, leaf in nodes if not leaf and j - i < length]
    free = [(i, j) for i, j, leaf in nodes if leaf or j - i == length]
    count = len(inner) // 2 + (len(inner) % 2 and rng.random() < 0.5)
    kept = set(rng.sample(inner, count))
    kept.update(span for span in free if rng.random() < 0.5)
    return kept


def bracketed_line(rng: random.Random, tree) -> str:
    """The tree's tokens in parenthesis notation around its kept spans."""
    kept = kept_spans(rng, tree)

    def render(node, start: int) -> tuple[str, int]:
        if len(node) == 2:
            text, end = node[1], start + 1
        else:
            left, mid = render(node[1], start)
            right, end = render(node[2], mid)
            text = f"{left} {right}"
        return (f"( {text} )" if (start, end) in kept else text), end

    return render(tree, 0)[0]


def corpus_lines(
    rng: random.Random, g: GenGrammar, lengths: range, blocks: int, bracketed: bool
) -> list[str]:
    """One corpus line per sampled sentence, plain or in parenthesis notation.

    The corpus is ``blocks`` blocks, each holding every length in
    ``lengths`` once in random order, so any run of whole blocks has the
    same length mix.  Blocks are drawn one after another, so a shorter
    corpus from the same stream is a prefix of a longer one.
    """
    lines = []
    for _ in range(blocks):
        block = list(lengths)
        rng.shuffle(block)
        for length in block:
            tree = sample_tree(rng, g, g.nonterminals[0], length)
            lines.append(bracketed_line(rng, tree) if bracketed else " ".join(tree_tokens(tree)))
    return lines
