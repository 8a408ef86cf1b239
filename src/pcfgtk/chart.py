"""Span-based dynamic programming over CNF grammars.

One bottom-up CKY pass, ``_cky``, serves every parser in the package.  It
checks the sentence and the brackets once, seeds each width-one cell from a
per-task ``leaf``, and visits the bracket-compatible spans in order of
width; for each span and left-hand side it hands the binary candidates
``(split, rule, left entry, right entry)``, in ascending (split, rule id)
order, to a per-task ``combine`` whose result becomes the cell's entry.
Chart spans that cross a bracket are never filled, which restricts every
task to derivations whose constituents all nest with the brackets; an
empty bracketing is identical to none.

``inside`` combines by log-sum-exp, so its full-span start entry is the log
string probability (the sum over all derivations); ``viterbi`` keeps the
single highest-probability derivation; ``kbest.nbest`` merges top-n lists.

All functions are pure; one immutable grammar may be shared by concurrent
calls over different sentences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Bracketing
from .derivations import Derivation, count_vector, score_counts
from .grammar import Grammar
from .logmath import NEG_INF, logsumexp


class UnknownTokenError(ValueError):
    """A sentence token is not a terminal of the grammar."""

    def __init__(self, token: str, position: int):
        super().__init__(f"token {token!r} at position {position} is not a terminal")
        self.token = token
        self.position = position


def _cky(g: Grammar, sentence, brackets: Bracketing | None, leaf, combine):
    """Fill a chart ``{(i, j, lhs): entry}``; returns the tokens and the chart.

    ``leaf(rule)`` gives the entry of a lexical rule over its token;
    ``combine(candidates)`` gives the entry of one span and left-hand side
    from its ``(split, rule, left, right)`` candidates.
    """
    tokens = list(sentence)
    if not tokens:
        raise ValueError("sentence is empty")
    terminal_set = set(g.terminals)
    for pos, tok in enumerate(tokens):
        if tok not in terminal_set:
            raise UnknownTokenError(tok, pos)
    n = len(tokens)
    if brackets is None:
        brackets = Bracketing()
    elif brackets.max_position() > n:
        raise ValueError(f"bracket span exceeds sentence length {n}")
    cells = {}
    for i, tok in enumerate(tokens):
        for rule in g.rules_for_terminal(tok):
            cells[(i, i + 1, rule.lhs)] = leaf(rule)
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            if not brackets.compatible(i, j):
                continue
            candidates: dict[str, list] = {}
            for k in range(i + 1, j):
                for rule in g.binary_rules:
                    left = cells.get((i, k, rule.rhs[0]))
                    right = cells.get((k, j, rule.rhs[1]))
                    if left is not None and right is not None:
                        candidates.setdefault(rule.lhs, []).append((k, rule, left, right))
            for lhs, cands in candidates.items():
                cells[(i, j, lhs)] = combine(cands)
    return tokens, cells


def _joined_counts(rule, left_counts, right_counts) -> tuple[int, ...]:
    """Rule-usage counts of ``rule`` over two subtrees with the given counts."""
    counts = tuple(a + b for a, b in zip(left_counts, right_counts))
    return counts[: rule.id] + (counts[rule.id] + 1,) + counts[rule.id + 1 :]


@dataclass(frozen=True)
class InsideChart:
    """Inside log masses: ``table[i, j, a]`` for span (i, j) and nonterminal a.

    Axis order follows ``grammar.nonterminals``; unused cells hold -inf.
    """

    grammar: Grammar
    sentence: tuple[str, ...]
    table: np.ndarray

    def logmass(self, i: int, j: int, nonterminal: str) -> float:
        return float(self.table[i, j, self.grammar.nt_index[nonterminal]])

    @property
    def log_string_prob(self) -> float:
        """log P(sentence); -inf when the sentence is not in the language."""
        return self.logmass(0, len(self.sentence), self.grammar.start)

    @property
    def in_language(self) -> bool:
        return self.log_string_prob > NEG_INF


def inside(g: Grammar, sentence, brackets: Bracketing | None = None) -> InsideChart:
    """Fill the inside chart for a sentence, optionally bracket-constrained."""
    lp = g.log_probs
    tokens, cells = _cky(
        g,
        sentence,
        brackets,
        lambda rule: lp[rule.id],
        lambda cands: logsumexp([lp[rule.id] + left + right for _, rule, left, right in cands]),
    )
    n = len(tokens)
    table = np.full((n + 1, n + 1, len(g.nonterminals)), NEG_INF)
    for (i, j, lhs), mass in cells.items():
        table[i, j, g.nt_index[lhs]] = mass
    return InsideChart(g, tuple(tokens), table)


@dataclass(frozen=True)
class _Cell:
    score: float
    counts: tuple[int, ...]
    rule_id: int
    split: int  # absolute split position; -1 for lexical entries


def viterbi(
    g: Grammar, sentence, brackets: Bracketing | None = None
) -> tuple[Derivation, float] | None:
    """Best derivation of the sentence and its log probability.

    Ties on the (count-canonical) score are broken per cell by the smallest
    (split, rule id) backpointer, so the result is deterministic even when
    several derivations have exactly equal probability.  Returns None when
    the sentence has no (bracket-compatible) derivation.
    """

    def leaf(rule) -> _Cell:
        return _Cell(g.log_probs[rule.id], count_vector(g, (rule.id,)), rule.id, -1)

    def best(cands) -> _Cell:
        # candidates arrive in ascending (split, rule id) order, so keeping
        # the first of equal scores is the documented tie-break
        top = None
        for k, rule, left, right in cands:
            counts = _joined_counts(rule, left.counts, right.counts)
            score = score_counts(g, counts)
            if top is None or score > top.score:
                top = _Cell(score, counts, rule.id, k)
        return top

    tokens, cells = _cky(g, sentence, brackets, leaf, best)
    n = len(tokens)
    if (0, n, g.start) not in cells:
        return None

    def backtrace(i: int, j: int, lhs: str) -> list[int]:
        cell = cells[(i, j, lhs)]
        rule = g.rules[cell.rule_id]
        if rule.is_lexical:
            return [rule.id]
        return (
            [rule.id]
            + backtrace(i, cell.split, rule.rhs[0])
            + backtrace(cell.split, j, rule.rhs[1])
        )

    d = Derivation.build(g, backtrace(0, n, g.start), n)
    return d, d.log_prob
