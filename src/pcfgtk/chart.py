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

The chart is kept per span, ``{(i, j): {lhs: entry}}``, holding only the
spans with at least one entry, so a split with an empty side costs one
lookup; each call lists the binary rules once as ``(rule, lhs, B, C)``.

``inside`` combines by log-sum-exp, so its full-span start entry is the log
string probability (the sum over all derivations); ``viterbi`` keeps the
single highest-probability derivation, comparing candidates by an
incremental score and falling back to the canonical count-ordered score
only when two candidates lie within rounding distance; ``kbest.nbest``
merges top-n lists.

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
    """Fill a chart ``{(i, j): {lhs: entry}}``; returns the tokens and the chart.

    ``leaf(rule)`` gives the entry of a lexical rule over its token;
    ``combine(candidates)`` gives the entry of one span and left-hand side
    from its ``(split, rule, left, right)`` candidates.  Only spans with at
    least one entry are stored, so a split whose either side is absent is
    skipped before any rule is looked at.
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
    binary = [(rule, rule.lhs, rule.rhs[0], rule.rhs[1]) for rule in g.binary_rules]
    chart: dict[tuple[int, int], dict] = {}
    for i, tok in enumerate(tokens):
        cell = {rule.lhs: leaf(rule) for rule in g.rules_for_terminal(tok)}
        if cell:
            chart[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            if not brackets.compatible(i, j):
                continue
            candidates: dict[str, list] = {}
            for k in range(i + 1, j):
                lefts = chart.get((i, k))
                if lefts is None:
                    continue
                rights = chart.get((k, j))
                if rights is None:
                    continue
                for rule, lhs, b, c in binary:
                    left = lefts.get(b)
                    if left is None:
                        continue
                    right = rights.get(c)
                    if right is not None:
                        candidates.setdefault(lhs, []).append((k, rule, left, right))
            if candidates:
                chart[(i, j)] = {lhs: combine(cands) for lhs, cands in candidates.items()}
    return tokens, chart


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
    tokens, chart = _cky(
        g,
        sentence,
        brackets,
        lambda rule: lp[rule.id],
        lambda cands: logsumexp([lp[rule.id] + left + right for _, rule, left, right in cands]),
    )
    n = len(tokens)
    table = np.full((n + 1, n + 1, len(g.nonterminals)), NEG_INF)
    for (i, j), cell in chart.items():
        for lhs, mass in cell.items():
            table[i, j, g.nt_index[lhs]] = mass
    return InsideChart(g, tuple(tokens), table)


# Two Viterbi candidates whose incremental scores differ by more than
# _SLACK * (m_a |score_a| + m_b |score_b|), for m rules in each, are ordered
# the same way by their canonical scores.  A derivation's m rule log
# probabilities l_t are all <= 0, so their exact sum S has |S| = sum |l_t|.
# The incremental score sums the l_t along the tree with m - 1 roundings and
# the canonical ``score_counts`` sums at most m rounded products c * l, so by
# the standard summation bound (Higham 2002, sec. 4.2) each lies within
# gamma_m |S| of S, with gamma_m = m u / (1 - m u) and u = 2**-53.  The two
# scores of one candidate thus differ by at most 2 gamma_m |S|, which is
# below 2.001 m u |score| for every m u < 1e-6 (any sentence that fits in
# memory).  The slack is about twice the sum of these bounds over both
# candidates, a margin that also covers the rounding of the difference and
# of the slack themselves.  Beyond it the incremental order is the
# canonical one; within it ``viterbi`` compares canonical scores.
_SLACK = 4 * 2.0**-53


@dataclass(frozen=True, slots=True)
class _Cell:
    score: float  # incremental: lp[rule] + left.score + right.score
    size: int  # number of rules in the subtree
    rule_id: int
    left: _Cell | None = None  # children; None for lexical entries
    right: _Cell | None = None


def _preorder(cell: _Cell) -> list[int]:
    """Rule ids of a cell's subtree in leftmost-derivation order."""
    rules = []
    stack = [cell]
    while stack:
        cell = stack.pop()
        rules.append(cell.rule_id)
        if cell.left is not None:
            stack += (cell.right, cell.left)
    return rules


def viterbi(
    g: Grammar, sentence, brackets: Bracketing | None = None
) -> tuple[Derivation, float] | None:
    """Best derivation of the sentence and its log probability.

    Each cell keeps the candidate with the highest canonical score (the
    count-ordered ``score_counts`` of its subtree), ties broken by the
    smallest (split, rule id) backpointer, so the result is deterministic
    even when several derivations have exactly equal probability.  Cells
    carry an incremental score instead of a count vector; candidates whose
    incremental scores lie within rounding distance (see ``_SLACK``) are
    compared by their canonical scores, rebuilt from the child cells, so
    every choice is the one the canonical scores make.  The returned log
    probability is canonical.  Returns None when the sentence has no
    (bracket-compatible) derivation.
    """
    lp = g.log_probs

    def canonical(cell: _Cell) -> float:
        return score_counts(g, count_vector(g, _preorder(cell)))

    def best(cands) -> _Cell:
        # candidates arrive in ascending (split, rule id) order, so replacing
        # the top only on a strictly higher score is the documented tie-break
        top = None
        top_canonical = None  # computed on demand
        for _, rule, left, right in cands:
            score = lp[rule.id] + left.score + right.score
            size = left.size + right.size + 1
            if top is not None:
                diff = score - top.score
                slack = _SLACK * (size * -score + top.size * -top.score)
                if diff < -slack:
                    continue
                if diff <= slack:
                    cell = _Cell(score, size, rule.id, left, right)
                    if top_canonical is None:
                        top_canonical = canonical(top)
                    cell_canonical = canonical(cell)
                    if cell_canonical > top_canonical:
                        top, top_canonical = cell, cell_canonical
                    continue
            top, top_canonical = _Cell(score, size, rule.id, left, right), None
        return top

    tokens, chart = _cky(g, sentence, brackets, lambda rule: _Cell(lp[rule.id], 1, rule.id), best)
    n = len(tokens)
    root = chart.get((0, n), {}).get(g.start)
    if root is None:
        return None
    d = Derivation.build(g, _preorder(root), n)
    return d, d.log_prob
