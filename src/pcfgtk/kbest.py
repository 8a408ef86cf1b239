"""Exact n-best derivations via per-cell hypothesis lists.

The chart's shared CKY layout lists each width's candidates, read here as
per-(span, lhs) candidate lists, and each entry keeps its top-n list: a
lexical entry holds its one hypothesis, and a span's hypotheses join every
left hypothesis with every right one, for each (split, rule) candidate.  A
hypothesis is a ``_Cell``: an incremental score, the rule's log
probability plus the two children's scores, with its rule id and its two
children, so building one costs two float additions and no count vector.

Ordering is by descending canonical log probability (``score_counts`` of
the subtree's rule counts) with the backpointer key as secondary
criterion: the flattened (split, rule id) tuples of the hypothesis tree,
compared lexicographically.  A cell's hypotheses are sorted by incremental
score and cut into windows wherever two neighbours lie further apart than
rounding distance (see ``chart._SLACK``).  Across a cut the incremental
order is the canonical one, so only the windows with more than one member
are ranked, by canonical score and key, both rebuilt from the child
references; whole windows are kept until the list holds n hypotheses.  The
secondary key agrees with the Viterbi tie-break, so ``nbest(..., 1)``
returns exactly the Viterbi derivation.  With a large enough n the result
is the complete derivation set.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product

import numpy as np

from .chart import _SLACK, _candidate_lists, _cky
from .corpus import Bracketing
from .derivations import Derivation, score_rules
from .grammar import Grammar


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


@dataclass(frozen=True)
class KBestList:
    """Derivations in best-first order; short only when |D_x| < n."""

    derivations: tuple[Derivation, ...]
    n_requested: int
    in_language: bool

    def __len__(self) -> int:
        return len(self.derivations)

    def log_probs(self) -> tuple[float, ...]:
        return tuple(d.log_prob for d in self.derivations)


def nbest(
    g: Grammar, sentence, n: int, brackets: Bracketing | None = None
) -> KBestList:
    """Top-n distinct derivations of a sentence, best first.

    With brackets, only derivations whose constituent spans nest with every
    bracket are considered.  A sentence without any (compatible) derivation
    yields an empty list flagged not-in-language.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lp = g.log_probs
    trav = _cky(g, sentence, brackets)
    n1, _, n_nt = trav.shape
    chart: dict[int, list[_Cell]] = {}
    for entry, rule in zip(trav.leaf_entry.tolist(), trav.leaf_rule.tolist()):
        chart[entry] = [_Cell(lp[rule], 1, rule)]
    present = np.zeros(trav.size, dtype=bool)
    present[trav.leaf_entry] = True

    def top(entry: int, cands) -> list[_Cell]:
        start, end = divmod(entry // n_nt, n1)
        size = 2 * (end - start) - 1  # rules in every hypothesis of the span
        scores: list[float] = []
        ends = []  # hypotheses listed up to and including each candidate
        for rule, lefts, rights in cands:
            base = lp[rule]
            pairs = product([left.score for left in lefts], [right.score for right in rights])
            scores += [base + left + right for left, right in pairs]
            ends.append(len(scores))

        def hyp(index: int) -> _Cell:
            c = bisect_right(ends, index)
            rule, lefts, rights = cands[c]
            li, ri = divmod(index - (ends[c - 1] if c else 0), len(rights))
            return _Cell(scores[index], size, rule, lefts[li], rights[ri])

        def rank(cell: _Cell):
            return (-score_rules(g, _preorder(cell)), _backpointer_key(cell, start))

        kept: list[_Cell] = []
        for window in _windows(scores, _SLACK * size):
            cells = [hyp(index) for index in window]
            if len(cells) > 1:
                cells.sort(key=rank)
            kept += cells
            if len(kept) >= n:
                break
        return kept[:n]

    for width in trav.widths():
        for entry, cands in _candidate_lists(g, width, present, chart):
            chart[entry] = top(entry, cands)
    cells = chart.get(trav.root, [])
    derivations = tuple(Derivation.build(g, _preorder(cell), len(trav.tokens)) for cell in cells)
    return KBestList(derivations, n, bool(derivations))


def _backpointer_key(cell: _Cell, start: int) -> list[int]:
    """Flattened (split, rule id) backpointers of a subtree starting at
    ``start``, a lexical entry contributing its rule id alone."""
    key = []
    stack = [(cell, start)]
    while stack:
        cell, start = stack.pop()
        if cell.left is None:
            key.append(cell.rule_id)
            continue
        split = start + (cell.left.size + 1) // 2
        key += (split, cell.rule_id)
        stack += ((cell.right, split), (cell.left, start))
    return key


def _windows(scores: list[float], slack: float):
    """Indices of ``scores``, highest score first, in runs whose neighbours
    lie within ``slack * (|s_a| + |s_b|)`` of each other (scores are <= 0)."""
    window: list[int] = []
    last = 0.0
    for index in sorted(range(len(scores)), key=scores.__getitem__, reverse=True):
        score = scores[index]
        if window and last - score > slack * -(last + score):
            yield window
            window = []
        window.append(index)
        last = score
    yield window
