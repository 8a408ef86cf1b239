"""Exact n-best derivations via per-cell hypothesis lists.

The chart's shared CKY pass builds each cell's top-n list: a lexical cell
holds its one hypothesis, and a span's hypotheses join every left
hypothesis with every right one, for each (split, rule) candidate.  A
hypothesis is a Viterbi cell (``chart._Cell``): an incremental score, the
rule's log probability plus the two children's scores, with its rule id
and its two children, so building one costs two float additions and no
count vector.

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

from .chart import _SLACK, _canonical, _Cell, _cky, _preorder
from .corpus import Bracketing
from .derivations import Derivation
from .grammar import Grammar


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

    def top(cands) -> list[_Cell]:
        # every hypothesis of a span has the same size, 2 * width - 1
        split, _, lefts, rights = cands[0]
        size = lefts[0].size + rights[0].size + 1
        start = split - (lefts[0].size + 1) // 2
        scores: list[float] = []
        ends = []  # hypotheses listed up to and including each candidate
        for _, rule, lefts, rights in cands:
            base = lp[rule.id]
            pairs = product([left.score for left in lefts], [right.score for right in rights])
            scores += [base + left + right for left, right in pairs]
            ends.append(len(scores))

        def hyp(index: int) -> _Cell:
            c = bisect_right(ends, index)
            _, rule, lefts, rights = cands[c]
            li, ri = divmod(index - (ends[c - 1] if c else 0), len(rights))
            return _Cell(scores[index], size, rule.id, lefts[li], rights[ri])

        def rank(cell: _Cell):
            return (-_canonical(g, cell), _backpointer_key(cell, start))

        kept: list[_Cell] = []
        for window in _windows(scores, _SLACK * size):
            cells = [hyp(index) for index in window]
            if len(cells) > 1:
                cells.sort(key=rank)
            kept += cells
            if len(kept) >= n:
                break
        return kept[:n]

    tokens, chart = _cky(g, sentence, brackets, lambda rule: [_Cell(lp[rule.id], 1, rule.id)], top)
    cells = chart.get((0, len(tokens)), {}).get(g.start, [])
    derivations = tuple(Derivation.build(g, _preorder(cell), len(tokens)) for cell in cells)
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
