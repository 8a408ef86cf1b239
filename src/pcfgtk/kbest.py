"""Exact n-best derivations, each chart entry's hypotheses made on demand.

n-best runs in two phases (Huang and Chiang 2005, "Better k-best
Parsing", Alg. 3).  The first is one max-plus pass over the chart's shared
CKY layout: each width's candidate scores, ``(lp[rule] + M_left) +
M_right``, and each (span, lhs) entry's highest, its max-plus score M.  The
second makes each entry's ranked hypotheses lazily, top-down from the root.
A lexical entry holds its one hypothesis; a span's hypotheses join a left
hypothesis with a right one under a candidate (rule, left child entry,
right child entry).  A hypothesis is a ``_Cell``: an incremental score, the
rule's log probability plus the two children's scores, with its rule id and
its two children, so building one costs two float additions and no count
vector.

Ordering is by descending canonical log probability (``score_counts`` of
the subtree's rule counts) with the backpointer key as secondary
criterion: the flattened (split, rule id) tuples of the hypothesis tree,
compared lexicographically.  An entry's list is a run of windows: its
hypotheses in incremental-score order, cut wherever two neighbours lie
further apart than rounding distance (see ``chart._SLACK``).  Across a cut
the incremental order is the canonical one, so only windows with more than
one member are ranked, by canonical score and key, both rebuilt from the
child references.  Whole windows are kept until the list holds n
hypotheses, and the last one is truncated after ranking.  The secondary
key agrees with the Viterbi tie-break, so ``nbest(..., 1)`` returns exactly
the Viterbi derivation.  With a large enough n the result is the complete
derivation set.

An entry starts when it is first asked for a hypothesis: its candidates are
read back from the columns of its row that score above -inf, in ascending
(split, rule id) order, and its heap frontier of joins (candidate, left
index, right index) starts with each candidate's first join, keyed by that
candidate's max-plus score.  A later join's key is an upper bound on its
score: the rule's log probability plus, for each child, the highest
incremental score in the child's window that holds the index.  Before join
(i, j) is popped, the left child is asked for index i + 1 and the right for
j + 1 (for i or j where that would be n), which starts a child not yet
started; popping (i, j) pushes (i + 1, j) and (i, j + 1).  A window is final
once its lowest member lies further than rounding distance above the top
key, or the frontier is empty (see ``chart._SLACK``).  The root is asked for
n hypotheses; requests wait on an explicit stack, not on Python recursion.
"""
from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .chart import _SLACK, _cky, _column_weights, _Columns, _scores, _Traversal
from .corpus import Bracketing
from .derivations import Derivation, score_rules
from .grammar import Grammar
from .logmath import NEG_INF


@dataclass(slots=True)  # never changed once made; not frozen, which is slower to build
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
    if not isinstance(n, numbers.Integral):
        raise ValueError("n must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    trav = _cky(g, sentence, brackets)
    lists = _Lists(g, trav, n)
    if lists.maxplus[trav.root] > NEG_INF:
        lists.ask(trav.root, n - 1)
    cells = lists.hyps.get(trav.root, [])
    derivations = tuple(Derivation.build(g, _preorder(cell), len(trav.tokens)) for cell in cells)
    return KBestList(derivations, n, bool(derivations))


class _Lists:
    """The ranked hypothesis lists of one sentence's chart entries, each
    started and extended only as far as it is asked.

    ``maxplus`` is a flat chart of each entry's max-plus score M, the
    highest incremental score over its candidates (-inf where absent), and
    ``rows[span]`` that span's candidate scores ``(lp[rule] + M_left) +
    M_right`` by table row and column (see ``chart._Width``).
    ``hyps[entry]`` holds a started entry's hypotheses so far and
    ``wmax[entry]``, for each, the highest incremental score in its window.
    An entry in ``closed`` holds its whole list, at most n long.  An open
    entry that has started keeps in ``frontier`` its heap of ``(-key,
    candidate, left index, right index)`` joins, the joins pushed so far,
    the joins popped but not yet in a final window, by descending score, and
    its (rule, left entry, right entry) candidates.  No data here refers
    back to the object, so it is freed without the cycle collector.
    """

    def __init__(self, g: Grammar, trav: _Traversal, n: int):
        self.g, self.n = g, n
        self.n1, _, self.n_nt = trav.shape
        lp, columns = _column_weights(g, g.log_probs)
        chart = np.full(trav.size, NEG_INF)
        chart[trav.leaf_entry] = lp[trav.leaf_rule]
        self.rows: dict[int, np.ndarray] = {}
        for width in trav.widths():
            scores = _scores(chart, columns, width)
            chart.put(width.entry, np.maximum.reduce(scores, axis=1))
            w = (width.size + 1) // 2
            blocks = scores.reshape(len(width.starts), len(g.binary_table_lhs), -1)
            for start, block in zip(width.starts.tolist(), blocks):
                self.rows[start * self.n1 + start + w] = block
        self.maxplus = chart
        self.hyps: dict[int, list[_Cell]] = {}
        self.wmax: dict[int, list[float]] = {}
        for entry, rule in zip(trav.leaf_entry.tolist(), trav.leaf_rule.tolist()):
            self.hyps[entry] = [_Cell(lp[rule], 1, rule)]
            self.wmax[entry] = [lp[rule]]
        self.closed = set(self.hyps)
        self.frontier: dict[int, tuple[list, set, list[_Cell], list[tuple[int, int, int]]]] = {}
        self.columns = _Columns(g, trav)

    def ask(self, entry: int, index: int) -> None:
        """Extend an entry's list until it holds ``index`` < n or is whole.

        Requests wait on an explicit stack: an entry that needs a child's
        hypothesis first pushes that request above its own.
        """
        hyps, closed = self.hyps, self.closed
        stack = [(entry, index)]
        while stack:
            top, i = stack[-1]
            if top in closed or i < len(hyps.get(top, ())):
                stack.pop()
            else:
                stack += self._extend(top)

    def _start(self, entry: int) -> tuple:
        """Start an entry's frontier: the first join of every candidate,
        keyed by its max-plus score, and the candidates in ascending (split,
        rule id) order."""
        span, a = divmod(entry, self.n_nt)
        start, end = divmod(span, self.n1)
        table_row = self.columns.row_of[a]
        row = self.rows[span][table_row]
        cols = (row > NEG_INF).nonzero()[0]
        heap = [(-key, c, 0, 0) for c, key in enumerate(row.take(cols).tolist())]
        heapify(heap)
        cands = [self.columns.candidate(start, end, table_row, col) for col in cols.tolist()]
        self.hyps[entry], self.wmax[entry] = [], []
        state = self.frontier[entry] = (heap, {(c, 0, 0) for c in range(len(heap))}, [], cands)
        return state

    def _extend(self, entry: int) -> list[tuple[int, int]]:
        """Append an open entry's next window, or close it.  Returns
        instead the child requests (entry, index) that must be met first,
        if any, having stopped between two joins."""
        hyps, wmax, closed, n = self.hyps, self.wmax, self.closed, self.n
        lp = self.g.log_probs
        state = self.frontier.get(entry)
        if state is None:
            state = self._start(entry)
        heap, seen, pending, cands = state
        start, end = divmod(entry // self.n_nt, self.n1)
        size = 2 * (end - start) - 1  # rules in every hypothesis of the span
        slack = _SLACK * size
        while True:
            # a join not yet popped scores at most the top key, so the first
            # window is final once its lowest member and the top key pass
            # the cut test (see chart._SLACK); its top member is tested
            # first to skip the scan while the key is near, as holding a
            # final window back costs only more pops
            if pending and (not heap or _cut(pending[0].score, -heap[0][0], slack)):
                k = 1
                while k < len(pending) and not _cut(pending[k - 1].score, pending[k].score, slack):
                    k += 1
                if not heap or _cut(pending[k - 1].score, -heap[0][0], slack):
                    self._append(entry, start, pending[:k])
                    del pending[:k]
                    return []
            if not heap:
                closed.add(entry)
                del self.frontier[entry]
                return []
            _, c, li, ri = heap[0]
            rule, left, right = cands[c]
            # a child not yet started holds no hypotheses
            lefts, rights = hyps.get(left, ()), hyps.get(right, ())
            need = []
            if len(lefts) <= li + 1 and left not in closed:
                need.append((left, min(li + 1, n - 1)))
            if len(rights) <= ri + 1 and right not in closed:
                need.append((right, min(ri + 1, n - 1)))
            if need:
                return need
            heappop(heap)
            lcell, rcell = lefts[li], rights[ri]
            cell = _Cell((lp[rule] + lcell.score) + rcell.score, size, rule, lcell, rcell)
            insort(pending, cell, key=_descending)
            for lj, rj in ((li + 1, ri), (li, ri + 1)):
                if lj < len(lefts) and rj < len(rights) and (c, lj, rj) not in seen:
                    seen.add((c, lj, rj))
                    heappush(heap, (-((lp[rule] + wmax[left][lj]) + wmax[right][rj]), c, lj, rj))

    def _append(self, entry: int, start: int, window: list[_Cell]) -> None:
        """Rank a final window canonically and append it to the entry's
        list, truncating the list at n (which closes the entry)."""
        g = self.g
        top = window[0].score
        if len(window) > 1:
            window.sort(
                key=lambda cell: (-score_rules(g, _preorder(cell)), _backpointer_key(cell, start))
            )
        hyps, wmax = self.hyps[entry], self.wmax[entry]
        hyps += window
        wmax += [top] * len(window)
        if len(hyps) >= self.n:
            del hyps[self.n :], wmax[self.n :]
            self.closed.add(entry)
            del self.frontier[entry]


def _descending(cell: _Cell) -> float:
    return -cell.score


def _cut(a: float, b: float, slack: float) -> bool:
    """Whether score a lies above b (both <= 0) by more than rounding
    distance, ``slack * (|a| + |b|)``."""
    return a - b > slack * -(a + b)


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
