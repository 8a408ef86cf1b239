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
further apart than rounding distance (see ``_SLACK``).  Across a cut
the incremental order is the canonical one, so only windows with more than
one member are ranked, by canonical score and key, both rebuilt from the
child references.  Whole windows are kept until the list holds n
hypotheses, and the last one is truncated after ranking.  ``chart.viterbi``
is this engine at n = 1, so ``nbest(..., 1)`` returns the Viterbi
derivation by construction.  With a large enough n the result is the
complete derivation set.

An entry starts when it is first asked for a hypothesis: its heap frontier
of joins (column, left index, right index) starts with the first join of
each column of its row that scores above -inf, keyed by that column's
max-plus score.  A column is read back as a candidate only when one of its
joins is about to be popped.  A later join's key is an upper bound on its
score: the rule's log probability plus, for each child, the highest
incremental score in the child's window that holds the index.  Before join
(i, j) is popped, the left child is asked for index i + 1 and the right for
j + 1 (for i or j where that would be n), which starts a child not yet
started; popping (i, j) pushes (i + 1, j) and (i, j + 1).  A window is final
once its lowest member lies further than rounding distance above the top
key, or the frontier is empty (see ``_SLACK``).  The root is asked for n
hypotheses; requests wait on an explicit stack, not on Python recursion.
"""
from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .chart import _cky, _column_weights, _scores, _Traversal
from .corpus import Bracketing
from .derivations import Derivation, score_rules
from .grammar import Grammar
from .logmath import NEG_INF


# Two derivations whose incremental scores differ by more than
# _SLACK * (m_a |score_a| + m_b |score_b|), for m rules in each, are ordered
# the same way by their canonical scores.  A derivation's m rule log
# probabilities l_t are all <= 0, so their exact sum S has |S| = sum |l_t|.
# The incremental score sums the l_t along the tree with m - 1 roundings and
# the canonical ``score_counts`` sums at most m rounded products c * l, so by
# the standard summation bound (Higham 2002, sec. 4.2) each lies within
# gamma_m |S| of S, with gamma_m = m u / (1 - m u) and u = 2**-53.  The two
# scores of one derivation thus differ by at most 2 gamma_m |S|, which is
# below 2.001 m u |score| for every m u < 1e-6 (any sentence that fits in
# memory).  The slack is about twice the sum of these bounds over both
# derivations, a margin that also covers the rounding of the difference and
# of the slack themselves.  Beyond it the incremental order is the
# canonical one.
#
# Each entry's hypotheses, in incremental-score order, are cut wherever two
# neighbours a, b lie more than _SLACK * m (|s_a| + |s_b|) apart.  In CNF
# every hypothesis of an entry over width w has the same rule count
# m = 2w - 1, so this is the bound above.  A cut also separates every pair
# x, y that straddles it (s_x >= s_a > s_b >= s_y, all <= 0): s_x - s_y
# exceeds the gap s_a - s_b by (s_x - s_a) + (s_b - s_y), while the pair's
# slack exceeds the neighbours' by _SLACK * m ((s_b - s_y) - (s_x - s_a)),
# which is less because _SLACK * m < 1.  So the canonical order agrees with
# the incremental one across every cut, and only the windows between cuts
# need canonical ranking.
#
# An entry makes its hypotheses lazily, joining child hypotheses i and j of a
# candidate only once a heap frontier pops (i, j).  The first join of each
# candidate is keyed by the candidate's max-plus score (lp[rule] + M_L) +
# M_R, M being the highest incremental score over an entry's candidates,
# computed bottom-up; every later join by (lp[rule] + wmax_L[i]) + wmax_R[j],
# where wmax[i] is the highest incremental score in the child's window that
# holds index i.  By induction over widths, as IEEE rounding is monotone,
# every hypothesis of an entry has an incremental score at most its M, so
# wmax[i] <= wmax[0] <= M, and wmax never increases with i (windows are cut
# apart); hence a key bounds its join's score and every key past it.  Popping
# (i, j) pushes (i + 1, j) and (i, j + 1), so every join not yet popped lies
# past a heap member by steps that raise an index, and the top key U bounds
# its score.  Within a child's window the incremental order is not the
# canonical one, so joins are popped by their bound, never by their own
# score.  The popped joins' first window, with lowest member a, is final once
# a and U pass the cut test (or nothing is left to pop): by the straddling
# argument with U in the place of s_b, every join still to come lies beyond a
# cut from a.  So each window holds what it would in the complete sorted list,
# whatever order the joins were popped in.
_SLACK = 4 * 2.0**-53


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
    derivations = _best(g, _cky(g, sentence, brackets), n)
    return KBestList(derivations, n, bool(derivations))


def _best(g: Grammar, trav: _Traversal, n: int) -> tuple[Derivation, ...]:
    """The first n derivations of a laid-out sentence, best first; all of
    them when it has fewer.  ``nbest`` and ``chart.viterbi`` both read this."""
    lists = _Lists(g, trav, n)
    if lists.maxplus[trav.root] > NEG_INF:
        lists.ask(trav.root, n - 1)
    cells = lists.hyps.get(trav.root, [])
    return tuple(Derivation.build(g, _preorder(cell), len(trav.tokens)) for cell in cells)


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
    column, left index, right index)`` joins, the later joins pushed so far,
    the joins popped but not yet in a final window, by descending score, and
    its (rule, left entry, right entry) candidates by column, each read back
    when a join of its column is first about to be popped.  No data here
    refers back to the object, so it is freed without the cycle collector.
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
        self.frontier: dict[int, tuple[list, set, list[_Cell], dict[int, tuple]]] = {}
        self.columns = g.binary_table_columns
        self.row_of = {a: row for row, a in enumerate(g.binary_table_lhs.tolist())}

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
        """Start an entry's frontier: the first join of every column of its
        row that scores above -inf, keyed by its max-plus score.  No later
        push makes a first join again, so none is marked seen."""
        span, a = divmod(entry, self.n_nt)
        row = self.rows[span][self.row_of[a]]
        cols = (row > NEG_INF).nonzero()[0]
        heap = [(-key, col, 0, 0) for col, key in zip(cols.tolist(), row.take(cols).tolist())]
        heapify(heap)
        self.hyps[entry], self.wmax[entry] = [], []
        state = self.frontier[entry] = (heap, set(), [], {})
        return state

    def _candidate(self, entry: int, col: int) -> tuple[int, int, int]:
        """Rule id and left and right child entries of column ``col`` of an
        entry's row (see ``chart._Width``)."""
        span, a = divmod(entry, self.n_nt)
        i, j = divmod(span, self.n1)
        columns = self.columns[self.row_of[a]]
        k, q = divmod(col, len(columns))
        rule, b, c = columns[q]
        k += i + 1
        return rule, (i * self.n1 + k) * self.n_nt + b, (k * self.n1 + j) * self.n_nt + c

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
            # the cut test (see _SLACK); its top member is tested first to
            # skip the scan while the key is near, as holding a
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
            _, col, li, ri = heap[0]
            cand = cands.get(col)
            if cand is None:
                cand = cands[col] = self._candidate(entry, col)
            rule, left, right = cand
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
                if lj < len(lefts) and rj < len(rights) and (col, lj, rj) not in seen:
                    seen.add((col, lj, rj))
                    heappush(heap, (-((lp[rule] + wmax[left][lj]) + wmax[right][rj]), col, lj, rj))

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
