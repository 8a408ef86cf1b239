"""Exact n-best derivations, each chart entry's hypotheses made on demand.

n-best runs in two phases (Huang and Chiang 2005, "Better k-best
Parsing", Alg. 3).  The first is a forward pass in log space over the
chart's layout, the max-plus pass: each width's candidate scores,
``(lp[rule] + M_left) + M_right``, and each (span, lhs) entry's highest,
its max-plus score M (``_Lists`` runs it over the log probabilities and
their columns that the grammar keeps per probability vector,
``Grammar.weights.log``; the sum-product passes of ``chart`` compute
in scaled probability space instead).  The second makes
each entry's ranked hypotheses lazily, top-down from the root.
A lexical entry holds its one hypothesis; a span's hypotheses join a left
hypothesis with a right one under a candidate (rule, left child entry,
right child entry).  A hypothesis is a ``_Cell``: an incremental score, the
rule's log probability plus the two children's scores, with its rule id, its
split and its two children, so building one costs two float additions and no
count vector.

Ordering is by descending canonical log probability (``score_rules`` of
the subtree's rules) with the backpointer key as secondary
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
max-plus score.  A column is read back from the layout as a candidate only
when one of its joins is about to be popped.  A later join's key is an
upper bound on its score: the rule's log probability plus, for each child,
the highest incremental score in the child's window that holds the index.
Popping (i, j) pushes (i, j + 1), and (i + 1, 0) only when j is 0, so each
join but the first has one predecessor and none is pushed twice.  Before
join (i, j) is popped, the right child is asked for index j + 1 and, when
j is 0, the left child for i + 1 (at most n - 1 either way), which starts
a child not yet started.  A window is final once its lowest member lies
further than rounding distance above the top key, or the frontier is empty
(see ``_SLACK``).  The root is asked for n hypotheses; requests wait on an
explicit stack, not on Python recursion.  A request for an entry's index i
appends final windows until the entry holds i or is whole, and gives way
only when a join needs a child's hypothesis first: the child's request
goes above it and it resumes where it stopped.  A final window of one
hypothesis, the common case, is appended as it stands; only a longer one
is ranked.
"""
from __future__ import annotations

import numbers
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .chart import _cky, _Traversal
from .corpus import Bracketing
from .derivations import Derivation, score_rules
from .grammar import Grammar
from .logmath import NEG_INF


# Two derivations whose incremental scores differ by more than
# _SLACK * (m_a |score_a| + m_b |score_b|), for m rules in each, are ordered
# the same way by their canonical scores.  A derivation's m rule log
# probabilities l_t are all <= 0, so their exact sum S has |S| = sum |l_t|.
# The incremental score sums the l_t along the tree with m - 1 roundings and
# the canonical ``score_rules`` sums at most m rounded products c * l, so by
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
# (i, j) pushes (i, j + 1), and (i + 1, 0) when j = 0, so each join but the
# first has the one predecessor (i, j - 1), or (i - 1, 0) when j = 0, and
# none is pushed twice.  Every join not yet popped thus lies at the end of a
# path of such steps from a heap member; each step raises an index, so keys
# never increase along the path, and the top key U bounds its score.  Within
# a child's window the incremental order is not the canonical one, so joins
# are popped by their bound, never by their own score.  The popped joins'
# first window, with lowest member a, is final once a and U pass the cut test
# (or nothing is left to pop): by the straddling argument with U in the place
# of s_b, every join still to come lies beyond a cut from a.  So each window
# holds what it would in the complete sorted list, whatever order the joins
# were popped in.
_SLACK = 4 * 2.0**-53


@dataclass(slots=True)  # never changed once made; not frozen, which is slower to build
class _Cell:
    score: float  # incremental: lp[rule] + left.score + right.score
    rule_id: int
    split: int = 0  # where the left child's span ends; 0 for lexical entries
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
    in_language: bool

    def __len__(self) -> int:
        return len(self.derivations)


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
    return KBestList(derivations, bool(derivations))


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
    highest incremental score over its candidates (-inf where absent);
    ``widths[w]`` holds the candidate scores ``(lp[rule] + M_left) +
    M_right`` of the spans w tokens wide, their children and the spans'
    starts, column-major as ``chart._Width`` lays them out:
    ``scores[col, row]`` and ``children[:, col, row]`` for one column per
    (split, rule) and one row per (span, lhs); ``_row`` finds an entry's
    row from its span and left-hand side.  ``hyps[entry]`` holds a started
    entry's hypotheses so far and ``wmax[entry]``, for each, the highest
    incremental score in its window.  An entry that has started and is
    still open keeps in ``frontier`` its heap of ``(-key, column, left
    index, right index)`` joins, the joins popped but not yet in a final
    window, by descending score, its candidates by column as (rule log
    probability, rule id, split, left entry, right entry), each read back
    when a join of its column is first about to be popped, its width, its
    row and the slack of its cut test.  An entry in ``hyps`` but not in
    ``frontier`` holds its whole list, at most n long.  A request (entry,
    index) extends the entry until it holds the index or is whole, window
    by window (see ``ask`` and ``_extend``).  No data here refers back to
    the object, so it is freed without the cycle collector.
    """

    def __init__(self, g: Grammar, trav: _Traversal, n: int):
        self.g, self.n = g, n
        self.n1, _, self.n_nt = trav.shape
        self.lhs_row, self.rule_rows = g.binary_table_lists
        lp = g.log_probs
        # the max-plus pass: a candidate scores (lp[rule] + M_left) +
        # M_right, -inf where a child is absent or the column is padding
        w, columns = g.weights.log
        maxplus = self.maxplus = np.full(trav.size, NEG_INF)
        maxplus.put(trav.leaf_entry, w.take(trav.leaf_rule))
        self.widths: dict[int, tuple[np.ndarray, np.ndarray, Sequence[int]]] = {}
        for width in trav.widths:
            left, right = maxplus.take(width.children, mode="clip")
            scores = ((columns + left) + right).reshape(-1, len(width.entry))
            maxplus.put(width.entry, np.maximum.reduce(scores, axis=0))
            children = width.children.reshape(2, len(scores), -1)
            self.widths[width.width] = scores, children, width.starts
        self.hyps: dict[int, list[_Cell]] = {}
        self.wmax: dict[int, list[float]] = {}
        for entry, rule in zip(trav.leaf_entry.tolist(), trav.leaf_rule.tolist()):
            self.hyps[entry] = [_Cell(lp[rule], rule)]
            self.wmax[entry] = [lp[rule]]
        self.frontier: dict[int, tuple[list, list[_Cell], dict[int, tuple], int, int, float]] = {}

    def ask(self, entry: int, index: int) -> None:
        """Extend an entry's list until it holds ``index`` < n or is whole.

        Requests wait on an explicit stack: an entry that needs a child's
        hypothesis first pushes that request above its own, and a request
        is dropped once ``_extend`` returns without one.
        """
        hyps, frontier, extend = self.hyps, self.frontier, self._extend
        stack = [(entry, index)]
        while stack:
            top, i = stack[-1]
            have = hyps.get(top)
            if have is not None and (i < len(have) or top not in frontier):
                stack.pop()
                continue
            need = extend(top, i)
            if need:
                stack += need
            else:
                stack.pop()

    def _row(self, entry: int, start: int, width: int) -> int:
        """The row of a binary entry of span (start, start + width): its
        span's place among the width's spans times ``L``, plus its
        left-hand side's table row."""
        place = bisect_left(self.widths[width][2], start)
        return place * len(self.rule_rows) + self.lhs_row[entry % self.n_nt]

    def _start(self, entry: int) -> tuple:
        """Start an entry's frontier: the first join of every column of its
        row that scores above -inf, keyed by its max-plus score."""
        start, end = divmod(entry // self.n_nt, self.n1)
        width = end - start
        r = self._row(entry, start, width)
        row = self.widths[width][0][:, r].tolist()
        heap = [(-key, col, 0, 0) for col, key in enumerate(row) if key > NEG_INF]
        heapify(heap)
        self.hyps[entry], self.wmax[entry] = [], []
        slack = _SLACK * (2 * width - 1)  # rules in every hypothesis of the span
        state = self.frontier[entry] = (heap, [], {}, width, r, slack)
        return state

    def _candidate(self, width: int, r: int, col: int) -> tuple[int, int, int]:
        """Rule id and left and right child entries of column ``col`` of row
        ``r`` of a width, read from the layout (see ``chart._Width``)."""
        rules = self.rule_rows[r % len(self.rule_rows)]
        children = self.widths[width][1]
        return rules[col % len(rules)], children.item(0, col, r), children.item(1, col, r)

    def _extend(self, entry: int, index: int) -> list[tuple[int, int]]:
        """Append an open entry's final windows until it holds ``index`` or
        closes.  Returns instead the child requests (entry, index) that
        must be met first, if any, having stopped between two joins.

        A window of one hypothesis, the common case, is appended as it
        stands; a longer one is ranked canonically first.  The list is
        truncated at n, which closes the entry.
        """
        hyps, wmax, frontier, n = self.hyps, self.wmax, self.frontier, self.n
        state = frontier.get(entry)
        if state is None:
            state = self._start(entry)
        heap, pending, cands, width, r, slack = state
        mine, mine_wmax = hyps[entry], wmax[entry]
        while True:
            # a join not yet popped scores at most the top key U, so the
            # first window is final once its lowest member a passes the cut
            # test a - U > slack * (|a| + |U|) (see _SLACK); its top member
            # is tested first to skip the scan while the key is near, as
            # holding a final window back costs only more pops
            if pending:
                top = pending[0].score
                if heap:
                    bound = -heap[0][0]
                if not heap or top - bound > slack * -(top + bound):
                    k, low = 1, top
                    while k < len(pending):
                        score = pending[k].score
                        if low - score > slack * -(low + score):
                            break
                        k, low = k + 1, score
                    if k == 1 or not heap or low - bound > slack * -(low + bound):
                        if k == 1:
                            mine.append(pending[0])
                            mine_wmax.append(top)
                            del pending[0]
                        else:
                            window = pending[:k]
                            del pending[:k]
                            _rank(self.g, window)
                            mine += window
                            mine_wmax += [top] * k
                        if len(mine) >= n:
                            del mine[n:], mine_wmax[n:]
                            del frontier[entry]
                            return []
                        if len(mine) > index:
                            return []
                        continue
            if not heap:
                del frontier[entry]
                return []
            _, col, li, ri = heap[0]
            cand = cands.get(col)
            if cand is None:
                rule, left, right = self._candidate(width, r, col)
                split = left // self.n_nt % self.n1  # the left child's span (start, split)
                cand = cands[col] = (self.g.log_probs[rule], rule, split, left, right)
            lpr, rule, split, left, right = cand
            # popping (li, ri) pushes (li, ri + 1), and (li + 1, 0) when ri
            # is 0, so the children must first hold those indexes, where
            # they can (a child not yet started holds no hypotheses)
            lefts, rights = hyps.get(left), hyps.get(right)
            wait_right = rights is None or len(rights) <= ri + 1 and right in frontier
            if ri == 0 and (lefts is None or len(lefts) <= li + 1 and left in frontier):
                need = [(left, min(li + 1, n - 1))]
                if wait_right:
                    need.append((right, min(ri + 1, n - 1)))
                return need
            if wait_right:
                return [(right, min(ri + 1, n - 1))]
            lcell, rcell = lefts[li], rights[ri]
            cell = _Cell((lpr + lcell.score) + rcell.score, rule, split, lcell, rcell)
            if pending and cell.score > pending[-1].score:
                insort(pending, cell, key=_descending)
            else:
                pending.append(cell)
            # the heap's joins are distinct, so replacing its top pops the
            # same joins in the same order as a pop and a push
            if ri + 1 < len(rights):
                heapreplace(heap, (-((lpr + wmax[left][li]) + wmax[right][ri + 1]), col, li, ri + 1))
            else:
                heappop(heap)
            if ri == 0 and li + 1 < len(lefts):
                heappush(heap, (-((lpr + wmax[left][li + 1]) + wmax[right][0]), col, li + 1, 0))


def _rank(g: Grammar, window: list[_Cell]) -> None:
    """Sort a final window of several hypotheses canonically: by descending
    ``score_rules`` of its rules, then by backpointer key."""
    window.sort(key=lambda cell: (-score_rules(g, _preorder(cell)), _backpointer_key(cell)))


def _descending(cell: _Cell) -> float:
    return -cell.score


def _backpointer_key(cell: _Cell) -> list[int]:
    """Flattened (split, rule id) backpointers of a subtree in preorder, a
    lexical entry contributing its rule id alone; each cell holds its split."""
    key = []
    stack = [cell]
    while stack:
        cell = stack.pop()
        if cell.left is None:
            key.append(cell.rule_id)
            continue
        key += (cell.split, cell.rule_id)
        stack += (cell.right, cell.left)
    return key
