"""Exact n-best derivations, each chart entry's hypotheses made on demand.

n-best runs in two phases (Huang and Chiang 2005, "Better k-best
Parsing", Alg. 3).  The first is a forward pass in log space over the
chart's layout, the max-plus pass: each width's candidate scores,
``(lp[rule] + M_left) + M_right``, and each (span, lhs) entry's highest,
its max-plus score M.  ``_Lists`` runs it by ``chart._forward``, the loop
of the plain inside pass, in the max-plus semiring (Goodman 1999): over
the grammar's log probabilities and their columns,
``Grammar.weights.log``, with addition for the product and
``np.maximum.reduce`` folding each row.  The second makes
each entry's ranked hypotheses lazily, top-down from the root.
A lexical entry holds its one hypothesis; a span's hypotheses join a left
hypothesis with a right one under a candidate (rule, left child entry,
right child entry).  A hypothesis is a ``_Cell``: an incremental score, the
rule's log probability plus the two children's scores, with its rule id, its
split and its two children, so building one costs two float additions and no
count vector.  Once listed it also holds ``wmax``, the top incremental score
of its window, which the joins that use it as a child read for their keys.

Ordering is by descending canonical log probability (``score_rules`` of
the subtree's rules) with the backpointer key as secondary
criterion: the flattened (split, rule id) tuples of the hypothesis tree,
compared lexicographically.  An entry's list is a run of windows in
incremental-score order, with a cut after each window: the last member
of one and the first of the next lie further apart than rounding distance
(see ``_SLACK``).  Across a cut the incremental order is the canonical
one, so only windows with more than one member are ranked, by canonical
score and key, both rebuilt from the child references.  Whole windows are
kept until the list holds n hypotheses, and the last one is truncated
after ranking.  ``chart.viterbi`` is this engine at n = 1, so
``nbest(..., 1)`` returns the Viterbi derivation by construction.  With a
large enough n the result is the complete derivation set.

An entry starts when it is first asked for a hypothesis: its row is looked
up in one flat array filled from the layout's ``_Width.entry`` indexes, and
its heap frontier of joins (column, left index, right index) starts with
the first join of each column of that row that scores above -inf, keyed by
that column's max-plus score.  A column is read back from the layout as a
candidate only when one of its joins is about to be popped.  A later join's
key is an upper bound on its score: the rule's log probability plus, for
each child, the ``wmax`` of the child's hypothesis at the index.
Popping (i, j) pushes (i, j + 1), and (i + 1, 0) only when j is 0, so each
join but the first has one predecessor and none is pushed twice.  Before
join (i, j) is popped, the right child is asked for index j + 1 and, when
j is 0, the left child for i + 1 (at most n - 1 either way), which starts
a child not yet started.  The hypotheses popped and not yet appended are
one window, final once its lowest member lies further than rounding
distance above the top key, or the frontier is empty (see ``_SLACK``).
The root is asked for n hypotheses; requests wait on an explicit stack,
not on Python recursion.  A request for an entry's index i
appends final windows until the entry holds i or is whole, and gives way
only when a join needs a child's hypothesis first: the child's request
goes above it and it resumes where it stopped.  A final window of one
hypothesis, the common case, is appended as it stands; only a longer one
is ranked.
"""
from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .chart import _cky, _forward, _Traversal, _Width
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
# the incremental one across every cut: a block of hypotheses with a cut on
# either side, ranked canonically, takes its place in the complete canonical
# list, and two runs on either side of a cut, ranked as one, keep their
# incremental order.
#
# An entry makes its hypotheses lazily, joining child hypotheses i and j of a
# candidate only once a heap frontier pops (i, j).  The first join of each
# candidate is keyed by the candidate's max-plus score (lp[rule] + M_L) +
# M_R, M being the highest incremental score over an entry's candidates,
# computed bottom-up; every later join by (lp[rule] + wmax_L[i]) + wmax_R[j],
# where wmax[i], the ``wmax`` of the child's i-th hypothesis, is the
# highest incremental score in the child's window that holds index i.  By
# induction over widths, as IEEE rounding is monotone, every hypothesis of
# an entry has an incremental score at most its M, so wmax[i] <= wmax[0] <=
# M, and wmax never increases with i (windows are cut apart); hence a key bounds its join's score and every key past it.  Popping
# (i, j) pushes (i, j + 1), and (i + 1, 0) when j = 0, so each join but the
# first has the one predecessor (i, j - 1), or (i - 1, 0) when j = 0, and
# none is pushed twice.  Every join not yet popped thus lies at the end of a
# path of such steps from a heap member; each step raises an index, so keys
# never increase along the path, and the top key U bounds its score.  Within
# a child's window the incremental order is not the canonical one, so joins
# are popped by their bound, never by their own score.  The joins popped and
# not yet appended are one window; with lowest member a, it is final once a
# and U pass the cut test (or nothing is left to pop): by the straddling
# argument with U in the place of s_b, every join still to come lies beyond a
# cut from each of its members.  So the windows, each ranked, make the
# complete canonical list, whatever order the joins were popped in.  A window
# may hold a cut of its own, where a popped join scored far below its key;
# ranking it whole keeps the runs on either side in their order.
_SLACK = 4 * 2.0**-53


@dataclass(slots=True)  # not frozen, which is slower to build
class _Cell:
    score: float  # incremental: lp[rule] + left.score + right.score
    rule_id: int
    split: int = 0  # where the left child's span ends; 0 for lexical entries
    left: _Cell | None = None  # children; None for lexical entries
    right: _Cell | None = None
    # the top incremental score of its window, set once when it is listed;
    # every other field is never changed once made
    wmax: float = NEG_INF


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
    M_right`` of the spans w tokens wide, as ``chart._forward`` keeps them,
    and their children, column-major as ``chart._Width`` lays them out:
    ``scores[col, row]`` and ``children[:, col, row]`` for one column per
    (split, rule) and one row per (span, lhs), a column's rule id being read
    off ``g.binary_rule_table``.  ``row_of`` is a flat chart of
    each binary entry's row in its width, copied from the widths'
    ``entry`` arrays.  ``hyps[entry]`` holds a started entry's hypotheses
    so far, each with its window's top score.  An entry that has started
    and is still open keeps in ``frontier`` its heap of ``(-key, column,
    left index, right index)`` joins, the joins popped but not yet
    appended, one window by descending incremental score, its candidates by
    column as (rule log probability, rule id, split, left entry, right
    entry), each read back when a join of its column is first about to be
    popped, its width, its row and the slack of its cut test.  An entry in
    ``hyps`` but not in ``frontier`` holds its whole list, at most n long.  A request (entry,
    index) extends the entry until it holds the index or is whole, window
    by window (see ``ask`` and ``_extend``).  No data here refers back to
    the object, so it is freed without the cycle collector.
    """

    def __init__(self, g: Grammar, trav: _Traversal, n: int):
        self.g, self.n = g, n
        self.n1, _, self.n_nt = trav.shape
        lp = g.log_probs
        # the max-plus pass: a candidate scores (lp[rule] + M_left) +
        # M_right, -inf where a child is absent or the column is padding
        kept: list[tuple[_Width, np.ndarray]] = []
        self.maxplus = _forward(trav, g.weights.log, np.add, np.maximum.reduce, kept)
        self.widths: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.row_of = np.zeros(trav.size, dtype=np.intp)
        for width, scores in kept:
            self.widths[width.width] = (scores, width.children.reshape(2, len(scores), -1))
            self.row_of[width.entry] = np.arange(len(width.entry))
        self.hyps: dict[int, list[_Cell]] = {}
        for entry, rule in zip(trav.leaf_entry.tolist(), trav.leaf_rule.tolist()):
            self.hyps[entry] = [_Cell(lp[rule], rule, wmax=lp[rule])]
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

    def _start(self, entry: int) -> tuple:
        """Start an entry's frontier: the first join of every column of its
        row, looked up in ``row_of``, that scores above -inf, keyed by its
        max-plus score."""
        start, end = divmod(entry // self.n_nt, self.n1)
        width, r = end - start, self.row_of.item(entry)
        row = self.widths[width][0][:, r].tolist()
        heap = [(-key, col, 0, 0) for col, key in enumerate(row) if key > NEG_INF]
        heapify(heap)
        self.hyps[entry] = []
        slack = _SLACK * (2 * width - 1)  # rules in every hypothesis of the span
        state = self.frontier[entry] = (heap, [], {}, width, r, slack)
        return state

    def _candidate(self, width: int, r: int, col: int) -> tuple[int, int, int]:
        """Rule id and left and right child entries of column ``col`` of row
        ``r`` of a width: the rule is slot ``col % Q`` of table row ``r % L``
        of ``binary_rule_table``, of shape (L, Q), and the children are read
        from the width's layout (see ``chart._Width``)."""
        table = self.g.binary_rule_table
        children = self.widths[width][1]
        rule = table.item(r % table.shape[0], col % table.shape[1])
        return rule, children.item(0, col, r), children.item(1, col, r)

    def _extend(self, entry: int, index: int) -> list[tuple[int, int]]:
        """Append an open entry's final windows until it holds ``index`` or
        closes.  Returns instead the child requests (entry, index) that
        must be met first, if any, having stopped between two joins.

        Every hypothesis popped and not yet appended is in one window,
        final once its lowest member passes the cut test against the top
        key, or no join is left (see ``_SLACK``).  A window of one
        hypothesis, the common case, is appended as it stands; a longer
        one is ranked canonically first.  Each member's ``wmax`` is set,
        as it is appended, to the window's top incremental score, and a
        join's key reads it from its two children.  The list is truncated
        at n, which closes the entry.
        """
        hyps, frontier, n = self.hyps, self.frontier, self.n
        state = frontier.get(entry)
        if state is None:
            state = self._start(entry)
        heap, pending, cands, width, r, slack = state
        mine = hyps[entry]
        while True:
            # a join not yet popped scores at most the top key U, so the
            # popped joins are a final window once their lowest member a
            # passes the cut test a - U > slack * (|a| + |U|) (see _SLACK)
            if pending:
                low = pending[-1].score
                if heap:
                    bound = -heap[0][0]
                if not heap or low - bound > slack * -(low + bound):
                    top = pending[0].score
                    for cell in pending:
                        cell.wmax = top
                    if len(pending) > 1:
                        _rank(self.g, pending)
                    mine += pending
                    pending.clear()
                    if len(mine) >= n:
                        del mine[n:]
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
                heapreplace(heap, (-((lpr + lcell.wmax) + rights[ri + 1].wmax), col, li, ri + 1))
            else:
                heappop(heap)
            if ri == 0 and li + 1 < len(lefts):
                heappush(heap, (-((lpr + lefts[li + 1].wmax) + rcell.wmax), col, li + 1, 0))


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
