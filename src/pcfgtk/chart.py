"""Span-based dynamic programming over CNF grammars, one width at a time.

One CKY layout, ``_cky``, serves every parser in the package.  It checks
the sentence and the brackets once and lists, for each width, the binary
candidates of every bracket-compatible span as dense index arrays: one row
per (span, left-hand side), one column per (split, rule), so that each row
holds its candidates in ascending (split, rule id) order.  Charts are flat
arrays over the (n + 1) x (n + 1) x |N| cells, an absent entry being -inf
(or False); a candidate whose child is absent scores -inf.  Chart spans
that cross a bracket get no row, which restricts every task to derivations
whose constituents all nest with the brackets; an empty bracketing is
identical to none.

``inside`` gathers each width's left and right child masses with one
``take`` and reduces every row to the log of its summed exponentials, so
its full-span start entry is the log string probability (the sum over all
derivations).  ``expected_counts`` runs the same inside pass over arbitrary
rule weights and walks the rows back top-down (the outside pass) for
expected rule counts.  ``viterbi`` keeps each row's highest incremental
score, falling back to the canonical count-ordered score only for rows
with two candidates within rounding distance.  ``kbest.nbest`` reads each
width's rows as per-(span, lhs) candidate lists and keeps the top n
incremental-score cells, ranking them canonically only within rounding
distance of each other.

Every result is bit-identical to the span-by-span scalar chart this layout
replaced (kept in the tests as the reference).  Elementwise addition,
subtraction and multiplication, maximum and comparison are exact in IEEE
arithmetic, so numpy computes them as the scalar code did: a candidate
scores ``(weight + left) + right``, the order of ``w[rule] + left +
right``.  Exponentials and logarithms are ``math.exp`` and ``math.log`` on
the finite values only, and every sum runs left to right in the scalar
code's order, by ``np.add.accumulate`` along a row or ``np.add.at`` (which
adds its terms one at a time in index order); ``np.exp``, ``np.log`` and
pairwise reductions such as ``np.sum`` round differently and are never used.

All functions are pure; one immutable grammar may be shared by concurrent
calls over different sentences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .corpus import Bracketing
from .derivations import Derivation, score_rules
from .grammar import Grammar
from .logmath import NEG_INF


class UnknownTokenError(ValueError):
    """A sentence token is not a terminal of the grammar."""

    def __init__(self, token: str, position: int):
        super().__init__(f"token {token!r} at position {position} is not a terminal")
        self.token = token
        self.position = position


class _Width(NamedTuple):
    """The binary candidates of every compatible span of one width.

    With ``L, Q = g.binary_rule_table.shape``, row ``s * L + a`` holds the
    candidates of the span starting at ``starts[s]`` whose left-hand side is
    table row ``a``; column ``k * Q + q`` holds split ``starts[s] + 1 + k``
    and that table row's ``q``-th rule.  Each row thus lists its candidates
    in ascending (split, rule id) order.  ``children`` has shape
    (2, spans, L, splits, Q): the flat chart index of each candidate's left
    and right child.  At padding it lies past the chart: read with
    ``take(..., mode="clip")`` it lands on cell (n, n, |N| - 1), which no
    span fills.
    """

    size: int  # rules in any derivation of a span this wide: 2 * width - 1
    starts: np.ndarray
    entry: np.ndarray  # flat chart index of each row's (span, lhs) entry
    children: np.ndarray


class _Traversal(NamedTuple):
    """A checked sentence and its candidates, width by width.

    Charts are flat arrays over the (i, j, nonterminal) cells, the flat
    index of cell (i, j, a) being ``(i * (n + 1) + j) * |N| + a``.
    ``widths()`` lays out one width at a time, narrowest first, so that only
    the width being filled holds its index arrays.
    """

    tokens: list[str]
    shape: tuple[int, int, int]  # (n + 1, n + 1, |N|)
    root: int  # flat index of the start symbol's full-span entry
    leaf_entry: np.ndarray  # flat index of each lexical entry, by position
    leaf_rule: np.ndarray  # and its lexical rule id
    widths: Callable[[], Iterator[_Width]]

    @property
    def size(self) -> int:
        """Cells in a flat chart."""
        n1, _, n_nt = self.shape
        return n1 * n1 * n_nt


def _cky(g: Grammar, sentence, brackets: Bracketing | None) -> _Traversal:
    """Check a sentence and its brackets and lay out its CKY candidates.

    The layout depends only on the grammar's rule set, the sentence length
    and the brackets: spans that cross a bracket get no row, and whether a
    candidate's children exist is for each task to read off its own chart.
    """
    tokens = list(sentence)
    if not tokens:
        raise ValueError("sentence is empty")
    n = len(tokens)
    n1, n_nt = n + 1, len(g.nonterminals)
    leaf_entry, leaf_rule = [], []
    for i, tok in enumerate(tokens):
        rules = g.rules_for_terminal(tok)
        if not rules:
            raise UnknownTokenError(tok, i)
        base = (i * n1 + i + 1) * n_nt
        for rule in rules:
            leaf_entry.append(base + g.nt_index[rule.lhs])
            leaf_rule.append(rule.id)
    if brackets is not None and brackets.max_position() > n:
        raise ValueError(f"bracket span exceeds sentence length {n}")

    def widths() -> Iterator[_Width]:
        table = g.binary_rule_table
        if not table.size:
            return
        # a candidate of span (i, i + w) at split i + k has its children at
        # cells (i, i + k, B) and (i + k, i + w, C): i * stride past those
        # of span (0, w), which lie k * n_nt + B and k * n1 * n_nt + C past
        # cells (0, 0, 0) and (0, w, 0); padding columns point past the chart
        stride = (n1 + 1) * n_nt
        steps = np.array([n_nt, n1 * n_nt])[:, None, None, None]
        offsets = steps * np.arange(1, n)[:, None] + g.binary_table_rhs[:, :, None, :]
        offsets = np.where((table < 0)[:, None, :], n1 * n1 * n_nt, offsets)
        # ends[:, w, i]: i * stride, and i * stride + w * n_nt for the right
        # child and the entry
        ends = np.arange(n) * stride + np.array([[0], [n_nt]])[:, :, None] * np.arange(n1)[:, None]
        entries = ends[1][:, :, None] + g.binary_table_lhs
        ok = None if brackets is None else brackets.compatible_spans(n)
        for width in range(2, n + 1):
            if ok is None:
                starts = np.arange(n - width + 1)
                base, entry = ends[:, width, : len(starts)], entries[width, : len(starts)]
            else:
                starts = ok.diagonal(width).nonzero()[0]
                if not starts.size:
                    continue
                base, entry = ends[:, width].take(starts, axis=1), entries[width].take(starts, axis=0)
            children = base[:, :, None, None, None] + offsets[:, None, :, : width - 1]
            yield _Width(2 * width - 1, starts, entry.ravel(), children)

    root = n * n_nt + g.nt_index[g.start]
    return _Traversal(
        tokens, (n1, n1, n_nt), root, np.array(leaf_entry), np.array(leaf_rule), widths
    )


def _column_weights(g: Grammar, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weights by rule id with -inf appended, and those of the
    ``binary_rule_table`` entries shaped to broadcast over a width's
    candidates (-inf at padding)."""
    w = np.empty(len(g.rules) + 1)
    w[:-1] = weights
    w[-1] = NEG_INF
    return w, w.take(g.binary_rule_table)[:, None, :]


def _scores(chart: np.ndarray, columns: np.ndarray, width: _Width) -> np.ndarray:
    """Candidate scores, one row per (span, lhs): ``(weight + left) + right``,
    the operations of the scalar ``w[rule] + left + right``; -inf where a
    child is absent or the column is padding."""
    left, right = chart.take(width.children, mode="clip")
    return ((columns + left) + right).reshape(len(width.entry), -1)


def _inside_pass(g: Grammar, trav: _Traversal, weights, kept: list | None = None) -> np.ndarray:
    """Flat chart of inside log masses under log rule ``weights``; each
    width and its candidate scores are appended to ``kept`` if given.

    Each entry is ``m + log(sum(exp(s - m)))`` over its candidate scores s
    with maximum m: ``math.exp`` of each finite difference, summed left to
    right by ``np.add.accumulate`` along the row (the padding zeros add
    nothing), then ``math.log``, exactly as ``logmath.logsumexp``.
    """
    w, columns = _column_weights(g, weights)
    chart = np.full(trav.size, NEG_INF)
    chart[trav.leaf_entry] = w[trav.leaf_rule]
    for width in trav.widths():
        scores = _scores(chart, columns, width)
        if kept is not None:
            kept.append((width, scores))
        top = np.maximum.reduce(scores, axis=1)
        finite = (scores > NEG_INF).ravel().nonzero()[0]
        diffs = scores.take(finite) - top.take(finite // scores.shape[1])
        terms = np.zeros(scores.shape)
        terms.put(finite, list(map(math.exp, diffs.tolist())))
        totals = np.add.accumulate(terms, axis=1, out=terms)[:, -1].tolist()
        # a row without candidates sums to 0 and keeps -inf
        chart.put(width.entry, top + [math.log(t) if t else 0.0 for t in totals])
    return chart


def _candidate_lists(g: Grammar, width: _Width, present: np.ndarray, cells: dict) -> list:
    """The rows of a width with a candidate whose children are both
    ``present`` (a flat boolean chart, marked here for the rows listed), as
    ``(entry, [(rule id, left cell, right cell), ...])``: the children's
    ``cells`` looked up by flat chart index, and the candidates in
    ascending (split, rule id) order."""
    left, right = present.take(width.children, mode="clip")
    rows, cols = (left & right).reshape(len(width.entry), -1).nonzero()
    left, right = width.children.reshape(2, len(width.entry), -1)[:, rows, cols].tolist()
    table = g.binary_rule_table
    n_lhs, n_rules = table.shape
    table, entries = table.tolist(), width.entry.tolist()
    lists: dict[int, list] = {}
    for row, col, left, right in zip(rows.tolist(), cols.tolist(), left, right):
        rule = table[row % n_lhs][col % n_rules]
        lists.setdefault(entries[row], []).append((rule, cells[left], cells[right]))
    present.put(list(lists), True)
    return list(lists.items())


@dataclass(frozen=True)
class InsideChart:
    """Inside log masses: ``table[i, j, a]`` for span (i, j) and nonterminal a.

    Axis order follows ``grammar.nonterminals``; unused cells hold -inf.
    """

    grammar: Grammar
    sentence: tuple[str, ...]
    table: np.ndarray

    def logmass(self, i: int, j: int, nonterminal: str) -> float:
        """Inside log mass of a span, 0 <= i < j <= len(sentence)."""
        if not 0 <= i < j <= len(self.sentence):
            raise ValueError(f"span ({i}, {j}) is not within 0 <= i < j <= {len(self.sentence)}")
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
    trav = _cky(g, sentence, brackets)
    table = _inside_pass(g, trav, g.log_probs).reshape(trav.shape)
    return InsideChart(g, tuple(trav.tokens), table)


def expected_counts(
    g: Grammar, sentence, weights, brackets: Bracketing | None = None
) -> tuple[float, np.ndarray]:
    """Log total mass and expected rule counts over the complete derivation set.

    A derivation weighs the exp of its rules' ``weights`` (log weights
    indexed by rule id; ``g.log_probs`` gives probabilities, ``eta *
    g.log_probs`` gives ``p ** eta``).  With brackets, only derivations that
    nest with every bracket count.  Returns log Z, the log of the summed
    weights, and the float64 array of sum_d (w(d) / Z) N(rule, d) indexed by
    rule id; ``(-inf, zeros)`` when the sentence has no (compatible)
    derivation.

    The inside pass is ``inside``'s, run over the given weights, so with
    ``g.log_probs`` its total is bit-identical to ``inside``'s.  The
    outside pass is its backward pass (Eisner 2016): widest spans first,
    right to left, each entry hands its posterior probability to its
    candidates in proportion to exp(candidate score - entry mass), and each
    candidate passes its share to its rule's count and to both children.
    Within a span, entries go in the order of their first candidates and
    ``np.add.at`` adds the shares one at a time, so every float sum is added
    up in the scalar chart's order.
    """
    trav = _cky(g, sentence, brackets)
    by_width: list[tuple[_Width, np.ndarray]] = []
    chart = _inside_pass(g, trav, weights, by_width)
    if chart[trav.root] == NEG_INF:
        return NEG_INF, np.zeros(len(g.rules))
    table = g.binary_rule_table
    n_lhs, n_rules = table.shape
    n_splits = len(trav.tokens) - 1  # at most, in any span
    # by table row and column: the rule id, and the order of a row whose
    # first candidate it is, split * |R| + rule id
    col = np.arange(n_splits * n_rules)
    col_rule = table[:, col % n_rules]
    col_order = col // n_rules * len(g.rules) + col_rule
    span_of, lhs_of = np.divmod(np.arange(n_splits * n_lhs), n_lhs)
    span_order = span_of * (len(col) * len(g.rules))  # beyond any col_order
    counts = np.zeros(len(g.rules))
    flow = np.zeros(trav.size)
    flow[trav.root] = 1.0
    # every candidate's children are narrower than its entry, so each flow
    # is complete before it is passed on
    for width, scores in reversed(by_width):
        n_rows, n_cols = scores.shape
        present = scores > NEG_INF
        # rows right to left, a span's rows in the order of their first
        # candidates, each row's candidates in order
        first = col_order[lhs_of[:n_rows], present.argmax(axis=1)]
        order = (first - span_order[:n_rows]).argsort()
        rows, cols = present.take(order, axis=0).nonzero()
        rows = order.take(rows)
        at = rows * n_cols + cols
        entry = width.entry.take(rows)
        shares = flow.take(entry) * list(
            map(math.exp, (scores.take(at) - chart.take(entry)).tolist())
        )
        np.add.at(counts, col_rule[lhs_of.take(rows), cols], shares)
        np.add.at(flow, width.children.reshape(2, -1)[:, at].T.ravel(), shares.repeat(2))
    np.add.at(counts, trav.leaf_rule[::-1], flow.take(trav.leaf_entry[::-1]))
    return float(chart[trav.root]), counts


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
#
# ``kbest.nbest`` sorts a cell's hypotheses by incremental score and cuts the
# list wherever two neighbours a, b lie more than _SLACK * m (|s_a| + |s_b|)
# apart.  In CNF every hypothesis of a cell over width w has the same rule
# count m = 2w - 1, so this is the bound above.  A cut also separates every
# pair x, y that straddles it (s_x >= s_a > s_b >= s_y, all <= 0): s_x - s_y
# exceeds the gap s_a - s_b by (s_x - s_a) + (s_b - s_y), while the pair's
# slack exceeds the neighbours' by _SLACK * m ((s_b - s_y) - (s_x - s_a)),
# which is less because _SLACK * m < 1.  So the canonical order agrees with
# the incremental one across every cut, and only the windows between cuts
# need canonical ranking.
#
# ``viterbi`` takes each row's highest incremental score M.  Its window is
# s >= M (1 + 3c), c = _SLACK * m: a candidate below it has d = M - s >
# 3c |M| (M <= 0), and as |s| = |M| + d, d > c (|s| + |M|) follows from
# d (1 - c) > 2c |M|, true because 3c > 2c / (1 - c); rounding the product
# M (1 + 3c), where 1 + 3c is exact, costs less than one part in 2**53 of
# |M|, far inside the spare c |M|.  So every candidate outside the window
# is canonically below the one scoring M.  A window of one candidate is the
# row's unique canonical maximum; a wider one holds every canonical maximum,
# and its first in (split, rule id) order wins.  That is the candidate a
# sequential scan in that order keeps when it replaces its best only on a
# strictly higher canonical score.
_SLACK = 4 * 2.0**-53


class _Backpointers:
    """A Viterbi chart's backpointers, walked into rule lists.

    A binary entry keeps its winning column ``k * Q + q`` of its row (see
    ``_Width``): split ``i + 1 + k`` and the row's ``q``-th rule, the
    (split, rule id) pair in one integer.  A lexical entry keeps its rule id.
    """

    def __init__(self, g: Grammar, trav: _Traversal):
        self.g = g
        self.n1, _, self.n_nt = trav.shape
        self.code = np.zeros(trav.size, dtype=np.intp)
        self.code[trav.leaf_entry] = trav.leaf_rule
        self.subtrees: dict[int, list[int]] = {}
        table = g.binary_rule_table.tolist()
        left, right = g.binary_table_rhs.tolist()
        # per table row, (rule id, left child, right child) of each column q
        self.columns = [list(zip(*row)) for row in zip(table, left, right)]
        self.row_of = {a: row for row, a in enumerate(g.binary_table_lhs.tolist())}

    def candidate(self, i: int, j: int, row: int, col: int) -> tuple[int, int, int]:
        """Rule id and left and right child entries of column ``col`` of
        span (i, j) and table row ``row``."""
        k, q = divmod(col, len(self.columns[row]))
        rule, b, c = self.columns[row][q]
        k += i + 1
        return rule, (i * self.n1 + k) * self.n_nt + b, (k * self.n1 + j) * self.n_nt + c

    def preorder(self, entry: int) -> list[int]:
        """Rule ids of the subtree under a finished entry, in
        leftmost-derivation order (kept for the entries above it)."""
        memo = self.subtrees
        stack = [entry]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            span, a = divmod(top, self.n_nt)
            i, j = divmod(span, self.n1)
            code = int(self.code[top])
            if j == i + 1:
                memo[top] = [code]
                continue
            rule, left, right = self.candidate(i, j, self.row_of[a], code)
            if left in memo and right in memo:
                memo[top] = [rule, *memo[left], *memo[right]]
            else:
                stack += (right, left)
        return memo[entry]

    def break_tie(self, width: _Width, row: int, cols: list[int]) -> int:
        """The first of a row's columns with the highest canonical score."""
        s, table_row = divmod(row, len(self.columns))
        i = int(width.starts[s])
        j = i + (width.size + 1) // 2
        top = None
        for col in cols:
            rule, left, right = self.candidate(i, j, table_row, col)
            score = score_rules(self.g, [rule, *self.preorder(left), *self.preorder(right)])
            if top is None or score > top:
                top, winner = score, col
        return winner


def viterbi(
    g: Grammar, sentence, brackets: Bracketing | None = None
) -> tuple[Derivation, float] | None:
    """Best derivation of the sentence and its log probability.

    Each entry keeps the candidate with the highest canonical score (the
    count-ordered ``score_counts`` of its subtree), ties broken by the
    smallest (split, rule id) backpointer, so the result is deterministic
    even when several derivations have exactly equal probability.  Entries
    carry an incremental score instead of a count vector, and a (split,
    rule id) backpointer.  A row with no other candidate within rounding
    distance of its highest incremental score M (see ``_SLACK``) keeps the
    candidate scoring M, its unique canonical maximum; otherwise the
    candidates within that distance are compared by their canonical scores,
    rebuilt from the backpointers, and the first highest wins, as in a
    sequential scan of the row.  The returned log probability is canonical.
    Returns None when the sentence has no (bracket-compatible) derivation.
    """
    trav = _cky(g, sentence, brackets)
    lp, columns = _column_weights(g, g.log_probs)
    chart = np.full(trav.size, NEG_INF)
    chart[trav.leaf_entry] = lp[trav.leaf_rule]
    back = _Backpointers(g, trav)
    for width in trav.widths():
        scores = _scores(chart, columns, width)
        best = scores.argmax(axis=1)
        top = np.maximum.reduce(scores, axis=1)
        # the window of every row (see _SLACK); dead rows have M = -inf
        near = scores >= (top * (1 + 3 * _SLACK * width.size))[:, None]
        ties = (np.add.reduce(near, axis=1) > 1) & (top > NEG_INF)
        for row in ties.nonzero()[0].tolist():
            best[row] = back.break_tie(width, row, near[row].nonzero()[0].tolist())
            top[row] = scores[row, best[row]]
        chart.put(width.entry, top)
        back.code.put(width.entry, best)
    if chart[trav.root] == NEG_INF:
        return None
    d = Derivation.build(g, back.preorder(trav.root), len(trav.tokens))
    return d, d.log_prob
