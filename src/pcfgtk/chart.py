"""Span-based dynamic programming over CNF grammars, one width at a time.

Every parser in the package reads one CKY layout.  For each width it lists
the binary candidates of every span as dense index arrays: one row per
(span, left-hand side), one column per (split, rule), so that each row
holds its candidates in ascending (split, rule id) order.  The arrays are
column-major: each column is one contiguous vector over the width's rows,
so a pass folds a row by adding one column after another.  Charts are flat
arrays over the (i, j, nonterminal) cells, an absent entry being 0 (a
scaled mass) or -inf (a log score), as is a candidate whose child is
absent.

The layout depends only on the grammar's rule set and the sentence length,
and a chart's flat index has the fixed stride n_max + 1 of the longest
sentence the grammar has parsed, so a span's entry and child indexes are
the same at every length and a shorter sentence's layout is a prefix of
the longer one's.  A grammar therefore keeps one layout, in the
``layout_slot`` its ``with_probs`` copies share, built on demand by
``_build_layout`` at the longest length so far and rebuilt only for a
longer sentence; it also keeps, for every length up to its own, the views
that list the first spans of each width.  ``_cky`` checks a sentence and
its brackets and takes the views of its length, or only the
bracket-compatible rows.  Chart spans that cross a bracket get no row,
which restricts every task to derivations whose constituents all nest with
the brackets; an empty bracketing is identical to none.

The sum-product tasks share one forward pass, ``_inside_pass``, whose
entries are in scaled form, as in semiring parsing (Goodman 1999): each is
a float mantissa in [0.5, 1) and an integer exponent, its value m * 2**e,
and an absent entry has mantissa 0.  Where every rule weight and every
entry lies within a proven range of exponents, the plain pass computes
them in plain float64 (a candidate's mass is a product of three floats,
an entry's the sum of its row) and ``frexp`` splits the chart at the end;
elsewhere the scaled pass computes in mantissas and exponents throughout,
so no mass overflows or underflows however long the sentence or extreme
the weights.  Both give the same bits wherever the first applies (see
``_E_MIN``), and neither takes an exponential: only a rule weight's split
(``logmath.exp_split``) does, one ``math.exp`` per rule where the weights
are not the grammar's own probabilities, which ``frexp`` splits exactly.
Every pass reads its rule weights, in each form it computes in, from one
``grammar.PassWeights`` value.  ``inside`` runs the pass over the grammar's
probabilities and keeps its scaled chart; it takes the log of a cell only
when read (``logmath.log_scaled``), so its full-span start entry gives the
log string probability (the sum over all derivations) for one
``math.log``.  ``log_total`` runs it over any weights of the grammar's rule
set and reads that entry alone.  ``expected_counts`` runs the scaled pass
over any such weights and walks the rows back top-down (the outside pass)
for expected rule counts, each entry's share being a candidate's term over
its row's total.
The plain pass and ``kbest``'s max-plus pass are one loop, ``_forward``,
in two semirings (Goodman 1999): the plain pass gives it multiplication
and ``_row_sums``, and ``kbest.nbest`` addition and ``np.maximum.reduce``
over the same value's log weights, so that a candidate's term is
``(w * left) * right`` or ``(w + left) + right``.  ``kbest`` keeps each
width's candidate scores, looks up an entry's row in a flat array filled
from ``_Width.entry``, and reads a column back as a candidate (its rule id
from ``binary_rule_table``, its children from ``_Width.children``) only
for the entries a parent asks for, making their hypotheses top-down from
the root and ranking them canonically only within rounding distance of
each other.
``viterbi`` is the first entry of that list, made by the same engine at
n = 1, so this module holds no tie-breaking or rounding logic.

Every result is bit-identical to the span-by-span scalar chart of the
tests, which performs the same operations one candidate at a time, whatever
the grammar parsed before: the stride moves only index arithmetic.
Elementwise addition, subtraction, multiplication and division, maximum,
comparison, ``ldexp`` and ``frexp`` are exact or correctly rounded in IEEE
arithmetic, so numpy computes them as the scalar code does, on any host: a
candidate's mantissa is ``(m_rule * m_left) * m_right`` and its exponent
``(e_rule + e_left) + e_right``.  Only the logarithms (and a split's
exponentials) come from the C library: ``math.log`` on the cells read,
as in the scalar code.  Every sum runs left to right in the scalar
code's order: a row by ``_row_sums``, which adds one column at a time to all
of a width's rows, and the outside pass by ``np.add.at`` (which adds its
terms one at a time in index order); ``np.exp``, ``np.log`` and pairwise
reductions such as ``np.sum``, or ``np.add.reduce`` along a single row,
round differently and are never used.

A call builds nothing that depends on the grammar or its weights alone.
The layout and the lexical rules of each terminal
(``Grammar.terminal_leaves``) are kept per rule set.  The weights, by rule
id and gathered into the columns of ``binary_rule_table``, come as a
``PassWeights`` value: the grammar's own (``Grammar.weights``), kept per
probability vector, or one that the caller made by ``Grammar.weights_of``
(for ``eta * g.log_probs`` with eta other than 1, say) once for every
sentence it weighs.  Nothing is kept per sentence.

All functions are pure; one grammar may be shared by concurrent calls over
different sentences.  A kept layout is read-only and never changed; a call
that needs a longer one builds it under the slot's lock and replaces the
slot's reference, and each call reads the layout it took throughout.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .corpus import Bracketing
from .derivations import Derivation
from .grammar import Grammar, PassWeights
from .logmath import NEG_INF, ZERO_EXPONENT, log_scaled, log_split


class UnknownTokenError(ValueError):
    """A sentence token is not a terminal of the grammar."""

    def __init__(self, token: str, position: int):
        super().__init__(f"token {token!r} at position {position} is not a terminal")
        self.token = token
        self.position = position


class _Width(NamedTuple):
    """The binary candidates of every compatible span of one width,
    column-major.

    With ``L, Q = g.binary_rule_table.shape``, row ``s * L + a`` holds the
    candidates of the ``s``-th compatible span of this width (by start)
    whose left-hand side is that of table row ``a``'s rules, its flat chart
    index being ``entry[s * L + a]``: the one record of which span and
    left-hand side a row holds, from which ``kbest`` looks up an entry's
    row.  Column ``k * Q + q`` holds the span's ``k``-th split and that
    table row's ``q``-th rule.
    Each row thus lists its candidates in ascending (split, rule id) order.
    ``children`` has shape (2, splits, Q, spans, L): the flat chart index of
    each candidate's left and right child, so that each column is one
    contiguous run over the rows and the rule id and children of a column
    are read from ``binary_rule_table`` and ``children`` alone.  At padding
    a child index lies past every chart of the stride: read with
    ``take(..., mode="clip")`` it lands on the chart's last cell (n, n1 - 1,
    |N| - 1), which no span fills.
    """

    width: int  # tokens in each span
    entry: np.ndarray  # flat chart index of each row's (span, lhs) entry
    children: np.ndarray


class _Layout(NamedTuple):
    """The read-only candidates of every span of every sentence of at most
    ``n1 - 1`` tokens: ``plain[n]`` holds the ``_Width`` views of an
    n-token sentence, narrowest first, each listing every span by start,
    and ``plain[n1 - 1]`` the arrays they are views of."""

    n1: int  # the stride: the longest length laid out, plus one
    plain: tuple[tuple[_Width, ...], ...]


def _build_layout(g: Grammar, n_max: int) -> _Layout:
    """Lay out the candidates of every span of an n_max-token sentence, and
    view them for every shorter one.

    The layout is the one encoding of the binary rules that every pass
    reads, derived here from the grammar's ``binary_rule_table``: a row's
    left-hand side is ``rule_lhs_index`` of its table row's first rule, and
    a rule slot's children are the right-hand side of its rule in
    ``g.rules``, 0 at padding.
    """
    n1, n_nt = n_max + 1, len(g.nonterminals)
    table = g.binary_rule_table
    if not table.size:
        return _Layout(n1, ((),) * n1)
    n_lhs = table.shape[0]
    # a candidate of span (i, i + w) at split i + k has its children at
    # cells (i, i + k, B) and (i + k, i + w, C): i * stride past those of
    # span (0, w), which lie k * n_nt + B and k * n1 * n_nt + C past cells
    # (0, 0, 0) and (0, w, 0); padding columns point past every chart.
    # offsets[:, k - 1, q, a] is split k and rule slot q of table row a
    stride = (n1 + 1) * n_nt
    steps = np.array([n_nt, n1 * n_nt])[:, None, None, None]
    # the children's nt_index of each binary rule by id, 0 at padding (rule
    # id -1, the last)
    rhs = [[g.nt_index[s] for s in r.rhs] if len(r.rhs) == 2 else [0, 0] for r in g.rules]
    rhs = np.array(rhs + [[0, 0]]).T.take(table.T, axis=1)[:, None]
    offsets = steps * np.arange(1, n_max)[:, None, None] + rhs
    offsets = np.where(table.T < 0, n1 * n1 * n_nt, offsets)
    # ends[:, w, i]: i * stride, and i * stride + w * n_nt for the right
    # child and the entry
    ends = np.arange(n_max) * stride + np.array([[0], [n_nt]])[:, :, None] * np.arange(n1)[:, None]
    entries = ends[1][:, :, None] + g.rule_lhs_index.take(table[:, 0])
    entries.flags.writeable = False
    full = []
    for width in range(2, n_max + 1):
        spans = n_max - width + 1
        children = np.add(
            offsets[:, : width - 1, :, None, :], ends[:, width, None, None, :spans, None], order="C"
        )
        children.flags.writeable = False
        full.append((width, entries[width, :spans].ravel(), children))
    # a shorter sentence's rows are a prefix of each column
    plain = [
        tuple(
            _Width(width, entry[: (n - width + 1) * n_lhs], children[:, :, :, : n - width + 1])
            for width, entry, children in full[: n - 1]
        )
        for n in range(2, n1)
    ]
    return _Layout(n1, ((), ()) + tuple(plain))


def _layout(g: Grammar, n: int) -> _Layout:
    """The grammar's kept layout, first rebuilt at n tokens if it is shorter."""
    slot = g.layout_slot
    layout = slot.layout
    if layout is None or layout.n1 <= n:
        with slot.lock:
            layout = slot.layout
            if layout is None or layout.n1 <= n:
                layout = slot.layout = _build_layout(g, n)
    return layout


class _Traversal(NamedTuple):
    """A checked sentence and its candidates, width by width.

    Charts are flat arrays over the (i, j, nonterminal) cells, the flat
    index of cell (i, j, a) being ``(i * n1 + j) * |N| + a`` with the
    layout's stride ``n1`` (at least n + 1), so ``shape`` is (n1, n1, |N|);
    a chart holds only the first n + 1 rows of that shape, ``size`` cells.
    ``widths`` lists the widths that have a row, narrowest first: the
    grammar's kept views or, with brackets, the rows taken off them.
    """

    tokens: list[str]
    shape: tuple[int, int, int]  # (n1, n1, |N|)
    root: int  # flat index of the start symbol's full-span entry
    leaf_entry: np.ndarray  # flat index of each lexical entry, by position
    leaf_rule: np.ndarray  # and its lexical rule id
    widths: tuple[_Width, ...]

    @property
    def size(self) -> int:
        """Cells in a flat chart: n + 1 rows of the stride."""
        n1, _, n_nt = self.shape
        return (len(self.tokens) + 1) * n1 * n_nt


def _cky(g: Grammar, sentence, brackets: Bracketing | None) -> _Traversal:
    """Check a sentence and its brackets and lay out its CKY candidates.

    Spans that cross a bracket get no row, and whether a candidate's
    children exist is for each task to read off its own chart.
    """
    tokens = list(sentence)
    if not tokens:
        raise ValueError("sentence is empty")
    n, n_nt = len(tokens), len(g.nonterminals)
    lexicon = g.terminal_leaves
    try:
        leaves = [lexicon[tok] for tok in tokens]
    except KeyError:
        i = next(i for i, tok in enumerate(tokens) if tok not in lexicon)
        raise UnknownTokenError(tokens[i], i) from None
    ok = None if brackets is None else brackets.compatible_spans(n)
    layout = _layout(g, n)
    n1 = layout.n1
    # the lexical entry of nonterminal a at position i is cell (i, i + 1, a)
    step = (n1 + 1) * n_nt
    leaf_entry = [i * step + n_nt + a for i, (lhs, _) in enumerate(leaves) for a in lhs]
    leaf_rule = [rule for _, rules in leaves for rule in rules]
    if ok is None:
        widths = layout.plain[n]
    else:
        n_lhs = g.binary_rule_table.shape[0]
        widths = []
        for width, entry, children in layout.plain[-1][: n - 1]:
            starts = ok.diagonal(width).nonzero()[0]
            if starts.size:
                rows = entry.reshape(-1, n_lhs).take(starts, axis=0).ravel()
                widths.append(_Width(width, rows, children.take(starts, axis=3)))
        widths = tuple(widths)
    root = n * n_nt + g.nt_index[g.start]
    return _Traversal(
        tokens, (n1, n1, n_nt), root, np.array(leaf_entry), np.array(leaf_rule), widths
    )


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each column-major row, its columns added left to right.

    With two rows or more ``np.add.reduce`` over axis 0 adds one column at a
    time to every row, one rounding per term; a single row it would sum
    pairwise, so that row's running sum is taken instead.
    """
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


_FLUSH = -1100  # a shift past which every term is 0; it fits a C int

# The range of the plain pass, in ``frexp`` exponents: a value v = m * 2**e,
# m in [0.5, 1), lies in [2**(e - 1), 2**e).  Let lo and hi be the smallest
# and the largest exponent of the rule weights and the present entries.
# - lo >= _E_MIN: a product of two or three factors is at least
#   2**(3 * (lo - 1)) >= 2**-1020, so none is subnormal (the smallest
#   normal double is 2**-1022); at -340 it could be 2**-1023.
# - hi <= _E_MAX: a product is below 2**(3 * hi) <= 2**960, and a row holds
#   fewer than 2**50 candidates (it lies in memory), so no row sum comes
#   near 2**1024 and overflows.
# - hi - lo <= _E_SPREAD: a present scaled term is its product, at least
#   2**-3, shifted by (e_rule + e_left) + e_right - top >= 3 * (lo - hi) >=
#   -1017, so it is at least 2**-1020: no term is rounded as subnormal or
#   flushed at ``_FLUSH``.  Such a term lies far below its row's largest,
#   but it may still decide how a partial sum of terms as small as itself
#   rounds, and so the total; the spread keeps every term exact.
# Within the range both passes compute the same bits.  Multiplying by a
# power of two is exact, and rounds as the unscaled operation does, while
# both results are normal and finite (Goodman 1999: the scaled chart is
# one representation of the real semiring).  So each plain product is the
# scaled product ``(m_rule * m_left) * m_right`` times 2**((e_rule +
# e_left) + e_right), that is the scaled term times 2**top; each running
# sum, at least its first nonzero term and finite, is the scaled one times
# 2**top; and ``frexp`` of the total gives the scaled mantissa and the
# scaled exponent plus top.  By induction over widths every present entry
# keeps its bits and every absent one stays 0.
# The range is checked by observation: the weights before the pass, the
# entries after it.  An entry whose exponent leaves [_E_MIN, _E_MAX] cannot
# hide: the first such entry in fill order has only weights and children
# within it, so its products are normal and its sum finite and positive;
# it is present, with its true exponent.  An entry that overflowed (to inf
# or nan, whose ``frexp`` exponent is 0) or lost all its mass to underflow
# comes after such an entry, so the check needs no test of its own for it.
_E_MIN, _E_MAX, _E_SPREAD = -339, 320, 339


def _in_range(lo: int, hi: int) -> bool:
    """Whether exponents from lo to hi lie within the plain pass's range."""
    return _E_MIN <= lo and hi <= min(_E_MAX, lo + _E_SPREAD)


def _inside_pass(trav: _Traversal, w: PassWeights) -> tuple[np.ndarray, np.ndarray]:
    """Flat charts of each entry's inside mass under the weights ``w``, as
    mantissas in [0.5, 1) (0 where absent) and exponents
    (``logmath.ZERO_EXPONENT`` where absent; see ``logmath.exp_split``).

    The plain pass computes them when every weight and entry lies within
    its range, and the scaled pass otherwise; within the range both give
    the same bits (see ``_E_MIN``).
    """
    chart = _plain_pass(trav, w) if _in_range(w.lo, w.hi) else None
    return _scaled_pass(trav, w) if chart is None else chart


def _forward(trav: _Traversal, weights: tuple, times, fold, kept: list | None = None) -> np.ndarray:
    """A flat chart filled by one forward pass of a semiring over the layout.

    ``weights`` is one form of a ``PassWeights`` value, whose padding weight
    is the semiring's zero and fills every absent entry.  The lexical
    entries take their rules' weights; then, narrowest width first, a
    candidate's term is ``times(times(w_rule, left), right)`` of its rule's
    weight and its two children's entries, and an entry folds its row of
    terms, column-major as the candidates, by ``fold``.  Each width and its
    terms are appended to ``kept`` if given.
    """
    rule, cols = weights
    chart = np.full(trav.size, rule[-1])
    chart.put(trav.leaf_entry, rule.take(trav.leaf_rule))
    for width in trav.widths:
        left, right = chart.take(width.children, mode="clip")
        terms = times(times(cols, left), right).reshape(-1, len(width.entry))
        chart.put(width.entry, fold(terms))
        if kept is not None:
            kept.append((width, terms))
    return chart


def _plain_pass(trav: _Traversal, w: PassWeights) -> tuple[np.ndarray, np.ndarray] | None:
    """``_scaled_pass``'s charts by plain float64 arithmetic, from rule
    weights ``w.plain`` whose exponents lie from ``w.lo`` to ``w.hi``,
    within the range where the two agree; None when an entry leaves that
    range.

    A candidate's mass is ``(p_rule * p_left) * p_right``, 0 where a child
    is absent or the column is padding, and an entry's the sum of its row,
    left to right by ``_row_sums``, both in the loop ``_forward``;
    ``frexp`` splits the chart.
    """
    # beyond the range a product may overflow; the check below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        chart = _forward(trav, w.plain, np.multiply, _row_sums)
    mant, expo = np.frexp(chart)
    present = mant != 0.0
    lo = int(expo.min(where=present, initial=w.lo))
    hi = int(expo.max(where=present, initial=w.hi))
    if not _in_range(lo, hi):
        return None
    return mant, np.where(present, expo, np.int64(ZERO_EXPONENT))


def _scaled_pass(
    trav: _Traversal, w: PassWeights, kept: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``_inside_pass``'s charts in scaled probability space, from the
    weights' mantissas and exponents, filled narrowest width first.

    A candidate's mass is ``(m_rule * m_left) * m_right`` times 2 to the
    power ``(e_rule + e_left) + e_right``; the three mantissas lie in [0.5,
    1), so the product neither overflows nor underflows, and it is 0 where a
    child is absent or the column is padding.  Each row's terms are those
    products scaled by ``ldexp`` to the row's largest exponent (a shift
    clipped at ``_FLUSH``, where every term is 0 already), summed left to
    right by ``_row_sums``; ``frexp`` of the total, its exponent plus the
    row's, is the entry.  Each width, whether each of its candidates is
    present (its product above 0), their terms, column-major as the
    candidates, and the row totals are appended to ``kept`` if given.
    """
    m_rule, m_cols = w.mant
    e_rule, e_cols = w.expo
    mant = np.zeros(trav.size)
    expo = np.full(trav.size, ZERO_EXPONENT)
    mant.put(trav.leaf_entry, m_rule.take(trav.leaf_rule))
    expo.put(trav.leaf_entry, e_rule.take(trav.leaf_rule))
    for width in trav.widths:
        n_rows = len(width.entry)
        m_left, m_right = mant.take(width.children, mode="clip")
        e_left, e_right = expo.take(width.children, mode="clip")
        prods = ((m_cols * m_left) * m_right).reshape(-1, n_rows)
        exps = ((e_cols + e_left) + e_right).reshape(-1, n_rows)
        top = np.maximum.reduce(exps, axis=0)
        shifts = np.maximum(exps - top, _FLUSH).astype(np.intc)
        terms = np.ldexp(prods, shifts)
        present = None if kept is None else prods > 0.0
        totals = _row_sums(terms)
        m, e = np.frexp(totals)
        mant.put(width.entry, m)
        # a row without candidates sums to 0 and stays absent
        expo.put(width.entry, np.where(m > 0.0, e + top, ZERO_EXPONENT))
        if kept is not None:
            kept.append((width, present, terms, totals))
    return mant, expo


@dataclass(frozen=True, eq=False)
class InsideChart:
    """Inside masses of every span and nonterminal, in scaled form: span
    (i, j) and nonterminal a hold ``mant[i, j, a] * 2**expo[i, j, a]``,
    mantissa 0 where absent.

    Axis order follows ``grammar.nonterminals``.  Log masses are taken only
    of the cells read: ``logmass`` converts one, and ``table`` all of them
    on its first read, each by ``logmath.log_scaled``.  Charts compare and
    hash by identity, as their arrays give no single truth value.
    """

    grammar: Grammar
    sentence: tuple[str, ...]
    mant: np.ndarray
    expo: np.ndarray

    @cached_property
    def table(self) -> np.ndarray:
        """Inside log masses: ``table[i, j, a]``; unused cells hold -inf."""
        return log_split(self.mant, self.expo)

    def logmass(self, i: int, j: int, nonterminal: str) -> float:
        """Inside log mass of a span, 0 <= i < j <= len(sentence)."""
        try:
            within = 0 <= operator.index(i) < operator.index(j) <= len(self.sentence)
        except TypeError:
            within = False
        if not within:
            raise ValueError(f"span ({i}, {j}) is not within 0 <= i < j <= {len(self.sentence)}")
        a = self.grammar.nt_index.get(nonterminal)
        if a is None:
            raise ValueError(f"{nonterminal!r} is not a nonterminal")
        return log_scaled(self.mant.item(i, j, a), self.expo.item(i, j, a))

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
    n1, _, n_nt = trav.shape
    rows = len(trav.tokens) + 1
    mant, expo = _inside_pass(trav, g.weights)
    shape = (rows, n1, n_nt)
    return InsideChart(
        g, tuple(trav.tokens), mant.reshape(shape)[:, :rows], expo.reshape(shape)[:, :rows]
    )


def _check_weights(g: Grammar, w: PassWeights) -> None:
    """Reject weights made for another rule set than ``g``'s: those of ``g``
    and of its ``with_probs`` copies hold one weight per rule and columns
    gathered by its binary rule table."""
    if len(w.log[0]) != len(g.rules) + 1 or not np.array_equal(w.table, g.binary_rule_table):
        raise ValueError("the weights were made for another rule set")


def log_total(g: Grammar, sentence, w: PassWeights, brackets: Bracketing | None = None) -> float:
    """Log total mass of the complete derivation set under the weights ``w``
    (see ``expected_counts``), by the inside pass alone; -inf when the
    sentence has no (compatible) derivation."""
    _check_weights(g, w)
    trav = _cky(g, sentence, brackets)
    mant, expo = _inside_pass(trav, w)
    return log_scaled(mant.item(trav.root), expo.item(trav.root))


def expected_counts(
    g: Grammar, sentence, w: PassWeights, brackets: Bracketing | None = None
) -> tuple[float, np.ndarray]:
    """Log total mass and expected rule counts over the complete derivation set.

    A derivation weighs the exp of its rules' log weights, as a
    ``PassWeights`` value of ``g``: ``g.weights`` gives probabilities, and
    ``g.weights_of(eta * lp for lp in g.log_probs)`` gives ``p ** eta``.
    With brackets, only derivations that nest with every bracket count.
    Returns log Z, the log of the summed weights, and the float64 array of
    sum_d (w(d) / Z) N(rule, d) indexed by rule id; ``(-inf, zeros)`` when
    the sentence has no (compatible) derivation.

    The inside pass is the scaled pass, whichever pass ``log_total`` takes
    over the same weights; since the two agree, its total is bit-identical
    to ``log_total``'s (with ``g.weights``, to ``inside``'s).  It stays
    scaled because the outside pass reads its terms: a share ``flow * term
    / total`` could round differently where ``flow * term`` would be
    subnormal in plain arithmetic.  The outside pass is its backward pass
    (Eisner 2016): widest spans first, right to left, each entry hands its
    posterior probability to its candidates in proportion to their terms,
    ``flow * term / total`` with the terms and row totals the forward pass
    kept, and each candidate passes its share to its rule's count and to
    both children.  Within a span, entries go in the order of their first
    candidates and ``np.add.at`` adds the shares one at a time, so every
    float sum is added up in the scalar chart's order.  The kept terms and
    candidates are column-major, so the walk reads a row's present
    candidates off their transpose, row by row, and each term and child at
    its (column, row).  Raises ValueError, before any chart work, when
    ``w`` was made for another rule set.
    """
    _check_weights(g, w)
    trav = _cky(g, sentence, brackets)
    by_width: list[tuple[_Width, np.ndarray, np.ndarray, np.ndarray]] = []
    mant, expo = _scaled_pass(trav, w, kept=by_width)
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
    flow[trav.root] = 1.0  # with the root absent, every share handed on is 0
    # every candidate's children are narrower than its entry, so each flow
    # is complete before it is passed on
    for width, present, terms, totals in reversed(by_width):
        n_cols, n_rows = present.shape
        # rows right to left, a span's rows in the order of their first
        # candidates, each row's candidates in order
        first = col_order[lhs_of[:n_rows], present.argmax(axis=0)]
        order = (first - span_order[:n_rows]).argsort()
        rows, cols = present.take(order, axis=1).T.nonzero()
        rows = order.take(rows)
        shares = flow.take(width.entry.take(rows)) * terms[cols, rows] / totals.take(rows)
        np.add.at(counts, col_rule[lhs_of.take(rows), cols], shares)
        children = width.children.reshape(2, n_cols, n_rows)[:, cols, rows]
        np.add.at(flow, children.T.ravel(), shares.repeat(2))
    np.add.at(counts, trav.leaf_rule[::-1], flow.take(trav.leaf_entry[::-1]))
    return log_scaled(mant.item(trav.root), expo.item(trav.root)), counts


def viterbi(
    g: Grammar, sentence, brackets: Bracketing | None = None
) -> tuple[Derivation, float] | None:
    """Best derivation of the sentence and its log probability.

    The best derivation is the first entry of the n-best list, made by the
    n-best engine at n = 1 (see ``kbest``): the highest canonical score (the
    count-ordered ``score_rules`` of its rules), ties broken by the
    smallest flattened (split, rule id) backpointer key, so the result is
    deterministic even when several derivations have exactly equal
    probability.  The returned log probability is canonical.  Returns None
    when the sentence has no (bracket-compatible) derivation.
    """
    from .kbest import _best  # local import: no cycle at load time

    best = _best(g, _cky(g, sentence, brackets), 1)
    return (best[0], best[0].log_prob) if best else None
