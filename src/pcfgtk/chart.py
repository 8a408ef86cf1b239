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
string probability (the sum over all derivations); ``expected_counts`` does
the same over arbitrary rule weights, keeps each entry's candidates and
walks them back top-down (the outside pass) for expected rule counts;
``viterbi`` keeps the single highest-probability derivation, comparing
candidates by an incremental score and falling back to the canonical
count-ordered score only when two candidates lie within rounding distance;
``kbest.nbest`` keeps the top n of the same incremental-score cells, ranking
them canonically only within rounding distance of each other.

All functions are pure; one immutable grammar may be shared by concurrent
calls over different sentences.
"""
from __future__ import annotations

import math
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


class _Item:
    """An ``expected_counts`` entry: its log inside mass, its scored
    candidates (None for a lexical entry, which keeps its rule id instead),
    and the posterior probability the outside pass pushes into it."""

    __slots__ = ("inside", "rule_id", "cands", "flow")

    def __init__(self, inside: float, rule_id: int = -1, cands=None):
        self.inside = inside
        self.rule_id = rule_id
        self.cands = cands
        self.flow = 0.0


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

    The inside pass is ``inside``'s log-sum-exp over the given weights, so
    with ``g.log_probs`` its total is bit-identical to ``inside``'s.  The
    outside pass is its backward pass (Eisner 2016): widest spans first,
    each entry hands its posterior probability to its candidates in
    proportion to exp(candidate score - entry mass), and each candidate
    passes its share to its rule's count and to both children.
    """

    def leaf(rule) -> _Item:
        return _Item(weights[rule.id], rule.id)

    def combine(cands) -> _Item:
        scored = [
            (weights[rule.id] + left.inside + right.inside, rule.id, left, right)
            for _, rule, left, right in cands
        ]
        return _Item(logsumexp([score for score, *_ in scored]), cands=scored)

    tokens, chart = _cky(g, sentence, brackets, leaf, combine)
    root = chart.get((0, len(tokens)), {}).get(g.start)
    if root is None:
        return NEG_INF, np.zeros(len(g.rules))
    counts = [0.0] * len(g.rules)
    root.flow = 1.0
    # spans are stored narrowest first and every candidate's children are
    # narrower than its entry, so each flow is complete before it is passed on
    for cell in reversed(chart.values()):
        for item in cell.values():
            flow = item.flow
            if not flow:
                continue
            if item.cands is None:
                counts[item.rule_id] += flow
                continue
            for score, rule_id, left, right in item.cands:
                share = flow * math.exp(score - item.inside)
                counts[rule_id] += share
                left.flow += share
                right.flow += share
    return root.inside, np.array(counts)


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


def _canonical(g: Grammar, cell: _Cell) -> float:
    """Canonical (count-ordered) log probability of a cell's subtree."""
    return score_counts(g, count_vector(g, _preorder(cell)))


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
                        top_canonical = _canonical(g, top)
                    cell_canonical = _canonical(g, cell)
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
