"""Scalar references for the array chart: one Python candidate at a time.

This is the span-by-span CKY that ``pcfgtk.chart`` replaced with its
width-batched array pass.  ``_cky`` visits the bracket-compatible spans
narrowest first and hands each (span, lhs) its binary candidates
``(split, rule, left entry, right entry)`` in ascending (split, rule id)
order; ``inside``, ``viterbi``, ``expected_counts`` and ``nbest`` differ
only in the entry they build from those candidates.  The tests assert that
the package returns exactly these results, bit for bit.

``inside`` and ``expected_counts`` sum in scaled probability space, with the
operations of the array pass in the same order: an entry is a mantissa in
[0.5, 1) and an integer exponent.  ``inside_log`` and
``expected_counts_log`` are the log-sum-exp chart the scaled pass replaced,
kept as a second reference that shares none of its arithmetic; the tests
compare them within a derived rounding bound.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from pcfgtk import Bracketing, Derivation, KBestList, UnknownTokenError
from pcfgtk.logmath import NEG_INF, logsumexp
from pcfgtk.oracle import count_vector, score_counts

# the rounding bound documented next to ``pcfgtk.kbest._SLACK``
_SLACK = 4 * 2.0**-53


def _cky(g, sentence, brackets, leaf, combine):
    """Fill a chart ``{(i, j): {lhs: entry}}``; returns the tokens and the chart."""
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
    binary = [(rule, rule.lhs, rule.rhs[0], rule.rhs[1]) for rule in g.rules if not rule.is_lexical]
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


# ln 2 in two parts, e * LN2_HI exact for |e| < 2**21, and the flush shift
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
INV_LN2 = float.fromhex("0x1.71547652b82fep0")
FLUSH = -1100


def split(w: float) -> tuple[float, int]:
    """exp(w) as (m, e), m in [0.5, 1), with exp taken of w reduced by
    floor(w / ln 2) * ln 2."""
    k = math.floor(w * INV_LN2)
    m, e = math.frexp(math.exp((w - k * LN2_HI) - k * LN2_LO))
    return m, e + k


def log_of(m: float, e: int) -> float:
    return e * LN2_HI + (math.log(m) + e * LN2_LO)


def _scaled_sum(scored):
    """The entry of ``(mantissa product, exponent sum)`` candidates: each
    product shifted to the largest exponent, summed left to right.
    Returns the entry and the terms and total it was summed from."""
    top = max(e for _, e in scored)
    terms = [math.ldexp(p, max(e - top, FLUSH)) for p, e in scored]
    total = 0.0
    for term in terms:
        total += term
    m, e = math.frexp(total)
    return (m, e + top), terms, total


class InsideTable(NamedTuple):
    """An inside result: the sentence and its log masses ``table[i, j, a]``
    (-inf where absent), as ``pcfgtk.InsideChart.table`` holds them."""

    sentence: tuple[str, ...]
    table: np.ndarray


def _table(g, tokens, chart, value):
    n = len(tokens)
    table = np.full((n + 1, n + 1, len(g.nonterminals)), NEG_INF)
    for (i, j), cell in chart.items():
        for lhs, entry in cell.items():
            table[i, j, g.nt_index[lhs]] = value(entry)
    return table


def rule_scales(g, weights):
    """exp of each log weight as (m, e), from the probability itself where
    the weights are the grammar's log probabilities."""
    if tuple(weights) == g.log_probs:
        return [math.frexp(p) for p in g.probs]
    return [split(w) for w in weights]


def _inside_chart(g, sentence, brackets):
    scales = rule_scales(g, g.log_probs)

    def combine(cands):
        scored = []
        for _, rule, (lm, le), (rm, re) in cands:
            m, e = scales[rule.id]
            scored.append(((m * lm) * rm, (e + le) + re))
        return _scaled_sum(scored)[0]

    return _cky(g, sentence, brackets, lambda rule: scales[rule.id], combine)


def inside(g, sentence, brackets=None) -> InsideTable:
    tokens, chart = _inside_chart(g, sentence, brackets)
    return InsideTable(tuple(tokens), _table(g, tokens, chart, lambda me: log_of(*me)))


def inside_scaled(g, sentence, brackets=None) -> dict[tuple[int, int, int], tuple[float, int]]:
    """The present inside entries as ``{(i, j, a): (mantissa, exponent)}``."""
    _, chart = _inside_chart(g, sentence, brackets)
    return {
        (i, j, g.nt_index[lhs]): entry
        for (i, j), cell in chart.items()
        for lhs, entry in cell.items()
    }


def inside_log(g, sentence, brackets=None, weights=None) -> InsideTable:
    """Inside log masses by log-sum-exp, under ``weights`` (default the
    grammar's log probabilities)."""
    lp = g.log_probs if weights is None else weights
    tokens, chart = _cky(
        g,
        sentence,
        brackets,
        lambda rule: lp[rule.id],
        lambda cands: logsumexp([lp[rule.id] + left + right for _, rule, left, right in cands]),
    )
    return InsideTable(tuple(tokens), _table(g, tokens, chart, float))


class _Item:
    __slots__ = ("inside", "rule_id", "cands", "flow", "total")

    def __init__(self, inside, rule_id: int = -1, cands=None, total=None):
        self.inside = inside
        self.rule_id = rule_id
        self.cands = cands
        self.total = total
        self.flow = 0.0


def _outside(g, root, chart, share):
    """Expected counts from the root's flow down: ``share(item, cand)``
    is the part of an item's flow that a candidate passes on."""
    counts = [0.0] * len(g.rules)
    root.flow = 1.0
    for cell in reversed(chart.values()):
        for item in cell.values():
            flow = item.flow
            if not flow:
                continue
            if item.cands is None:
                counts[item.rule_id] += flow
                continue
            for cand in item.cands:
                _, rule_id, left, right = cand
                part = share(item, cand)
                counts[rule_id] += part
                left.flow += part
                right.flow += part
    return np.array(counts)


def expected_counts(g, sentence, weights, brackets=None):
    scales = rule_scales(g, weights)

    def leaf(rule) -> _Item:
        return _Item(scales[rule.id], rule.id)

    def combine(cands) -> _Item:
        scored = []
        for _, rule, left, right in cands:
            m, e = scales[rule.id]
            (lm, le), (rm, re) = left.inside, right.inside
            scored.append(((m * lm) * rm, (e + le) + re))
        entry, terms, total = _scaled_sum(scored)
        kept = [(term, rule.id, left, right) for term, (_, rule, left, right) in zip(terms, cands)]
        return _Item(entry, cands=kept, total=total)

    tokens, chart = _cky(g, sentence, brackets, leaf, combine)
    root = chart.get((0, len(tokens)), {}).get(g.start)
    if root is None:
        return NEG_INF, np.zeros(len(g.rules))
    counts = _outside(g, root, chart, lambda item, cand: item.flow * cand[0] / item.total)
    return log_of(*root.inside), counts


def expected_counts_log(g, sentence, weights, brackets=None):
    """Expected counts by log-sum-exp, each share ``flow * exp(score - mass)``."""

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
    counts = _outside(
        g, root, chart, lambda item, cand: item.flow * math.exp(cand[0] - item.inside)
    )
    return root.inside, counts


@dataclass(frozen=True, slots=True)
class _Cell:
    score: float
    size: int
    rule_id: int
    left: _Cell | None = None
    right: _Cell | None = None


def _preorder(cell: _Cell) -> list[int]:
    rules = []
    stack = [cell]
    while stack:
        cell = stack.pop()
        rules.append(cell.rule_id)
        if cell.left is not None:
            stack += (cell.right, cell.left)
    return rules


def _canonical(g, cell: _Cell) -> float:
    return score_counts(g, count_vector(g, _preorder(cell)))


def viterbi(g, sentence, brackets=None):
    lp = g.log_probs

    def best(cands) -> _Cell:
        top = None
        top_canonical = None
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


def nbest(g, sentence, n: int, brackets=None) -> KBestList:
    if n < 1:
        raise ValueError("n must be at least 1")
    lp = g.log_probs

    def top(cands) -> list[_Cell]:
        split, _, lefts, rights = cands[0]
        size = lefts[0].size + rights[0].size + 1
        start = split - (lefts[0].size + 1) // 2
        scores: list[float] = []
        ends = []
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
    return KBestList(derivations, bool(derivations))


def _backpointer_key(cell: _Cell, start: int) -> list[int]:
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
