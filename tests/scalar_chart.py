"""Scalar reference for the array chart: one Python candidate at a time.

This is the span-by-span CKY that ``pcfgtk.chart`` replaced with its
width-batched array pass.  ``_cky`` visits the bracket-compatible spans
narrowest first and hands each (span, lhs) its binary candidates
``(split, rule, left entry, right entry)`` in ascending (split, rule id)
order; ``inside``, ``viterbi``, ``expected_counts`` and ``nbest`` differ
only in the entry they build from those candidates.  The tests assert that
the package returns exactly these results, bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product

import numpy as np

from pcfgtk import Bracketing, Derivation, InsideChart, KBestList, UnknownTokenError
from pcfgtk.derivations import count_vector, score_counts
from pcfgtk.logmath import NEG_INF, logsumexp

# the rounding bound documented next to ``pcfgtk.chart._SLACK``
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


def inside(g, sentence, brackets=None) -> InsideChart:
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
    __slots__ = ("inside", "rule_id", "cands", "flow")

    def __init__(self, inside: float, rule_id: int = -1, cands=None):
        self.inside = inside
        self.rule_id = rule_id
        self.cands = cands
        self.flow = 0.0


def expected_counts(g, sentence, weights, brackets=None):
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
    return KBestList(derivations, n, bool(derivations))


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
