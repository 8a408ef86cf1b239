"""Exact n-best derivations via per-cell hypothesis lists.

The chart's shared CKY pass builds each cell's top-n list: a lexical cell
holds its one hypothesis, and a span's candidates are merged eagerly by
joining every left hypothesis with every right one, sorting and keeping
the first n.  Exact and simple at the scales this package targets (n up
to about a thousand).  Ordering is by descending canonical log
probability with the backpointer key as secondary criterion: the
flattened (split, rule id) tuples of the hypothesis tree, compared
lexicographically.  That secondary key agrees with the Viterbi tie-break,
so ``nbest(..., 1)`` returns exactly the Viterbi derivation.  With a large
enough n the result is the complete derivation set.
"""
from __future__ import annotations

from dataclasses import dataclass

from .chart import _cky
from .corpus import Bracketing
from .derivations import Derivation, count_vector, score_counts
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


@dataclass(frozen=True)
class _Hyp:
    score: float
    key: tuple[int, ...]  # flattened (split, rule id) backpointers
    counts: tuple[int, ...]
    rules: tuple[int, ...]  # leftmost-derivation rule sequence


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

    def leaf(rule) -> list[_Hyp]:
        return [_Hyp(g.log_probs[rule.id], (rule.id,), count_vector(g, (rule.id,)), (rule.id,))]

    def merge(cands) -> list[_Hyp]:
        hyps = []
        for k, rule, lefts, rights in cands:
            for left in lefts:
                for right in rights:
                    counts = _joined_counts(rule, left.counts, right.counts)
                    hyps.append(
                        _Hyp(
                            score_counts(g, counts),
                            (k, rule.id) + left.key + right.key,
                            counts,
                            (rule.id,) + left.rules + right.rules,
                        )
                    )
        hyps.sort(key=_rank)
        return hyps[:n]

    tokens, chart = _cky(g, sentence, brackets, leaf, merge)
    top = chart.get((0, len(tokens)), {}).get(g.start, [])
    derivations = tuple(Derivation(h.rules, len(tokens), h.score) for h in top)
    return KBestList(derivations, n, bool(derivations))


def _joined_counts(rule, left_counts, right_counts) -> tuple[int, ...]:
    """Rule-usage counts of ``rule`` over two subtrees with the given counts."""
    counts = tuple(a + b for a, b in zip(left_counts, right_counts))
    return counts[: rule.id] + (counts[rule.id] + 1,) + counts[rule.id + 1 :]


def _rank(h: _Hyp):
    return (-h.score, h.key)
