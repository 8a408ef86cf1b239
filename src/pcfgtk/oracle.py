"""Brute-force reference implementations for small instances.

Everything here works by exhaustively expanding derivations over substring
spans and then evaluating definitions literally; no dynamic-programming
shortcuts.  The chart parser, the n-best parser, and the estimator are
validated against these on small grammars.  The enumeration is shipped
(not test-only) so results on small grammars can be cross-checked from the
command line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Bracketing, Sentence
from .derivations import Derivation
from .estimator import Accumulators, EstimationError, _finalize
from .grammar import Grammar
from .logmath import logsumexp, normalized_weights

DEFAULT_LENGTH_CAP = 10
DERIVATION_GUARD = 1_000_000


class EnumerationLimitError(RuntimeError):
    """Enumeration would exceed the configured sentence or size guard."""


@dataclass(frozen=True)
class Enumeration:
    """The complete derivation set of one sentence, best-first."""

    derivations: tuple[Derivation, ...]
    total_log_prob: float

    def __len__(self) -> int:
        return len(self.derivations)


def count_vector(g: Grammar, rules) -> tuple[int, ...]:
    """How often each rule is used, indexed by rule id."""
    counts = [0] * len(g.rules)
    for rid in rules:
        if not 0 <= rid < len(g.rules):
            raise ValueError(f"rule id {rid} out of range for grammar with {len(g.rules)} rules")
        counts[rid] += 1
    return tuple(counts)


def score_counts(g: Grammar, counts) -> float:
    """Log probability of a (partial) derivation from its counts: the
    products N(rule) * log p(rule), added in ascending rule-id order."""
    total = 0
    for c, lp in zip(counts, g.log_probs):
        if c:
            total += c * lp
    return total


@dataclass(frozen=True)
class _Record:
    rules: tuple[int, ...]
    key: tuple[int, ...]
    spans: frozenset[tuple[int, int]]
    score: float


def _expand(g: Grammar, tokens: list[str]) -> list[_Record]:
    """All derivations over (nonterminal, span), by recursive splitting.

    Raises ValueError, as the parsers do, for a token that no lexical rule
    derives."""
    terminals = {rule.terminal for rule in g.rules if rule.is_lexical}
    for i, tok in enumerate(tokens):
        if tok not in terminals:
            raise ValueError(f"token {tok!r} at position {i} is not a terminal")
    memo: dict[tuple[str, int, int], list] = {}
    budget = [DERIVATION_GUARD]

    def derive(lhs: str, i: int, j: int) -> list:
        state = memo.get((lhs, i, j))
        if state is not None:
            return state
        out = []
        for rule in g.rules_by_lhs[lhs]:
            if rule.is_lexical:
                if j - i == 1 and rule.terminal == tokens[i]:
                    out.append(((rule.id,), (rule.id,), ((i, j),)))
                continue
            for k in range(i + 1, j):
                for lrules, lkey, lspans in derive(rule.rhs[0], i, k):
                    for rrules, rkey, rspans in derive(rule.rhs[1], k, j):
                        budget[0] -= 1
                        if budget[0] < 0:
                            raise EnumerationLimitError(
                                f"more than {DERIVATION_GUARD} partial derivations"
                            )
                        out.append(
                            (
                                (rule.id,) + lrules + rrules,
                                (k, rule.id) + lkey + rkey,
                                ((i, j),) + lspans + rspans,
                            )
                        )
        memo[(lhs, i, j)] = out
        return out

    records = []
    for rules, key, spans in derive(g.start, 0, len(tokens)):
        records.append(
            _Record(rules, key, frozenset(spans), score_counts(g, count_vector(g, rules)))
        )
    records.sort(key=lambda r: (-r.score, r.key))
    return records


def enumerate_derivations(
    g: Grammar, sentence, cap: int = DEFAULT_LENGTH_CAP, brackets: Bracketing | None = None
) -> Enumeration:
    """Every derivation of the sentence, found by exhaustive expansion; with
    brackets, every one whose constituent spans nest with each bracket, and
    the total over those alone.

    Refuses sentences longer than ``cap`` tokens and aborts if the search
    would produce more than a million partial derivations.
    """
    tokens = [str(t) for t in sentence]
    if len(tokens) > cap:
        raise EnumerationLimitError(f"sentence length {len(tokens)} exceeds cap {cap}")
    if not tokens:
        raise ValueError("sentence is empty")
    records = _expand(g, tokens)
    if brackets is not None:
        records = _nesting(records, brackets)
    derivations = tuple(Derivation(r.rules, len(tokens), r.score) for r in records)
    return Enumeration(derivations, logsumexp([d.log_prob for d in derivations]))


def _select(records: list[_Record], mode: str, n: int, brackets: Bracketing | None) -> list[_Record]:
    # a bracketed mode keeps the records that nest with the brackets; every
    # mode then keeps the best 1, the best n, or all of them
    sizes = {"viterbi": 1, "bracketed_viterbi": 1, "nbest": n, "all": None, "bracketed_all": None}
    if mode.startswith("bracketed_") and brackets is not None:
        records = _nesting(records, brackets)
    return records[: sizes[mode]]


def _nesting(records: list[_Record], brackets: Bracketing) -> list[_Record]:
    """The records none of whose constituent spans crosses a bracket."""
    return [r for r in records if all(brackets.compatible(i, j) for i, j in r.spans)]


def oracle_accumulate(g: Grammar, corpus, spec, eta: float = 1.0):
    """Growth-step sufficient statistics by literal summation.

    Reference and competing sets are selected from the full enumeration of
    each sentence per ``spec`` (a DeltaSpec), then the posterior-weighted
    count sums are evaluated directly from the definitions.  Used to verify
    the estimator's chart-based accumulation, and raises its error alike.
    """
    acc = Accumulators.zeros(g)
    effective = 0
    for raw in corpus:
        sent = Sentence.of(raw)
        records = _expand(g, list(sent.tokens))
        ref = _select(records, spec.ref_mode, spec.n_ref, sent.brackets)
        comp = _select(records, spec.comp_mode, spec.n_comp, sent.brackets)
        if not comp or not ref:
            acc.skipped += 1
            continue
        if spec.enforce_subset:
            present = {r.rules for r in comp}
            comp = comp + [r for r in ref if r.rules not in present]
        effective += 1
        _add_weighted(g, acc.d_rule_ref, ref, eta)
        _add_weighted(g, acc.d_rule_comp, comp, eta)
    if effective == 0:
        raise EstimationError("all sentences were skipped" if acc.skipped else "corpus is empty")
    return acc


def _add_weighted(g: Grammar, rule_acc, records: list[_Record], eta: float):
    weights = normalized_weights([eta * r.score for r in records])
    for rec, w in zip(records, weights):
        for rid, c in enumerate(count_vector(g, rec.rules)):
            if c:
                rule_acc[rid] += w * c


def growth_step_single_ref(g: Grammar, acc, h: float, ctilde: float, min_prob: float = 1e-12):
    """The growth step as a scalar loop over nonterminals and their rules.

    A second spelling of ``estimator.growth_step``'s transform: per
    nonterminal, each rule's numerator (reference counts minus h-weighted
    competing expectations, plus its probability times ctilde) over the sum
    of its block's numerators.  It shares ``estimator._finalize`` (floor and
    renormalize), and the two must agree bit for bit on shared
    accumulators, error messages included.
    """
    raw = [0.0] * len(g.rules)
    for nt in g.nonterminals:
        rules = g.rules_by_lhs[nt]
        nums = []
        for rule in rules:
            best_count = float(acc.d_rule_ref[rule.id])
            competing = float(acc.d_rule_comp[rule.id])
            num = best_count - h * competing + g.probs[rule.id] * ctilde
            if num <= 0.0:
                raise EstimationError(
                    f"numerator for {rule} is {num!r}; the offset constant is too small"
                )
            nums.append(num)
        denom = 0.0
        for num in nums:  # left to right; sum() compensates from Python 3.12 on
            denom += num
        for rule, num in zip(rules, nums):
            raw[rule.id] = num / denom
    return _finalize(g, raw, min_prob)


def catalan(n: int) -> int:
    """Number of binary bracketings of n+1 leaves."""
    return math.comb(2 * n, n) // (n + 1)
