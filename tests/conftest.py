"""Shared test helpers: the toy grammar and seeded random-instance makers."""
from __future__ import annotations

import numpy as np

from pcfgtk import Bracketing, Derivation, Grammar, Rule, derivation_spans, parse_grammar, replay_derivation


def toy(q: float) -> Grammar:
    """S -> S S [q] | a [1-q]; ambiguous, inconsistent for q > 0.5."""
    return parse_grammar(f"S -> S S {q!r}\nS -> a {1 - q!r}\n")


def random_grammar(
    rng: np.random.Generator, max_nts: int = 3, max_rules: int = 6, ensure_binary: bool = False
) -> Grammar:
    """A random proper CNF grammar; every nonterminal has a lexical rule."""
    n_nt = int(rng.integers(1, max_nts + 1))
    nts = ("S", "A", "B")[:n_nt]
    terms = ("a", "b")
    rhss: list[tuple[str, tuple[str, ...]]] = []
    for nt in nts:
        rhss.append((nt, (terms[int(rng.integers(0, len(terms)))],)))
    budget = int(rng.integers(0, max_rules - len(rhss) + 1))
    if ensure_binary and budget == 0:
        budget = 1
    for _ in range(40):
        if budget == 0:
            break
        force_binary = ensure_binary and not any(len(r) == 2 for _, r in rhss)
        lhs = nts[int(rng.integers(0, n_nt))] if not force_binary else "S"
        if force_binary or rng.random() < 0.7:
            rhs = (nts[int(rng.integers(0, n_nt))], nts[int(rng.integers(0, n_nt))])
        else:
            rhs = (terms[int(rng.integers(0, len(terms)))],)
        if (lhs, rhs) in rhss:
            continue
        rhss.append((lhs, rhs))
        budget -= 1
    rhss.sort(key=lambda e: (nts.index(e[0]), len(e[1]) == 1, e[1]))
    rules = tuple(Rule(i, lhs, rhs) for i, (lhs, rhs) in enumerate(rhss))
    probs = [0.0] * len(rules)
    for nt in nts:
        rids = [r.id for r in rules if r.lhs == nt]
        weights = rng.uniform(0.15, 1.0, size=len(rids))
        # keep binary rules light so sampled sentences stay short
        for pos, rid in enumerate(rids):
            if len(rules[rid].rhs) == 2:
                weights[pos] *= 0.55
        weights /= weights.sum()
        for pos, rid in enumerate(rids):
            probs[rid] = float(weights[pos])
    return Grammar(nts, terms, "S", rules, tuple(probs))


def sample_rules(g: Grammar, rng: np.random.Generator, max_len: int, max_steps: int = 400):
    """Rule sequence of one random derivation with at most max_len tokens."""
    stack = [g.start]
    rules: list[int] = []
    emitted = 0
    steps = 0
    while stack:
        steps += 1
        if steps > max_steps or emitted > max_len:
            return None
        nt = stack.pop()
        group = g.rules_by_lhs[nt]
        weights = np.array([g.probs[r.id] for r in group])
        rule = group[int(rng.choice(len(group), p=weights / weights.sum()))]
        rules.append(rule.id)
        if rule.is_lexical:
            emitted += 1
        else:
            stack.append(rule.rhs[1])
            stack.append(rule.rhs[0])
    if emitted > max_len:
        return None
    return rules


def sample_sentence(
    g: Grammar, rng: np.random.Generator, max_len: int = 6, tries: int = 60, min_len: int = 1
):
    """Tokens of a random in-language sentence of min_len to max_len tokens, or None."""
    for _ in range(tries):
        rules = sample_rules(g, rng, max_len)
        if rules is not None:
            tokens = replay_derivation(g, rules)
            if len(tokens) >= min_len:
                return tokens
    return None


def sample_corpus(
    g: Grammar, rng: np.random.Generator, size: int, max_len: int = 6, min_len: int = 1
):
    """Up to ``size`` sampled sentences; fewer when sampling fails.

    Most sampled sentences are one token long and so unambiguous; a
    ``min_len`` of 3 makes most of them have several derivations.
    """
    corpus = []
    for _ in range(size):
        tokens = sample_sentence(g, rng, max_len, min_len=min_len)
        if tokens is not None:
            corpus.append(tokens)
    return corpus


def sample_bracketing(g: Grammar, rng: np.random.Generator, rules, n_tokens: int) -> Bracketing:
    """A random subset of one real derivation's spans (hence satisfiable)."""
    d = Derivation.build(g, rules, n_tokens)
    spans = sorted(derivation_spans(g, d))
    keep = frozenset(s for s in spans if rng.random() < 0.5)
    return Bracketing(keep)
