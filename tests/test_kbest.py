"""n-best lists versus Viterbi and the full enumeration."""
import math

import numpy as np
import pytest

from conftest import random_grammar, sample_bracketing, sample_corpus, sample_rules, toy
from pcfgtk import (
    derivation_spans,
    enumerate_derivations,
    nbest,
    parse_grammar,
    replay_derivation,
    viterbi,
)


def corpus_and_bracketed(g, rng):
    """(tokens, brackets) cases: a sampled corpus of sentences of three or
    more tokens (mostly ambiguous) without brackets, then one sentence
    bracketed by a random subset of its own derivation's spans.

    The bracketed sentence is the longest of 20 draws, since most single
    draws are one token long and brackets then exclude nothing.
    """
    cases = [(tokens, None) for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3)]
    draws = [r for r in (sample_rules(g, rng, 6) for _ in range(20)) if r is not None]
    if draws:
        rules = max(draws, key=len)
        tokens = replay_derivation(g, rules)
        cases.append((tokens, sample_bracketing(g, rng, rules, len(tokens))))
    return cases


class TestToyExamples:
    def test_aaaa_five_equal(self):
        result = nbest(toy(0.5), ["a"] * 4, 5)
        assert len(result) == 5
        for d in result.derivations:
            assert abs(d.log_prob - math.log(1 / 128)) < 1e-12
        assert len({d.rules for d in result.derivations}) == 5

    def test_aa_exhausts_at_one(self):
        result = nbest(toy(0.5), ["a", "a"], 3)
        assert len(result) == 1
        assert result.n_requested == 3
        assert result.in_language

    def test_n_one_equals_viterbi(self):
        for q in (0.3, 0.5, 0.8):
            g = toy(q)
            for n_tokens in (1, 2, 3, 4, 5):
                lst = nbest(g, ["a"] * n_tokens, 1)
                d, lp = viterbi(g, ["a"] * n_tokens)
                assert lst.derivations == (d,)

    def test_not_in_language(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        result = nbest(g, ["b", "a"], 3)
        assert not result.in_language
        assert len(result) == 0

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            nbest(toy(0.5), ["a"], 0)


class TestOrderingProperties:
    def test_scores_non_increasing(self):
        for seed in range(30):
            rng = np.random.default_rng(6500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                lps = nbest(g, tokens, 10).log_probs()
                assert all(a >= b for a, b in zip(lps, lps[1:]))

    def test_prefix_property(self):
        for seed in range(30):
            rng = np.random.default_rng(7500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                for n in (1, 2, 3, 5):
                    small = nbest(g, tokens, n).derivations
                    large = nbest(g, tokens, n + 1).derivations
                    assert large[: len(small)] == small

    def test_full_request_matches_enumeration_exactly(self):
        for seed in range(30):
            rng = np.random.default_rng(8500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                enum = enumerate_derivations(g, tokens).derivations
                if brackets is not None:
                    enum = [
                        d
                        for d in enum
                        if all(brackets.compatible(i, j) for i, j in derivation_spans(g, d))
                    ]
                result = nbest(g, tokens, len(enum), brackets)
                assert [d.rules for d in result.derivations] == [d.rules for d in enum]
                for got, want in zip(result.derivations, enum):
                    assert got.log_prob == want.log_prob

    def test_n_one_equals_viterbi_random(self):
        for seed in range(30):
            rng = np.random.default_rng(9500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                best = viterbi(g, tokens, brackets)[0]
                assert nbest(g, tokens, 1, brackets).derivations[0] == best

    def test_no_duplicates_at_any_n(self):
        g = toy(0.4)
        for n_tokens in (3, 4, 5, 6):
            result = nbest(g, ["a"] * n_tokens, 1000)
            seqs = [d.rules for d in result.derivations]
            assert len(seqs) == len(set(seqs))
