"""Inside and Viterbi versus the brute-force enumeration."""
import math

import numpy as np
import pytest

from conftest import random_grammar, sample_bracketing, sample_corpus, sample_rules, toy
from pcfgtk import (
    Bracketing,
    UnknownTokenError,
    derivation_spans,
    enumerate_derivations,
    inside,
    parse_grammar,
    replay_derivation,
    viterbi,
)
from pcfgtk.logmath import logsumexp


class TestInside:
    def test_toy_aa(self):
        chart = inside(toy(0.5), ["a", "a"])
        assert abs(chart.log_string_prob - math.log(1 / 8)) < 1e-12
        assert chart.in_language

    def test_toy_aaaa(self):
        chart = inside(toy(0.5), ["a"] * 4)
        assert abs(chart.log_string_prob - math.log(5 / 128)) < 1e-12

    def test_not_in_language_is_flagged_not_raised(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        chart = inside(g, ["b", "a"])
        assert not chart.in_language
        assert chart.log_string_prob == float("-inf")

    def test_unknown_token(self):
        with pytest.raises(UnknownTokenError) as err:
            inside(toy(0.5), ["a", "x", "a"])
        assert err.value.token == "x"
        assert err.value.position == 1

    def test_empty_sentence(self):
        with pytest.raises(ValueError, match="empty"):
            inside(toy(0.5), [])

    def test_cell_access(self):
        chart = inside(toy(0.5), ["a", "a"])
        assert abs(chart.logmass(0, 1, "S") - math.log(0.5)) < 1e-12

    def test_matches_enumeration_on_random_grammars(self):
        for seed in range(40):
            rng = np.random.default_rng(2500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                enum = enumerate_derivations(g, tokens)
                total = logsumexp([d.log_prob for d in enum.derivations])
                got = inside(g, tokens).log_string_prob
                assert got == pytest.approx(total, rel=1e-10, abs=1e-10)

    def test_matches_enumeration_four_nonterminals_length_eight(self):
        g = parse_grammar(
            "S -> S S 0.2\nS -> A B 0.3\nS -> C C 0.1\nS -> a 0.4\n"
            "A -> A A 0.25\nA -> a 0.75\n"
            "B -> b 0.6\nB -> a 0.4\n"
            "C -> a 0.5\nC -> b 0.5\n"
        )
        for tokens in (["a"] * 8, "a a b a a b a a".split(), "a a a a b b a".split()):
            enum = enumerate_derivations(g, tokens)
            total = logsumexp([d.log_prob for d in enum.derivations])
            assert inside(g, tokens).log_string_prob == pytest.approx(total, rel=1e-10)
            d, lp = viterbi(g, tokens)
            assert lp == pytest.approx(max(e.log_prob for e in enum.derivations), abs=1e-12)


class TestViterbi:
    def test_toy_aa_unique(self):
        g = toy(0.5)
        d, lp = viterbi(g, ["a", "a"])
        assert d.rules == (0, 1, 1)
        assert abs(lp - math.log(0.5**3)) < 1e-12

    def test_toy_aaaa_ties_break_deterministically(self):
        g = toy(0.5)
        d, lp = viterbi(g, ["a"] * 4)
        assert abs(lp - math.log(1 / 128)) < 1e-12
        enum = enumerate_derivations(g, ["a"] * 4)
        assert d.rules in {e.rules for e in enum.derivations}
        # lowest backpointer order: the split-at-1 chain
        assert d.rules == enum.derivations[0].rules

    def test_single_rule(self):
        d, lp = viterbi(parse_grammar("S -> a 1.0"), ["a"])
        assert d.rules == (0,)
        assert lp == 0.0

    def test_no_parse_returns_none(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        assert viterbi(g, ["b", "a"]) is None

    def test_matches_enumeration_max_on_random_grammars(self):
        # the enumeration's first derivation has the highest canonical score,
        # ties broken by the smallest backpointer key: Viterbi must return
        # exactly it.  Longer sentences and the non-dyadic toy grammars give
        # many candidates whose incremental and canonical sums round apart.
        cases = []
        for seed in range(40):
            rng = np.random.default_rng(3500 + seed)
            g = random_grammar(rng)
            sentences = sample_corpus(g, rng, 2, max_len=6)
            sentences += sample_corpus(g, rng, 2, max_len=8, min_len=3)
            cases += [(g, tokens) for tokens in sentences]
        for q in (0.3, 0.7, 0.1):
            cases += [(toy(q), ["a"] * n) for n in range(2, 10)]
        for g, tokens in cases:
            first = enumerate_derivations(g, tokens).derivations[0]
            d, lp = viterbi(g, tokens)
            assert (d.rules, lp) == (first.rules, first.log_prob)
            assert replay_derivation(g, d.rules) == list(tokens)

    def test_best_never_exceeds_total(self):
        for seed in range(30):
            rng = np.random.default_rng(4500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                lp_best = viterbi(g, tokens)[1]
                lp_total = inside(g, tokens).log_string_prob
                assert lp_best <= lp_total + 1e-12
                n_derivs = len(enumerate_derivations(g, tokens))
                if n_derivs == 1:
                    assert lp_best == pytest.approx(lp_total, abs=1e-12)
                else:
                    assert lp_total > lp_best


class TestBracketedVariants:
    def test_empty_bracketing_bit_for_bit(self):
        g = toy(0.5)
        tokens = ["a"] * 5
        empty = Bracketing()
        assert inside(g, tokens, empty).log_string_prob == inside(g, tokens).log_string_prob
        assert viterbi(g, tokens, empty) == viterbi(g, tokens)

    def test_partial_bracket_on_aaaa(self):
        # two of the five derivations nest with the (0, 2) bracket
        g = toy(0.5)
        chart = inside(g, ["a"] * 4, Bracketing(frozenset({(0, 2)})))
        assert abs(chart.log_string_prob - math.log(2 / 128)) < 1e-12

    def test_full_binary_bracketing_isolates_one_derivation(self):
        g = toy(0.5)
        brackets = Bracketing(frozenset({(0, 2), (2, 4), (0, 4)}))
        chart = inside(g, ["a"] * 4, brackets)
        assert abs(chart.log_string_prob - math.log(1 / 128)) < 1e-12
        d, lp = viterbi(g, ["a"] * 4, brackets)
        assert abs(lp - math.log(1 / 128)) < 1e-12
        # balanced tree: root splits at 2, children are two-token constituents
        assert d.rules == (0, 0, 1, 1, 0, 1, 1)

    def test_incompatible_brackets_yield_no_parse(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        chart = inside(g, ["a", "b"], Bracketing(frozenset({(0, 2)})))
        assert chart.in_language  # the only bracket is the full span
        assert viterbi(g, ["a", "b"], Bracketing(frozenset({(0, 2)}))) is not None

    def test_bracket_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            inside(toy(0.5), ["a", "a"], Bracketing(frozenset({(0, 3)})))

    def test_bracketed_inside_matches_filtered_enumeration(self):
        for seed in range(30):
            rng = np.random.default_rng(5500 + seed)
            g = random_grammar(rng)
            rules = sample_rules(g, rng, 6)
            if rules is None:
                continue
            tokens = replay_derivation(g, rules)
            brackets = sample_bracketing(g, rng, rules, len(tokens))
            enum = enumerate_derivations(g, tokens)
            kept = [
                d.log_prob
                for d in enum.derivations
                if all(brackets.compatible(i, j) for i, j in derivation_spans(g, d))
            ]
            got = inside(g, tokens, brackets).log_string_prob
            assert got == pytest.approx(logsumexp(kept), rel=1e-10, abs=1e-10)
            best = viterbi(g, tokens, brackets)
            assert best[1] == pytest.approx(max(kept), abs=1e-12)
