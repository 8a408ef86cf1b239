"""The brute-force enumeration itself, pinned to hand-computable facts."""
import math

import numpy as np
import pytest

from conftest import random_grammar, sample_corpus, toy
from pcfgtk import (
    DeltaSpec,
    EnumerationLimitError,
    enumerate_derivations,
    oracle_accumulate,
    parse_grammar,
    replay_derivation,
)
from pcfgtk.oracle import catalan


class TestEnumerationCounts:
    def test_aa_has_one_derivation(self):
        enum = enumerate_derivations(toy(0.5), ["a", "a"])
        assert len(enum) == 1

    def test_aaa_has_two_derivations(self):
        enum = enumerate_derivations(toy(0.5), ["a"] * 3)
        assert len(enum) == 2

    def test_aaaa_has_five_derivations(self):
        enum = enumerate_derivations(toy(0.5), ["a"] * 4)
        assert len(enum) == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_counts_follow_catalan(self, n):
        enum = enumerate_derivations(toy(0.3), ["a"] * n)
        assert len(enum) == catalan(n - 1)

    def test_derivations_are_distinct_and_replay(self):
        g = toy(0.3)
        enum = enumerate_derivations(g, ["a"] * 5)
        seqs = {d.rules for d in enum.derivations}
        assert len(seqs) == len(enum)
        for d in enum.derivations:
            assert replay_derivation(g, d.rules) == ["a"] * 5


class TestEnumerationProbabilities:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_aa_probability(self, q):
        enum = enumerate_derivations(toy(q), ["a", "a"])
        assert abs(enum.derivations[0].log_prob - math.log(q * (1 - q) ** 2)) < 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_aaaa_probabilities(self, q):
        enum = enumerate_derivations(toy(q), ["a"] * 4)
        expected = math.log(q**3 * (1 - q) ** 4)
        for d in enum.derivations:
            assert abs(d.log_prob - expected) < 1e-12

    def test_total_equals_sum_of_derivations(self):
        for seed in range(25):
            rng = np.random.default_rng(1500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=5):
                enum = enumerate_derivations(g, tokens)
                direct = math.fsum(math.exp(d.log_prob) for d in enum.derivations)
                assert math.exp(enum.total_log_prob) == pytest.approx(direct, rel=1e-12)

    def test_sorted_best_first(self):
        enum = enumerate_derivations(toy(0.3), ["a"] * 6)
        lps = [d.log_prob for d in enum.derivations]
        assert lps == sorted(lps, reverse=True)

    def test_not_in_language_is_empty(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        enum = enumerate_derivations(g, ["b", "a"])
        assert len(enum) == 0
        assert enum.total_log_prob == float("-inf")


class TestEnumerationGuards:
    def test_length_cap(self):
        with pytest.raises(EnumerationLimitError, match="cap"):
            enumerate_derivations(toy(0.5), ["a"] * 11)

    def test_custom_cap(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_derivations(toy(0.5), ["a"] * 5, cap=4)

    def test_empty_sentence(self):
        with pytest.raises(ValueError, match="empty"):
            enumerate_derivations(toy(0.5), [])

    def test_blowup_guard(self, monkeypatch):
        import pcfgtk.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "DERIVATION_GUARD", 3)
        with pytest.raises(EnumerationLimitError, match="partial derivations"):
            enumerate_derivations(toy(0.5), ["a"] * 4)


class TestOracleAccumulate:
    def test_toy_reference_counts(self):
        g = toy(0.5)
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="all")
        acc = oracle_accumulate(g, [["a", "a"], ["a"] * 4], spec, eta=1.0)
        assert acc.d_rule_ref[0] == pytest.approx(4.0, abs=1e-12)
        assert acc.d_rule_comp[0] == pytest.approx(4.0, abs=1e-12)

    def test_singleton_delta_gives_raw_counts(self):
        g = parse_grammar("S -> a 1.0")
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="all")
        acc = oracle_accumulate(g, [["a"]], spec)
        assert acc.d_rule_ref[0] == 1.0
        assert acc.d_rule_comp[0] == 1.0

    def test_skips_unparseable_sentences(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        spec = DeltaSpec()
        acc = oracle_accumulate(g, [["a", "b"], ["b", "a"]], spec)
        assert acc.skipped == 1
        assert acc.d_rule_ref[0] == 1.0
