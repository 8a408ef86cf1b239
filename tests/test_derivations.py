"""Derivation records: probability, counts, replay, spans, rendering."""
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_grammar, sample_rules, toy
from pcfgtk import (
    Derivation,
    derivation_probability,
    derivation_spans,
    derivation_tree,
    format_tree,
    load_grammar,
    parse_grammar,
    replay_derivation,
)
from pcfgtk.derivations import count_vector, score_counts, score_rules
from pcfgtk.logmath import logsumexp, normalized_weights

TOY_AA = (0, 1, 1)  # S -> S S, then two S -> a
TOY_AAAA_LEFT = (0, 0, 0, 1, 1, 1, 1)  # fully left-branching tree over four tokens


class TestDerivationProbability:
    def test_toy_aa(self):
        g = toy(0.5)
        d = Derivation.build(g, TOY_AA, 2)
        assert abs(d.log_prob - math.log(0.5 * 0.5**2)) < 1e-12
        assert derivation_probability(g, d) == d.log_prob

    def test_single_rule_sentence(self):
        g = parse_grammar("S -> a 1.0")
        d = Derivation.build(g, (0,), 1)
        assert d.log_prob == 0.0

    def test_toy_aaaa(self):
        g = toy(0.5)
        d = Derivation.build(g, TOY_AAAA_LEFT, 4)
        assert abs(d.log_prob - math.log(1 / 128)) < 1e-12

    def test_out_of_range_rule_id(self):
        g = toy(0.5)
        for rules in ((0, 5), (0, -1, 1)):
            with pytest.raises(ValueError, match="out of range"):
                derivation_probability(g, Derivation(rules, 2, 0.0))

    def test_score_rules_is_score_counts_bit_for_bit(self):
        g = load_grammar(Path(__file__).parent / "data" / "g100-seed0.g")
        rng = np.random.default_rng(17)
        for size in list(range(1, 40)) * 5:
            rules = rng.integers(0, len(g.rules), size).tolist()
            want = score_counts(g, count_vector(g, rules))
            assert score_rules(g, rules).hex() == want.hex()

    def test_sums_run_left_to_right_on_every_python(self):
        # 1 + 1e-16 + 1e-16 is 1.0 left to right but 1.0000000000000002
        # compensated, as the built-in sum adds floats from Python 3.12 on
        assert math.fsum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
        stub = SimpleNamespace(rules=(None,) * 3, log_probs=(-1.0, -1e-16, -1e-16))
        assert score_counts(stub, (1, 1, 1)) == score_rules(stub, (0, 1, 2)) == -1.0
        tiny = math.log(1e-16)
        assert math.fsum([1.0, math.exp(tiny), math.exp(tiny)]) == 1.0000000000000002
        assert normalized_weights([0.0, tiny, tiny])[0] == 1.0
        assert logsumexp([0.0, tiny, tiny]) == 0.0

    def test_matches_product_form(self):
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            g = random_grammar(rng)
            rules = sample_rules(g, rng, 6)
            if rules is None:
                continue
            d = Derivation.build(g, rules, len(replay_derivation(g, rules)))
            product = math.prod(g.probs[r] for r in rules)
            assert abs(d.log_prob - math.log(product)) <= 1e-12 * max(1.0, abs(d.log_prob))


def nonterminal_counts(g, counts):
    """N(nonterminal, d) from the rule counts N(rule, d), by ``nt_index``."""
    return np.bincount(g.rule_lhs_index, counts, len(g.nonterminals)).tolist()


class TestRuleCounts:
    def test_toy_aaaa_counts(self):
        g = toy(0.5)
        counts = count_vector(g, TOY_AAAA_LEFT)
        assert counts == (3, 4)
        assert nonterminal_counts(g, counts) == [7]

    def test_toy_aa_counts(self):
        g = toy(0.5)
        counts = count_vector(g, TOY_AA)
        assert counts == (1, 2)
        assert nonterminal_counts(g, counts) == [3]

    def test_single_rule_counts(self):
        g = parse_grammar("S -> a 1.0")
        counts = count_vector(g, (0,))
        assert counts == (1,)
        assert nonterminal_counts(g, counts) == [1]

    def test_nonterminal_totals_match_rule_sums(self):
        for seed in range(30):
            rng = np.random.default_rng(700 + seed)
            g = random_grammar(rng)
            rules = sample_rules(g, rng, 6)
            if rules is None:
                continue
            counts = count_vector(g, rules)
            per_nt = nonterminal_counts(g, counts)
            for nt in g.nonterminals:
                total = sum(counts[r.id] for r in g.rules_by_lhs[nt])
                assert per_nt[g.nt_index[nt]] == total
            assert sum(per_nt) == len(rules)


# each public view of a rule sequence, called as walk(grammar, rules, n_tokens)
WALKERS = {
    "replay": lambda g, rules, n: replay_derivation(g, rules),
    "spans": lambda g, rules, n: derivation_spans(g, Derivation(tuple(rules), n, 0.0)),
    "tree": lambda g, rules, n: derivation_tree(g, Derivation(tuple(rules), n, 0.0)),
}
over_walkers = pytest.mark.parametrize("walk", WALKERS.values(), ids=WALKERS.keys())


class TestReplay:
    def test_toy_replay(self):
        g = toy(0.5)
        assert replay_derivation(g, TOY_AA) == ["a", "a"]
        assert replay_derivation(g, TOY_AAAA_LEFT) == ["a"] * 4

    @over_walkers
    def test_incomplete_derivation(self, walk):
        g = toy(0.5)
        with pytest.raises(ValueError, match="incomplete"):
            walk(g, (0, 1), 1)

    @over_walkers
    def test_wrong_nonterminal(self, walk):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        with pytest.raises(ValueError, match="cannot rewrite"):
            walk(g, (0, 2, 1), 2)  # expands B where A is pending

    @over_walkers
    def test_overrun(self, walk):
        g = parse_grammar("S -> a 1.0")
        with pytest.raises(ValueError, match="completed"):
            walk(g, (0, 0), 1)

    @over_walkers
    def test_negative_rule_id(self, walk):
        g = toy(0.5)
        with pytest.raises(ValueError, match="out of range"):
            walk(g, (0, -1, 1), 2)  # -1 must not be read as the last rule

    @over_walkers
    def test_deep_right_branching(self, walk):
        g = toy(0.5)
        n = 1500
        result = walk(g, (0, 1) * (n - 1) + (1,), n)
        if isinstance(result, list):
            assert result == ["a"] * n
        elif isinstance(result, frozenset):
            assert result == {(i, n) for i in range(n - 1)} | {(i, i + 1) for i in range(n)}
        else:
            assert format_tree(result) == "(S (S a) " * (n - 1) + "(S a)" + ")" * (n - 1)
            for i in range(n - 1):  # iterative descent: the tree is 1,500 deep
                label, (left, result) = result
                assert label == "S" and left == ("S", ("a",))
            assert result == ("S", ("a",))


def render_recursively(tree) -> str:
    """The bracketed rendering spelled recursively, to check format_tree by."""
    label, children = tree
    parts = [c if isinstance(c, str) else render_recursively(c) for c in children]
    return f"({label} {' '.join(parts)})"


class TestSpansAndTrees:
    def test_left_branching_spans(self):
        g = toy(0.5)
        d = Derivation.build(g, TOY_AAAA_LEFT, 4)
        assert derivation_spans(g, d) == frozenset(
            {(0, 4), (0, 3), (0, 2), (0, 1), (1, 2), (2, 3), (3, 4)}
        )

    def test_tree_rendering(self):
        g = toy(0.5)
        tree = derivation_tree(g, Derivation.build(g, TOY_AA, 2))
        assert format_tree(tree) == "(S (S a) (S a))"

    def test_replay_round_trip_random(self):
        for seed in range(30):
            rng = np.random.default_rng(900 + seed)
            g = random_grammar(rng)
            rules = sample_rules(g, rng, 6)
            if rules is None:
                continue
            tokens = replay_derivation(g, rules)
            d = Derivation.build(g, rules, len(tokens))
            spans = derivation_spans(g, d)
            assert (0, len(tokens)) in spans
            tree = derivation_tree(g, d)
            leaves = format_tree(tree).replace("(", " ").replace(")", " ").split()
            assert [t for t in leaves if t not in g.nonterminals] == tokens
            assert format_tree(tree) == render_recursively(tree)
