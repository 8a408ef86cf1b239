"""Inside and Viterbi versus the brute-force enumeration, the scalar
reference chart and pins recorded from it."""
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import scalar_chart
from conftest import random_grammar, sample_bracketing, sample_corpus, sample_rules, toy
from pcfgtk import (
    Bracketing,
    UnknownTokenError,
    derivation_spans,
    enumerate_derivations,
    inside,
    load_grammar,
    nbest,
    parse_grammar,
    read_bracketed_corpus,
    replay_derivation,
    viterbi,
)
from pcfgtk.chart import expected_counts
from pcfgtk.logmath import logsumexp

# perfbench's seed-0 G100 grammar and its bracketed block of four
# sentences (see tests/test_kbest.py); SIXTEEN_TOKENS is sampled from it
G100 = Path(__file__).parent / "data" / "g100-seed0.g"
G100_BLOCK = Path(__file__).parent / "data" / "g100-seed0-block.txt"
SIXTEEN_TOKENS = "t5 t13 t5 t0 t11 t3 t3 t3 t5 t5 t12 t10 t10 t4 t3 t6".split()

# Recorded from the scalar chart (tests/scalar_chart.py) for each of
# ``g100_pin_cases()``.  An inside table is pinned by its number of finite
# cells and a digest of ``table_hexes``, with the full-span log probability
# spelled out; a Viterbi result as ``(rules, log_prob.hex())``.
G100_INSIDE = [
    (22, "f68db19bbdd627a3", "-0x1.3d17a00b875d7p+3"),  # block line 1, bracketed
    (48, "7b4521af844460eb", "-0x1.3036c05b5e39bp+4"),  # block line 2, bracketed
    (9, "ddccae46fad9c7a3", "-0x1.beadff35d727bp+2"),  # block line 3, bracketed
    (28, "32377fa4bb492054", "-0x1.df2024156a27ep+3"),  # block line 4, bracketed
    (22, "f68db19bbdd627a3", "-0x1.3d17a00b875d7p+3"),  # block line 1, plain
    (68, "25bf6abd72fb1d7c", "-0x1.055b7e954217ap+4"),  # block line 2, plain
    (9, "ddccae46fad9c7a3", "-0x1.beadff35d727bp+2"),  # block line 3, plain
    (40, "324d18f3aaf05cc9", "-0x1.c82cca3c05e61p+3"),  # block line 4, plain
    (1039, "39e2bec9a0644a6f", "-0x1.904272094f0f3p+5"),  # SIXTEEN_TOKENS
]
G100_VITERBI = [
    ((1, 58, 80, 57, 78), "-0x1.45d11d980619cp+3"),
    ((0, 10, 47, 49, 81, 84, 79, 97, 18), "-0x1.3f34b6308b8d4p+4"),
    ((5, 57, 9), "-0x1.beadff35d727bp+2"),
    ((0, 19, 82, 41, 47, 49, 98), "-0x1.df2024156a27ep+3"),
    ((1, 58, 80, 57, 78), "-0x1.45d11d980619cp+3"),
    ((0, 10, 47, 42, 42, 49, 79, 77, 88), "-0x1.15bae897bc80ap+4"),
    ((5, 57, 9), "-0x1.beadff35d727bp+2"),
    ((0, 13, 19, 47, 82, 49, 98), "-0x1.dd9a97cb4b462p+3"),
    (
        (6, 90, 0, 16, 17, 0, 16, 19, 0, 13, 17, 49, 87, 88, 81, 81, 88, 18, 17, 60, 17, 54,
         29, 1, 58, 81, 80, 58, 78, 18, 39),
        "-0x1.f6a9ce4dbde39p+5",
    ),
]
# ``expected_counts(g, tokens, g.log_probs, brackets)`` as (log Z, counts),
# the counts of G100 as {rule id: hex} for the nonzero ones
TOY_A13_COUNTS = (
    "-0x1.b5b3c35fc6076p+2",
    ["0x1.7fffffffffff7p+3", "0x1.9fffffffffffdp+3"],
)
G100_BLOCK2_BRACKETED_COUNTS = (
    "-0x1.3036c05b5e39bp+4",
    {
        0: "0x1.a782a1fbdbd5ap-1", 1: "0x1.61f5781090aa2p-3", 2: "0x1.099bb32fba5bep-3",
        10: "0x1.a782a1fbdbd5ap-1", 18: "0x1.651bb52fed3e9p-1", 41: "0x1.61f5781090aa2p-3",
        47: "0x1.0000000000001p+0", 49: "0x1.0000000000001p+0", 53: "0x1.61f5781090aa2p-3",
        79: "0x1.0000000000001p+0", 81: "0x1.913432f45c736p-2", 84: "0x1.bd99133411692p-1",
        85: "0x1.099bb32fba5bep-3", 88: "0x1.35c895a025830p-2", 93: "0x1.3903376b7e09cp-2",
        97: "0x1.0000000000001p+0",
    },
)


def g100_pin_cases():
    """G100 and (tokens, brackets): the block bracketed, the block plain,
    then ``SIXTEEN_TOKENS`` plain."""
    g = load_grammar(G100)
    block = read_bracketed_corpus(G100_BLOCK)
    cases = [(s.tokens, s.brackets) for s in block] + [(s.tokens, None) for s in block]
    return g, cases + [(SIXTEEN_TOKENS, None)]


def table_hexes(table) -> list[str]:
    """``"i,j,a=hex"`` for every finite cell, in index order."""
    return [f"{i},{j},{a}={table[i, j, a].hex()}" for i, j, a in zip(*np.nonzero(np.isfinite(table)))]


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

    def test_logmass_rejects_spans_outside_the_sentence(self):
        # negative or reversed indices used to wrap around or read empty cells
        chart = inside(load_grammar(G100), SIXTEEN_TOKENS)
        n = len(SIXTEEN_TOKENS)
        assert chart.logmass(0, n, "S") == chart.log_string_prob
        for i, j in ((-1, n), (3, 1), (2, 2), (0, n + 1), (n, n + 1)):
            with pytest.raises(ValueError, match="span"):
                chart.logmass(i, j, "S")

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


class TestPins:
    def test_g100_inside_tables(self):
        g, cases = g100_pin_cases()
        for (tokens, brackets), want in zip(cases, G100_INSIDE, strict=True):
            chart = inside(g, tokens, brackets)
            cells = table_hexes(chart.table)
            digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]
            assert (len(cells), digest, chart.log_string_prob.hex()) == want

    def test_g100_viterbi(self):
        g, cases = g100_pin_cases()
        for (tokens, brackets), want in zip(cases, G100_VITERBI, strict=True):
            d, lp = viterbi(g, tokens, brackets)
            assert (d.rules, lp.hex()) == want
            assert lp == d.log_prob

    def test_toy_a13_expected_counts(self):
        g = toy(0.3)
        mass, counts = expected_counts(g, ["a"] * 13, g.log_probs)
        assert (mass.hex(), [c.hex() for c in counts]) == TOY_A13_COUNTS

    def test_g100_bracketed_expected_counts(self):
        g, cases = g100_pin_cases()
        tokens, brackets = cases[1]
        mass, counts = expected_counts(g, tokens, g.log_probs, brackets)
        got = {rule: c.hex() for rule, c in enumerate(counts) if c}
        assert (mass.hex(), got) == G100_BLOCK2_BRACKETED_COUNTS


TOY_QS = (0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9)


def assert_matches_scalar_reference(g, tokens, brackets=None, n_best=10):
    """Inside tables, Viterbi results, expected counts (under the grammar's
    and under halved log weights) and n-best lists all equal the scalar
    reference's, bit for bit."""
    got, want = inside(g, tokens, brackets), scalar_chart.inside(g, tokens, brackets)
    assert got.table.shape == want.table.shape
    assert got.table.tobytes() == want.table.tobytes()
    got, want = viterbi(g, tokens, brackets), scalar_chart.viterbi(g, tokens, brackets)
    if want is None:
        assert got is None
    else:
        assert (got[0].rules, got[1].hex()) == (want[0].rules, want[1].hex())
    for weights in (g.log_probs, tuple(0.5 * w for w in g.log_probs)):
        got = expected_counts(g, tokens, weights, brackets)
        want = scalar_chart.expected_counts(g, tokens, weights, brackets)
        assert got[0].hex() == want[0].hex()
        assert got[1].tobytes() == want[1].tobytes()
    got = nbest(g, tokens, n_best, brackets).derivations
    want = scalar_chart.nbest(g, tokens, n_best, brackets).derivations
    assert [(d.rules, d.log_prob.hex()) for d in got] == [
        (d.rules, d.log_prob.hex()) for d in want
    ]


class TestScalarReference:
    def test_random_grammars_plain_and_bracketed(self):
        for seed in range(60):
            rng = np.random.default_rng(12500 + seed)
            g = random_grammar(rng, ensure_binary=True)
            for tokens in sample_corpus(g, rng, 2, max_len=8, min_len=3):
                assert_matches_scalar_reference(g, tokens)
            rules = sample_rules(g, rng, 8)
            if rules is not None:
                tokens = replay_derivation(g, rules)
                brackets = sample_bracketing(g, rng, rules, len(tokens))
                assert_matches_scalar_reference(g, tokens, brackets)

    @pytest.mark.parametrize("q", TOY_QS)
    def test_toy_up_to_twenty_tokens(self, q):
        # every derivation of a^n uses the same rules, so all candidates of
        # a cell tie exactly and Viterbi runs on its canonical tie-break
        g = toy(q)
        for n_tokens in range(1, 21):
            assert_matches_scalar_reference(g, ["a"] * n_tokens, n_best=3)

    def test_g100(self):
        g, cases = g100_pin_cases()
        for tokens, brackets in cases[:-1]:
            assert_matches_scalar_reference(g, tokens, brackets)


class TestArrayLayoutEdgeCases:
    """Shapes the dense width-by-width layout must handle as the scalar
    chart did: the same results, or the same errors."""

    def test_grammar_without_binary_rules(self):
        g = parse_grammar("S -> a 0.6\nS -> b 0.4\n")
        assert_matches_scalar_reference(g, ["a"])
        assert_matches_scalar_reference(g, ["a", "b"])
        assert viterbi(g, ["a", "b"]) is None
        assert expected_counts(g, ["b"], g.log_probs)[1].tolist() == [0.0, 1.0]

    def test_nonterminals_without_binary_rules(self):
        # A and C have lexical rules only, so their table rows are absent
        # and the padded columns of S and B must never win
        g = parse_grammar(
            "S -> A B 0.5\nS -> a 0.5\nA -> a 1.0\n"
            "B -> B C 0.2\nB -> C C 0.3\nB -> S B 0.1\nB -> b 0.4\nC -> b 1.0\n"
        )
        assert g.binary_rule_table.shape == (2, 3)
        for tokens in (["a", "b"], "a b b".split(), "a b b b".split(), "a a b b b".split()):
            assert_matches_scalar_reference(g, tokens)
        assert inside(g, "a b b b".split()).in_language

    def test_one_token_sentence(self):
        for g in (toy(0.3), load_grammar(G100)):
            token = g.lexical_rules[0].terminal
            assert_matches_scalar_reference(g, [token])
            assert_matches_scalar_reference(g, [token], Bracketing(frozenset({(0, 1)})))

    def test_brackets_leaving_no_parse(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> B B 0.5\nB -> b 0.5\n")
        brackets = Bracketing(frozenset({(0, 2)}))
        assert_matches_scalar_reference(g, "a b b".split(), brackets)
        assert not inside(g, "a b b".split(), brackets).in_language
        assert inside(g, "a b b".split()).in_language

    def test_full_span_without_the_start_symbol(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\nC -> B A 1.0\n")
        chart = inside(g, ["b", "a"])
        assert chart.logmass(0, 2, "C") == 0.0
        assert not chart.in_language
        assert_matches_scalar_reference(g, ["b", "a"])

    def test_errors_are_unchanged(self):
        g = toy(0.5)
        for call in (
            lambda f: f(g, []),
            lambda f: f(g, ["a", "x"]),
            lambda f: f(g, ["a", "a"], Bracketing(frozenset({(0, 3)}))),
            lambda f: f(g, ["x", "a"], Bracketing(frozenset({(0, 3)}))),
        ):
            for ours, reference in (
                (inside, scalar_chart.inside),
                (viterbi, scalar_chart.viterbi),
                (lambda *a: nbest(a[0], a[1], 2, *a[2:]), lambda *a: scalar_chart.nbest(a[0], a[1], 2, *a[2:])),
                (
                    lambda *a: expected_counts(a[0], a[1], a[0].log_probs, *a[2:]),
                    lambda *a: scalar_chart.expected_counts(a[0], a[1], a[0].log_probs, *a[2:]),
                ),
            ):
                with pytest.raises(ValueError) as want:
                    call(reference)
                with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                    call(ours)
