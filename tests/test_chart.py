"""Inside and Viterbi versus the brute-force enumeration, the scalar
reference chart and pins recorded from it."""
import hashlib
import math
import re
from pathlib import Path
from unittest import mock

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
from pcfgtk.chart import _cky, _inside_pass, _plain_pass, _scaled_pass, expected_counts, log_total
from pcfgtk.logmath import NEG_INF, exp_split, logsumexp
from pcfgtk.oracle import catalan

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
    (22, "644c486f7688631d", "-0x1.3d17a00b875d7p+3"),  # block line 1, bracketed
    (48, "de10fc61266f18d4", "-0x1.3036c05b5e39bp+4"),  # block line 2, bracketed
    (9, "ddccae46fad9c7a3", "-0x1.beadff35d727bp+2"),  # block line 3, bracketed
    (28, "11052d3ec6de7b25", "-0x1.df2024156a27fp+3"),  # block line 4, bracketed
    (22, "644c486f7688631d", "-0x1.3d17a00b875d7p+3"),  # block line 1, plain
    (68, "20e93572d122954f", "-0x1.055b7e9542179p+4"),  # block line 2, plain
    (9, "ddccae46fad9c7a3", "-0x1.beadff35d727bp+2"),  # block line 3, plain
    (40, "cb1674a5cc099765", "-0x1.c82cca3c05e62p+3"),  # block line 4, plain
    (1039, "c8a4d692892e08fb", "-0x1.904272094f0f3p+5"),  # SIXTEEN_TOKENS
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
# ``expected_counts(g, tokens, g.weights, brackets)`` as (log Z, counts),
# the counts of G100 as {rule id: hex} for the nonzero ones
TOY_A13_COUNTS = (
    "-0x1.b5b3c35fc6076p+2",
    ["0x1.7fffffffffff9p+3", "0x1.a000000000001p+3"],
)
G100_BLOCK2_BRACKETED_COUNTS = (
    "-0x1.3036c05b5e39bp+4",
    {
        0: "0x1.a782a1fbdbd59p-1", 1: "0x1.61f5781090a9bp-3", 2: "0x1.099bb32fba5bfp-3",
        10: "0x1.a782a1fbdbd5ap-1", 18: "0x1.651bb52fed3eap-1", 41: "0x1.61f5781090a9bp-3",
        47: "0x1.0000000000000p+0", 49: "0x1.0000000000000p+0", 53: "0x1.61f5781090a9bp-3",
        79: "0x1.0000000000000p+0", 81: "0x1.913432f45c733p-2", 84: "0x1.bd99133411691p-1",
        85: "0x1.099bb32fba5bfp-3", 88: "0x1.35c895a02582dp-2", 93: "0x1.3903376b7e0a2p-2",
        97: "0x1.0000000000000p+0",
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


# S -> S S 1e-60, S -> a 1.0: every weight lies within the plain pass's
# range, and so do the masses of a a (1e-60) but not those of three tokens
# or more (2e-120 is about 2**-397)
TINY = "S -> S S 1e-60\nS -> a 1.0\n"


def assert_passes_agree(g, tokens, brackets=None, weights=None, *, plain=True):
    """``_inside_pass`` returns the scaled pass's charts byte for byte, and
    takes the plain pass (no scaled pass at all) exactly when ``plain``."""
    w = g.weights if weights is None else g.weights_of(weights)
    trav = _cky(g, tokens, brackets)
    with mock.patch("pcfgtk.chart._scaled_pass", wraps=_scaled_pass) as scaled:
        got = _inside_pass(trav, w)
    want = _scaled_pass(trav, w)
    assert scaled.call_count == (0 if plain else 1), (tokens, plain)
    for got_chart, want_chart in zip(got, want, strict=True):
        assert got_chart.dtype == want_chart.dtype
        assert got_chart.tobytes() == want_chart.tobytes()


class TestInside:
    def test_toy_aa(self):
        chart = inside(toy(0.5), ["a", "a"])
        assert abs(chart.log_string_prob - math.log(1 / 8)) < 1e-12
        assert chart.in_language

    def test_toy_aaaa(self):
        chart = inside(toy(0.5), ["a"] * 4)
        assert abs(chart.log_string_prob - math.log(5 / 128)) < 1e-12

    def test_charts_compare_and_hash_by_identity(self):
        g = parse_grammar("S -> S S 0.5\nS -> a 0.5\n")
        chart, again = inside(g, ["a", "a"]), inside(g, ["a", "a"])
        assert chart == chart and chart != again
        assert hash(chart) == hash(chart)
        assert len({chart, again, chart}) == 2

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
        for i, j in ((-1, n), (3, 1), (2, 2), (0, n + 1), (n, n + 1), (0.5, 2), (0, 2.0), (None, 2)):
            with pytest.raises(ValueError, match="span"):
                chart.logmass(i, j, "S")
        # non-integer ends used to raise numpy's IndexError; numpy integers stay valid
        assert chart.logmass(np.int64(0), np.int64(n), "S") == chart.log_string_prob
        # an unknown symbol used to raise a bare KeyError
        with pytest.raises(ValueError, match="'X' is not a nonterminal"):
            chart.logmass(0, 2, "X")

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
        mass, counts = expected_counts(g, ["a"] * 13, g.weights)
        assert (mass.hex(), [c.hex() for c in counts]) == TOY_A13_COUNTS

    def test_g100_bracketed_expected_counts(self):
        g, cases = g100_pin_cases()
        tokens, brackets = cases[1]
        mass, counts = expected_counts(g, tokens, g.weights, brackets)
        got = {rule: c.hex() for rule, c in enumerate(counts) if c}
        assert (mass.hex(), got) == G100_BLOCK2_BRACKETED_COUNTS


TOY_QS = (0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9)
# n-best sizes compared with the scalar reference: lists cut at n are where
# an entry's lazily made list could part from the eager merge
N_BESTS = (1, 2, 5, 20, 200)


# The log-sum-exp reference rounds each sum of log values relative to its
# magnitude, at most L, the largest |log weight| or finite |log mass| of its
# chart, and sums at most k = (n - 1) Q exponentials in a row (Q binary
# rules per left-hand side); the scaled pass rounds each candidate's
# mantissa product twice and each row sum k - 1 times, relative to the
# mass.  Summed over the 2w - 1 rules of a derivation of w tokens, either
# side's error in an entry's log mass is within a small multiple of
# u (2w - 1)(L + k), u = 2**-53; the worst case of that analysis is below
# 8 u (2w - 1)(L + k).  An expected count sums shares passed down at most n
# levels, each the ratio of a term to its row total, so its relative error
# is within a small multiple of u n (2n - 1)(L + k).  These are the
# tightest constants that pass, rounded up: 0.843 and 0.0685 were seen over
# the random grammars, toy a^k and G100 sentences of ``TestScalarReference``.
U = 2.0**-53
C_INSIDE = 0.85
C_COUNTS = 0.07


def log_scale(g, tokens, weights, table) -> float:
    """L + k of a chart's rounding bound (see ``C_INSIDE``)."""
    finite = np.abs(table[np.isfinite(table)])
    scale = max(max(map(abs, weights)), float(finite.max(initial=0.0)))
    return scale + max(1, (len(tokens) - 1) * g.binary_rule_table.shape[1])


def assert_near_log_reference(g, tokens, brackets=None, weight_sets=None):
    """Inside log masses, and log Z and expected counts under each log
    weight set (default: the grammar's and halved log weights), lie within
    the derived rounding bound of the log-sum-exp reference's."""
    n = len(tokens)
    got, want = inside(g, tokens, brackets).table, scalar_chart.inside_log(g, tokens, brackets).table
    assert (np.isfinite(got) == np.isfinite(want)).all()
    scale = log_scale(g, tokens, g.log_probs, want)
    for i, j, a in zip(*np.nonzero(np.isfinite(want))):
        assert abs(got[i, j, a] - want[i, j, a]) <= C_INSIDE * U * (2 * (j - i) - 1) * scale
    if weight_sets is None:
        weight_sets = (g.log_probs, tuple(0.5 * w for w in g.log_probs))
    for weights in weight_sets:
        mass, counts = expected_counts(g, tokens, g.weights_of(weights), brackets)
        want_mass, want_counts = scalar_chart.expected_counts_log(g, tokens, weights, brackets)
        if want_mass == NEG_INF:
            assert mass == NEG_INF and not counts.any()
            continue
        table = scalar_chart.inside_log(g, tokens, brackets, weights).table
        scale = log_scale(g, tokens, weights, table)
        assert abs(mass - want_mass) <= C_INSIDE * U * (2 * n - 1) * scale
        bound = C_COUNTS * U * n * (2 * n - 1) * scale
        assert (np.abs(counts - want_counts) <= bound * want_counts).all()


def assert_matches_scalar_reference(g, tokens, brackets=None, n_bests=N_BESTS):
    """Inside tables, Viterbi results, expected counts (under the grammar's
    and under halved log weights) and n-best lists of each size in
    ``n_bests`` all equal the scalar reference's, bit for bit, the inside
    tables and expected counts lie near the log-sum-exp reference's, and
    both weight sets take the plain inside pass."""
    assert_near_log_reference(g, tokens, brackets)
    for weights in (g.log_probs, tuple(0.5 * w for w in g.log_probs)):
        assert_passes_agree(g, tokens, brackets, weights)
    got, want = inside(g, tokens, brackets), scalar_chart.inside(g, tokens, brackets)
    assert got.table.shape == want.table.shape
    assert got.table.tobytes() == want.table.tobytes()
    got, want = viterbi(g, tokens, brackets), scalar_chart.viterbi(g, tokens, brackets)
    if want is None:
        assert got is None
    else:
        assert (got[0].rules, got[1].hex()) == (want[0].rules, want[1].hex())
    for weights in (g.log_probs, tuple(0.5 * w for w in g.log_probs)):
        got = expected_counts(g, tokens, g.weights_of(weights), brackets)
        want = scalar_chart.expected_counts(g, tokens, weights, brackets)
        assert got[0].hex() == want[0].hex()
        assert got[1].tobytes() == want[1].tobytes()
        # the inside pass alone gives the same total
        assert log_total(g, tokens, g.weights_of(weights), brackets).hex() == want[0].hex()
    # the grammar's own weights give inside's total, bit for bit
    total = expected_counts(g, tokens, g.weights_of(list(g.log_probs)), brackets)[0]
    assert total.hex() == inside(g, tokens, brackets).log_string_prob.hex()
    for n in n_bests:
        got = nbest(g, tokens, n, brackets).derivations
        want = scalar_chart.nbest(g, tokens, n, brackets).derivations
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
        # a cell tie exactly and Viterbi runs on its canonical tie-break; an
        # n-best list ranks each cell's whole window of ties, which beyond
        # ten tokens takes seconds at the larger sizes
        g = toy(q)
        for n_tokens in range(1, 21):
            n_bests = N_BESTS if n_tokens <= 10 else (1, 2, 3)
            assert_matches_scalar_reference(g, ["a"] * n_tokens, n_bests=n_bests)

    def test_g100(self):
        g, cases = g100_pin_cases()
        for tokens, brackets in cases[:-1]:
            assert_matches_scalar_reference(g, tokens, brackets)


# S alone has binary rules, so each width of a^n has one row per span: the
# widest span's row is its width's only one
FOLD = "S -> S S 0.3\nS -> S A 0.2\nS -> A S 0.15\nS -> A A 0.1\nS -> a 0.25\nA -> a 1.0\n"


def pairwise_rows(g, tokens, brackets=None) -> list[tuple[int, int]]:
    """(rows of its width, columns) of each row of the scaled pass whose
    pairwise sum, ``np.sum``, differs from its terms added left to right."""
    kept = []
    _scaled_pass(_cky(g, tokens, brackets), g.weights, kept=kept)
    found = []
    for _, _, terms, _ in kept:
        for row in terms.T:
            total = 0.0
            for term in row.tolist():
                total += term
            if np.sum(row) != total:
                found.append(terms.shape[::-1])
    return found


def assert_passes_match_scalar(g, tokens, brackets=None):
    """The plain and the scaled pass give the scalar chart's mantissa and
    exponent of every present entry, bit for bit, and no other entry."""
    want = {
        cell: (m.hex(), e) for cell, (m, e) in scalar_chart.inside_scaled(g, tokens, brackets).items()
    }
    trav = _cky(g, tokens, brackets)
    shape = (len(tokens) + 1,) + trav.shape[1:]
    passes = {
        "plain": _plain_pass(trav, g.weights),
        "scaled": _scaled_pass(trav, g.weights),
    }
    for name, charts in passes.items():
        mant, expo = (a.reshape(shape) for a in charts)
        got = {
            (i, j, a): (mant[i, j, a].hex(), int(expo[i, j, a]))
            for i, j, a in zip(*(axis.tolist() for axis in mant.nonzero()))
        }
        assert got == want, name


class TestFoldOrder:
    """Each row sums its columns left to right, as the scalar chart does,
    also where numpy's pairwise ``np.sum`` rounds differently: in a width of
    several rows and in a width of a single row."""

    def test_single_row_widths(self):
        g = parse_grammar(FOLD)
        tokens = ["a"] * 8
        found = pairwise_rows(g, tokens)
        assert (1, 28) in found  # the widest span: 7 splits of 4 rules
        assert any(rows > 1 for rows, _ in found)
        assert_passes_match_scalar(g, tokens)
        assert_matches_scalar_reference(g, tokens, n_bests=(1, 2))

    def test_g100_rows(self):
        g, cases = g100_pin_cases()
        for tokens, brackets in (cases[1], cases[5]):  # block line 2, bracketed and plain
            assert pairwise_rows(g, tokens, brackets)
            assert_passes_match_scalar(g, tokens, brackets)
            assert_matches_scalar_reference(g, tokens, brackets)


class TestRangeEnds:
    """Masses and weights beyond the range of a double."""

    def test_mass_below_the_smallest_double(self):
        # two derivations of probability 1e-400 each
        g = parse_grammar("S -> S S 1e-200\nS -> a 1.0\n")
        want = math.log(2) + 2 * math.log(1e-200)
        assert inside(g, ["a"] * 3).log_string_prob == pytest.approx(want, rel=4 * U)
        mass, counts = expected_counts(g, ["a"] * 3, g.weights)
        assert mass == inside(g, ["a"] * 3).log_string_prob
        assert counts.tolist() == [2.0, 3.0]
        assert_near_log_reference(g, ["a"] * 3)

    def test_log_weights_near_plus_and_minus_800(self):
        for seed in range(20):
            rng = np.random.default_rng(13500 + seed)
            g = random_grammar(rng, ensure_binary=True)
            shifts = rng.choice([-800.0, 800.0], size=len(g.rules))
            weights = [
                tuple(w + 800.0 for w in g.log_probs),
                tuple(w - 800.0 for w in g.log_probs),
                tuple(float(w + d) for w, d in zip(g.log_probs, shifts)),
            ]
            for tokens in sample_corpus(g, rng, 2, max_len=8, min_len=3):
                assert_near_log_reference(g, tokens, weight_sets=weights)
                for w in weights:
                    assert_passes_agree(g, tokens, weights=w, plain=False)

    def test_weights_within_the_range_and_entries_beyond_it(self):
        # log weights shifted by +200 lie within the plain pass's range, but
        # a two-token entry's mass is near 2**860, and a wider one overflows
        # a double
        for seed in range(20):
            rng = np.random.default_rng(13500 + seed)
            g = random_grammar(rng, ensure_binary=True)
            weights = tuple(w + 200.0 for w in g.log_probs)
            e_weights = exp_split(weights)[1][:-1]
            assert -339 <= e_weights.min() and e_weights.max() <= 320
            for tokens in sample_corpus(g, rng, 2, max_len=8, min_len=3):
                assert_passes_agree(g, tokens, weights=weights, plain=False)

    def test_masses_leave_the_range_from_three_tokens(self):
        g = parse_grammar(TINY)
        for n in range(2, 9):
            assert_passes_agree(g, ["a"] * n, plain=n == 2)
            want = math.log(catalan(n - 1)) + (n - 1) * math.log(1e-60)
            assert inside(g, ["a"] * n).log_string_prob == pytest.approx(want, rel=1e-15)


LN2 = math.log(2.0)


def near(x: int) -> float:
    """A log weight whose exp is near 2**(x - 0.5): its frexp exponent is x."""
    return (x - 0.5) * LN2


class TestPlainPassRange:
    def test_the_plain_pass_runs_exactly_within_its_range(self):
        # "a a" under log weights for S -> S S, S -> a and the unused
        # S -> b, chosen to give the root and the two lexical weights the
        # exponents root, a and b.  Each sweep moves one bound across its
        # limit and keeps the others: the smallest exponent lo >= -339 of
        # the weights and entries, the largest hi <= 320, and the spread
        # hi - lo <= 339.  (lo, hi) is (root, a) in the first sweep, (root,
        # b) in the second and (a, b) in the third.
        g = parse_grammar("S -> S S 0.5\nS -> a 0.25\nS -> b 0.25\n")
        sweeps = {
            "lo": [(root, -5, -6, root, -5) for root in range(-345, -332)],
            "spread": [(root, -5, 10, root, 10) for root in range(-334, -323)],
            "hi": [(30, 6, b, 6, b) for b in range(314, 327)],
        }
        trav = _cky(g, ["a", "a"], None)
        for name, sweep in sweeps.items():
            taken = set()
            for root, a, b, lo, hi in sweep:
                weights = (near(root) - 2 * near(a), near(a), near(b))
                mant, expo = _scaled_pass(trav, g.weights_of(weights))
                exponents = np.concatenate([exp_split(weights)[1][:-1], expo[mant > 0]])
                assert (exponents.min(), exponents.max()) == (lo, hi)
                plain = lo >= -339 and hi <= 320 and hi - lo <= 339
                assert_passes_agree(g, ["a", "a"], weights=weights, plain=plain)
                taken.add(plain)
            assert taken == {True, False}, name


    def test_a_row_that_overflows_is_rejected(self):
        # S -> X Y for all 144 pairs of 12 nonterminals that each rewrite a:
        # under weights just below 2**339, every product of "a a"'s root row
        # is near 2**1017 and their sum overflows to inf, whose frexp
        # exponent is 0.  With that 0 the exponents run from 0 to 339,
        # within the spread; the bound hi <= 320 is what rejects the chart.
        nts = ["S"] + [f"N{i}" for i in range(1, 12)]
        lines = [f"S -> {x} {y} {1 / 145!r}" for x in nts for y in nts] + [f"S -> a {1 / 145!r}"]
        g = parse_grammar("\n".join(lines + [f"{x} -> a 1.0" for x in nts[1:]]) + "\n")
        weights = [(339 - 0.01) * LN2] * len(g.rules)
        trav = _cky(g, ["a", "a"], None)
        with np.errstate(over="ignore"):
            plain = np.ldexp(*exp_split(weights))[:-1]
            assert np.isinf(plain[0] * plain[0] * plain[0] * 144)
        assert math.isfinite(_scaled_pass(trav, g.weights_of(weights))[0][trav.root])
        assert_passes_agree(g, ["a", "a"], weights=weights, plain=False)


class TestLogsOnDemand:
    def test_logmass_is_the_table_cell_for_cell(self):
        # plain charts (G100, plain and bracketed) and fallback ones (the
        # tiny-mass grammar from three tokens on, plain and bracketed)
        g, cases = g100_pin_cases()
        charts = [inside(g, tokens, brackets) for tokens, brackets in cases]
        tiny = parse_grammar(TINY)
        charts += [inside(tiny, ["a"] * n) for n in (2, 3, 8)]
        charts.append(inside(tiny, ["a"] * 6, Bracketing(frozenset({(0, 2), (3, 6)}))))
        for chart in charts:
            assert "table" not in vars(chart)  # no log is taken before a read
            n = len(chart.sentence)
            assert chart.log_string_prob == chart.logmass(0, n, chart.grammar.start)
            table = chart.table
            assert np.isneginf(table).any() and np.isfinite(table).any()
            for i in range(n):
                for j in range(i + 1, n + 1):
                    for a, nt in enumerate(chart.grammar.nonterminals):
                        assert chart.logmass(i, j, nt).hex() == table[i, j, a].hex()
            assert chart.table is table


class TestArrayLayoutEdgeCases:
    """Shapes the dense width-by-width layout must handle as the scalar
    chart did: the same results, or the same errors."""

    def test_grammar_without_binary_rules(self):
        g = parse_grammar("S -> a 0.6\nS -> b 0.4\n")
        assert_matches_scalar_reference(g, ["a"])
        assert_matches_scalar_reference(g, ["a", "b"])
        assert viterbi(g, ["a", "b"]) is None
        assert expected_counts(g, ["b"], g.weights)[1].tolist() == [0.0, 1.0]

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
            token = next(r for r in g.rules if r.is_lexical).terminal
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
                    lambda *a: expected_counts(a[0], a[1], a[0].weights, *a[2:]),
                    lambda *a: scalar_chart.expected_counts(a[0], a[1], a[0].log_probs, *a[2:]),
                ),
            ):
                with pytest.raises(ValueError) as want:
                    call(reference)
                with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                    call(ours)
