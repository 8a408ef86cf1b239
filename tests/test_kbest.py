"""n-best lists versus Viterbi and the full enumeration."""
import copy
import gc
import inspect
import itertools
import math
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scalar_chart
from conftest import random_grammar, sample_bracketing, sample_corpus, sample_rules, toy
from pcfgtk import (
    Derivation,
    derivation_spans,
    enumerate_derivations,
    inside,
    kbest,
    load_grammar,
    nbest,
    parse_grammar,
    read_bracketed_corpus,
    replay_derivation,
    serialize_grammar,
    viterbi,
)
from pcfgtk.chart import expected_counts
from pcfgtk.oracle import _expand

# perfbench's seed-0 G100 grammar (10 nonterminals, 100 rules) and its
# bracketed block of four short sentences; the longer sentences below were
# sampled from the grammar
G100 = Path(__file__).parent / "data" / "g100-seed0.g"
G100_BLOCK = Path(__file__).parent / "data" / "g100-seed0-block.txt"
TWELVE_TOKENS = "t10 t7 t0 t4 t12 t5 t9 t6 t7 t7 t1 t5".split()
SIXTEEN_TOKENS = "t5 t13 t5 t0 t11 t3 t3 t3 t5 t5 t12 t10 t10 t4 t3 t6".split()

# ``(rules, log_prob.hex())`` of ``nbest(g, tokens, 10, brackets)`` for each
# of ``g100_cases()``, recorded from a merge that scored every hypothesis
# canonically from its own count vector, so they check the incremental
# ranking against an independent one
G100_NBEST_10 = [
    [  # block line 1, bracketed
        ((1, 58, 80, 57, 78), "-0x1.45d11d980619cp+3"),
        ((5, 58, 5, 57, 8), "-0x1.75ef22b2ce21ap+3"),
        ((5, 52, 38, 57, 8), "-0x1.9279f31d677edp+3"),
    ],
    [  # block line 2, bracketed
        ((0, 10, 47, 49, 81, 84, 79, 97, 18), "-0x1.3f34b6308b8d4p+4"),
        ((0, 10, 47, 49, 84, 79, 93, 97, 18), "-0x1.432d727d4307fp+4"),
        ((1, 53, 41, 47, 49, 84, 79, 97, 88), "-0x1.4c4d06cfed4a6p+4"),
        ((0, 10, 47, 49, 85, 79, 2, 97, 88), "-0x1.50e53a37cf6cdp+4"),
    ],
    [  # block line 3, bracketed
        ((5, 57, 9), "-0x1.beadff35d727bp+2"),
    ],
    [  # block line 4, bracketed
        ((0, 19, 82, 41, 47, 49, 98), "-0x1.df2024156a27ep+3"),
    ],
    [  # block line 1, plain
        ((1, 58, 80, 57, 78), "-0x1.45d11d980619cp+3"),
        ((5, 58, 5, 57, 8), "-0x1.75ef22b2ce21ap+3"),
        ((5, 52, 38, 57, 8), "-0x1.9279f31d677edp+3"),
    ],
    [  # block line 2, plain
        ((0, 10, 47, 42, 42, 49, 79, 77, 88), "-0x1.15bae897bc80ap+4"),
        ((0, 10, 47, 42, 45, 27, 68, 77, 88), "-0x1.251e67f1dee29p+4"),
        ((0, 10, 47, 45, 27, 63, 79, 77, 88), "-0x1.270e782b32750p+4"),
        ((6, 98, 31, 27, 93, 91, 79, 77, 18), "-0x1.34b631b1bd160p+4"),
        ((1, 53, 47, 82, 49, 91, 79, 77, 88), "-0x1.35d6f97716c30p+4"),
        ((2, 98, 81, 82, 49, 91, 79, 77, 18), "-0x1.38a2d59463924p+4"),
        ((2, 98, 82, 49, 93, 91, 79, 77, 18), "-0x1.3c9b91e11b0d0p+4"),
        ((0, 10, 47, 49, 81, 84, 79, 97, 18), "-0x1.3f34b6308b8d4p+4"),
        ((0, 10, 47, 49, 84, 79, 93, 97, 18), "-0x1.432d727d4307fp+4"),
        ((1, 53, 47, 82, 42, 49, 79, 97, 88), "-0x1.4833839410171p+4"),
    ],
    [  # block line 3, plain
        ((5, 57, 9), "-0x1.beadff35d727bp+2"),
    ],
    [  # block line 4, plain
        ((0, 13, 19, 47, 82, 49, 98), "-0x1.dd9a97cb4b462p+3"),
        ((0, 19, 82, 41, 47, 49, 98), "-0x1.df2024156a27ep+3"),
    ],
    [  # TWELVE_TOKENS
        (
            (1, 58, 81, 80, 51, 77, 10, 42, 49, 78, 42, 42, 45, 29, 62, 7, 6, 99, 39, 77, 77, 79, 17),
            "-0x1.71ae3200d841ep+5",
        ),
        (
            (1, 58, 81, 80, 51, 77, 10, 42, 49, 78, 42, 42, 45, 29, 65, 17, 86, 99, 67, 77, 77, 79, 17),
            "-0x1.76459b138ebf7p+5",
        ),
        (
            (1, 58, 81, 80, 50, 51, 77, 10, 42, 49, 78, 45, 29, 62, 7, 6, 99, 39, 91, 77, 77, 79, 17),
            "-0x1.776e0652f2bf0p+5",
        ),
        (
            (5, 55, 80, 58, 77, 30, 42, 49, 78, 29, 0, 16, 17, 6, 99, 39, 81, 84, 77, 91, 77, 79, 17),
            "-0x1.792700bf589cap+5",
        ),
        (
            (5, 55, 80, 58, 77, 30, 42, 49, 78, 29, 0, 17, 81, 86, 90, 6, 99, 39, 63, 77, 77, 68, 17),
            "-0x1.793de3c1c864ep+5",
        ),
        (
            (1, 58, 81, 80, 51, 77, 10, 42, 49, 78, 42, 42, 43, 81, 89, 17, 6, 99, 39, 77, 77, 79, 17),
            "-0x1.79830341c6228p+5",
        ),
        (
            (1, 58, 81, 80, 50, 55, 84, 77, 95, 92, 30, 42, 49, 78, 29, 17, 99, 39, 91, 77, 77, 79, 17),
            "-0x1.798463166c2a9p+5",
        ),
        (
            (1, 55, 80, 58, 77, 30, 42, 49, 78, 29, 81, 80, 50, 55, 83, 17, 69, 39, 91, 77, 77, 79, 17),
            "-0x1.798e23251f8a4p+5",
        ),
        (
            (1, 54, 24, 80, 58, 77, 42, 42, 49, 78, 73, 29, 17, 6, 99, 39, 81, 84, 77, 91, 77, 79, 17),
            "-0x1.79c233bb5e7bcp+5",
        ),
        (
            (1, 58, 81, 80, 51, 77, 10, 42, 49, 78, 45, 22, 31, 29, 90, 7, 69, 39, 63, 77, 77, 79, 17),
            "-0x1.79c86b0258e59p+5",
        ),
    ],
]


def g100_cases():
    """G100 and (tokens, brackets): the block bracketed, the block plain,
    then ``TWELVE_TOKENS`` plain."""
    g = load_grammar(G100)
    block = read_bracketed_corpus(G100_BLOCK)
    cases = [(s.tokens, s.brackets) for s in block] + [(s.tokens, None) for s in block]
    return g, cases + [(TWELVE_TOKENS, None)]


def decoded(g, tokens, brackets=None):
    """What every parser makes of a sentence, bit for bit: the 10-best
    list, the Viterbi derivation, the inside table and the expected counts
    at eta 1 and 0.5."""
    out = [nbest(g, tokens, 10, brackets), viterbi(g, tokens, brackets)]
    out.append(inside(g, tokens, brackets).table.tobytes())
    for eta in (1.0, 0.5):
        w = g.weights_of(eta * lp for lp in g.log_probs)
        mass, counts = expected_counts(g, tokens, w, brackets)
        out += [mass.hex(), counts.tobytes()]
    return out


def cached_arrays(g) -> list[np.ndarray]:
    """Every array a grammar keeps: in its attributes and cached indexes,
    and in its layout, through tuples, lists and dict values."""
    found = []
    stack = list(vars(g).values()) + [g.layout_slot.layout]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            stack += value
        elif isinstance(value, dict):
            stack += value.values()
    return found


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


@pytest.fixture
def started_lists(monkeypatch):
    """Runs ``nbest`` and returns its result with the ``_Lists`` it made."""

    made = []

    class Recorded(kbest._Lists):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(kbest, "_Lists", Recorded)

    def run(g, tokens, n, brackets=None):
        made.clear()
        result = nbest(g, tokens, n, brackets)
        return result, made[0]

    return run


def key_bounds(lists) -> list[tuple[float, float]]:
    """(M, its first hypothesis's wmax) of every started entry: its max-plus
    score, which keys its candidates' first joins, and the top of its first
    window."""
    return [(lists.maxplus[entry], cells[0].wmax) for entry, cells in lists.hyps.items()]


def assert_decoder_matches_scalar_layout(g, tokens, brackets=None):
    """Every finite column of every present binary entry decodes to the
    (rule id, left child entry, right child entry) that the scalar chart
    lists for its (span, lhs), in the same order; the present entries are
    the scalar chart's."""
    _, cells = scalar_chart._cky(g, tokens, brackets, lambda rule: rule, lambda cands: cands)
    trav = kbest._cky(g, tokens, brackets)
    n1, n_nt = trav.shape[0], len(g.nonterminals)  # the grammar's layout stride

    def flat(i, j, nonterminal):
        return (i * n1 + j) * n_nt + g.nt_index[nonterminal]

    want = {
        flat(i, j, lhs): [
            (rule.id, flat(i, k, rule.rhs[0]), flat(k, j, rule.rhs[1])) for k, rule, _, _ in cands
        ]
        for (i, j), cell in cells.items()
        if j - i > 1
        for lhs, cands in cell.items()
    }
    lists = kbest._Lists(g, trav, 1)
    got = {}
    for entry in (lists.maxplus > -math.inf).nonzero()[0].tolist():
        i, j = divmod(entry // n_nt, n1)
        if j - i > 1:
            r = lists.row_of[entry]
            cols = (lists.widths[j - i][0][:, r] > -math.inf).nonzero()[0].tolist()
            got[entry] = [lists._candidate(j - i, r, col) for col in cols]
    assert got == want


class TestColumnDecoder:
    def test_random_grammars_plain_and_bracketed(self):
        for seed in range(60):
            rng = np.random.default_rng(14500 + seed)
            g = random_grammar(rng, ensure_binary=True)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                assert_decoder_matches_scalar_layout(g, tokens, brackets)

    def test_g100(self):
        g, cases = g100_cases()
        for tokens, brackets in cases:
            assert_decoder_matches_scalar_layout(g, tokens, brackets)


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
        assert result.in_language

    def test_n_one_equals_viterbi(self):
        for q in (0.3, 0.5, 0.8):
            g = toy(q)
            for n_tokens in (1, 2, 3, 4, 5):
                lst = nbest(g, ["a"] * n_tokens, 1)
                d, lp = scalar_chart.viterbi(g, ["a"] * n_tokens)
                assert lst.derivations == (d,)

    def test_rounding_near_tie_follows_canonical_scores(self):
        # 0.64 * 0.3**2 == 0.36 * 0.4**2, so the two derivations of "a a" tie
        # in exact arithmetic and their incremental scores are equal; their
        # canonical scores differ by one unit in the last place, in the
        # opposite order to their backpointer keys
        g = parse_grammar(
            "S -> A A 0.64\nS -> B B 0.36\nA -> a 0.3\nA -> b 0.7\nB -> a 0.4\nB -> b 0.6\n"
        )
        result = nbest(g, ["a", "a"], 2)
        assert [d.rules for d in result.derivations] == [(1, 4, 4), (0, 2, 2)]
        assert result.derivations[0].log_prob > result.derivations[1].log_prob
        assert result.derivations == enumerate_derivations(g, ["a", "a"]).derivations
        assert result.derivations[0] == viterbi(g, ["a", "a"])[0]

    def test_not_in_language(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        result = nbest(g, ["b", "a"], 3)
        assert not result.in_language
        assert len(result) == 0

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            nbest(toy(0.5), ["a"], 0)

    def test_n_must_be_an_integer(self):
        # rejected before any chart work: the empty sentence is never read
        for n in (2.5, 1.0, math.inf):
            for tokens in (["a", "a", "a"], []):
                with pytest.raises(ValueError, match="n must be an integer"):
                    nbest(toy(0.5), tokens, n)
        assert nbest(toy(0.5), ["a"] * 4, np.int64(3)) == nbest(toy(0.5), ["a"] * 4, 3)

    def test_max_plus_key_may_exceed_a_truncated_window(self, started_lists):
        # every join of a^10 ties; a child window wider than n is truncated
        # below its top, so a parent's joins can stay below its max-plus M
        g = toy(0.3)
        result, lists = started_lists(g, ["a"] * 10, 3)
        bounds = key_bounds(lists)
        assert all(m >= top for m, top in bounds)
        assert (sum(m > top for m, top in bounds), len(bounds)) == (6, 55)
        assert result.derivations == enumerate_derivations(g, ["a"] * 10).derivations[:3]


class TestOrderingProperties:
    def test_scores_non_increasing(self):
        for seed in range(30):
            rng = np.random.default_rng(6500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                lps = [d.log_prob for d in nbest(g, tokens, 10).derivations]
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
        # and so does every shorter request: truncation at n is where a
        # lazily extended list could part from the complete ranking
        for seed in range(60):
            rng = np.random.default_rng(8500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                enum = enumerate_derivations(g, tokens).derivations
                if brackets is not None:
                    enum = tuple(
                        d
                        for d in enum
                        if all(brackets.compatible(i, j) for i, j in derivation_spans(g, d))
                    )
                for n in range(1, len(enum) + 1):
                    assert nbest(g, tokens, n, brackets).derivations == enum[:n]

    def test_max_plus_key_bounds_every_started_entry(self, started_lists):
        for seed in range(60):
            rng = np.random.default_rng(8500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                for n in (1, 2, 3, 10):
                    _, lists = started_lists(g, tokens, n, brackets)
                    assert all(m >= top for m, top in key_bounds(lists))

    def test_n_one_equals_viterbi_random(self):
        for seed in range(30):
            rng = np.random.default_rng(9500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                best = scalar_chart.viterbi(g, tokens, brackets)[0]
                assert nbest(g, tokens, 1, brackets).derivations[0] == best

    def test_all_ties_list_is_the_enumeration(self):
        # every one of a^7's 132 derivations ties exactly, so each entry's
        # list is one window ranked by the backpointer key alone
        for q in (0.3, 0.5):
            g = toy(q)
            want = enumerate_derivations(g, ["a"] * 7).derivations
            assert len(want) == 132
            assert nbest(g, ["a"] * 7, 1000).derivations == want

    @pytest.mark.xfail(
        strict=True,
        reason="a child's list is truncated at n across a near-tie between rule "
        "multisets; ROADMAP item 2's exact grid would make every level's order agree",
    )
    def test_viterbi_is_the_first_entry_across_a_truncated_near_tie(self):
        # all five derivations of a a a a tie in exact arithmetic; A's list
        # over (1, 4) ranks (S (A a) (A a)) (A a) first by one rounding, so
        # at n = 1 the root never joins its second entry, whose derivation
        # has the root's smaller backpointer key
        g = parse_grammar("S -> A A 0.5\nS -> a 0.5\nA -> S A 0.5\nA -> a 0.5\n")
        tokens = ["a"] * 4
        first = enumerate_derivations(g, tokens).derivations[0]
        assert nbest(g, tokens, 2).derivations[0] == first
        assert viterbi(g, tokens)[0] == first

    def test_no_duplicates_at_any_n(self):
        g = toy(0.4)
        for n_tokens in (3, 4, 5, 6):
            result = nbest(g, ["a"] * n_tokens, 1000)
            seqs = [d.rules for d in result.derivations]
            assert len(seqs) == len(set(seqs))


def backtrace_and_engine(g, tokens, brackets=None):
    """``_best`` at n = 1, what the backtrace alone gives (None at a
    near-tie), and the engine's first hypothesis, all over one layout; None
    for a sentence outside the language."""
    trav = kbest._cky(g, tokens, brackets)
    lists = kbest._Lists(g, trav, 1)
    if lists.maxplus[trav.root] == -math.inf:
        return None
    walked = lists.backtrace(trav.root)
    assert lists.hyps == {}  # the backtrace makes no hypothesis
    lists.ask(trav.root, 0)
    first = Derivation.build(g, kbest._preorder(lists.hyps[trav.root][0]), len(tokens))
    return kbest._best(g, trav, 1), walked, first


class TestBacktrace:
    def test_random_grammars_plain_and_bracketed(self):
        # both branches run: a backtrace that is whole, and one that meets
        # a near-tie and leaves the derivation to the engine
        outcomes = {"walked": 0, "engine": 0}
        for seed in range(60):
            rng = np.random.default_rng(17500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                got = backtrace_and_engine(g, tokens, brackets)
                if got is None:
                    continue
                best, walked, first = got
                assert best == (first,)
                if walked is None:
                    outcomes["engine"] += 1
                else:
                    assert tuple(walked) == first.rules
                    outcomes["walked"] += 1
        assert outcomes["walked"] > 0 and outcomes["engine"] > 0, outcomes

    def test_toy_ties_always_reach_the_engine(self):
        # every derivation of a^k ties exactly; a^2 has one derivation and
        # a^1 no binary entry, so the backtrace is whole there
        for q in (0.3, 0.5):
            g = toy(q)
            for k in range(1, 9):
                best, walked, first = backtrace_and_engine(g, ["a"] * k)
                assert best == (first,)
                assert (walked is None) == (k >= 3)

    def test_g100_walks(self):
        # no row on these sentences' Viterbi derivations holds a near-tie
        g, cases = g100_cases()
        for tokens, brackets in cases:
            best, walked, first = backtrace_and_engine(g, tokens, brackets)
            assert best == (first,)
            assert tuple(walked) == first.rules

    def test_ties_in_one_row_reach_the_engine(self):
        # S -> A A and S -> B B tie exactly on "a a", and the engine breaks
        # the tie by the backpointer key
        g = parse_grammar("S -> A A 0.5\nS -> B B 0.5\nA -> a 1.0\nB -> a 1.0\n")
        best, walked, first = backtrace_and_engine(g, ["a", "a"])
        assert walked is None
        assert best == (first,) and first.rules == (0, 2, 2)


def root_lists(g, tokens, n):
    """The started ``_Lists`` of a sentence after its root is asked for n
    hypotheses, and the root entry; None outside the language."""
    trav = kbest._cky(g, tokens, None)
    lists = kbest._Lists(g, trav, n)
    if lists.maxplus[trav.root] == -math.inf:
        return None
    lists.ask(trav.root, n - 1)
    return lists, trav.root


def listed_windows(cells):
    """A listed entry's hypotheses cut into their windows: a run of cells
    that share their window top (neighbouring windows lie beyond rounding
    distance of each other, so their tops differ)."""
    windows = []
    for cell, before in zip(cells, [None] + cells):
        if before is None or cell.wmax != before.wmax:
            windows.append([])
        windows[-1].append(cell)
    return windows


class TestKeysAndRanking:
    def test_key_walk_is_the_oracles_backpointer_key(self):
        # every root hypothesis of the complete list, keyed by the one walk,
        # against the key the brute-force expansion builds for its rules
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(18500 + seed)
            g = random_grammar(rng)
            for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3):
                got = root_lists(g, tokens, 10**6)
                if got is None:
                    continue
                lists, root = got
                keys = {record.rules: record.key for record in _expand(g, tokens)}
                cells = lists.hyps[root]
                assert len(cells) == len(keys)
                for cell in cells:
                    assert tuple(kbest._preorder(cell, True)) == keys[tuple(kbest._preorder(cell))]
                checked += len(cells)
        assert checked >= 200, checked

    def test_rank_gives_one_order_for_every_permutation(self):
        # windows of several members, from exact ties (toy a^k) and from
        # random grammars; _rank's key is total, so the order a window was
        # popped in cannot show, and it is the order the list holds
        cases = [(toy(q), ["a"] * k) for q in (0.3, 0.5) for k in (4, 5)]
        for seed in range(30):
            rng = np.random.default_rng(19500 + seed)
            g = random_grammar(rng)
            cases += [(g, tokens) for tokens in sample_corpus(g, rng, 2, max_len=6, min_len=3)]
        sizes = []
        for g, tokens in cases:
            got = root_lists(g, tokens, 1000)
            if got is None:
                continue
            for cells in got[0].hyps.values():
                for window in listed_windows(cells):
                    if len(window) < 2:
                        continue
                    orders = itertools.permutations(window)
                    for order in itertools.islice(orders, 720):
                        ranked = list(order)
                        kbest._rank(g, ranked)
                        assert list(map(id, ranked)) == list(map(id, window))
                    sizes.append(len(window))
        assert len(sizes) >= 20 and max(sizes) >= 14, sizes


def request_state(lists):
    """The started entries of a ``_Lists`` with each one's hypotheses: rule
    ids in preorder, incremental score and window top."""
    return {
        entry: [(kbest._preorder(cell), cell.score, cell.wmax) for cell in cells]
        for entry, cells in lists.hyps.items()
    }


def assert_one_request_equals_many(g, tokens, brackets):
    """Asking the root for n - 1 at once leaves every list as asking it for
    0, 1, ..., n - 1 in turn does."""
    trav = kbest._cky(g, tokens, brackets)
    for n in (1, 3, 10):
        once, stepwise = kbest._Lists(g, trav, n), kbest._Lists(g, trav, n)
        if once.maxplus[trav.root] == -math.inf:
            continue
        once.ask(trav.root, n - 1)
        for index in range(n):
            stepwise.ask(trav.root, index)
        assert request_state(once) == request_state(stepwise)


class TestRequests:
    def test_g100(self):
        g, cases = g100_cases()
        for tokens, brackets in cases:
            assert_one_request_equals_many(g, tokens, brackets)

    def test_random_grammars_plain_and_bracketed(self):
        for seed in range(40):
            rng = np.random.default_rng(15500 + seed)
            g = random_grammar(rng)
            for tokens, brackets in corpus_and_bracketed(g, rng):
                assert_one_request_equals_many(g, tokens, brackets)


class TestG100:
    def test_lists_are_pinned(self):
        g, cases = g100_cases()
        for (tokens, brackets), want in zip(cases, G100_NBEST_10, strict=True):
            got = [(d.rules, d.log_prob.hex()) for d in nbest(g, tokens, 10, brackets).derivations]
            assert got == want

    def test_n_one_equals_bracketed_viterbi(self):
        g, cases = g100_cases()
        for tokens, brackets in cases:
            best = scalar_chart.viterbi(g, tokens, brackets)[0]
            assert nbest(g, tokens, 1, brackets).derivations == (best,)

    def test_probability_copies_decode_as_fresh_grammars(self):
        # with_probs shares the grammar's rule-set tables and sets its own
        # weights for the passes, so no cached array outlives its
        # probabilities: a copy made after g has parsed, and that copy
        # pickled or deep-copied, must decode as a grammar parsed from the
        # copy's text does, and g as before
        g, cases = g100_cases()
        for tokens, brackets in cases:
            nbest(g, tokens, 10, brackets)
        rng = np.random.default_rng(16500)
        for _ in range(3):
            q = [0.0] * len(g.rules)
            for rules in g.rules_by_lhs.values():
                weights = rng.random(len(rules)) + 0.1
                for rule, p in zip(rules, (weights / weights.sum()).tolist()):
                    q[rule.id] = p
            copied = g.with_probs(q)
            fresh = parse_grammar(serialize_grammar(copied))
            want = [decoded(fresh, tokens, brackets) for tokens, brackets in cases]
            for other in (copied, pickle.loads(pickle.dumps(copied)), copy.deepcopy(copied)):
                assert [decoded(other, tokens, brackets) for tokens, brackets in cases] == want
        fresh = parse_grammar(serialize_grammar(g))
        assert [decoded(g, *case) for case in cases] == [decoded(fresh, *case) for case in cases]
        for other in (g, copied, fresh, pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            arrays = cached_arrays(other)
            assert len(arrays) >= 10  # four pass weights and their columns, the binary table
            assert not any(array.flags.writeable for array in arrays)

    def test_max_plus_key_is_the_window_top(self, started_lists):
        g, cases = g100_cases()
        for tokens, brackets in cases:
            _, lists = started_lists(g, tokens, 10, brackets)
            assert all(m == top for m, top in key_bounds(lists))

    def test_ranking_two_windows_as_one_keeps_them_apart(self, started_lists):
        # across a cut the canonical order is the incremental one (see
        # kbest._SLACK), so ranking two neighbouring windows of a list as one
        # returns each in its own order, the first before the second: what
        # lets an entry rank every hypothesis it has popped as one window
        g, cases = g100_cases()
        pairs = 0
        for tokens, brackets in cases[:8]:  # the block, bracketed and plain
            _, lists = started_lists(g, tokens, 10, brackets)
            for entry, cells in lists.hyps.items():
                windows = []
                tops = [cell.wmax for cell in cells]
                for cell, top, before in zip(cells, tops, [None] + tops):
                    if top != before:
                        windows.append([])
                    windows[-1].append(cell)
                for first, second in zip(windows, windows[1:]):
                    union = (first + second)[::-1]
                    kbest._rank(g, union)
                    assert list(map(id, union)) == list(map(id, first + second))
                    pairs += 1
        assert pairs == 36

    def test_sixteen_tokens_start_few_entries(self, started_lists):
        # an entry starts only once a popped join needs one of its
        # hypotheses: 136 of the 1,007 binary entries present, where
        # listing every candidate first started 939
        g = load_grammar(G100)
        _, lists = started_lists(g, SIXTEEN_TOKENS, 10)
        n_leaves = sum(hyps[0].left is None for hyps in lists.hyps.values())
        present = int(np.count_nonzero(lists.maxplus > -math.inf)) - n_leaves
        assert (len(lists.hyps) - n_leaves, present) == (136, 1007)

    def test_sixteen_tokens_in_polynomial_time(self):
        g = load_grammar(G100)
        started = time.perf_counter()
        result = nbest(g, SIXTEEN_TOKENS, 10)
        assert time.perf_counter() - started < 5.0
        assert len(result) == 10

    def test_sixteen_tokens_without_deep_recursion(self):
        g = load_grammar(G100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            result = nbest(g, SIXTEEN_TOKENS, 10)
        finally:
            sys.setrecursionlimit(limit)
        assert len(result) == 10

    def test_leaves_no_reference_cycles(self):
        g = load_grammar(G100)
        block = read_bracketed_corpus(G100_BLOCK)
        gc.collect()
        gc.disable()
        try:
            for sent in block:
                nbest(g, sent.tokens, 10, sent.brackets)
            assert gc.collect() == 0
        finally:
            gc.enable()
