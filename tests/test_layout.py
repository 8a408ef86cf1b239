"""The CKY layout a grammar keeps: built on demand at the longest sentence it
has parsed, sliced for every shorter one, shared by ``with_probs`` copies
and by concurrent calls, and never changing a result bit."""
import copy
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from conftest import random_grammar, sample_bracketing, sample_corpus, sample_rules, toy
from pcfgtk import (
    Bracketing,
    DeltaSpec,
    Grammar,
    HParams,
    inside,
    load_grammar,
    nbest,
    parse_grammar,
    read_bracketed_corpus,
    read_corpus,
    replay_derivation,
    train,
    viterbi,
)
from pcfgtk import chart
from pcfgtk.chart import expected_counts

DATA = Path(__file__).parent / "data"
G100 = DATA / "g100-seed0.g"
SIXTEEN_TOKENS = "t5 t13 t5 t0 t11 t3 t3 t3 t5 t5 t12 t10 t10 t4 t3 t6".split()


def fresh(g: Grammar) -> Grammar:
    """The same grammar, constructed anew: it has laid out no sentence."""
    return Grammar(g.nonterminals, g.terminals, g.start, g.rules, g.probs)


def results(g, tokens, brackets=None):
    """Every chart result of a sentence, bit for bit: the inside table, the
    Viterbi derivation, the 10-best list and the expected counts."""
    table = inside(g, tokens, brackets).table
    best = viterbi(g, tokens, brackets)
    mass, counts = expected_counts(g, tokens, g.weights, brackets)
    return (
        table.shape,
        table.tobytes(),
        None if best is None else (best[0].rules, best[1].hex()),
        [(d.rules, d.log_prob.hex()) for d in nbest(g, tokens, 10, brackets).derivations],
        mass.hex(),
        counts.tobytes(),
    )


def laid_out(g) -> int:
    """Length of the sentence the grammar's kept layout was built for."""
    return g.layout_slot.layout.n1 - 1


def assert_reuse_matches_fresh(g, first, cases):
    """Parse ``first`` on g, then each (tokens, brackets) case in order:
    each gives a fresh grammar's results, and g keeps the layout of the
    longest sentence so far."""
    longest = len(first)
    results(g, first)
    for tokens, brackets in cases:
        assert results(g, tokens, brackets) == results(fresh(g), tokens, brackets)
        longest = max(longest, len(tokens))
        assert laid_out(g) == longest


def with_bracketings(cases):
    """Each (tokens, brackets) case, then its tokens plain and under an
    empty bracketing."""
    out = []
    for tokens, brackets in cases:
        out += [(tokens, brackets), (tokens, None), (tokens, Bracketing())]
    return out


def g100_cases():
    """G100's bracketed block as (tokens, brackets) cases, and the tokens
    of its falling-length corpus."""
    block = read_bracketed_corpus(DATA / "g100-seed0-block.txt")
    descending = read_corpus(DATA / "g100-seed0-descending.txt")
    return (
        [(s.tokens, s.brackets) for s in block],
        [s.tokens for s in descending],
    )


class TestReuse:
    def test_random_grammars(self):
        for seed in range(40):
            rng = np.random.default_rng(21000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            cases = []
            for _ in range(4):
                rules = sample_rules(g, rng, 8)
                if rules is not None:
                    tokens = replay_derivation(g, rules)
                    cases.append((tokens, sample_bracketing(g, rng, rules, len(tokens))))
            corpus = sample_corpus(g, rng, 3, max_len=8, min_len=2)
            if not corpus or not cases:
                continue
            cases = with_bracketings(cases)
            first = max(corpus, key=len)
            # shorter and equal lengths, then a longer one, then shorter again
            cases += [(tokens, None) for tokens in corpus]
            cases += [(first + first[:1], None)] + cases[:3]
            assert_reuse_matches_fresh(g, first, cases)

    def test_g100_shorter_equal_and_longer(self):
        g = load_grammar(G100)
        bracketed, descending = g100_cases()
        cases = with_bracketings(bracketed) + [(tokens, None) for tokens in descending]
        cases += [(descending[0], Bracketing()), (SIXTEEN_TOKENS, None)] + cases[:3]
        assert_reuse_matches_fresh(g, descending[0], cases)

    def test_g100_falling_lengths(self):
        g = load_grammar(G100)
        _, descending = g100_cases()
        assert [len(tokens) for tokens in descending] == [12, 9, 6, 3]
        assert_reuse_matches_fresh(g, descending[0], [(t, None) for t in descending])

    def test_grammar_without_binary_rules(self):
        g = parse_grammar("S -> a 0.6\nS -> b 0.4\n")
        cases = [(["b"], None), (["a", "b"], None), (["a"] * 5, None), (["b"], Bracketing())]
        assert_reuse_matches_fresh(g, ["a", "b", "a"], cases)
        assert viterbi(g, ["a", "b"]) is None

    def test_one_token_sentences(self):
        for g, long in ((toy(0.3), ["a"] * 9), (load_grammar(G100), SIXTEEN_TOKENS)):
            token = next(r for r in g.rules if r.is_lexical).terminal
            cases = [([token], None), ([token], Bracketing()), ([token], Bracketing({(0, 1)}))]
            assert_reuse_matches_fresh(g, long, cases)


class TestSharing:
    def test_loading_lays_nothing_out(self):
        for g in (load_grammar(G100), toy(0.4)):
            assert g.layout_slot.layout is None

    def test_with_probs_copies_share_the_layout(self):
        g = toy(0.4)
        copy_ = g.with_probs([0.3, 0.7])
        assert copy_.layout_slot is g.layout_slot
        inside(copy_, ["a"] * 5)
        assert laid_out(g) == 5
        assert results(g, ["a"] * 3) == results(fresh(g), ["a"] * 3)

    def test_pickled_and_deep_copied_grammars_start_empty(self):
        g = toy(0.4)
        inside(g, ["a"] * 5)
        for other in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert other == g
            assert other.layout_slot is not g.layout_slot
            assert other.layout_slot.layout is None
            assert results(other, ["a"] * 4) == results(g, ["a"] * 4)

    def test_layout_is_read_only(self):
        g = load_grammar(G100)
        inside(g, SIXTEEN_TOKENS)
        plain = g.layout_slot.layout.plain
        assert isinstance(plain, tuple) and len(plain) == 17
        for n, widths in enumerate(plain):
            # every length keeps one view per width, each over n's spans
            assert isinstance(widths, tuple)
            assert [w.width for w in widths] == list(range(2, n + 1))
            for width, entry, children in widths:
                assert children.shape[3] == n - width + 1
                assert not entry.flags.writeable and not children.flags.writeable

    def test_train_builds_once_per_new_longest_length(self, monkeypatch):
        built = []
        build = chart._build_layout

        def counting(g, n_max):
            built.append(n_max)
            return build(g, n_max)

        monkeypatch.setattr(chart, "_build_layout", counting)
        corpus = [["a"] * n for n in (3, 5, 4, 7, 2, 7)]
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="all")
        # from toy(0.9), with a step damped by epsilon = 1, the objective
        # moves by at least 1e-6 in each of the three iterations; a run from
        # a near fixed point would stop early where rounding repeats it
        g = toy(0.9)
        report = train(g, corpus, spec, HParams(h=0.3, epsilon=1.0, rel_tol=0.0, max_iters=3))
        assert len(report.records) == 3
        assert report.final_grammar.layout_slot is g.layout_slot
        assert built == [3, 5, 7]


class TestConcurrency:
    def test_four_threads_match_sequential(self):
        # mixed lengths in a shuffled order, so that threads grow the
        # shared layout while others read the one they took; a short switch
        # interval makes the threads interleave within a call
        bracketed, descending = g100_cases()
        cases = with_bracketings(bracketed) + [(tokens, None) for tokens in descending]
        cases = cases * 3 + [(SIXTEEN_TOKENS[:n], None) for n in range(1, 17)]
        random.Random(2104).shuffle(cases)
        shared = load_grammar(G100)
        want = [results(fresh(shared), tokens, brackets) for tokens, brackets in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(results, shared, *case) for case in cases]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert laid_out(shared) == 16

    def test_four_threads_fill_a_fresh_grammars_caches(self):
        # a grammar that has parsed nothing, and a with_probs copy of one,
        # taken by four threads at once: they fill the rule-set indexes,
        # the leaf lists and the layout together, each thread going through
        # the sentences from its own starting point
        bracketed, descending = g100_cases()
        cases = with_bracketings(bracketed) + [(tokens, None) for tokens in descending]
        g = load_grammar(G100)
        q = list(g.probs)
        for rules in g.rules_by_lhs.values():
            for rule, p in zip(rules, [g.probs[r.id] for r in reversed(rules)]):
                q[rule.id] = p
        for make in (lambda: load_grammar(G100), lambda: load_grammar(G100).with_probs(q)):
            shared = make()
            reference = parse_grammar(str(shared))
            want = [results(reference, tokens, brackets) for tokens, brackets in cases]
            barrier = threading.Barrier(4)

            def work(first):
                barrier.wait()
                order = list(range(first, len(cases))) + list(range(first))
                return order, [results(shared, *cases[k]) for k in order]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(work, first) for first in (0, 3, 7, 11)]
                    done = [future.result(timeout=120) for future in futures]
            finally:
                sys.setswitchinterval(interval)
            for order, got in done:
                assert got == [want[k] for k in order]
