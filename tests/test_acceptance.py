"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds (run with -s
to see them); a failure reports the offending values through the assert.
"""
import math
import time
import warnings

import numpy as np
import pytest

from conftest import random_grammar, sample_corpus, toy
from pcfgtk import (
    Bracketing,
    DeltaSpec,
    accumulate,
    check_consistency,
    compute_ctilde,
    enumerate_derivations,
    growth_step,
    inside,
    nbest,
    objective_over_sets,
    oracle_accumulate,
    realize_delta_sets,
    viterbi,
)
from pcfgtk.derivations import count_vector
from pcfgtk.estimator import _raw_transform, accumulate_realized
from pcfgtk.oracle import growth_step_single_ref

TOY_CORPUS = [["a", "a"], ["a", "a", "a", "a"]]
VIT_ALL = DeltaSpec(ref_mode="viterbi", comp_mode="all")

TRIAL_SPECS = [
    VIT_ALL,
    DeltaSpec("nbest", "all", n_ref=2),
    DeltaSpec("viterbi", "nbest", n_comp=3),
    DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4),
]


def test_criterion_1_toy_closed_form_growth_step():
    """Exact closed form of one growth step on the two-sentence toy corpus."""
    started = time.perf_counter()
    for q in (0.3, 0.5, 0.7):
        g = toy(q)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL, eta=1.0)
        for h in (0.0, 0.25, 0.5, 0.9):
            for ct in (0.1, 1.0, 10.0):
                g2 = growth_step(g, acc, h, ct)
                want_binary = (4 * (1 - h) + q * ct) / (10 * (1 - h) + ct)
                want_lexical = (6 * (1 - h) + (1 - q) * ct) / (10 * (1 - h) + ct)
                assert abs(g2.probs[0] - want_binary) <= 1e-12, (q, h, ct)
                assert abs(g2.probs[1] - want_lexical) <= 1e-12, (q, h, ct)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: closed-form growth step on 36 (q, h, C) combos in {elapsed:.3f}s")


def test_criterion_2_h_one_boundary_fixed_point():
    """At h = 1 one step reproduces the toy probabilities exactly."""
    for q in (0.3, 0.6, 0.9):
        g = toy(q)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL, eta=1.0)
        g2 = growth_step(g, acc, 1.0, 1.0)
        assert abs(g2.probs[0] - q) <= 1e-12, q
        assert abs(g2.probs[1] - (1 - q)) <= 1e-12, q
    print("PASS criterion 2: h=1 boundary step is the identity on the toy grammar")


def test_criterion_3_toy_derivation_facts():
    """Derivation counts and probabilities of aa and aaaa by enumeration."""
    for q in (0.3, 0.5, 0.7):
        g = toy(q)
        enum2 = enumerate_derivations(g, ["a"] * 2)
        assert len(enum2) == 1
        assert abs(enum2.derivations[0].log_prob - math.log(q * (1 - q) ** 2)) <= 1e-12
        enum4 = enumerate_derivations(g, ["a"] * 4)
        assert len(enum4) == 5
        each = math.log(q**3 * (1 - q) ** 4)
        for d in enum4.derivations:
            assert abs(d.log_prob - each) <= 1e-12
    print("PASS criterion 3: 1 derivation of aa and 5 of aaaa with the expected probabilities")


def test_criterion_4_consistency_threshold():
    """The toy grammar flips from consistent to inconsistent at q = 0.5."""
    for q in (0.55, 0.75, 0.95):
        assert check_consistency(toy(q)).verdict == "inconsistent", q
    for q in (0.05, 0.25, 0.45):
        assert check_consistency(toy(q)).verdict == "consistent", q
    print("PASS criterion 4: consistency verdicts match the 2q spectral radius threshold")


def test_criterion_5_oracle_equivalence():
    """Chart, n-best, and accumulators agree with brute force on 100 grammars."""
    started = time.perf_counter()
    grammars_done = 0
    sentences_done = 0
    seed = 0
    while grammars_done < 100:
        seed += 1
        assert seed < 2000, "random instance generation exhausted"
        rng = np.random.default_rng(40_000 + seed)
        g = random_grammar(rng, max_nts=3, max_rules=6, ensure_binary=(seed % 2 == 0))
        corpus = sample_corpus(g, rng, 2, max_len=6)
        if not corpus:
            continue
        for tokens in corpus:
            enum = enumerate_derivations(g, tokens)
            total = math.log(math.fsum(math.exp(d.log_prob) for d in enum.derivations))
            got_inside = inside(g, tokens).log_string_prob
            assert abs(got_inside - total) <= 1e-10 * max(1.0, abs(total))

            best = max(d.log_prob for d in enum.derivations)
            d_vit, lp_vit = viterbi(g, tokens)
            assert abs(lp_vit - best) <= 1e-12
            assert d_vit.rules in {d.rules for d in enum.derivations}

            got_list = nbest(g, tokens, len(enum)).derivations
            assert [d.rules for d in got_list] == [d.rules for d in enum.derivations]

            sentences_done += 1
        spec = TRIAL_SPECS[seed % len(TRIAL_SPECS)]
        got = accumulate(g, corpus, spec, eta=1.0)
        want = oracle_accumulate(g, corpus, spec, eta=1.0)
        for rid in range(len(g.rules)):
            assert abs(got.d_rule_ref[rid] - want.d_rule_ref[rid]) <= 1e-10 * max(
                1.0, abs(want.d_rule_ref[rid])
            )
            assert abs(got.d_rule_comp[rid] - want.d_rule_comp[rid]) <= 1e-10 * max(
                1.0, abs(want.d_rule_comp[rid])
            )
        for i in range(len(g.nonterminals)):
            assert abs(got.d_nt_ref[i] - want.d_nt_ref[i]) <= 1e-10 * max(
                1.0, abs(want.d_nt_ref[i])
            )
            assert abs(got.d_nt_comp[i] - want.d_nt_comp[i]) <= 1e-10 * max(
                1.0, abs(want.d_nt_comp[i])
            )
        grammars_done += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 5: chart/n-best/accumulators match brute force on "
        f"{grammars_done} grammars ({sentences_done} sentences) in {elapsed:.2f}s"
    )


@pytest.fixture(scope="module")
def frozen_set_trials():
    """Growth steps over random instances, shared by criteria 6 and 7.

    The offset constant uses a unit epsilon: the fast-convergence
    approximation can undershoot the safe constant when epsilon is tiny and
    h is large.
    """
    trials = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for eta in (0.5, 1.0, 2.0):
            for h in (0.0, 0.3, 0.6, 0.9):
                done = 0
                seed = 0
                while done < 30:
                    seed += 1
                    assert seed < 1000
                    rng = np.random.default_rng(50_000 + seed)
                    g = random_grammar(rng, ensure_binary=True)
                    corpus = sample_corpus(g, rng, int(rng.integers(1, 4)), max_len=5)
                    if not corpus:
                        continue
                    spec = TRIAL_SPECS[seed % len(TRIAL_SPECS)]
                    realized = [realize_delta_sets(g, s, spec) for s in corpus]
                    if all(r is None for r in realized):
                        continue
                    acc = accumulate_realized(g, realized, eta)
                    ct = compute_ctilde(acc, g, h, 1.0)
                    raw = _raw_transform(g, acc, h, ct)
                    g2 = growth_step(g, acc, h, ct)
                    before = objective_over_sets(g, realized, eta, h)
                    after = objective_over_sets(g2, realized, eta, h)
                    trials.append((eta, h, g, raw, g2, before, after))
                    done += 1
    return trials


def test_criterion_6_monotone_objective(frozen_set_trials):
    """The frozen-set objective never decreases across a growth step."""
    assert len(frozen_set_trials) >= 300
    for eta, h, _, _, _, before, after in frozen_set_trials:
        assert after >= before - 1e-9, (eta, h)
    by_eta = sorted({eta for eta, *_ in frozen_set_trials})
    by_h = sorted({h for _, h, *_ in frozen_set_trials})
    print(
        f"PASS criterion 6: objective non-decreasing on {len(frozen_set_trials)} "
        f"frozen-set trials, eta in {by_eta}, h in {by_h}"
    )


def test_criterion_7_normalization_and_positivity(frozen_set_trials):
    """Raw step output is near-normalized; final probabilities are positive."""
    for _, _, g, raw, g2, _, _ in frozen_set_trials:
        for nt in g.nonterminals:
            rids = [r.id for r in g.rules_by_lhs[nt]]
            if not rids:
                continue
            assert abs(math.fsum(raw[r] for r in rids) - 1.0) <= 1e-9, nt
        assert all(p > 0.0 for p in g2.probs)
        for nt in g2.nonterminals:
            rids = [r.id for r in g2.rules_by_lhs[nt]]
            if rids:
                assert math.fsum(g2.probs[r] for r in rids) == 1.0
    print(
        f"PASS criterion 7: per-nonterminal sums within 1e-9 before renormalization "
        f"and positive probabilities on {len(frozen_set_trials)} trials"
    )


def test_criterion_8_specializations():
    """(a) tiny-offset h=0 step is relative-frequency reestimation;
    (b) the single-reference spelling equals the general update bit for bit."""
    checked_rules = 0
    for seed in range(40):
        rng = np.random.default_rng(60_000 + seed)
        g = random_grammar(rng, ensure_binary=True)
        corpus = sample_corpus(g, rng, 3, max_len=5)
        if not corpus:
            continue
        # (a) independent relative-frequency target from integer counts
        num = np.zeros(len(g.rules))
        den = np.zeros(len(g.nonterminals))
        for tokens in corpus:
            d, _ = viterbi(g, tokens)
            counts = count_vector(g, d.rules)
            num += counts
            den += np.bincount(g.rule_lhs_index, counts, len(den))
        acc = accumulate(g, corpus, VIT_ALL, eta=1.0)
        stepped = growth_step(g, acc, 0.0, 1e-9)
        for rule in g.rules:
            if den[g.nt_index[rule.lhs]] == 0:
                expected = g.probs[rule.id]
            else:
                expected = num[rule.id] / den[g.nt_index[rule.lhs]]
            assert abs(stepped.probs[rule.id] - expected) <= 1e-6, rule
            checked_rules += 1
        # (b) shared accumulators, both spellings, exact equality
        for h in (0.0, 0.35, 0.8):
            ct = compute_ctilde(acc, g, h, 1.0)
            assert growth_step(g, acc, h, ct).probs == growth_step_single_ref(g, acc, h, ct).probs
    assert checked_rules >= 100
    print(
        f"PASS criterion 8: relative-frequency match on {checked_rules} rules and "
        f"bit-identical single-reference updates"
    )


def test_criterion_9_bracketing():
    """Full binary brackets isolate one derivation; empty brackets change nothing."""
    g = toy(0.5)
    tokens = ["a"] * 4
    full = Bracketing(frozenset({(0, 2), (2, 4), (0, 4)}))
    single = math.log(0.5**3 * 0.5**4)

    chart = inside(g, tokens, full)
    assert abs(chart.log_string_prob - single) <= 1e-12

    d, lp = viterbi(g, tokens, full)
    assert abs(lp - single) <= 1e-12
    assert d.rules == (0, 0, 1, 1, 0, 1, 1)  # balanced tree: (a a) (a a)

    empty = Bracketing()
    assert inside(g, tokens, empty).log_string_prob == inside(g, tokens).log_string_prob
    assert np.array_equal(inside(g, tokens, empty).table, inside(g, tokens).table)
    assert viterbi(g, tokens, empty) == viterbi(g, tokens)
    assert nbest(g, tokens, 5, empty).derivations == nbest(g, tokens, 5).derivations
    print("PASS criterion 9: bracketed charts isolate the compatible derivation set")
