"""Growth-transformation estimation: accumulators, the update, training."""
import math
import warnings

import numpy as np
import pytest

from conftest import random_grammar, sample_bracketing, sample_corpus, toy
from pcfgtk import (
    Accumulators,
    Bracketing,
    DegenerateDeltaWarning,
    DeltaSpec,
    Derivation,
    EmptyDeltaError,
    EstimationError,
    HParams,
    RealizedDelta,
    Sentence,
    accumulate,
    compute_ctilde,
    derivation_probability,
    growth_step,
    nbest,
    objective,
    objective_over_sets,
    oracle_accumulate,
    parse_grammar,
    realize_delta_sets,
    rule_counts,
    scaled_set_logprob,
    train,
    viterbi,
)
from pcfgtk.estimator import COMP_MODES, REF_MODES, accumulate_realized
from pcfgtk.oracle import growth_step_single_ref

TOY_CORPUS = [["a", "a"], ["a", "a", "a", "a"]]
VIT_ALL = DeltaSpec(ref_mode="viterbi", comp_mode="all")


class TestSpecsAndParams:
    def test_delta_spec_validation(self):
        with pytest.raises(ValueError):
            DeltaSpec(ref_mode="best")
        with pytest.raises(ValueError):
            DeltaSpec(comp_mode="everything")
        with pytest.raises(ValueError):
            DeltaSpec(n_ref=0)
        with pytest.raises(ValueError):
            DeltaSpec(ref_mode="nbest", comp_mode="nbest", n_ref=3, n_comp=2)
        DeltaSpec(ref_mode="nbest", comp_mode="nbest", n_ref=2, n_comp=2)

    def test_hparams_validation(self):
        with pytest.raises(ValueError):
            HParams(h=1.0)
        with pytest.raises(ValueError):
            HParams(h=-0.1)
        with pytest.raises(ValueError):
            HParams(eta=0.0)
        with pytest.raises(ValueError):
            HParams(epsilon=0.0)
        with pytest.raises(ValueError):
            HParams(max_iters=-1)
        HParams(h=0.0)
        HParams(h=0.99)

    @pytest.mark.parametrize("field", ["h", "eta", "epsilon", "rel_tol", "min_prob"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_hparams_reject_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            HParams(**{field: value})


class TestScaledSetLogprob:
    def test_full_set_eta_one(self):
        g = toy(0.5)
        delta = nbest(g, ["a"] * 4, 5).derivations
        got = scaled_set_logprob(g, ["a"] * 4, delta, 1.0)
        assert got == pytest.approx(math.log(5 / 128), abs=1e-12)

    def test_full_set_eta_two(self):
        g = toy(0.5)
        delta = nbest(g, ["a"] * 4, 5).derivations
        got = scaled_set_logprob(g, ["a"] * 4, delta, 2.0)
        assert got == pytest.approx(math.log(5 * (1 / 128) ** 2), abs=1e-12)

    def test_singleton(self):
        g = toy(0.3)
        (d,), _ = nbest(g, ["a"] * 3, 1).derivations, None
        for eta in (0.5, 1.0, 3.0):
            got = scaled_set_logprob(g, ["a"] * 3, [d], eta)
            assert got == pytest.approx(eta * d.log_prob, abs=1e-12)

    def test_empty_set_is_distinguished(self):
        with pytest.raises(EmptyDeltaError):
            scaled_set_logprob(toy(0.5), ["a"], [], 1.0)

    def test_sentence_length_mismatch(self):
        g = toy(0.5)
        d = nbest(g, ["a", "a"], 1).derivations[0]
        with pytest.raises(ValueError, match="length"):
            scaled_set_logprob(g, ["a"] * 3, [d], 1.0)


class TestAccumulate:
    def test_toy_viterbi_all(self):
        g = toy(0.5)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL, eta=1.0)
        assert acc.d_rule_ref[0] == pytest.approx(4.0, abs=1e-12)
        assert acc.d_rule_ref[1] == pytest.approx(6.0, abs=1e-12)
        assert acc.d_nt_ref[g.nt_index["S"]] == pytest.approx(10.0, abs=1e-12)
        assert acc.d_rule_comp[0] == pytest.approx(4.0, abs=1e-12)
        assert acc.d_rule_comp[1] == pytest.approx(6.0, abs=1e-12)
        assert acc.d_nt_comp[g.nt_index["S"]] == pytest.approx(10.0, abs=1e-12)
        assert acc.skipped == 0

    def test_single_rule_grammar(self):
        g = parse_grammar("S -> a 1.0")
        acc = accumulate(g, [["a"]], VIT_ALL)
        assert acc.d_rule_ref[0] == 1.0
        assert acc.d_rule_comp[0] == 1.0

    def test_nbest_two_competitors_split_weight(self):
        acc = accumulate(toy(0.5), [["a"] * 4], DeltaSpec("viterbi", "nbest", n_comp=2))
        assert acc.d_rule_ref[0] == pytest.approx(3.0, abs=1e-12)
        assert acc.d_rule_comp[0] == pytest.approx(3.0, abs=1e-12)
        assert acc.d_rule_comp[1] == pytest.approx(4.0, abs=1e-12)

    def test_skip_policy(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        acc = accumulate(g, [["a", "b"], ["b", "a"]], VIT_ALL)
        assert acc.skipped == 1

    def test_all_skipped_raises(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        with pytest.raises(EstimationError, match="skipped"):
            accumulate(g, [["b", "a"]], VIT_ALL)

    @pytest.mark.parametrize("bad_id", [-1, 2, 7])
    def test_bad_rule_id_in_hand_built_set_raises(self, bad_id):
        g = toy(0.5)
        good = nbest(g, ["a", "a"], 1).derivations[0]
        bad = Derivation((0, bad_id, 1), 2, good.log_prob)
        for rd in (RealizedDelta((bad,), (good,)), RealizedDelta((good,), (good, bad))):
            with pytest.raises(ValueError):
                accumulate_realized(g, [rd], 1.0)

    def test_empty_corpus_raises(self):
        with pytest.raises(EstimationError, match="empty"):
            accumulate(toy(0.5), [], VIT_ALL)

    def test_nonterminal_totals_match_rule_sums(self):
        for seed in range(25):
            rng = np.random.default_rng(11_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = sample_corpus(g, rng, 3, max_len=5)
            if not corpus:
                continue
            acc = accumulate(g, corpus, VIT_ALL)
            for which in (
                (acc.d_rule_ref, acc.d_nt_ref),
                (acc.d_rule_comp, acc.d_nt_comp),
            ):
                rules_map, nt_map = which
                for nt in g.nonterminals:
                    total = sum(rules_map[r.id] for r in g.rules_by_lhs[nt])
                    assert nt_map[g.nt_index[nt]] == pytest.approx(total, rel=1e-9, abs=1e-12)
                for value in (*rules_map, *nt_map):
                    assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_matches_oracle_on_random_instances(self, eta):
        specs = [
            VIT_ALL,
            DeltaSpec("nbest", "all", n_ref=2),
            DeltaSpec("viterbi", "nbest", n_comp=3),
            DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4),
        ]
        done = 0
        for seed in range(60):
            rng = np.random.default_rng(12_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = sample_corpus(g, rng, 2, max_len=5)
            if not corpus:
                continue
            spec = specs[seed % len(specs)]
            got = accumulate(g, corpus, spec, eta)
            want = oracle_accumulate(g, corpus, spec, eta)
            for rid in range(len(g.rules)):
                assert got.d_rule_ref[rid] == pytest.approx(want.d_rule_ref[rid], rel=1e-10, abs=1e-10)
                assert got.d_rule_comp[rid] == pytest.approx(want.d_rule_comp[rid], rel=1e-10, abs=1e-10)
            for i in range(len(g.nonterminals)):
                assert got.d_nt_ref[i] == pytest.approx(want.d_nt_ref[i], rel=1e-10, abs=1e-10)
                assert got.d_nt_comp[i] == pytest.approx(want.d_nt_comp[i], rel=1e-10, abs=1e-10)
            done += 1
        assert done >= 40

    def test_merge_is_commutative_and_matches_joint(self):
        g = toy(0.5)
        a1 = accumulate(g, [TOY_CORPUS[0]], VIT_ALL)
        a2 = accumulate(g, [TOY_CORPUS[1]], VIT_ALL)
        joint = accumulate(g, TOY_CORPUS, VIT_ALL)
        merged = a1.merge(a2)
        flipped = a2.merge(a1)
        for rid in (0, 1):
            assert merged.d_rule_ref[rid] == pytest.approx(joint.d_rule_ref[rid], abs=1e-12)
            assert merged.d_rule_ref[rid] == flipped.d_rule_ref[rid]


class TestSubsetEnforcement:
    def test_reference_joins_competing_set(self):
        # brackets exclude the left-branching tree; unbracketed 1-best ref may
        # fall outside a bracketed competing set, so the union must add it
        g = toy(0.5)
        sent = Sentence(("a",) * 4, Bracketing(frozenset({(1, 3)})))
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="bracketed_all")
        rd = realize_delta_sets(g, sent, spec)
        comp_seqs = {d.rules for d in rd.comp}
        assert {d.rules for d in rd.ref} <= comp_seqs
        bracketed = nbest(g, sent.tokens, 100, sent.brackets)
        assert len(rd.comp) == len(bracketed.derivations) + 1

    def test_without_enforcement_sets_stay_disjoint(self):
        g = toy(0.5)
        sent = Sentence(("a",) * 4, Bracketing(frozenset({(1, 3)})))
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="bracketed_all", enforce_subset=False)
        rd = realize_delta_sets(g, sent, spec)
        assert {d.rules for d in rd.ref} & {d.rules for d in rd.comp} == set()

    def test_degenerate_union_warns(self):
        g = toy(0.5)
        sent = Sentence(("a",) * 4, Bracketing(frozenset({(0, 2), (2, 4)})))
        spec = DeltaSpec(ref_mode="nbest", comp_mode="bracketed_all", n_ref=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rd = realize_delta_sets(g, sent, spec)
        if {d.rules for d in rd.comp} == {d.rules for d in rd.ref}:
            assert any(issubclass(w.category, DegenerateDeltaWarning) for w in caught)

    def test_unparseable_returns_none(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        assert realize_delta_sets(g, ["b", "a"], VIT_ALL) is None


class TestStoredScores:
    """The estimator weights derivations by their stored ``log_prob``; every
    realized derivation must carry exactly its canonical score under g."""

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("comp_mode", COMP_MODES)
    @pytest.mark.parametrize("ref_mode", REF_MODES)
    def test_realized_log_probs_are_canonical(self, ref_mode, comp_mode, enforce):
        spec = DeltaSpec(ref_mode, comp_mode, n_ref=2, n_comp=2, enforce_subset=enforce)
        checked = 0
        for seed in range(10):
            rng = np.random.default_rng(7300 + seed)
            g = random_grammar(rng, ensure_binary=True)
            for tokens in sample_corpus(g, rng, 3, min_len=3):
                # bracket each sentence by a derivation other than the best
                rules = nbest(g, tokens, 3).derivations[-1].rules
                brackets = sample_bracketing(g, rng, rules, len(tokens))
                for sent in (Sentence(tuple(tokens)), Sentence(tuple(tokens), brackets)):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateDeltaWarning)
                        rd = realize_delta_sets(g, sent, spec)
                    for d in rd.ref + rd.comp:
                        assert d.log_prob == derivation_probability(g, d)
                        checked += 1
        assert checked > 100


class TestComputeCtilde:
    def test_all_positive_terms_give_epsilon(self):
        acc = accumulate(toy(0.5), TOY_CORPUS, VIT_ALL)
        assert compute_ctilde(acc, toy(0.5), 0.0, 1e-6) == pytest.approx(1e-6, abs=1e-18)

    def test_h_one_toy_cancels(self):
        g = toy(0.5)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        assert compute_ctilde(acc, g, 1.0, 1e-6) == pytest.approx(1e-6, abs=1e-12)

    def test_negative_term_dominates(self):
        g = parse_grammar("S -> S S 0.25\nS -> a 0.75\n")
        acc = accumulate(g, [["a"]], VIT_ALL)
        # overwrite with the worked numbers: D_ref=0, D_comp=2 on the binary rule
        acc.d_rule_ref[0] = 0.0
        acc.d_rule_comp[0] = 2.0
        got = compute_ctilde(acc, g, 0.5, 1e-6)
        assert got == pytest.approx(4.0 + 1e-6, abs=1e-12)


class TestGrowthStep:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("h", [0.0, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("ct", [0.1, 1.0, 10.0])
    def test_toy_closed_form(self, q, h, ct):
        g = toy(q)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        g2 = growth_step(g, acc, h, ct)
        assert g2.probs[0] == pytest.approx((4 * (1 - h) + q * ct) / (10 * (1 - h) + ct), abs=1e-12)
        assert g2.probs[1] == pytest.approx((6 * (1 - h) + (1 - q) * ct) / (10 * (1 - h) + ct), abs=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    def test_h_one_is_identity_on_toy(self, q):
        g = toy(q)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        g2 = growth_step(g, acc, 1.0, 1.0)
        assert g2.probs[0] == pytest.approx(q, abs=1e-12)
        assert g2.probs[1] == pytest.approx(1 - q, abs=1e-12)

    def test_unused_nonterminal_keeps_probabilities(self):
        g = parse_grammar(
            "S -> S S 0.4\nS -> a 0.6\nB -> B B 0.3\nB -> b 0.7\n"
        )
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        g2 = growth_step(g, acc, 0.5, 1.0)
        assert g2.probs[2] == pytest.approx(0.3, rel=1e-12)
        assert g2.probs[3] == pytest.approx(0.7, rel=1e-12)

    def test_undersized_constant_raises(self):
        g = parse_grammar("S -> S S 0.25\nS -> a 0.75\n")
        acc = accumulate(g, [["a"]], VIT_ALL)
        acc.d_rule_ref[0] = 0.0
        acc.d_rule_comp[0] = 2.0
        acc.d_nt_ref[g.nt_index["S"]] = 1.0
        acc.d_nt_comp[g.nt_index["S"]] = 3.0
        with pytest.raises(EstimationError, match="too small"):
            growth_step(g, acc, 0.9, 0.05)

    def test_probability_floor_applies(self):
        g = toy(0.5)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        g2 = growth_step(g, acc, 0.0, 1e-9, min_prob=0.45)
        # raw step gives ~(0.4, 0.6); the floor lifts 0.4 to 0.45 before renormalizing
        assert min(g2.probs) == pytest.approx(0.45 / 1.05, rel=1e-9)
        assert math.fsum(g2.probs) == 1.0

    def test_normalization_exact_after_step(self):
        for seed in range(20):
            rng = np.random.default_rng(13_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = sample_corpus(g, rng, 3, max_len=5)
            if not corpus:
                continue
            acc = accumulate(g, corpus, VIT_ALL)
            g2 = growth_step(g, acc, 0.3, compute_ctilde(acc, g, 0.3, 1.0))
            for nt in g.nonterminals:
                rids = [r.id for r in g.rules_by_lhs[nt]]
                assert math.fsum(g2.probs[r] for r in rids) == 1.0
            assert all(p > 0 for p in g2.probs)

    def test_single_ref_form_is_bit_identical(self):
        for q in (0.3, 0.5, 0.7):
            for h in (0.0, 0.4, 0.9):
                g = toy(q)
                acc = accumulate(g, TOY_CORPUS, VIT_ALL)
                a = growth_step(g, acc, h, 1.0)
                b = growth_step_single_ref(g, acc, h, 1.0)
                assert a.probs == b.probs
        for seed in range(15):
            rng = np.random.default_rng(14_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = sample_corpus(g, rng, 3, max_len=5)
            if not corpus:
                continue
            acc = accumulate(g, corpus, VIT_ALL)
            ct = compute_ctilde(acc, g, 0.6, 1.0)
            assert growth_step(g, acc, 0.6, ct).probs == growth_step_single_ref(g, acc, 0.6, ct).probs

    def test_single_ref_form_raises_the_same_error(self):
        # arbitrary statistics and offsets, so many steps have a nonpositive
        # denominator or numerator; both spellings must name the same one
        raised = 0
        for seed in range(60):
            rng = np.random.default_rng(14_500 + seed)
            g = random_grammar(rng)
            acc = Accumulators.zeros(g)
            for stat in (acc.d_rule_ref, acc.d_rule_comp, acc.d_nt_ref, acc.d_nt_comp):
                stat[:] = rng.uniform(-0.5, 3.0, size=len(stat))
            h, ct = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0))
            outcomes = []
            for step in (growth_step, growth_step_single_ref):
                try:
                    outcomes.append(step(g, acc, h, ct).probs)
                except EstimationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            raised += isinstance(outcomes[0], str)
        assert 10 <= raised < 60


class TestObjective:
    def test_h_zero_is_best_derivation_mass(self):
        got = objective(toy(0.5), TOY_CORPUS, VIT_ALL, HParams(h=0.0))
        assert got == pytest.approx(math.log((1 / 8) * (1 / 128)), abs=1e-12)

    def test_h_one_is_best_to_total_ratio(self):
        g = toy(0.5)
        realized = [realize_delta_sets(g, s, VIT_ALL) for s in TOY_CORPUS]
        got = objective_over_sets(g, realized, 1.0, 1.0)
        assert got == pytest.approx(math.log(1 / 5), abs=1e-12)

    def test_reference_all_h_zero_is_log_likelihood(self):
        g = toy(0.5)
        spec = DeltaSpec(ref_mode="nbest", comp_mode="all", n_ref=100, n_comp=100)
        got = objective(g, TOY_CORPUS, spec, HParams(h=0.0))
        assert got == pytest.approx(math.log((1 / 8) * (5 / 128)), abs=1e-12)

    def test_skipped_sentences_excluded(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        got = objective(g, [["a", "b"], ["b", "a"]], VIT_ALL, HParams(h=0.5))
        assert got == pytest.approx((1 - 0.5) * math.log(1.0), abs=1e-12)

    def test_empty_effective_corpus(self):
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        with pytest.raises(EstimationError):
            objective(g, [["b", "a"]], VIT_ALL, HParams())


class TestMonotonicity:
    def test_objective_never_decreases_on_frozen_sets(self):
        # unit epsilon in the offset constant: the fast-convergence
        # approximation with a tiny epsilon can undershoot at large h
        specs = [
            VIT_ALL,
            DeltaSpec("nbest", "all", n_ref=2),
            DeltaSpec("viterbi", "nbest", n_comp=3),
            DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4),
        ]
        for h in (0.0, 0.3, 0.6, 0.9):
            done = 0
            for seed in range(80):
                rng = np.random.default_rng(15_000 + seed)
                g = random_grammar(rng, ensure_binary=True)
                corpus = sample_corpus(g, rng, int(rng.integers(1, 4)), max_len=5)
                if not corpus:
                    continue
                spec = specs[seed % len(specs)]
                realized = [realize_delta_sets(g, s, spec) for s in corpus]
                if all(r is None for r in realized):
                    continue
                acc = accumulate_realized(g, realized, 1.0)
                ct = compute_ctilde(acc, g, h, 1.0)
                g2 = growth_step(g, acc, h, ct)
                before = objective_over_sets(g, realized, 1.0, h)
                after = objective_over_sets(g2, realized, 1.0, h)
                assert after >= before - 1e-9, f"h={h} seed={seed}"
                done += 1
            assert done >= 40


class TestTrain:
    def test_viterbi_score_equivalence_on_toy(self):
        report = train(toy(0.7), TOY_CORPUS, VIT_ALL, HParams(h=0.0, epsilon=1e-6, max_iters=20))
        # relative frequencies of the best derivations: 4/10 and 6/10
        assert report.final_grammar.probs[0] == pytest.approx(0.4, abs=1e-4)
        assert report.final_grammar.probs[1] == pytest.approx(0.6, abs=1e-4)
        assert report.converged

    def test_viterbi_score_trajectory_matches_relative_frequencies(self):
        # at h=0 with a tiny offset every iterate is the relative-frequency
        # reestimate computed independently from integer counts
        g = toy(0.85)
        params = HParams(h=0.0, epsilon=1e-6, max_iters=4, rel_tol=0.0)
        trained = g
        for _ in range(params.max_iters):
            num = {rid: 0 for rid in range(len(trained.rules))}
            den = {nt: 0 for nt in trained.nonterminals}
            for tokens in TOY_CORPUS:
                d, _ = viterbi(trained, tokens)
                counts = rule_counts(trained, d)
                for rid, c in counts.per_rule.items():
                    num[rid] += c
                for nt, c in counts.per_nonterminal.items():
                    den[nt] += c
            step = train(trained, TOY_CORPUS, VIT_ALL, HParams(h=0.0, epsilon=1e-6, max_iters=1))
            for rule in trained.rules:
                expected = num[rule.id] / den[rule.lhs]
                assert step.final_grammar.probs[rule.id] == pytest.approx(expected, abs=1e-4)
            trained = step.final_grammar

    def test_stationary_point_moves_nowhere(self):
        report = train(toy(0.4), TOY_CORPUS, VIT_ALL, HParams(h=0.0, max_iters=3))
        assert report.records[0].max_delta_p < 1e-12
        assert report.converged

    def test_zero_iterations_returns_input(self):
        g = toy(0.4)
        report = train(g, TOY_CORPUS, VIT_ALL, HParams(max_iters=0))
        assert report.records == ()
        assert report.final_grammar.probs == g.probs
        assert not report.converged

    def test_report_fields_and_csv(self):
        report = train(toy(0.55), TOY_CORPUS, VIT_ALL, HParams(h=0.3, max_iters=5, epsilon=0.5))
        csv = report.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped"
        assert len(lines) == len(report.records) + 1
        first = report.records[0]
        assert first.iteration == 1
        assert first.skipped == 0
        assert first.spectral_radius > 0

    def test_objective_trace_non_decreasing_for_viterbi_all(self):
        report = train(
            toy(0.8), TOY_CORPUS, VIT_ALL, HParams(h=0.3, epsilon=1.0, max_iters=15)
        )
        objs = [r.log_objective for r in report.records]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_discriminative_training_reduces_competing_mass(self):
        # h > 0 pushes mass toward the reference derivations; the grammar
        # trained at h=0.6 must score the best-to-total ratio at least as
        # well as the h=0 grammar on the same corpus
        g0 = toy(0.6)
        params0 = HParams(h=0.0, epsilon=1.0, max_iters=25)
        params6 = HParams(h=0.6, epsilon=1.0, max_iters=25)
        g_gen = train(g0, TOY_CORPUS, VIT_ALL, params0).final_grammar
        g_disc = train(g0, TOY_CORPUS, VIT_ALL, params6).final_grammar

        def ratio(g):
            realized = [realize_delta_sets(g, s, VIT_ALL) for s in TOY_CORPUS]
            return objective_over_sets(g, realized, 1.0, 1.0)

        assert ratio(g_disc) >= ratio(g_gen) - 1e-9

    def test_empty_corpus(self):
        with pytest.raises(EstimationError):
            train(toy(0.4), [], VIT_ALL, HParams())
