"""Growth-transformation estimation: accumulators, the update, training."""
import math
import warnings
from pathlib import Path
from unittest import mock

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
    derivation_spans,
    enumerate_derivations,
    growth_step,
    inside,
    load_grammar,
    nbest,
    objective,
    objective_over_sets,
    oracle_accumulate,
    parse_grammar,
    read_bracketed_corpus,
    realize_delta_sets,
    train,
    viterbi,
)
from pcfgtk import estimator
from pcfgtk.estimator import COMP_MODES, REF_MODES, accumulate_realized
from pcfgtk.logmath import exp_split
from pcfgtk.oracle import catalan, count_vector, growth_step_single_ref

TOY_CORPUS = [["a", "a"], ["a", "a", "a", "a"]]
VIT_ALL = DeltaSpec(ref_mode="viterbi", comp_mode="all")


class TestSpecsAndParams:
    def test_delta_spec_validation(self):
        with pytest.raises(ValueError):
            DeltaSpec(ref_mode="best")
        with pytest.raises(ValueError):
            DeltaSpec(comp_mode="everything")
        with pytest.raises(ValueError, match="^n_ref must be at least 1$"):
            DeltaSpec(ref_mode="nbest", n_ref=0)
        with pytest.raises(ValueError, match="^n_comp must be at least 1$"):
            DeltaSpec(comp_mode="nbest", n_comp=0)
        with pytest.raises(ValueError):
            DeltaSpec(ref_mode="nbest", comp_mode="nbest", n_ref=3, n_comp=2)
        for counts in ({"n_comp": 2.5}, {"n_comp": 2.0}, {"n_ref": 1.0}, {"n_ref": "1"}):
            with pytest.raises(ValueError, match="integers"):
                DeltaSpec("viterbi", "nbest", **counts)
        DeltaSpec(ref_mode="nbest", comp_mode="nbest", n_ref=2, n_comp=2)
        DeltaSpec("viterbi", "nbest", n_comp=np.int64(3))

    def test_each_list_length_is_checked_only_by_its_mode(self):
        # a mode other than nbest never reads its n, so any integer passes
        for spec in (
            DeltaSpec(comp_mode="all", n_comp=0),
            DeltaSpec("viterbi", "bracketed_all", n_ref=0, n_comp=-3),
            DeltaSpec("bracketed_viterbi", "nbest", n_ref=0, n_comp=2),
            DeltaSpec("nbest", "all", n_ref=2, n_comp=0),
        ):
            plain = DeltaSpec(spec.ref_mode, spec.comp_mode, n_ref=2, n_comp=2)
            assert realize_delta_sets(toy(0.5), ["a"] * 4, spec) == realize_delta_sets(
                toy(0.5), ["a"] * 4, plain
            )

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
        for iters in (1.5, 2.0, "3"):
            with pytest.raises(ValueError, match="integer"):
                HParams(max_iters=iters)
        HParams(max_iters=np.int64(3))
        HParams(h=0.0)
        HParams(h=0.99)

    @pytest.mark.parametrize("field", ["h", "eta", "epsilon", "rel_tol", "min_prob"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_hparams_reject_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            HParams(**{field: value})


class TestScaledSetLogprob:
    """A set's eta-scaled log mass, the log of its summed p(d) ** eta: at
    h = 0 the objective of one sentence is its reference set's."""

    def test_full_set_eta_one(self):
        g = toy(0.5)
        delta = nbest(g, ["a"] * 4, 5).derivations
        got = objective_over_sets(g, [RealizedDelta(delta, delta)], 1.0, 0.0)
        assert got == pytest.approx(math.log(5 / 128), abs=1e-12)

    def test_full_set_eta_two(self):
        g = toy(0.5)
        delta = nbest(g, ["a"] * 4, 5).derivations
        got = objective_over_sets(g, [RealizedDelta(delta, delta)], 2.0, 0.0)
        assert got == pytest.approx(math.log(5 * (1 / 128) ** 2), abs=1e-12)

    def test_singleton(self):
        g = toy(0.3)
        (d,) = nbest(g, ["a"] * 3, 1).derivations
        for eta in (0.5, 1.0, 3.0):
            got = objective_over_sets(g, [RealizedDelta((d,), (d,))], eta, 0.0)
            assert got == pytest.approx(eta * d.log_prob, abs=1e-12)

    def test_empty_set_is_distinguished(self):
        g = toy(0.5)
        d = nbest(g, ["a"], 1).derivations
        complete = Sentence(("a",))
        for ref, comp, whole in (((), d, None), (d, (), None), ((), (), complete)):
            with pytest.raises(EmptyDeltaError):
                RealizedDelta(ref, comp, whole)
        # a complete set needs no listed competitors
        rd = RealizedDelta(d, (), complete)
        assert objective_over_sets(g, [rd], 1.0, 0.0) == d[0].log_prob
        assert accumulate_realized(g, [rd])[0].d_rule_comp[1] == 1.0


class TestAccumulate:
    def test_toy_viterbi_all(self):
        g = toy(0.5)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL, eta=1.0)
        assert acc.d_rule_ref[0] == pytest.approx(4.0, abs=1e-12)
        assert acc.d_rule_ref[1] == pytest.approx(6.0, abs=1e-12)
        assert acc.d_rule_comp[0] == pytest.approx(4.0, abs=1e-12)
        assert acc.d_rule_comp[1] == pytest.approx(6.0, abs=1e-12)
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
        # one condition, one error: the estimator's accumulation and
        # objective and the oracle's accumulation all report it alike, and
        # an empty corpus, where nothing was skipped, is reported as empty
        g = parse_grammar("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n")
        assert realize_delta_sets(g, ["b", "a"], VIT_ALL) is None
        for corpus, message in (([["b", "a"]], "all sentences were skipped"), ([], "corpus is empty")):
            realized = [realize_delta_sets(g, s, VIT_ALL) for s in corpus]
            for call in (
                lambda: accumulate(g, corpus, VIT_ALL),
                lambda: accumulate_realized(g, realized),
                lambda: objective_over_sets(g, realized, 1.0, 0.5),
                lambda: objective(g, corpus, VIT_ALL, HParams()),
                lambda: oracle_accumulate(g, corpus, VIT_ALL),
            ):
                with pytest.raises(EstimationError, match=f"^{message}$"):
                    call()

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

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_matches_oracle_on_random_instances(self, eta):
        specs = [
            VIT_ALL,
            DeltaSpec("nbest", "all", n_ref=2),
            DeltaSpec("viterbi", "nbest", n_comp=3),
            DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4),
            DeltaSpec("viterbi", "bracketed_all"),
            DeltaSpec("viterbi", "bracketed_all", enforce_subset=False),
            DeltaSpec("nbest", "bracketed_all", n_ref=2),
        ]
        done = appended = 0
        for seed in range(70):
            rng = np.random.default_rng(12_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = []
            for tokens in sample_corpus(g, rng, 2, max_len=5, min_len=3):
                # bracket by a derivation other than the best, so that the
                # Viterbi reference often crosses a bracket
                rules = nbest(g, tokens, 3).derivations[-1].rules
                brackets = sample_bracketing(g, rng, rules, len(tokens))
                corpus += [tokens, Sentence(tuple(tokens), brackets)]
            if not corpus:
                continue
            spec = specs[seed % len(specs)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateDeltaWarning)
                realized = [realize_delta_sets(g, s, spec) for s in corpus]
            appended += sum(rd is not None and rd.complete is not None and bool(rd.comp) for rd in realized)
            got = accumulate_realized(g, realized, eta)[0]
            want = oracle_accumulate(g, corpus, spec, eta)
            for rid in range(len(g.rules)):
                assert got.d_rule_ref[rid] == pytest.approx(want.d_rule_ref[rid], rel=1e-10, abs=1e-10)
                assert got.d_rule_comp[rid] == pytest.approx(want.d_rule_comp[rid], rel=1e-10, abs=1e-10)
            done += 1
        assert done >= 40
        assert appended >= 10

    @pytest.mark.parametrize("q", [0.3, 0.7])
    @pytest.mark.parametrize("n", [13, 40])
    def test_complete_set_in_closed_form(self, n, q):
        # every derivation of a^n under toy(q) has probability
        # q^(n-1) (1-q)^n, so the expected counts are (n-1, n) and the
        # competing mass is Catalan(n-1) times that probability; a^13 alone
        # has 208,012 derivations
        g = toy(q)
        sent = ["a"] * n
        acc = accumulate(g, [sent], VIT_ALL)
        assert acc.d_rule_comp[0] == pytest.approx(n - 1, abs=1e-12)
        assert acc.d_rule_comp[1] == pytest.approx(n, abs=1e-12)
        realized = [realize_delta_sets(g, sent, VIT_ALL)]
        h = 0.5
        ref_term = objective_over_sets(g, realized, 1.0, 0.0)
        comp_term = (ref_term - objective_over_sets(g, realized, 1.0, h)) / h
        p, r = g.probs
        want = math.log(catalan(n - 1)) + (n - 1) * math.log(p) + n * math.log(r)
        assert comp_term == pytest.approx(want, rel=1e-12)


def competing_rules(g, rd):
    """Rule sequences of a realized delta's whole competing set: the listed
    derivations plus, for a complete set, the bracket-compatible ones the
    enumeration oracle finds."""
    rules = {d.rules for d in rd.comp}
    if rd.complete is not None:
        brackets = rd.complete.brackets or Bracketing()
        rules |= {
            d.rules
            for d in enumerate_derivations(g, rd.complete.tokens).derivations
            if all(brackets.compatible(i, j) for i, j in derivation_spans(g, d))
        }
    return rules


def spy_nbest(monkeypatch) -> list:
    """Record the ``(n, brackets)`` of every n-best parse the estimator runs."""
    calls = []

    def spy(g, tokens, n, brackets=None):
        calls.append((n, brackets))
        return nbest(g, tokens, n, brackets)

    monkeypatch.setattr(estimator, "nbest", spy)
    return calls


class TestSubsetEnforcement:
    def test_reference_joins_competing_set(self):
        # brackets exclude the left-branching tree; unbracketed 1-best ref may
        # fall outside a bracketed competing set, so the union must add it;
        # the complete set itself is not listed, only the crossing reference
        g = toy(0.5)
        sent = Sentence(("a",) * 4, Bracketing(frozenset({(1, 3)})))
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="bracketed_all")
        rd = realize_delta_sets(g, sent, spec)
        assert rd.complete == sent
        assert rd.comp == rd.ref
        bracketed = {d.rules for d in nbest(g, sent.tokens, 100, sent.brackets).derivations}
        assert not {d.rules for d in rd.ref} & bracketed
        assert competing_rules(g, rd) == bracketed | {d.rules for d in rd.ref}
        assert len(competing_rules(g, rd)) == len(bracketed) + 1

    def test_without_enforcement_sets_stay_disjoint(self):
        g = toy(0.5)
        sent = Sentence(("a",) * 4, Bracketing(frozenset({(1, 3)})))
        spec = DeltaSpec(ref_mode="viterbi", comp_mode="bracketed_all", enforce_subset=False)
        rd = realize_delta_sets(g, sent, spec)
        assert rd.comp == ()
        assert {d.rules for d in rd.ref} & competing_rules(g, rd) == set()

    def test_complete_set_never_misses_a_reference_derivation(self):
        g = toy(0.5)
        sent = Sentence(("a",) * 5, Bracketing(frozenset({(1, 3)})))
        for spec in (
            DeltaSpec("nbest", "all", n_ref=3),
            DeltaSpec("bracketed_viterbi", "bracketed_all"),
            DeltaSpec("bracketed_viterbi", "all"),
        ):
            rd = realize_delta_sets(g, sent, spec)
            assert rd.comp == ()
            assert {d.rules for d in rd.ref} <= competing_rules(g, rd)

    def test_degenerate_union_warns(self):
        g = toy(0.5)
        warned = quiet = 0
        for n in (3, 4, 5):
            spans = [(i, j) for i in range(n) for j in range(i + 2, n + 1) if j - i < n]
            bracketings = [frozenset()] + [frozenset({s}) for s in spans]
            bracketings += [frozenset({(0, 2), (2, 4)}), frozenset({(0, 2), (0, 3)})]
            for spans_kept in bracketings:
                if any(j > n for _, j in spans_kept):
                    continue
                sent = Sentence(("a",) * n, Bracketing(spans_kept))
                for spec in (
                    DeltaSpec("viterbi", "bracketed_all"),
                    DeltaSpec("nbest", "bracketed_all", n_ref=2),
                    DeltaSpec("nbest", "bracketed_all", n_ref=5),
                    DeltaSpec("nbest", "all", n_ref=14),
                ):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        rd = realize_delta_sets(g, sent, spec)
                    warns = any(issubclass(w.category, DegenerateDeltaWarning) for w in caught)
                    # only a union that appended references can coincide anew
                    coincide = competing_rules(g, rd) == {d.rules for d in rd.ref}
                    assert warns == (bool(rd.comp) and coincide)
                    warned += warns
                    quiet += not warns
        assert warned >= 5 and quiet >= 5

    def test_single_crossing_reference_runs_no_degeneracy_parse(self, monkeypatch):
        # with k = 0 nesting references, the 1-best parse of the complete
        # set shows it non-empty, and so also that the union with the
        # crossing reference is not the reference set: no second parse
        calls = spy_nbest(monkeypatch)
        g = toy(0.5)
        spec = DeltaSpec("viterbi", "bracketed_all")
        crossed = 0
        for n in (3, 4, 5):
            for i in range(n):
                for j in range(i + 2, min(n, i + n - 1) + 1):
                    brackets = Bracketing({(i, j)})
                    calls.clear()
                    rd = realize_delta_sets(g, Sentence(("a",) * n, brackets), spec)
                    crossed += bool(rd.comp)
                    assert {d.rules for d in rd.ref} <= competing_rules(g, rd)
                    assert calls == [(1, None)] + [(1, brackets)] * bool(rd.comp)
        assert crossed >= 5

    def test_unbracketed_reference_list_is_cut_from_the_competing_one(self, monkeypatch):
        # an n-best list starts with every shorter one, so one parse serves
        # both sides
        calls = spy_nbest(monkeypatch)
        g = toy(0.4)
        for spec, n_ref in (
            (DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4), 2),
            (DeltaSpec("viterbi", "nbest", n_comp=3), 1),
        ):
            calls.clear()
            rd = realize_delta_sets(g, ["a"] * 4, spec)
            assert calls == [(spec.n_comp, None)]
            assert rd.ref == nbest(g, ["a"] * 4, n_ref).derivations

    @pytest.mark.parametrize("enforce", [True, False])
    def test_no_compatible_derivation_returns_none(self, enforce):
        # "a b b" has one derivation, with a constituent over (1, 3), so the
        # bracket (0, 2) leaves the bracketed competing set empty even though
        # the unbracketed Viterbi reference exists
        g = parse_grammar("S -> A B 1.0\nB -> C C 1.0\nA -> a 1.0\nC -> b 1.0\n")
        sent = Sentence(("a", "b", "b"), Bracketing(frozenset({(0, 2)})))
        spec = DeltaSpec("viterbi", "bracketed_all", enforce_subset=enforce)
        assert viterbi(g, sent.tokens) is not None
        assert realize_delta_sets(g, sent, spec) is None
        assert accumulate(g, [sent, ["a", "b", "b"]], spec).skipped == 1

    @pytest.mark.parametrize("enforce", [True, False])
    def test_oracle_skips_what_the_estimator_skips(self, enforce):
        # the bracketed complete set of the first sentence is empty, so it is
        # skipped before any reference is appended to it
        g = parse_grammar("S -> A B 1.0\nB -> C C 1.0\nA -> a 1.0\nC -> b 1.0\n")
        sent = Sentence(("a", "b", "b"), Bracketing(frozenset({(0, 2)})))
        spec = DeltaSpec("viterbi", "bracketed_all", enforce_subset=enforce)
        got = accumulate(g, [sent, ["a", "b", "b"]], spec)
        want = oracle_accumulate(g, [sent, ["a", "b", "b"]], spec)
        assert got.skipped == want.skipped == 1
        assert got.d_rule_ref.tolist() == want.d_rule_ref.tolist() == [1.0, 1.0, 1.0, 2.0]
        assert got.d_rule_comp.tolist() == want.d_rule_comp.tolist()

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize(
        "ref_mode,comp_mode",
        [(r, c) for r in REF_MODES for c in COMP_MODES if {r, c} & estimator.BRACKETED_MODES],
    )
    @pytest.mark.parametrize("span", [(0, 9), (3, 4), (1, 9)])
    def test_bracket_beyond_the_sentence_raises(self, ref_mode, comp_mode, enforce, span):
        # (0, 9) and (3, 4) nest with every derivation of three tokens, so
        # no reference crosses them and the complete set is never parsed
        spec = DeltaSpec(ref_mode, comp_mode, n_ref=2, n_comp=3, enforce_subset=enforce)
        sent = Sentence(("a",) * 3, Bracketing(frozenset({span})))
        with pytest.raises(ValueError, match="^bracket span exceeds sentence length 3$"):
            realize_delta_sets(toy(0.5), sent, spec)

    @pytest.mark.parametrize("enforce", [True, False])
    def test_complete_set_is_parsed_only_when_no_reference_nests(self, monkeypatch, enforce):
        # a reference derivation that nests with the complete set's brackets
        # shows that set non-empty; only when none does is it parsed, for
        # its 1-best list
        calls = spy_nbest(monkeypatch)
        g = toy(0.5)
        tokens = ("a",) * 4
        best = viterbi(g, tokens)[0]
        nesting = Bracketing(frozenset(derivation_spans(g, best)))
        crossing = Bracketing(frozenset({(1, 3)}))
        assert not all(crossing.compatible(i, j) for i, j in derivation_spans(g, best))
        for ref_mode, comp_mode, brackets, want in (
            ("bracketed_viterbi", "all", crossing, [(1, crossing)]),
            ("viterbi", "bracketed_all", nesting, [(1, None)]),
            ("viterbi", "bracketed_all", crossing, [(1, None), (1, crossing)]),
        ):
            calls.clear()
            spec = DeltaSpec(ref_mode, comp_mode, enforce_subset=enforce)
            assert realize_delta_sets(g, Sentence(tokens, brackets), spec) is not None
            assert calls == want

    def test_every_parse_realize_makes(self, monkeypatch):
        # every listed set is one n-best parse over the brackets its mode
        # reads, a reference list that reads no bracket (none, or an empty
        # bracketing) being cut from the competing one; a complete set holding the k references that nest with its
        # brackets is parsed for its (k + 1)-best list, and only at k = 0 or
        # when references are appended to it
        calls = spy_nbest(monkeypatch)
        g = toy(0.5)
        tokens = ("a",) * 4
        best = viterbi(g, tokens)[0]
        nesting = Bracketing(frozenset(derivation_spans(g, best)))
        crossing = Bracketing(frozenset({(1, 3)}))
        probes = {"k = 0": 0, "k > 0": 0, "none": 0}
        for ref_mode in REF_MODES:
            for comp_mode in COMP_MODES:
                for enforce in (True, False):
                    spec = DeltaSpec(ref_mode, comp_mode, n_ref=2, n_comp=3, enforce_subset=enforce)
                    for brackets in (None, Bracketing(), nesting, crossing):
                        ref_brackets = brackets if ref_mode.startswith("bracketed_") else None
                        comp_brackets = brackets if comp_mode.startswith("bracketed_") else None
                        n_ref = 2 if ref_mode == "nbest" else 1
                        ref = nbest(g, tokens, n_ref, ref_brackets).derivations
                        if comp_mode == "nbest":
                            reads = ref_brackets is not None and ref_brackets.spans
                            want = [(3, None)] + [(1, brackets)] * bool(reads)
                        else:
                            nests = (comp_brackets or Bracketing()).compatible
                            k = sum(all(nests(i, j) for i, j in derivation_spans(g, d)) for d in ref)
                            want = [(n_ref, ref_brackets)]
                            if k == 0 or enforce and k < len(ref):
                                want.append((k + 1, comp_brackets))
                                probes["k = 0" if k == 0 else "k > 0"] += 1
                            else:
                                probes["none"] += 1
                        calls.clear()
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", DegenerateDeltaWarning)
                            rd = realize_delta_sets(g, Sentence(tokens, brackets), spec)
                        assert calls == want, (ref_mode, comp_mode, enforce, brackets)
                        assert rd.ref == ref
        assert min(probes.values()) >= 2, probes

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
        checked = sentences = 0
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
                    # a complete competing set is realized as its sentence
                    if comp_mode == "nbest":
                        assert rd.complete is None
                    else:
                        bracketed = comp_mode == "bracketed_all"
                        assert rd.complete == Sentence(sent.tokens, sent.brackets if bracketed else None)
                    sentences += 1
        assert sentences > 40 and checked >= sentences


class TestComputeCtilde:
    def test_all_positive_terms_give_epsilon(self):
        acc = accumulate(toy(0.5), TOY_CORPUS, VIT_ALL)
        assert compute_ctilde(acc, toy(0.5), 0.0, 1e-6) == pytest.approx(1e-6, abs=1e-18)

    def test_h_one_toy_cancels(self):
        g = toy(0.5)
        acc = accumulate(g, TOY_CORPUS, VIT_ALL)
        assert compute_ctilde(acc, g, 1.0, 1e-6) == pytest.approx(1e-6, abs=1e-12)

    def test_floored_rule_setting_the_constant_keeps_its_numerator_positive(self):
        # S -> S S sits at the min_prob floor and sets the constant; its
        # margin p * epsilon (1e-18) is below the rounding unit of
        # -h * D_comp = -0.21, so the plain constant leaves its numerator at 0.0
        g = parse_grammar("S -> S S 1e-12\nS -> a 0.999999999999\n")
        acc = Accumulators.zeros(g)
        acc.d_rule_ref[:] = [0.0, 1.0]
        acc.d_rule_comp[:] = [0.7, 1.0]
        h, epsilon = 0.3, 1e-6
        plain = h * 0.7 / g.probs[0] + epsilon
        with pytest.raises(EstimationError, match="numerator for S -> S S is 0.0"):
            growth_step(g, acc, h, plain)
        ct = compute_ctilde(acc, g, h, epsilon)
        assert plain < ct < plain * (1 + 1e-12)
        assert all(p > 0.0 for p in growth_step(g, acc, h, ct).probs)

    def test_constant_is_plain_wherever_the_step_accepts_it(self):
        accepted = 0
        for seed in range(60):
            rng = np.random.default_rng(13_500 + seed)
            g = random_grammar(rng)
            acc = Accumulators.zeros(g)
            for stat in (acc.d_rule_ref, acc.d_rule_comp):
                stat[:] = rng.uniform(0.0, 3.0, size=len(stat))
            h, epsilon = float(rng.uniform(0.0, 1.0)), float(10.0 ** rng.uniform(-8, 0))
            num = acc.d_rule_ref - h * acc.d_rule_comp
            plain = max(0.0, max(-num[r] / g.probs[r] for r in range(len(g.rules)))) + epsilon
            try:
                growth_step(g, acc, h, plain)
            except EstimationError:
                continue
            assert compute_ctilde(acc, g, h, epsilon) == plain
            accepted += 1
        assert accepted >= 50

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
        with pytest.raises(EstimationError, match="too small"):
            growth_step(g, acc, 0.9, 0.05)

    def test_denominator_is_the_block_sum_of_the_numerators(self):
        # statistics set by hand, rules only: each raw probability is its
        # numerator over the sum of its nonterminal's numerators
        g = parse_grammar(
            "S -> S B 0.5\nS -> a 0.5\nB -> B B 0.2\nB -> S S 0.3\nB -> b 0.5\n"
        )
        acc = Accumulators.zeros(g)
        acc.d_rule_ref[:] = [3.0, 1.0, 2.0, 0.5, 4.0]
        acc.d_rule_comp[:] = [1.0, 2.0, 1.5, 0.5, 1.0]
        h, ct = 0.4, 2.0
        num = acc.d_rule_ref - h * acc.d_rule_comp + np.array(g.probs) * ct
        assert (num > 0.0).all()
        want = [num[r] / sum(num[s.id] for s in g.rules_by_lhs[g.rules[r].lhs]) for r in range(5)]
        assert min(want) > 0.1  # no floor applies
        assert estimator._raw_transform(g, acc, h, ct) == pytest.approx(want, rel=0.0, abs=1e-12)
        assert growth_step(g, acc, h, ct).probs == pytest.approx(want, rel=0.0, abs=1e-12)

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
        # numerator; both spellings must name the same one
        raised = 0
        for seed in range(60):
            rng = np.random.default_rng(14_500 + seed)
            g = random_grammar(rng)
            acc = Accumulators.zeros(g)
            for stat in (acc.d_rule_ref, acc.d_rule_comp):
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

    @pytest.mark.parametrize("h", [0.3, 0.9])
    def test_complete_sets_match_enumeration(self, h):
        specs = [
            VIT_ALL,
            DeltaSpec("bracketed_viterbi", "bracketed_all"),
            DeltaSpec("nbest", "bracketed_all", n_ref=2),
            DeltaSpec("viterbi", "bracketed_all", enforce_subset=False),
        ]
        done = 0
        for seed in range(40):
            rng = np.random.default_rng(12_500 + seed)
            g = random_grammar(rng, ensure_binary=True)
            spec = specs[seed % len(specs)]
            for tokens in sample_corpus(g, rng, 2, max_len=5, min_len=3):
                rules = nbest(g, tokens, 3).derivations[-1].rules
                sent = Sentence(tuple(tokens), sample_bracketing(g, rng, rules, len(tokens)))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateDeltaWarning)
                    rd = realize_delta_sets(g, sent, spec)
                if rd is None:
                    continue
                scores = {d.rules: d.log_prob for d in enumerate_derivations(g, tokens).derivations}
                want = math.log(math.fsum(math.exp(0.5 * d.log_prob) for d in rd.ref))
                comp = competing_rules(g, rd)
                want -= h * math.log(math.fsum(math.exp(0.5 * scores[r]) for r in comp))
                assert objective_over_sets(g, [rd], 0.5, h) == pytest.approx(want, rel=1e-10)
                done += 1
        assert done >= 40

    def test_pre_step_objective_is_read_from_the_accumulation(self):
        # train's f_before: the log masses that normalize the weights
        specs = [VIT_ALL, DeltaSpec("nbest", "nbest", n_ref=2, n_comp=3)]
        for seed in range(20):
            rng = np.random.default_rng(18_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            corpus = sample_corpus(g, rng, 3, max_len=5)
            realized = [realize_delta_sets(g, s, specs[seed % 2]) for s in corpus] + [None]
            if all(r is None for r in realized):
                continue
            for eta in (0.5, 1.0, 2.0):
                _, f_before = accumulate_realized(g, realized, eta, 0.6)
                assert f_before == objective_over_sets(g, realized, eta, 0.6)

    def test_pre_step_objective_is_the_frozen_set_objective_on_g100(self):
        # f_before and a fresh scoring of the same sets under the same
        # grammar take the same logs and sum them in the same order, so
        # they agree bit for bit, and a step that changes nothing leaves
        # the objective as it was
        data = Path(__file__).parent / "data"
        g = load_grammar(data / "g100-seed0.g")
        corpus = read_bracketed_corpus(data / "g100-seed0-block.txt")
        cases = 0
        for ref_mode in REF_MODES:
            for comp_mode in COMP_MODES:
                spec = DeltaSpec(ref_mode, comp_mode, n_ref=3, n_comp=10)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateDeltaWarning)
                    realized = [realize_delta_sets(g, s, spec) for s in corpus]
                for eta in (1.0, 0.5, 2.0):
                    for h in (0.0, 0.3, 0.9):
                        _, f_before = accumulate_realized(g, realized, eta, h)
                        assert f_before == objective_over_sets(g, realized, eta, h)
                        cases += 1
        assert cases == 81

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
        for eta in (0.5, 1.0, 2.0):
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
                    acc = accumulate_realized(g, realized, eta)[0]
                    ct = compute_ctilde(acc, g, h, 1.0)
                    g2 = growth_step(g, acc, h, ct)
                    before = objective_over_sets(g, realized, eta, h)
                    after = objective_over_sets(g2, realized, eta, h)
                    assert after >= before - 1e-9, f"eta={eta} h={h} seed={seed}"
                    done += 1
                assert done >= 40

    def test_train_never_steps_downhill_at_default_epsilon(self):
        # the instances of criterion 6 (tests/test_acceptance.py) at h = 0.9
        # and the default epsilon; without the offset check, seeds 137, 192,
        # 218 and 268 step downhill (10 steps over the three etas, by up to
        # 3.17 nats)
        specs = [
            VIT_ALL,
            DeltaSpec("nbest", "all", n_ref=2),
            DeltaSpec("viterbi", "nbest", n_comp=3),
            DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4),
        ]
        tol = estimator._DOWNHILL_TOL
        retried = 0
        for eta in (0.5, 1.0, 2.0):
            params = HParams(h=0.9, eta=eta, max_iters=1, rel_tol=0.0)
            for seed in range(100, 300):
                rng = np.random.default_rng(50_000 + seed)
                g = random_grammar(rng, ensure_binary=True)
                corpus = sample_corpus(g, rng, int(rng.integers(1, 4)), max_len=5)
                spec = specs[seed % len(specs)]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateDeltaWarning)
                    realized = [realize_delta_sets(g, s, spec) for s in corpus]
                    if not corpus or all(r is None for r in realized):
                        continue
                    report = train(g, corpus, spec, params)
                acc, before = accumulate_realized(g, realized, eta, 0.9)
                (record,) = report.records
                assert record.log_objective >= before - tol * max(1.0, abs(before)), (eta, seed)
                retried += record.ctilde > compute_ctilde(acc, g, 0.9, params.epsilon)
        assert retried == 10

    def test_offset_doubles_until_the_cap_then_raises(self, monkeypatch):
        # an objective that always falls: every doubling is tried, then training fails
        steps = []
        raw_transform = estimator._raw_transform

        def spy(g, acc, h, ctilde):
            steps.append(ctilde)
            return raw_transform(g, acc, h, ctilde)

        monkeypatch.setattr(estimator, "objective_over_sets", lambda *args: -math.inf)
        monkeypatch.setattr(estimator, "_raw_transform", spy)
        with pytest.raises(EstimationError, match="objective fell"):
            train(toy(0.7), TOY_CORPUS, VIT_ALL, HParams(h=0.5))
        assert len(steps) == estimator._MAX_DOUBLINGS + 1
        assert steps == [steps[0] * 2.0**k for k in range(len(steps))]

    def test_statistics_are_the_objective_gradient(self):
        # d objective / d p(rule) = eta * (D_ref - h * D_comp) / p, checked by
        # a central difference along a zero-sum direction in one rule block
        specs = [
            VIT_ALL,
            DeltaSpec("nbest", "all", n_ref=2),
            DeltaSpec("viterbi", "nbest", n_comp=3),
            DeltaSpec("bracketed_viterbi", "bracketed_all"),
        ]
        step = 1e-6
        done = 0
        for seed in range(120):
            rng = np.random.default_rng(17_000 + seed)
            g = random_grammar(rng, ensure_binary=True)
            blocks = [[r.id for r in rules] for rules in g.rules_by_lhs.values() if len(rules) > 1]
            corpus = []
            for tokens in sample_corpus(g, rng, 2, max_len=5, min_len=3):
                rules = nbest(g, tokens, 2).derivations[-1].rules
                corpus.append(Sentence(tuple(tokens), sample_bracketing(g, rng, rules, len(tokens))))
            spec = specs[seed % len(specs)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateDeltaWarning)
                realized = [realize_delta_sets(g, s, spec) for s in corpus]
            if not blocks or all(r is None for r in realized):
                continue
            eta = (0.5, 1.0, 2.0)[seed % 3]
            h = (0.0, 0.3, 0.9)[seed // 3 % 3]
            acc = accumulate_realized(g, realized, eta)[0]
            rids = blocks[int(rng.integers(len(blocks)))]
            direction = rng.normal(size=len(rids))
            direction -= direction.mean()
            grad = eta * (acc.d_rule_ref - h * acc.d_rule_comp) / np.array(g.probs)
            want = float(grad[rids] @ direction)

            def shifted(sign):
                probs = np.array(g.probs)
                probs[rids] += sign * step * direction
                return objective_over_sets(g.with_probs(probs.tolist()), realized, eta, h)

            got = (shifted(1.0) - shifted(-1.0)) / (2.0 * step)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-7), f"eta={eta} h={h} seed={seed}"
            done += 1
        assert done >= 60


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
            num = np.zeros(len(trained.rules))
            den = np.zeros(len(trained.nonterminals))
            for tokens in TOY_CORPUS:
                d, _ = viterbi(trained, tokens)
                counts = count_vector(trained, d.rules)
                num += counts
                den += np.bincount(trained.rule_lhs_index, counts, len(den))
            step = train(trained, TOY_CORPUS, VIT_ALL, HParams(h=0.0, epsilon=1e-6, max_iters=1))
            for rule in trained.rules:
                expected = num[rule.id] / den[trained.nt_index[rule.lhs]]
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


def test_a_training_iteration_splits_weights_once_per_grammar():
    # at eta 0.5 the weights eta * log p are not the grammar's own: the
    # accumulation (under g) and the frozen-set objective (under each
    # stepped grammar) each split them once for every sentence they weigh
    data = Path(__file__).parent / "data"
    g = load_grammar(data / "g100-seed0.g")
    corpus = read_bracketed_corpus(data / "g100-seed0-block.txt")
    assert len(corpus) == 4
    weighed = []
    weights_of = type(g).weights_of

    def spy(self, log_weights):
        weighed.append(self)
        return weights_of(self, log_weights)

    spec = DeltaSpec(ref_mode="viterbi", comp_mode="all")
    with mock.patch.object(type(g), "weights_of", spy), mock.patch(
        "pcfgtk.grammar.exp_split", wraps=exp_split
    ) as split:
        train(g, corpus, spec, HParams(h=0.5, eta=0.5, max_iters=1))
    assert len(weighed) >= 2 and weighed[0] is g
    assert len({id(w) for w in weighed}) == len(weighed)
    assert split.call_count == len(weighed)
