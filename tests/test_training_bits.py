"""Exact training outputs, pinned bit for bit.

Short ``train`` runs whose final probabilities (as ``float.hex``) and CSV
reports were recorded from earlier versions of the estimator.  Refactors of
the estimator must reproduce them exactly; a change that moves any of these
bits changes what ``pcfgtk train`` writes.

``toy-viterbi-all`` and ``random-bracketed`` use complete competing sets.
They were recorded again when those sets moved from summing every listed
derivation to inside-outside expected counts, which round differently: no
probability moved by more than 1.2e-16 and no objective by more than 5e-16
(relative), and only ``random-bracketed``'s third offset constant moved
(1.30211699104844 to 1.3021169910484396, the correctly rounded value of
the formula for that grammar).  The other two runs list their sets and are
unchanged.

``random-bracketed`` and ``random-bracketed-converges`` train at ``eta =
0.5``.  Their ``log_objective`` column was recorded again when the
objective's competing mass moved from unit exponent to the summed
``p(d) ** eta`` that the accumulated weights use; their probabilities,
offset constants, step sizes, radii and iteration counts did not move.
"""
import numpy as np
import pytest

from conftest import random_grammar, sample_bracketing, sample_rules, toy
from pcfgtk import DeltaSpec, HParams, Sentence, realize_delta_sets, replay_derivation, train

TOY_CORPUS = [["a"] * 2, ["a"] * 4, ["a"] * 5]


def bracketed_corpus(g, rng, size, min_len=3, max_len=6):
    """``size`` sentences of ``min_len`` to ``max_len`` tokens, each with a random
    satisfiable bracketing."""
    corpus = []
    while len(corpus) < size:
        rules = sample_rules(g, rng, max_len)
        if rules is None:
            continue
        tokens = replay_derivation(g, rules)
        if len(tokens) >= min_len:
            corpus.append(Sentence(tuple(tokens), sample_bracketing(g, rng, rules, len(tokens))))
    return corpus


def case(name):
    """The grammar, corpus, spec and parameters of one pinned run."""
    if name == "toy-viterbi-all":
        return toy(0.3), TOY_CORPUS, DeltaSpec("viterbi", "all"), HParams(h=0.6, max_iters=4, rel_tol=0.0)
    if name == "toy-nbest-nbest":
        spec = DeltaSpec("nbest", "nbest", n_ref=2, n_comp=4)
        return toy(0.3), TOY_CORPUS, spec, HParams(h=0.3, epsilon=0.5, max_iters=4, rel_tol=0.0)
    if name == "random-bracketed":
        rng = np.random.default_rng(4242)
        g = random_grammar(rng, max_nts=3, max_rules=7, ensure_binary=True)
        spec = DeltaSpec("bracketed_viterbi", "bracketed_all")
        return g, bracketed_corpus(g, rng, 4), spec, HParams(h=0.3, eta=0.5, max_iters=3, rel_tol=0.0)
    if name == "random-bracketed-converges":
        # nbest(n=1) often misses the bracketed Viterbi derivation, so subset
        # enforcement appends it; rel_tol > 0 stops the run on f_before
        g, corpus, _, _ = case("random-bracketed")
        spec = DeltaSpec("bracketed_viterbi", "nbest", n_comp=1)
        return g, corpus, spec, HParams(h=0.3, eta=0.5, max_iters=12, rel_tol=1e-6)
    raise KeyError(name)


EXPECTED = {
    "toy-viterbi-all": (
        (
            "0x1.af286bca1af29p-2",
            "0x1.286bca1af286cp-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-7.721881253206263,1e-06,0.12105261565097158,0.842105231301943,0\n"
            "2,-7.721881253206259,1e-06,1.5927973606721935e-08,0.8421052631578902,0\n"
            "3,-7.721881253206261,1e-06,2.1094237467877974e-15,0.8421052631578947,0\n"
            "4,-7.7218812532062575,1e-06,1.1102230246251565e-16,0.8421052631578947,0\n"
        ),
    ),
    "toy-nbest-nbest": (
        (
            "0x1.af285dca30957p-2",
            "0x1.286bd11ae7b55p-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-8.498380240375573,0.5,0.11666666666666664,0.8333333333333333,0\n"
            "2,-8.497855133461861,0.5,0.004227053140096637,0.8417874396135265,0\n"
            "3,-8.497854445415529,0.5,0.0001531540992789071,0.8420937478120842,0\n"
            "4,-8.497854444512354,0.5,5.549061568077551e-06,0.8421048459352205,0\n"
        ),
    ),
    "random-bracketed": (
        (
            "0x1.a6f50a5f03f43p-2",
            "0x1.97cef3aa002afp-3",
            "0x1.8590bdde81109p-2",
            "0x1.e4af7b5eb9792p-8",
            "0x1.55b2b79523f1fp-25",
            "0x1.fffffeaa4d487p-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-12.386378510682801,1e-06,0.21404070198507494,0.8560683846893185,0\n"
            "2,-11.138973102920637,1e-06,0.27480070824616337,0.8280661350489311,0\n"
            "3,-8.713211927599962,1.3021169910484396,0.2636194927892128,0.811294566893004,0\n"
        ),
    ),
    "random-bracketed-converges": (
        (
            "0x1.79435e50d7942p-2",
            "0x1.af286bca1af2cp-3",
            "0x1.79435e50d7943p-2",
            "0x1.af286bca1af2cp-5",
            "0x1.19799812dd6b9p-40",
            "0x1.fffffffffdcd1p-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-11.10639884724732,1e-06,0.1836719149564034,0.8456165522273329,0\n"
            "2,-10.501307737577775,1e-06,0.15166513870632287,0.8303288033287592,0\n"
            "3,-8.11804106279106,0.7906330081683349,0.2647668683200878,0.8118658937352339,0\n"
            "4,-8.31269152968838,1e-06,0.021811518006982472,0.7894736858969871,0\n"
            "5,-8.312691529688383,1e-06,1.6399636648678495e-09,0.7894736842133658,0\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_train_output_is_pinned(name):
    g, corpus, spec, params = case(name)
    report = train(g, corpus, spec, params)
    probs, csv = EXPECTED[name]
    assert tuple(p.hex() for p in report.final_grammar.probs) == probs
    assert report.to_csv() == csv


def test_converging_run_stops_early_and_appends_references():
    g, corpus, spec, params = case("random-bracketed-converges")
    realized = [realize_delta_sets(g, s, spec) for s in corpus]
    assert any(len(rd.comp) > spec.n_comp for rd in realized)
    report = train(g, corpus, spec, params)
    assert report.converged
    assert len(report.records) < params.max_iters
