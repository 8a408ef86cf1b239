"""Exact training outputs, pinned bit for bit.

Short ``train`` runs whose final probabilities (as ``float.hex``) and CSV
reports were recorded from the dict-accumulator estimator.  Refactors of the
estimator must reproduce them exactly; a change that moves any of these bits
changes what ``pcfgtk train`` writes.
"""
import numpy as np
import pytest

from conftest import random_grammar, sample_bracketing, sample_rules, toy
from pcfgtk import DeltaSpec, HParams, Sentence, replay_derivation, train

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
    raise KeyError(name)


EXPECTED = {
    "toy-viterbi-all": (
        (
            "0x1.af286bca1af2ap-2",
            "0x1.286bca1af286bp-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-7.721881253206262,1e-06,0.12105261565097175,0.8421052313019435,0\n"
            "2,-7.721881253206256,1e-06,1.5927973606721935e-08,0.8421052631578907,0\n"
            "3,-7.7218812532062575,1e-06,2.1094237467877974e-15,0.8421052631578949,0\n"
            "4,-7.7218812532062575,1e-06,0.0,0.8421052631578949,0\n"
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
            "0x1.a6f50a5f03f42p-2",
            "0x1.97cef3aa002aep-3",
            "0x1.8590bdde81108p-2",
            "0x1.e4af7b5eb978ep-8",
            "0x1.55b2b79523f1fp-25",
            "0x1.fffffeaa4d487p-1",
        ),
        (
            "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped\n"
            "1,-7.309417095824098,1e-06,0.21404070198507488,0.856068384689318,0\n"
            "2,-6.56378221699371,1e-06,0.2748007082461634,0.8280661350489311,0\n"
            "3,-4.876111682367558,1.30211699104844,0.2636194927892128,0.811294566893004,0\n"
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
