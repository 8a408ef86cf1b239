"""Toolkit for CNF probabilistic context-free grammars.

Chart parsing (inside, Viterbi, n-best, bracket-constrained variants),
grammar consistency analysis, brute-force verification oracles, and
discriminative growth-transformation training.
"""

from .chart import InsideChart, UnknownTokenError, inside, viterbi
from .consistency import ConsistencyReport, check_consistency, expectation_matrix
from .corpus import (
    Bracketing,
    Sentence,
    parse_bracketed_sentence,
    read_bracketed_corpus,
    read_corpus,
)
from .derivations import (
    Derivation,
    derivation_probability,
    derivation_spans,
    derivation_tree,
    format_tree,
    replay_derivation,
)
from .estimator import (
    Accumulators,
    DegenerateDeltaWarning,
    DeltaSpec,
    EmptyDeltaError,
    EstimationError,
    HParams,
    IterationRecord,
    RealizedDelta,
    TrainReport,
    accumulate,
    compute_ctilde,
    growth_step,
    objective,
    objective_over_sets,
    realize_delta_sets,
    train,
)
from .grammar import (
    Grammar,
    GrammarError,
    GrammarFormatError,
    Rule,
    load_grammar,
    parse_grammar,
    save_grammar,
    serialize_grammar,
)
from .kbest import KBestList, nbest
from .oracle import (
    Enumeration,
    EnumerationLimitError,
    enumerate_derivations,
    oracle_accumulate,
)

__version__ = "0.1.0"

__all__ = [
    "Accumulators",
    "Bracketing",
    "ConsistencyReport",
    "DegenerateDeltaWarning",
    "DeltaSpec",
    "Derivation",
    "EmptyDeltaError",
    "Enumeration",
    "EnumerationLimitError",
    "EstimationError",
    "Grammar",
    "GrammarError",
    "GrammarFormatError",
    "HParams",
    "InsideChart",
    "IterationRecord",
    "KBestList",
    "RealizedDelta",
    "Rule",
    "Sentence",
    "TrainReport",
    "UnknownTokenError",
    "accumulate",
    "check_consistency",
    "compute_ctilde",
    "derivation_probability",
    "derivation_spans",
    "derivation_tree",
    "enumerate_derivations",
    "expectation_matrix",
    "format_tree",
    "growth_step",
    "inside",
    "load_grammar",
    "nbest",
    "objective",
    "objective_over_sets",
    "oracle_accumulate",
    "parse_bracketed_sentence",
    "parse_grammar",
    "read_bracketed_corpus",
    "read_corpus",
    "realize_delta_sets",
    "replay_derivation",
    "save_grammar",
    "serialize_grammar",
    "train",
    "viterbi",
]
