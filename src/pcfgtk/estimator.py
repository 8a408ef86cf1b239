"""Discriminative growth-transformation training for CNF PCFGs.

One training iteration realizes, per sentence, a reference derivation set
and a competing derivation set (Viterbi / n-best / bracket-constrained
variants, or the complete set), accumulates posterior-weighted rule-usage
statistics D over both sets, and applies the growth transformation

    p'(A -> alpha) = (D_ref[rule] - h * D_comp[rule] + p * C) /
                     (D_ref[A]    - h * D_comp[A]    + C)

where the offset constant C is chosen so every numerator stays positive.
The discrimination weight h in [0, 1) scales how strongly competing
derivations push against the reference mass; h = 0 with a single best
reference derivation reduces to Viterbi-score relative-frequency
reestimation.  The exponent eta rescales per-derivation probabilities
inside the weighted sums.

The objective being climbed is, per sentence,

    eta-scaled log mass of the reference set
    - h * log mass of the competing set

summed over the corpus; with sets held fixed, one growth step never
decreases it.  Sentences whose competing (or reference) set comes up empty
are skipped for that iteration and counted.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chart import viterbi
from .consistency import check_consistency
from .corpus import Sentence
from .derivations import Derivation, derivation_probability
from .grammar import Grammar, exact_normalize
from .kbest import nbest
from .logmath import logsumexp, normalized_weights

ALL_DERIVATIONS_CAP = 100_000

REF_MODES = ("viterbi", "nbest", "bracketed_viterbi")
COMP_MODES = ("all", "nbest", "bracketed_all")


class EstimationError(RuntimeError):
    """Training cannot proceed (empty corpus, undersized offset constant, ...)."""


class EmptyDeltaError(ValueError):
    """A derivation-set operation received an empty set."""


class DegenerateDeltaWarning(UserWarning):
    """Reference and competing sets became identical after subset enforcement."""


@dataclass(frozen=True)
class DeltaSpec:
    """How the reference and competing derivation sets are selected."""

    ref_mode: str = "viterbi"
    comp_mode: str = "all"
    n_ref: int = 1
    n_comp: int = 1
    enforce_subset: bool = True

    def __post_init__(self):
        if self.ref_mode not in REF_MODES:
            raise ValueError(f"ref_mode must be one of {REF_MODES}")
        if self.comp_mode not in COMP_MODES:
            raise ValueError(f"comp_mode must be one of {COMP_MODES}")
        if self.n_ref < 1 or self.n_comp < 1:
            raise ValueError("n_ref and n_comp must be at least 1")
        if self.ref_mode == "nbest" and self.comp_mode == "nbest" and self.n_ref > self.n_comp:
            raise ValueError("n_ref must not exceed n_comp")


@dataclass(frozen=True)
class HParams:
    """Training hyperparameters; h is the discrimination weight."""

    h: float = 0.0
    eta: float = 1.0
    epsilon: float = 1e-6
    max_iters: int = 100
    rel_tol: float = 1e-8
    min_prob: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.h < 1.0:
            raise ValueError("h must lie in [0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be nonnegative")
        if not 0.0 < self.min_prob < 1.0:
            raise ValueError("min_prob must lie in ]0, 1[")


@dataclass
class Accumulators:
    """Sufficient statistics for one growth step; supports disjoint merging.

    Float64 arrays: ``d_rule_*`` indexed by rule id, ``d_nt_*`` by
    ``Grammar.nt_index``.
    """

    d_rule_ref: np.ndarray
    d_rule_comp: np.ndarray
    d_nt_ref: np.ndarray
    d_nt_comp: np.ndarray
    skipped: int = 0

    @classmethod
    def zeros(cls, g: Grammar) -> "Accumulators":
        n_rules, n_nts = len(g.rules), len(g.nonterminals)
        return cls(np.zeros(n_rules), np.zeros(n_rules), np.zeros(n_nts), np.zeros(n_nts))

    def merge(self, other: "Accumulators") -> "Accumulators":
        """Commutative, associative combination of partial accumulations."""
        return Accumulators(
            self.d_rule_ref + other.d_rule_ref,
            self.d_rule_comp + other.d_rule_comp,
            self.d_nt_ref + other.d_nt_ref,
            self.d_nt_comp + other.d_nt_comp,
            self.skipped + other.skipped,
        )


@dataclass(frozen=True)
class RealizedDelta:
    """The per-sentence derivation sets one iteration actually used."""

    ref: tuple[Derivation, ...]
    comp: tuple[Derivation, ...]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    log_objective: float
    ctilde: float
    max_delta_p: float
    spectral_radius: float
    skipped: int
    floored: int


@dataclass(frozen=True)
class TrainReport:
    """Per-iteration training trace plus the final grammar."""

    records: tuple[IterationRecord, ...]
    final_grammar: Grammar
    converged: bool

    CSV_HEADER = "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.log_objective!r},{r.ctilde!r},"
                f"{r.max_delta_p!r},{r.spectral_radius!r},{r.skipped}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def realize_delta_sets(g: Grammar, sentence, spec: DeltaSpec) -> RealizedDelta | None:
    """Select the reference and competing sets for one sentence.

    Returns None when either set comes up empty (sentence not in the
    language, or no bracket-compatible derivation); the caller skips such
    sentences.  With ``enforce_subset`` the competing set is extended with
    any missing reference derivations.  Bracketed modes on a sentence that
    carries no bracketing behave as unconstrained (an empty bracketing
    excludes nothing).
    """
    sent = Sentence.of(sentence)
    comp = _realize_comp(g, sent, spec)
    if not comp:
        return None
    ref = _realize_ref(g, sent, spec)
    if not ref:
        return None
    if spec.enforce_subset:
        present = {d.rules for d in comp}
        missing = [d for d in ref if d.rules not in present]
        if missing:
            comp = tuple(comp) + tuple(missing)
            if {d.rules for d in comp} == {d.rules for d in ref}:
                warnings.warn(
                    "competing set equals the reference set after subset enforcement",
                    DegenerateDeltaWarning,
                    stacklevel=2,
                )
    return RealizedDelta(tuple(ref), tuple(comp))


def _realize_comp(g: Grammar, sent: Sentence, spec: DeltaSpec):
    if spec.comp_mode == "all":
        return _complete_set(g, sent, brackets=None)
    if spec.comp_mode == "bracketed_all":
        return _complete_set(g, sent, brackets=sent.brackets)
    return nbest(g, sent.tokens, spec.n_comp).derivations


def _realize_ref(g: Grammar, sent: Sentence, spec: DeltaSpec):
    if spec.ref_mode == "viterbi":
        hit = viterbi(g, sent.tokens)
        return (hit[0],) if hit else ()
    if spec.ref_mode == "bracketed_viterbi":
        hit = viterbi(g, sent.tokens, sent.brackets)
        return (hit[0],) if hit else ()
    return nbest(g, sent.tokens, spec.n_ref).derivations


def _complete_set(g: Grammar, sent: Sentence, brackets):
    result = nbest(g, sent.tokens, ALL_DERIVATIONS_CAP, brackets).derivations
    if len(result) >= ALL_DERIVATIONS_CAP:
        raise EstimationError(
            f"sentence has {ALL_DERIVATIONS_CAP} or more derivations; "
            "a complete competing set is not tractable"
        )
    return result


def scaled_set_logprob(g: Grammar, x, delta, eta: float) -> float:
    """log of the eta-scaled mass sum(P(x, d) ** eta) over a derivation set."""
    derivs = tuple(delta)
    if not derivs:
        raise EmptyDeltaError("derivation set is empty")
    if x is not None:
        n = len(list(x))
        for d in derivs:
            if d.sentence_len != n:
                raise ValueError("derivation does not match the sentence length")
    return logsumexp([eta * derivation_probability(g, d) for d in derivs])


def accumulate(g: Grammar, corpus, spec: DeltaSpec, eta: float = 1.0) -> Accumulators:
    """Posterior-weighted rule-usage sums over realized sets for a corpus."""
    corpus = list(corpus)
    if not corpus:
        raise EstimationError("corpus is empty")
    realized = [realize_delta_sets(g, s, spec) for s in corpus]
    return accumulate_realized(g, realized, eta)


def accumulate_realized(g: Grammar, realized, eta: float = 1.0) -> Accumulators:
    acc = Accumulators.zeros(g)
    effective = 0
    for rd in realized:
        if rd is None:
            acc.skipped += 1
            continue
        effective += 1
        _add_set(g, acc.d_rule_ref, acc.d_nt_ref, rd.ref, eta)
        _add_set(g, acc.d_rule_comp, acc.d_nt_comp, rd.comp, eta)
    if effective == 0:
        raise EstimationError("all sentences were skipped")
    return acc


def _add_set(g: Grammar, rule_acc, nt_acc, derivs, eta: float):
    # Derivation by derivation, so every entry sees the same sequence of
    # IEEE adds as a scalar loop would; adding w * 0 to an unused entry
    # leaves it unchanged.
    weights = normalized_weights([eta * derivation_probability(g, d) for d in derivs])
    n_rules, n_nts = len(g.rules), len(g.nonterminals)
    for d, w in zip(derivs, weights):
        counts = np.bincount(d.rules, minlength=n_rules)
        rule_acc += w * counts
        nt_acc += w * np.bincount(g.rule_lhs_index, counts, n_nts)


def compute_ctilde(acc: Accumulators, g: Grammar, h: float, epsilon: float) -> float:
    """Smallest safe offset constant, plus epsilon.

    Evaluated at the current probabilities: the largest value of
    -(D_ref[rule] - h * D_comp[rule]) / p(rule) across rules, clamped at 0.
    """
    num = acc.d_rule_ref - h * acc.d_rule_comp
    return float(np.max(-num / np.array(g.probs), initial=0.0)) + epsilon


def _raw_transform(g: Grammar, acc: Accumulators, h: float, ctilde: float) -> list[float]:
    denom = acc.d_nt_ref - h * acc.d_nt_comp + ctilde
    num = acc.d_rule_ref - h * acc.d_rule_comp + np.array(g.probs) * ctilde
    lhs = g.rule_lhs_index
    if (denom[lhs] <= 0.0).any() or (num <= 0.0).any():
        # report the first offender: nonterminals in order, each block's
        # denominator before its numerators
        for i, nt in enumerate(g.nonterminals):
            rules = g.rules_by_lhs[nt]
            if rules and denom[i] <= 0.0:
                raise EstimationError(
                    f"denominator for {nt} is {float(denom[i])!r}; "
                    "the offset constant is too small"
                )
            for rule in rules:
                if num[rule.id] <= 0.0:
                    raise EstimationError(
                        f"numerator for {rule} is {float(num[rule.id])!r}; "
                        "the offset constant is too small"
                    )
    return (num / denom[lhs]).tolist()


def _finalize(g: Grammar, raw: list[float], min_prob: float) -> Grammar:
    probs = [max(p, min_prob) for p in raw]
    for rules in g.rules_by_lhs.values():
        rids = [r.id for r in rules]
        if rids:
            for rid, p in zip(rids, exact_normalize([probs[r] for r in rids])):
                probs[rid] = p
    return g.with_probs(probs)


def growth_step(
    g: Grammar, acc: Accumulators, h: float, ctilde: float, min_prob: float = 1e-12
) -> Grammar:
    """One growth-transformation update of the rule probabilities.

    ``ctilde`` must be at least the value from ``compute_ctilde`` (minus its
    epsilon); an undersized constant raises rather than clamping silently.
    The new probabilities are floored at ``min_prob`` and renormalized per
    nonterminal.  ``h`` is used as given, so boundary values outside the
    training range can be examined directly.
    """
    return _finalize(g, _raw_transform(g, acc, h, ctilde), min_prob)


def objective_over_sets(g: Grammar, realized, eta: float, h: float) -> float:
    """The training objective evaluated on fixed realized sets.

    Skipped sentences (None entries) are excluded from both the reference
    and competing terms.  Derivation probabilities are re-evaluated under
    ``g``, so the same sets can be scored before and after a growth step.
    """
    total = 0.0
    effective = 0
    for rd in realized:
        if rd is None:
            continue
        effective += 1
        total += scaled_set_logprob(g, None, rd.ref, eta)
        total -= h * scaled_set_logprob(g, None, rd.comp, 1.0)
    if effective == 0:
        raise EstimationError("empty effective corpus")
    return total


def objective(g: Grammar, corpus, spec: DeltaSpec, params: HParams) -> float:
    """Corpus log objective under freshly realized derivation sets.

    The competing mass is taken at unit exponent and weighted by h; the
    reference mass is eta-scaled.
    """
    corpus = list(corpus)
    if not corpus:
        raise EstimationError("corpus is empty")
    realized = [realize_delta_sets(g, s, spec) for s in corpus]
    return objective_over_sets(g, realized, params.eta, params.h)


def train(g0: Grammar, corpus, spec: DeltaSpec, params: HParams) -> TrainReport:
    """Iterate growth steps until the objective stalls or max_iters is hit.

    Each iteration re-realizes the derivation sets from the current
    grammar, accumulates, picks the offset constant fresh, applies one
    growth step, and records the post-step objective evaluated on that
    iteration's (frozen) sets.  Convergence is declared when one step
    changes the frozen-set objective by less than ``rel_tol`` (relative).
    """
    corpus = list(corpus)
    if not corpus:
        raise EstimationError("corpus is empty")
    g = g0
    records: list[IterationRecord] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        realized = [realize_delta_sets(g, s, spec) for s in corpus]
        skipped = sum(1 for rd in realized if rd is None)
        acc = accumulate_realized(g, realized, params.eta)
        ctilde = compute_ctilde(acc, g, params.h, params.epsilon)
        raw = _raw_transform(g, acc, params.h, ctilde)
        floored = sum(1 for p in raw if p < params.min_prob)
        g_new = _finalize(g, raw, params.min_prob)
        f_before = objective_over_sets(g, realized, params.eta, params.h)
        f_after = objective_over_sets(g_new, realized, params.eta, params.h)
        max_dp = max(abs(a - b) for a, b in zip(g.probs, g_new.probs))
        rho = check_consistency(g_new).spectral_radius
        records.append(
            IterationRecord(iteration, f_after, ctilde, max_dp, rho, skipped, floored)
        )
        g = g_new
        if abs(f_after - f_before) <= params.rel_tol * max(1.0, abs(f_before)):
            converged = True
            break
    return TrainReport(tuple(records), g, converged)
