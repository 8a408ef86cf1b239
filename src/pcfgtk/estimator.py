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
reestimation.

The objective being climbed is, per sentence,

    log M_eta(reference set) - h * log M_eta(competing set),
    M_eta(set) = sum over d in the set of p(d) ** eta,

summed over the corpus.  One definition of a set's mass serves both sides:
the weights of the statistics D are p(d) ** eta / M_eta(set), so D_ref -
h * D_comp is the gradient of the objective times p / eta, and with sets
held fixed one growth step never decreases it.  Sentences whose competing
(or reference) set comes up empty are skipped for that iteration and
counted.

Listed sets (Viterbi and n-best) are summed derivation by derivation.  A
complete competing set (``all``, or ``bracketed_all`` with the sentence's
brackets) is never listed: its statistics are the expected rule counts from
one inside and one outside pass (``chart.expected_counts``), and its mass
in the objective is the inside total over the weights ``eta * log p``, so
its cost is polynomial in the sentence length however many derivations it
holds.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .chart import _cky, _inside_pass, expected_counts, inside, viterbi
from .consistency import check_consistency
from .corpus import Sentence
from .derivations import Derivation, derivation_probability, derivation_spans
from .grammar import Grammar, exact_normalize
from .kbest import nbest
from .logmath import logsumexp, normalized_weights

REF_MODES = ("viterbi", "nbest", "bracketed_viterbi")
COMP_MODES = ("all", "nbest", "bracketed_all")
BRACKETED_MODES = frozenset({"bracketed_viterbi", "bracketed_all"})  # sets nest with the brackets


class EstimationError(RuntimeError):
    """Training cannot proceed (empty corpus, undersized offset constant, ...)."""


class EmptyDeltaError(ValueError):
    """A realized reference or competing derivation set is empty."""


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
        if not all(isinstance(n, numbers.Integral) for n in (self.n_ref, self.n_comp)):
            raise ValueError("n_ref and n_comp must be integers")
        if self.n_ref < 1 or self.n_comp < 1:
            raise ValueError("n_ref and n_comp must be at least 1")
        if self.ref_mode == "nbest" and self.comp_mode == "nbest" and self.n_ref > self.n_comp:
            raise ValueError("n_ref must not exceed n_comp")


@dataclass(frozen=True)
class HParams:
    """Training hyperparameters, all finite; h is the discrimination weight."""

    h: float = 0.0
    eta: float = 1.0
    epsilon: float = 1e-6
    max_iters: int = 100
    rel_tol: float = 1e-8
    min_prob: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.h < 1.0:
            raise ValueError("h must lie in [0, 1)")
        if not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0.0 <= self.rel_tol < np.inf:
            raise ValueError("rel_tol must be nonnegative and finite")
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
    """The per-sentence derivation sets one iteration actually used.

    ``complete`` is set for the ``all`` and ``bracketed_all`` competing
    modes.  The competing set is then every derivation of
    ``complete.tokens`` that nests with ``complete.brackets`` (every one
    when None), plus the derivations listed in ``comp``: under subset
    enforcement, the reference derivations that cross a bracket.  When
    ``complete`` is None, ``comp`` is the whole competing set.
    """

    ref: tuple[Derivation, ...]
    comp: tuple[Derivation, ...]
    complete: Sentence | None = None

    def __post_init__(self):
        if not self.ref or (not self.comp and self.complete is None):
            raise EmptyDeltaError("derivation set is empty")


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
    excludes nothing).  A complete competing set is not listed (see
    ``RealizedDelta.complete``).
    """
    sent = Sentence.of(sentence)
    ref_brackets = sent.brackets if spec.ref_mode in BRACKETED_MODES else None
    complete = None
    comp: tuple[Derivation, ...] = ()
    if spec.comp_mode == "nbest":
        comp = nbest(g, sent.tokens, spec.n_comp).derivations
        if not comp:
            return None
    else:
        brackets = sent.brackets if spec.comp_mode in BRACKETED_MODES else None
        complete = Sentence(sent.tokens, brackets)
        # under the reference set's own constraint the complete set is empty
        # exactly when the reference set is, and parsing raises the same errors
        if brackets != ref_brackets and not inside(g, sent.tokens, brackets).in_language:
            return None
    if spec.ref_mode == "nbest":
        ref = nbest(g, sent.tokens, spec.n_ref).derivations
    else:
        hit = viterbi(g, sent.tokens, ref_brackets)
        ref = (hit[0],) if hit else ()
    if not ref:
        return None
    if spec.enforce_subset:
        if complete is None:
            present = {d.rules for d in comp}
            missing = [d for d in ref if d.rules not in present]
        elif complete.brackets is None:
            missing = []
        else:
            compatible = complete.brackets.compatible
            missing = [
                d for d in ref if not all(compatible(i, j) for i, j in derivation_spans(g, d))
            ]
        if missing:
            comp += tuple(missing)
            if complete is None:
                degenerate = {d.rules for d in comp} == {d.rules for d in ref}
            else:
                # the union is the reference set when the complete set holds
                # nothing but the k references that nest with the brackets; at
                # k = 0 it holds more, as the inside check above showed
                k = len(ref) - len(missing)
                degenerate = k > 0 and len(nbest(g, sent.tokens, k + 1, complete.brackets)) <= k
            if degenerate:
                warnings.warn(
                    "competing set equals the reference set after subset enforcement",
                    DegenerateDeltaWarning,
                    stacklevel=2,
                )
    return RealizedDelta(tuple(ref), comp, complete)


def _nonempty(corpus) -> list:
    """The corpus as a list; an empty one raises ``EstimationError``."""
    corpus = list(corpus)
    if not corpus:
        raise EstimationError("corpus is empty")
    return corpus


def accumulate(g: Grammar, corpus, spec: DeltaSpec, eta: float = HParams.eta) -> Accumulators:
    """Posterior-weighted rule-usage sums over realized sets for a corpus."""
    realized = [realize_delta_sets(g, s, spec) for s in _nonempty(corpus)]
    return accumulate_realized(g, realized, eta)


def accumulate_realized(g: Grammar, realized, eta: float = HParams.eta) -> Accumulators:
    """Sums over realized sets, weighted by the stored ``log_prob`` (under
    ``g``); complete competing sets add their expected counts under ``g``."""
    return _accumulate(g, realized, eta, 0.0)[0]


def _accumulate(g: Grammar, realized, eta: float, h: float) -> tuple[Accumulators, float]:
    """The accumulators, and the objective under ``g`` of the sets they sum
    over: the log masses that normalize their weights."""
    realized = list(realized)
    kept = [rd for rd in realized if rd is not None]
    if not kept:
        raise EstimationError("all sentences were skipped")
    acc = Accumulators.zeros(g)
    acc.skipped = len(realized) - len(kept)
    total = 0.0
    for rd in kept:
        total += _add_set(g, acc.d_rule_ref, acc.d_nt_ref, rd.ref, eta)
        total -= h * _add_set(g, acc.d_rule_comp, acc.d_nt_comp, rd.comp, eta, rd.complete)
    return acc, total


def _add_set(g: Grammar, rule_acc, nt_acc, derivs, eta: float, complete=None) -> float:
    # Derivation by derivation, so every entry sees the same sequence of
    # IEEE adds as a scalar loop would; adding w * 0 to an unused entry
    # leaves it unchanged.  A complete set comes first, as one term: its
    # log mass and expected counts under the weights p ** eta.  Returns the
    # set's log mass, the log of its summed p ** eta.
    n_rules, n_nts = len(g.rules), len(g.nonterminals)
    logs = [eta * d.log_prob for d in derivs]
    terms = [np.bincount(d.rules, minlength=n_rules) for d in derivs]
    if complete is not None:
        weights = [eta * lp for lp in g.log_probs]
        mass, counts = expected_counts(g, complete.tokens, weights, complete.brackets)
        logs.insert(0, mass)
        terms.insert(0, counts)
    for counts, w in zip(terms, normalized_weights(logs)):
        rule_acc += w * counts
        nt_acc += w * np.bincount(g.rule_lhs_index, counts, n_nts)
    return logsumexp(logs)


def compute_ctilde(acc: Accumulators, g: Grammar, h: float, epsilon: float) -> float:
    """Smallest safe offset constant, plus epsilon.

    Evaluated at the current probabilities: the largest value of
    -(D_ref[rule] - h * D_comp[rule]) / p(rule) across rules, clamped at 0.
    The numerator of the rule that sets it keeps only the margin
    p(rule) * epsilon, which rounds away when that probability is tiny (a
    rule at the ``min_prob`` floor, say).  Only then, when some numerator or
    denominator of the growth step would not be positive, the epsilon term
    is doubled until all of them are.
    """
    num = acc.d_rule_ref - h * acc.d_rule_comp
    base = float(np.max(-num / np.array(g.probs), initial=0.0))
    ctilde = base + epsilon
    while math.isfinite(ctilde) and not _step_terms(g, acc, h, ctilde)[2]:
        epsilon *= 2.0
        ctilde = base + epsilon
    return ctilde


def _step_terms(g: Grammar, acc: Accumulators, h: float, ctilde: float):
    """The growth step's numerators and denominators, both indexed by rule
    id, and whether none of them is zero or negative."""
    num = acc.d_rule_ref - h * acc.d_rule_comp + np.array(g.probs) * ctilde
    den = (acc.d_nt_ref - h * acc.d_nt_comp + ctilde)[g.rule_lhs_index]
    return num, den, not ((den <= 0.0).any() or (num <= 0.0).any())


def _raw_transform(g: Grammar, acc: Accumulators, h: float, ctilde: float) -> list[float]:
    num, den, positive = _step_terms(g, acc, h, ctilde)
    if not positive:
        # report the first offender: nonterminals in order, each block's
        # denominator before its numerators
        for nt in g.nonterminals:
            rules = g.rules_by_lhs[nt]
            if rules and den[rules[0].id] <= 0.0:
                raise EstimationError(
                    f"denominator for {nt} is {float(den[rules[0].id])!r}; "
                    "the offset constant is too small"
                )
            for rule in rules:
                if num[rule.id] <= 0.0:
                    raise EstimationError(
                        f"numerator for {rule} is {float(num[rule.id])!r}; "
                        "the offset constant is too small"
                    )
    return (num / den).tolist()


def _finalize(g: Grammar, raw: list[float], min_prob: float) -> Grammar:
    probs = [max(p, min_prob) for p in raw]
    for rules in g.rules_by_lhs.values():
        rids = [r.id for r in rules]
        if rids:
            for rid, p in zip(rids, exact_normalize([probs[r] for r in rids])):
                probs[rid] = p
    return g.with_probs(probs)


def growth_step(
    g: Grammar, acc: Accumulators, h: float, ctilde: float, min_prob: float = HParams.min_prob
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

    Per sentence, the log of the summed ``p(d) ** eta`` over the reference
    set minus h times the same over the competing set.  Skipped sentences
    (None entries) are excluded.  Derivation probabilities are re-evaluated
    under ``g``, so the same sets can be scored before and after a growth
    step; a complete competing set contributes its inside total over the
    weights ``eta * log p`` under ``g``.
    """
    kept = [rd for rd in realized if rd is not None]
    if not kept:
        raise EstimationError("empty effective corpus")
    weights = [eta * lp for lp in g.log_probs]
    total = 0.0
    for rd in kept:
        total += logsumexp([eta * derivation_probability(g, d) for d in rd.ref])
        comp = [eta * derivation_probability(g, d) for d in rd.comp]
        if rd.complete is not None:
            trav = _cky(g, rd.complete.tokens, rd.complete.brackets)
            comp.insert(0, float(_inside_pass(g, trav, weights)[trav.root]))
        total -= h * logsumexp(comp)
    return total


def objective(g: Grammar, corpus, spec: DeltaSpec, params: HParams) -> float:
    """Corpus log objective, ``objective_over_sets`` on the sets ``g`` realizes."""
    realized = [realize_delta_sets(g, s, spec) for s in _nonempty(corpus)]
    return objective_over_sets(g, realized, params.eta, params.h)


def train(g0: Grammar, corpus, spec: DeltaSpec, params: HParams) -> TrainReport:
    """Iterate growth steps until the objective stalls or max_iters is hit.

    Each iteration re-realizes the derivation sets from the current
    grammar, accumulates, picks the offset constant fresh, applies one
    growth step, and records the post-step objective evaluated on that
    iteration's (frozen) sets.  Convergence is declared when one step
    changes the frozen-set objective, ``objective_over_sets``, by less than
    ``rel_tol`` (relative).  The pre-step objective is the sum of the log
    masses that normalize the accumulated weights, so it costs no pass of
    its own; only the post-step objective scores the frozen sets again,
    under the new grammar (a complete set by an inside pass alone, over
    the weights ``eta * log p``).
    """
    corpus = _nonempty(corpus)
    g = g0
    records: list[IterationRecord] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        realized = [realize_delta_sets(g, s, spec) for s in corpus]
        acc, f_before = _accumulate(g, realized, params.eta, params.h)
        ctilde = compute_ctilde(acc, g, params.h, params.epsilon)
        raw = _raw_transform(g, acc, params.h, ctilde)
        floored = sum(1 for p in raw if p < params.min_prob)
        g_new = _finalize(g, raw, params.min_prob)
        f_after = objective_over_sets(g_new, realized, params.eta, params.h)
        max_dp = max(abs(a - b) for a, b in zip(g.probs, g_new.probs))
        rho = check_consistency(g_new).spectral_radius
        records.append(
            IterationRecord(iteration, f_after, ctilde, max_dp, rho, acc.skipped, floored)
        )
        g = g_new
        if abs(f_after - f_before) <= params.rel_tol * max(1.0, abs(f_before)):
            converged = True
            break
    return TrainReport(tuple(records), g, converged)
