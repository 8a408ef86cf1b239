"""Discriminative growth-transformation training for CNF PCFGs.

One training iteration realizes, per sentence, a reference derivation set
and a competing derivation set (Viterbi / n-best / bracket-constrained
variants, or the complete set), accumulates posterior-weighted rule-usage
statistics D over both sets, and applies the growth transformation

    p'(A -> alpha) = N(A -> alpha) / sum over A's rules r of N(r),
    N(r) = D_ref[r] - h * D_comp[r] + p(r) * C,

where the offset constant C is chosen so every numerator N stays positive.
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
held fixed one growth step never decreases it.  Sentences that
``realize_delta_sets`` skips are left out of that iteration and counted.

Listed sets (Viterbi and n-best) are summed derivation by derivation.  A
complete competing set (``all``, or ``bracketed_all`` with the sentence's
brackets) is never listed: its statistics are the expected rule counts from
one inside and one outside pass (``chart.expected_counts``), and its mass
in the objective is the root total of that inside pass over the weights
``eta * log p``, so its cost is polynomial in the sentence length however
many derivations it holds.  Both passes keep masses in scaled form (see
``chart``), which neither overflows nor underflows and takes one log per
set to bring its mass into log space; the objective's inside pass runs in
plain floats wherever they give the same bits.

``train`` checks that every step climbs: a step that lowers the objective
on its frozen sets is redone with a doubled offset constant.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .chart import expected_counts, log_total
from .consistency import check_consistency
from .corpus import Sentence
from .derivations import Derivation, derivation_probability, derivation_spans
from .grammar import Grammar, PassWeights, exact_normalize
from .kbest import nbest
from .logmath import INV_LN2, SPLIT_BOUND, logsumexp, normalized_weights

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
        if self.ref_mode == "nbest" and self.n_ref < 1:
            raise ValueError("n_ref must be at least 1")
        if self.comp_mode == "nbest" and self.n_comp < 1:
            raise ValueError("n_comp must be at least 1")
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
    """Sufficient statistics for one growth step: float64 arrays indexed by
    rule id.  A nonterminal's totals are its rules' block sums, which the
    growth step forms from its numerators."""

    d_rule_ref: np.ndarray
    d_rule_comp: np.ndarray
    skipped: int = 0

    @classmethod
    def zeros(cls, g: Grammar) -> "Accumulators":
        return cls(np.zeros(len(g.rules)), np.zeros(len(g.rules)))


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

    Each mode reads the sentence's brackets or none, and keeps the best
    derivation (the Viterbi modes), the best n, or all of them; every listed
    set is an n-best list.  Returns None, and the caller skips the sentence,
    when the reference set is empty or no derivation nests with the
    competing set's brackets.  With ``enforce_subset`` the competing set is
    extended with the reference derivations it lacks.  Bracketed modes on a
    sentence that carries no bracketing behave as unconstrained (an empty
    bracketing excludes nothing).  A complete competing set is not listed
    (see ``RealizedDelta.complete``).  It holds the k references that nest
    with its brackets, and is parsed once, for its (k + 1)-best list, only
    when k = 0 or references are appended.
    """
    sent = Sentence.of(sentence)
    tokens = sent.tokens
    ref_brackets = sent.brackets if spec.ref_mode in BRACKETED_MODES else None
    brackets = sent.brackets if spec.comp_mode in BRACKETED_MODES else None
    listed = spec.comp_mode == "nbest"
    comp = nbest(g, tokens, spec.n_comp).derivations if listed else ()
    complete = None if listed else Sentence(tokens, brackets)
    n_ref = spec.n_ref if spec.ref_mode == "nbest" else 1
    if listed and (ref_brackets is None or not ref_brackets.spans):
        # neither list reads a bracket (an empty bracketing excludes
        # nothing), and an n-best list starts with every shorter one
        ref = comp[:n_ref]
    else:
        ref = nbest(g, tokens, n_ref, ref_brackets).derivations
    # the references the competing set lacks
    if complete is None:
        present = {d.rules for d in comp}
        missing = [d for d in ref if d.rules not in present]
    elif brackets in (None, ref_brackets):
        missing = []
    else:
        ok = brackets.compatible_spans(len(tokens))
        missing = [d for d in ref if not all(ok[i, j] for i, j in derivation_spans(g, d))]
    if not ref:
        return None
    k = len(ref) - len(missing)  # the references the competing set holds
    appended = tuple(missing) if spec.enforce_subset else ()
    # whether it holds more than those k: a list of distinct derivations
    # says so by its length, a complete set by the length of its (k + 1)-best
    # list, parsed only where the answer matters: at k = 0 (is the set
    # empty?) and when references are appended (is the union the reference
    # set?)
    if complete is None:
        more = len(comp) > k
    elif k == 0 or appended:
        more = len(nbest(g, tokens, k + 1, brackets)) > k
    else:
        more = True  # unasked: it holds a reference, and no union is formed
    if not more and k == 0:
        return None
    if not more and appended:
        # naming the sentence makes each degenerate sentence its own
        # warning under Python's once-per-location default
        warnings.warn(
            "competing set equals the reference set after subset enforcement: "
            + " ".join(tokens),
            DegenerateDeltaWarning,
            stacklevel=2,
        )
    return RealizedDelta(ref, comp + appended, complete)


def _kept(realized) -> list[RealizedDelta]:
    """The realized sets that are not None; raises ``EstimationError`` when
    there are none, the corpus being empty or every sentence skipped."""
    realized = list(realized)
    kept = [rd for rd in realized if rd is not None]
    if not kept:
        raise EstimationError("all sentences were skipped" if realized else "corpus is empty")
    return kept


def accumulate(g: Grammar, corpus, spec: DeltaSpec, eta: float = HParams.eta) -> Accumulators:
    """Posterior-weighted rule-usage sums over realized sets for a corpus."""
    realized = [realize_delta_sets(g, s, spec) for s in corpus]
    return accumulate_realized(g, realized, eta)[0]


def accumulate_realized(
    g: Grammar, realized, eta: float = HParams.eta, h: float = HParams.h
) -> tuple[Accumulators, float]:
    """Sums over realized sets, weighted by the stored ``log_prob`` (under
    ``g``; complete competing sets add their expected counts), and those
    sets' objective under ``g``, read off the log masses that normalize them."""
    realized = list(realized)
    kept = _kept(realized)
    acc = Accumulators.zeros(g)
    acc.skipped = len(realized) - len(kept)
    weights = _complete_weights(g, kept, eta)
    total = 0.0
    for rd in kept:
        total += _add_set(g, acc.d_rule_ref, rd.ref, eta)
        total -= h * _add_set(g, acc.d_rule_comp, rd.comp, eta, rd.complete, weights)
    return acc, total


def _complete_weights(g: Grammar, kept: list[RealizedDelta], eta: float) -> PassWeights | None:
    """The ``PassWeights`` of ``eta * log p``, which only complete sets
    read; None when no set is complete, so a listed set takes any eta.
    Raises ValueError naming eta and the largest this grammar takes where
    ``Grammar.weights_of`` would reject eta times the lowest log probability."""
    if not any(rd.complete is not None for rd in kept):
        return None
    lowest = min(g.log_probs)
    if eta * lowest * INV_LN2 < 1 - SPLIT_BOUND:  # weights_of's bound; may overflow to -inf
        limit = (SPLIT_BOUND - 1) * math.log(2) / -lowest
        raise ValueError(
            f"eta {eta!r} is too large for a complete competing set of this grammar, "
            f"which takes eta up to about {math.floor(limit)}"
        )
    return g.weights_of(_times_eta(eta, g.log_probs))


def _times_eta(eta: float, log_probs) -> list[float]:
    """``eta`` times each log probability, all of them finite; raises
    ValueError naming eta where a product overflows."""
    logs = [eta * lp for lp in log_probs]
    if not all(map(math.isfinite, logs)):
        raise ValueError(f"eta {eta!r} times a log probability overflows")
    return logs


def _add_set(g: Grammar, rule_acc, derivs, eta: float, complete=None, weights=None) -> float:
    # Derivation by derivation, so every entry sees the same sequence of
    # IEEE adds as a scalar loop would; adding w * 0 to an unused entry
    # leaves it unchanged.  A complete set comes first, as one term: its
    # log mass and expected counts under ``weights``, those of p ** eta.
    # Returns the set's log mass, the log of its summed p ** eta.
    logs = _times_eta(eta, [d.log_prob for d in derivs])
    terms = [np.bincount(d.rules, minlength=len(g.rules)) for d in derivs]
    if complete is not None:
        mass, counts = expected_counts(g, complete.tokens, weights, complete.brackets)
        logs.insert(0, mass)
        terms.insert(0, counts)
    for counts, w in zip(terms, normalized_weights(logs)):
        rule_acc += w * counts
    return logsumexp(logs)


def compute_ctilde(acc: Accumulators, g: Grammar, h: float, epsilon: float) -> float:
    """Smallest safe offset constant, plus epsilon.

    Evaluated at the current probabilities: the largest value of
    -(D_ref[rule] - h * D_comp[rule]) / p(rule) across rules, clamped at 0.
    The numerator of the rule that sets it keeps only the margin
    p(rule) * epsilon, which rounds away when that probability is tiny (a
    rule at the ``min_prob`` floor, say).  Only then, when some numerator of
    the growth step would not be positive, the epsilon term is doubled until
    every numerator is positive.  A quotient past the float range, from a
    probability near the least float, leaves the constant infinite, which
    the growth step rejects.
    """
    num = acc.d_rule_ref - h * acc.d_rule_comp
    with np.errstate(over="ignore"):  # a quotient past the float range is inf
        base = float(np.max(-num / np.array(g.probs), initial=0.0))
    ctilde = base + epsilon
    while math.isfinite(ctilde) and (_numerators(g, acc, h, ctilde) <= 0.0).any():
        epsilon *= 2.0
        ctilde = base + epsilon
    return ctilde


def _numerators(g: Grammar, acc: Accumulators, h: float, ctilde: float) -> np.ndarray:
    """The growth step's numerators, indexed by rule id."""
    return acc.d_rule_ref - h * acc.d_rule_comp + np.array(g.probs) * ctilde


def _raw_transform(g: Grammar, acc: Accumulators, h: float, ctilde: float) -> list[float]:
    # each numerator over its block's sum, added in rule-id order; a sum of
    # positive numerators is positive, so only the numerators are checked
    num = _numerators(g, acc, h, ctilde)
    if (num <= 0.0).any():
        # report the first offender: nonterminals in order, rules by id
        for nt in g.nonterminals:
            for rule in g.rules_by_lhs[nt]:
                if num[rule.id] <= 0.0:
                    raise EstimationError(
                        f"numerator for {rule} is {float(num[rule.id])!r}; "
                        "the offset constant is too small"
                    )
    lhs = g.rule_lhs_index
    totals = np.bincount(lhs, num, len(g.nonterminals))
    if not np.isfinite(totals).all():
        raise EstimationError(f"the offset constant {ctilde!r} overflows a block's numerators")
    return (num / totals[lhs]).tolist()


def _finalize(g: Grammar, raw: list[float], min_prob: float) -> Grammar:
    probs = [max(p, min_prob) for p in raw]
    for _, rids in g._blocks:
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
    (None entries) are excluded, and a corpus of skipped sentences raises.
    Derivation probabilities are re-evaluated under ``g``, so the same sets
    can be scored before and after a growth step; a complete competing set
    contributes its inside total over the weights ``eta * log p`` under
    ``g``.
    """
    kept = _kept(realized)
    weights = _complete_weights(g, kept, eta)
    total = 0.0
    for rd in kept:
        total += logsumexp(_times_eta(eta, [derivation_probability(g, d) for d in rd.ref]))
        comp = _times_eta(eta, [derivation_probability(g, d) for d in rd.comp])
        if rd.complete is not None:
            comp.insert(0, log_total(g, rd.complete.tokens, weights, rd.complete.brackets))
        total -= h * logsumexp(comp)
    return total


def objective(g: Grammar, corpus, spec: DeltaSpec, params: HParams) -> float:
    """Corpus log objective, ``objective_over_sets`` on the sets ``g`` realizes."""
    realized = [realize_delta_sets(g, s, spec) for s in corpus]
    return objective_over_sets(g, realized, params.eta, params.h)


# f_before, the log masses that normalize the accumulated weights, is the
# frozen-set objective under g bit for bit: the same logs, summed in the
# same order (a stored score is derivation_probability's, and a complete
# set's total from expected_counts is log_total's).  So a step that
# changes nothing leaves the objective exactly as it was.  A step counts as
# downhill only when the objective falls by more than _DOWNHILL_TOL
# relative, a margin for a step that moves the probabilities by rounding
# alone; the downhill steps seen fell by 1e-2 relative and more, and each
# climbed after one doubling.
_DOWNHILL_TOL = 1e-10
_MAX_DOUBLINGS = 32  # up to 2**32 times compute_ctilde's constant


def _checked_step(g: Grammar, acc: Accumulators, realized, f_before: float, params: HParams):
    """The growth step from ``acc``: its offset constant, the number of
    rules it floored at ``min_prob``, its new grammar and frozen-set
    objective.

    The offset constant starts at ``compute_ctilde``'s, which need not make
    the step climb; while the objective on the frozen sets falls below
    ``f_before`` (by more than rounding), the constant is doubled and the
    step redone from the same accumulators.  Growth transformations climb
    for every large enough constant (Gopalakrishnan et al. 1991; Kanevsky
    2004), so the doubling ends; after ``_MAX_DOUBLINGS`` it raises
    ``EstimationError``, which names ``min_prob`` when the last attempt
    floored a rule.
    """
    ctilde = compute_ctilde(acc, g, params.h, params.epsilon)
    floor = f_before - _DOWNHILL_TOL * max(1.0, abs(f_before))
    for _ in range(_MAX_DOUBLINGS + 1):
        raw = _raw_transform(g, acc, params.h, ctilde)
        floored = sum(p < params.min_prob for p in raw)
        g_new = _finalize(g, raw, params.min_prob)
        f_after = objective_over_sets(g_new, realized, params.eta, params.h)
        if f_after >= floor:
            return ctilde, floored, g_new, f_after
        ctilde *= 2.0
    fault = f"the objective fell from {f_before!r} at every offset constant up to {ctilde / 2.0!r}"
    if floored:
        fault += (
            f"; its last step floored {floored} of {len(raw)} rules at min_prob {params.min_prob!r}"
        )
    raise EstimationError(fault)


def train(g0: Grammar, corpus, spec: DeltaSpec, params: HParams) -> TrainReport:
    """Iterate growth steps until the objective stalls or max_iters is hit.

    Each iteration re-realizes the derivation sets from the current
    grammar, accumulates, picks the offset constant fresh, applies one
    growth step, and records the post-step objective evaluated on that
    iteration's (frozen) sets.  A step that lowers that objective is redone
    with a doubled offset constant (see ``_checked_step``), and the record
    holds the constant of the step taken.  Convergence is declared when one
    step changes the frozen-set objective, ``objective_over_sets``, by less
    than ``rel_tol`` (relative).  The pre-step objective is the sum of the log
    masses that normalize the accumulated weights, so it costs no pass of
    its own; only the post-step objective scores the frozen sets again,
    under the new grammar (a complete set by an inside pass alone, over
    the weights ``eta * log p``).  Raises ValueError before the first
    iteration when ``min_prob`` times some nonterminal's rule count
    exceeds 1: no block of that many probabilities summing to 1 holds
    every floor.
    """
    corpus = list(corpus)
    if not corpus:  # fails even when no iteration runs
        raise EstimationError("corpus is empty")
    for nt, rids in g0._blocks:
        if params.min_prob * len(rids) > 1.0:
            raise ValueError(
                f"min_prob {params.min_prob!r} cannot hold for all {len(rids)} rules of {nt}: "
                "their floors sum past 1"
            )
    g = g0
    records: list[IterationRecord] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        realized = [realize_delta_sets(g, s, spec) for s in corpus]
        acc, f_before = accumulate_realized(g, realized, params.eta, params.h)
        ctilde, floored, g_new, f_after = _checked_step(g, acc, realized, f_before, params)
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
