"""Consistency analysis of a PCFG via its nonterminal expectation matrix.

A proper PCFG defines a probability distribution over complete derivations
only if generation terminates with probability 1; that holds when the
spectral radius of the expectation matrix M, where M[A][B] is the expected
number of B symbols produced by one rewrite of A, is below 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .grammar import Grammar

POWER_ITERATION_CAP = 10_000
POWER_ITERATION_TOL = 1e-12
DEFAULT_TOL = 1e-9  # half-width of the borderline band around radius 1


@dataclass(frozen=True)
class ConsistencyReport:
    spectral_radius: float
    verdict: str  # "consistent" | "borderline" | "inconsistent"
    iterations: int
    converged: bool


def expectation_matrix(g: Grammar) -> np.ndarray:
    """M[A][B] = sum over rules A -> alpha of p * (occurrences of B in alpha).

    Rows and columns follow ``g.nonterminals`` order.  In CNF only binary
    rules contribute, so each entry is at most twice the binary mass of A.
    """
    n = len(g.nonterminals)
    m = np.zeros((n, n))
    idx = g.nt_index
    for rule, p in zip(g.rules, g.probs):
        if not rule.is_lexical:
            for child in rule.rhs:
                m[idx[rule.lhs], idx[child]] += p
    return m


def _has_cycle(m: np.ndarray) -> bool:
    """Cycle in the nonzero-pattern digraph; for nonnegative M this is
    exactly the condition for a positive spectral radius (else M is
    nilpotent and the radius is 0)."""
    graph = {a: np.flatnonzero(row).tolist() for a, row in enumerate(m)}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return True
    return False


def check_consistency(g: Grammar, tol: float = DEFAULT_TOL) -> ConsistencyReport:
    """Classify a grammar as consistent, borderline, or inconsistent.

    A grammar whose nonterminal dependencies are acyclic has a nilpotent
    expectation matrix and spectral radius exactly 0; that case is resolved
    structurally.  Otherwise the radius is found by power iteration with a
    deterministic all-ones start vector.  Iteration runs on M + I (same
    eigenvectors, eigenvalues shifted by +1), which has a positive diagonal
    and therefore cannot cycle on periodic structures; the shift is
    subtracted off the estimate.  A run that fails to settle within the cap
    yields a borderline verdict with ``converged=False``.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    base = expectation_matrix(g)
    if not _has_cycle(base):
        return ConsistencyReport(0.0, "consistent", 0, True)
    m = base + np.eye(len(g.nonterminals))
    v = np.ones(len(g.nonterminals))
    estimate = None
    converged = False
    iterations = 0
    for iterations in range(1, POWER_ITERATION_CAP + 1):
        w = m @ v
        norm = float(w.max())
        previous, estimate = estimate, norm
        v = w / norm
        if previous is not None and abs(estimate - previous) <= POWER_ITERATION_TOL * max(1.0, estimate):
            converged = True
            break
    rho = estimate - 1.0
    if not converged:
        verdict = "borderline"
    elif rho < 1.0 - tol:
        verdict = "consistent"
    elif rho > 1.0 + tol:
        verdict = "inconsistent"
    else:
        verdict = "borderline"
    return ConsistencyReport(rho, verdict, iterations, converged)
