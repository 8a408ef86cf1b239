"""Log-domain helpers for the chart and estimator inner loops, and the
split of exp(v) into mantissa and exponent that the chart's sum-product
passes compute in."""
from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")

# ln 2 in two parts: LN2_HI has 32 significant bits, so e * LN2_HI is exact
# for every integer |e| < SPLIT_BOUND, and LN2_HI + LN2_LO is ln 2 to about
# 2**-90 (the split of fdlibm's exp and log)
SPLIT_BOUND = 2**21
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
INV_LN2 = float.fromhex("0x1.71547652b82fep0")  # 1 / ln 2
# the exponent of 0 in a split: an exponent sum with such a term lies far
# below any sum of present exponents, and a sum of three fits an int64
ZERO_EXPONENT = -(2**40)


def logsumexp(values) -> float:
    """log(sum(exp(v))) over a sequence, stable for widely scaled values.

    The exponentials are added left to right, one rounding each, as the
    chart's array pass adds them (the built-in ``sum`` compensates its
    rounding from Python 3.12 on).
    """
    m = max(values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    total = 0.0
    for v in values:
        total += math.exp(v - m)
    return m + math.log(total)


def normalized_weights(log_values) -> list[float]:
    """exp(v) / sum(exp(v)) in division form, so exact ties stay exact; the
    sum runs left to right, as in ``logsumexp``."""
    m = max(log_values)
    ws = [math.exp(v - m) for v in log_values]
    total = 0.0
    for w in ws:
        total += w
    return [w / total for w in ws]


def exp_split(log_values) -> tuple[np.ndarray, np.ndarray]:
    """Each finite v as ``exp(v) = m * 2**e``: float mantissas m in [0.5, 1)
    and int64 exponents e, with one more entry, the split of 0: mantissa 0
    and exponent ``ZERO_EXPONENT``.

    With k = floor(v / ln 2), ``math.exp`` of the reduced r = (v - k *
    LN2_HI) - k * LN2_LO, which lies in [0, ln 2) up to rounding, cannot
    overflow or underflow; ``frexp`` of it, its exponent plus k, is the
    split.  That is one ``math.exp`` per value.  The reduction is exact
    only while |k| < ``SPLIT_BOUND``, which ``Grammar.weights_of`` checks.
    """
    v = np.array(log_values, dtype=float)
    k = np.floor(v * INV_LN2)
    m, e = np.frexp(list(map(math.exp, ((v - k * LN2_HI) - k * LN2_LO).tolist())))
    mant = np.zeros(len(v) + 1)
    expo = np.full(len(v) + 1, ZERO_EXPONENT)
    mant[:-1] = m
    expo[:-1] = e + k.astype(np.int64)
    return mant, expo


def log_scaled(m: float, e: int) -> float:
    """``log(m * 2**e)`` of a mantissa m in [0.5, 1) and its exponent, as
    ``e * LN2_HI + (log(m) + e * LN2_LO)``: the first product is exact, and
    ``math.log`` runs once; -inf where m is 0 (an absent entry)."""
    return e * LN2_HI + (math.log(m) + e * LN2_LO) if m else NEG_INF


def log_split(mant: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """``log_scaled`` of each mantissa and its exponent, in their shape."""
    logs = map(log_scaled, mant.ravel().tolist(), expo.ravel().tolist())
    return np.fromiter(logs, float, mant.size).reshape(mant.shape)
