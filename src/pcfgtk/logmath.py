"""Log-domain scalar helpers for the chart and estimator inner loops."""
from __future__ import annotations

import math

NEG_INF = float("-inf")


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
