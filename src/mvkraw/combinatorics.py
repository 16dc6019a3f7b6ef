"""Multinomial coefficients N!/(x_1! ... x_n! x0!) with x0 = N - sum(x).

They are built from integer binomials, so they are exact.  The stationary
weight uses them up to EXACT_N_MAX and sums its pmf in log space above
(`model._log_route_pmf`).
"""

import math

EXACT_N_MAX = 20


def multinomial(N: int, parts) -> float:
    """N! / (prod parts_i! * (N - sum parts)!) as a float."""
    parts = [int(v) for v in parts]
    if N - sum(parts) < 0 or any(v < 0 for v in parts):
        raise ValueError("parts must be nonnegative with sum at most N")
    out = 1
    remaining = N
    for v in parts:
        out *= math.comb(remaining, v)
        remaining -= v
    return float(out)
