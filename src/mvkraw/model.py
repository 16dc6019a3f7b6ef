"""The concrete model: linear birth rates toward a population ceiling N and
linear per-capita death rates.

With birth intensities p and death intensities q, the rates are
B_j(x) = (N - |x|) p_j and D_j(x) = q_j x_j.  The stationary distribution is
multinomial with probabilities eta derived from the ratios p_j/q_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import StateSpace, _point_key

# multinomial coefficients are exact integers up to this N, log-space above
EXACT_N_MAX = 20


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dimension n, ceiling N, intensities p and q > 0."""

    n: int
    N: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if not (type(self.n) is int and type(self.N) is int):
            raise ValidationError("n and N must be integers")
        if self.n < 1 or self.N < 1:
            raise ValidationError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        try:
            p = tuple(float(v) for v in self.p)
            q = tuple(float(v) for v in self.q)
        except (TypeError, ValueError):
            raise ValidationError("p and q must be lists of numbers") from None
        if len(p) != self.n or len(q) != self.n:
            raise ValidationError(
                f"p and q must have length n={self.n}, got {len(p)} and {len(q)}"
            )
        for name, vec in (("p", p), ("q", q)):
            if not all(math.isfinite(v) and v > 0 for v in vec):
                raise ValidationError(f"all {name} entries must be finite and positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def coincidence_gap(self) -> float:
        """Smallest pairwise |q_i - q_j| (inf when n = 1)."""
        if self.n == 1:
            return math.inf
        qs = sorted(self.q)
        return min(b - a for a, b in zip(qs, qs[1:]))

    def exceptional(self, band: float | None = None) -> bool:
        """True when some q_i coincide within the detection band.

        In that regime the closed-form eigenpolynomial construction breaks
        down and only the numeric eigenbasis is available.  The default
        band is 1e-9 * max(q); a negative or non-finite band is a
        ValidationError, since it would switch the guard off.
        """
        if band is None:
            band = 1e-9 * max(self.q)
        elif not (math.isfinite(band) and band >= 0):
            raise ValidationError(f"coincidence band must be finite and nonnegative, got {band}")
        return self.coincidence_gap <= band


def linear_rate_tables(p, q, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Rate tables B = (N - |x|) p and D = x q of shape (size, n), in rank
    order; births vanish on |x| = N and deaths at x_j = 0."""
    rem = (space.N - space.degrees).astype(float)
    B = rem[:, None] * np.asarray(p, dtype=float)[None, :]
    D = space.coords.astype(float) * np.asarray(q, dtype=float)[None, :]
    return B, D


def rate_tables(params: ModelParams, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The model's birth and death rates on every lattice point."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    return linear_rate_tables(params.p, params.q, space)


@dataclass(frozen=True)
class Probabilities:
    """Multinomial cell probabilities (eta0, eta_1..eta_n), summing to 1."""

    eta0: float
    eta: tuple


def probabilities(params: ModelParams) -> Probabilities:
    """eta_i = (p_i/q_i) / (1 + sum_j p_j/q_j) and eta0 = the remainder."""
    ratio = [pi / qi for pi, qi in zip(params.p, params.q)]
    denom = 1.0 + math.fsum(ratio)
    eta = tuple(r / denom for r in ratio)
    return Probabilities(1.0 / denom, eta)


def multinomial_weight(params: ModelParams, x) -> float:
    """Stationary weight of one point: multinomial pmf with cells
    (eta0, eta) and counts (N - |x|, x)."""
    x, N = _point_key(x), params.N
    if len(x) != params.n or min(x) < 0 or sum(x) > N:
        raise ValidationError(f"{x} is not in the lattice for n={params.n}, N={N}")
    prob = probabilities(params)
    cells = np.concatenate(([prob.eta0], prob.eta))
    return float(_multinomial_rows(N, np.array([[N - sum(x), *x]]), cells)[0])


def _log_route_pmf(N: int, counts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Log multinomial pmf of each row of `counts` (x0, x_1..x_n) with
    cells `cells` (any positive cells: log C(N, x) prod_i cells_i^{x_i}).

    log k! are running sums of log k in extended precision (where numpy has
    one): lgamma values near log N! carry absolute errors that become
    relative errors of the pmf.  A zero count contributes nothing, also in a
    zero cell (0 log 0 = 0); a positive count there gives log pmf -inf."""
    logk = np.log(np.arange(1, N + 1, dtype=np.longdouble))
    lgf = np.concatenate(([0.0], np.cumsum(logk)))
    empty = cells == 0
    logc = np.log(np.where(empty, 1.0, cells).astype(np.longdouble))
    logv = lgf[N] - lgf[counts].sum(axis=1) + counts @ logc
    logv[(counts[:, empty] > 0).any(axis=1)] = -np.inf
    return logv


def multinomial_vector(space: StateSpace, eta0: float, eta) -> np.ndarray:
    """Multinomial pmf over the whole lattice, in rank order, by the route
    `multinomial_weight` takes for one point, so the two agree bit for bit.
    With eta0 = 1 the values are C(N, x) eta^x.
    """
    eta = np.array(eta, dtype=float)
    if len(eta) != space.n:
        raise ValidationError(f"need {space.n} cell probabilities, got {len(eta)}")
    N = space.N
    counts = np.column_stack((N - space.degrees, space.coords))
    cells = np.concatenate(([float(eta0)], eta))
    return _multinomial_rows(N, counts, cells)


def _multinomial_rows(N: int, counts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Multinomial pmf of each row of `counts` (x0, x_1..x_n) with cell
    probabilities `cells`: exact integer coefficients up to EXACT_N_MAX,
    summed in log space above."""
    if N <= EXACT_N_MAX:
        # N!/(x0! x!) as a product of binomials C(N - x_1 - .. - x_{j-1}, x_j),
        # each partial product a multinomial itself, so no int64 overflow
        binom = np.array([[math.comb(a, b) for b in range(N + 1)]
                          for a in range(N + 1)], dtype=np.int64)
        left = N - np.cumsum(counts[:, 1:], axis=1) + counts[:, 1:]
        coeff = np.prod(binom[left, counts[:, 1:]], axis=1)
        # powers tabulated per cell, multiplied in cell order
        value = coeff.astype(float)
        for c, v in enumerate(cells):
            value *= np.array([float(v)**k for k in range(N + 1)])[counts[:, c]]
        return value
    return np.exp(_log_route_pmf(N, counts, cells)).astype(float)


def weight_vector(params: ModelParams, space: StateSpace) -> np.ndarray:
    """Stationary weight over the whole lattice, in rank order."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    prob = probabilities(params)
    return multinomial_vector(space, prob.eta0, prob.eta)
