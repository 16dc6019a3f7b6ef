"""The concrete model: linear birth rates toward a population ceiling N and
linear per-capita death rates.

With birth intensities p and death intensities q, the rates are
B_j(x) = (N - |x|) p_j and D_j(x) = q_j x_j.  The stationary distribution is
multinomial with probabilities eta derived from the ratios p_j/q_j.

Up to N = EXACT_N_MAX the multinomial coefficients are exact integers.
Above, the pmf is taken in log space, log C(N; x) + sum_i x_i log c_i,
one column of counts at a time: each cell contributes a table of
k log c - log k!, k = 0..N, whose high parts lie on the grid 2^-32, so the
column sums of high parts are exact in extended precision, and whose low
parts carry the rest in float64.  The pmf is exp(hi) + exp(hi) expm1(lo)
in float64, and a positive count in a zero cell gives exactly 0.  Against
the exact pmf of the float cells at 50 digits it is within 2 ulp in the
normal range (worst 1.3 ulp over 20,000 entries at (2,40), (3,80),
(2,150), (1,700) and (1,2000)) and within two subnormal spacings below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import StateSpace, _point_key

# multinomial coefficients are exact integers up to this N, log-space above
EXACT_N_MAX = 20
# high parts of the log route: multiples of this add exactly in extended
# precision up to 2^31 in magnitude
_GRID = 2.0**-32


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


def check_rate_tables(B, D, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Validate a rate field given as tables; returns them as float arrays.

    Raises ValidationError for tables of the wrong shape, non-finite or
    negative rates, and boundary violations (a nonzero rate pointing
    outside the lattice).
    """
    B = np.asarray(B, dtype=float)
    D = np.asarray(D, dtype=float)
    shape = (space.size, space.n)
    if B.shape != shape or D.shape != shape:
        raise ValidationError(
            f"rate tables have shapes {B.shape} and {D.shape}, lattice needs {shape}"
        )
    if not (np.isfinite(B).all() and np.isfinite(D).all()):
        i, j = np.argwhere(~(np.isfinite(B) & np.isfinite(D)))[0]
        raise ValidationError(f"non-finite rate in direction {j} at {space.points[i]}")
    if (B < 0).any() or (D < 0).any():
        i, j = np.argwhere((B < 0) | (D < 0))[0]
        raise ValidationError(f"negative rate in direction {j} at {space.points[i]}")
    for rates, nbr, rule in ((B, space.up, "birth rate must vanish at the ceiling"),
                             (D, space.down, "death rate must vanish at zero population")):
        bad = (nbr < 0) & (rates != 0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(f"{rule}: direction {j} at {space.points[i]}")
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


def _on_grid(v):
    """Nearest multiple of _GRID."""
    return np.rint(v / _GRID) * _GRID


def _log_factorials(N: int) -> tuple[np.ndarray, np.ndarray]:
    """log k! for k = 0..N as hi + lo: hi on the grid _GRID, in extended
    precision, and lo = the rest in float64.

    They are running sums of log k in extended precision; the rounding of
    each running sum is recovered exactly (two-sum) and summed on the side,
    so only the errors of the log k remain: log 2000! is off by 1.5e-16,
    against 8.8e-15 for the plain running sum."""
    logk = np.log(np.arange(1, N + 1, dtype=np.longdouble))
    total = np.concatenate(([np.longdouble(0.0)], np.cumsum(logk)))
    step = total[1:] - total[:-1]
    lost = (total[:-1] - (total[1:] - step)) + (logk - step)
    hi = _on_grid(total)
    lo = ((total - hi) + np.concatenate(([0.0], np.cumsum(lost)))).astype(float)
    return hi, lo


def _log_route_pmf(N: int, counts: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log multinomial pmf of each row of `counts` (x0, x_1..x_n) with
    cells `cells` (any nonnegative cells: log C(N, x) prod_i cells_i^{x_i}),
    as float64 hi + lo.

    Each cell contributes f_i(x_i) = x_i log c_i - log x_i!, tabulated for
    x_i = 0..N and gathered one column at a time.  The tables' hi parts
    lie on the grid _GRID (log c_i is split likewise, so x_i times its grid
    part is exact), so their column sums are exact in extended precision;
    the small lo parts are summed in float64.  hi is exact in float64
    wherever exp(hi) is neither 0 nor inf.  A zero count contributes
    nothing, also in a zero cell (0 log 0 = 0); a positive count there
    gives lo = -inf."""
    fhi, flo = _log_factorials(N)
    k = np.arange(N + 1)
    hi = np.full(len(counts), fhi[N])
    lo = np.full(len(counts), flo[N])
    for column, cell in zip(counts.T, cells):
        if cell > 0:
            logc = np.log(np.longdouble(cell))
            grid = _on_grid(logc)
            thi = k * grid - fhi
            tlo = (k * (logc - grid)).astype(float) - flo
        else:
            thi, tlo = -fhi, np.where(k > 0, -np.inf, -flo)
        hi += thi[column]
        lo += tlo[column]
    return hi.astype(float), lo


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
    hi, lo = _log_route_pmf(N, counts, cells)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(hi)   # inf past the float64 range, and kept so
        np.add(value, value * np.expm1(lo), out=value, where=value < np.inf)
    return value


def weight_vector(params: ModelParams, space: StateSpace) -> np.ndarray:
    """Stationary weight over the whole lattice, in rank order."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    prob = probabilities(params)
    return multinomial_vector(space, prob.eta0, prob.eta)


def log_weight_vector(params: ModelParams, space: StateSpace) -> np.ndarray:
    """log W over the whole lattice, in rank order, by the log route at
    every N: finite everywhere (all cells are positive), also where W
    underflows to 0."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    prob = probabilities(params)
    counts = np.column_stack((space.N - space.degrees, space.coords))
    hi, lo = _log_route_pmf(space.N, counts, np.array([prob.eta0, *prob.eta]))
    hi += lo
    return hi
