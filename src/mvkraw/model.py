"""The concrete model: linear birth rates toward a population ceiling N and
linear per-capita death rates.

With birth intensities p and death intensities q, the rates are
B_j(x) = (N - |x|) p_j and D_j(x) = q_j x_j.  The stationary distribution is
multinomial with probabilities eta derived from the ratios p_j/q_j.

Up to N = EXACT_N_MAX the multinomial coefficients are exact integers.
Above, the pmf is taken in log space, log C(N; x) + sum_i x_i log c_i,
one column of counts at a time: each cell contributes a table of
k log c - log k!, k = 0..N, built in extended precision and split into a
float64 high part on a grid and a float64 low part.  The grid is 2^-32, or
coarser where the bound 2 log N! + N max|log c| on every partial sum
passes 2^21, so the column sums of high parts are exact in float64; the
low parts carry the rest.  Only the (N+1)-entry tables are in extended
precision, and the counts are read as columns of the lattice, so a
lattice-wide pmf makes one float64 pass per cell and part.  The pmf is
exp(hi) + exp(hi) expm1(lo) in float64, and a positive count in a zero
cell gives exactly 0.  Against the exact pmf of the float cells at 50
digits it is within 2 ulp in the normal range (worst 1.27 ulp over 20,000
entries, 4,000 each at (2,40), (3,80), (2,150), (1,700) and (1,2000)) and
within two subnormal spacings below.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, _is_number

# multinomial coefficients are exact integers up to this N, log-space above
EXACT_N_MAX = 20
# the log route's grid is 2^_GRID_EXP, or coarser where its partial sums
# could pass 2^(53 + _GRID_EXP) (n = 1 from about N = 10^5)
_GRID_EXP = -32


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
        p, q = _floats(self.p), _floats(self.q)
        if len(p) != self.n or len(q) != self.n:
            raise ValidationError(
                f"p and q must have length n={self.n}, got {len(p)} and {len(q)}"
            )
        for name, vec in (("p", p), ("q", q)):
            if not all(math.isfinite(v) and v > 0 for v in vec):
                raise ValidationError(f"all {name} entries must be finite and positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def exceptional(self) -> bool:
        """True when two q_i are equal.

        There the closed-form eigenpolynomial construction breaks down and
        only the numeric eigenbasis is available.  Any two distinct q's,
        however close, are regular: the secular solver keeps every pole
        distance lambda_j - q_i to full relative precision.
        """
        return len(set(self.q)) < self.n


def _floats(vec) -> tuple:
    """`vec` as floats; ValidationError unless it is a list of numbers."""
    try:
        values = list(vec)
        if all(_is_number(v) for v in values):
            return tuple(float(v) for v in values)
    except (TypeError, OverflowError):
        pass
    raise ValidationError("p and q must be lists of numbers")


def linear_rate_tables(p, q, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Rate tables B = (N - |x|) p and D = x q of shape (size, n), in rank
    order; births vanish on |x| = N and deaths at x_j = 0."""
    return _linear_rates(p, q, space.N, space.degrees, space.coords)


def _linear_rates(p, q, N: int, degrees, coords) -> tuple[np.ndarray, np.ndarray]:
    """B and D on the points `coords` of total degree `degrees`: the one
    float expression of every rate table row.  CapExceeded where the
    largest total exit rate, N sum |p| at the origin or N max |q| at a
    corner, leaves float64."""
    top = max(_finite_sum(map(abs, p), "rate sum"), *map(abs, q))
    if not math.isfinite(N * top):
        raise CapExceeded("total exit rate outside the float64 range")
    rem = (N - degrees).astype(float)
    B = rem[:, None] * np.asarray(p, dtype=float)[None, :]
    D = coords.astype(float) * np.asarray(q, dtype=float)[None, :]
    return B, D


def _finite_sum(values, what: str) -> float:
    """math.fsum(values); CapExceeded where a value or the sum is not finite."""
    with suppress(OverflowError, ValueError):   # a sum past float64, or inf - inf
        if math.isfinite(total := math.fsum(values)):
            return total
    raise CapExceeded(f"{what} outside the float64 range")


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
    """eta_i = (p_i/q_i) / (1 + sum_j p_j/q_j) and eta0 = the remainder;
    CapExceeded where a ratio overflows or an eta_i underflows to 0."""
    ratio = [pi / qi for pi, qi in zip(params.p, params.q)]
    denom = 1.0 + _finite_sum(ratio, "rate ratio p_i/q_i")
    eta = tuple(r / denom for r in ratio)
    if min(eta) == 0.0:
        raise CapExceeded("cell probability outside the float64 range")
    return Probabilities(1.0 / denom, eta)


def _count_columns(N: int, space: StateSpace, rows=slice(None)) -> list:
    """The counts (x0, x_1..x_n), x0 = N - |x|, of the lattice points of
    ranks `rows` (all by default) as n + 1 columns; for a slice of ranks
    all but x0 are views of `space.coords`."""
    return [N - space.degrees[rows], *space.coords[rows].T]


def _split(v, grid: float):
    """v as hi + lo: hi the nearest multiple of `grid`, lo the rest."""
    hi = np.rint(v / grid) * grid
    return hi, v - hi


def _log_factorials(N: int, grid: float) -> tuple[np.ndarray, np.ndarray]:
    """log k! for k = 0..N as float64 hi + lo: hi on `grid`, lo the rest.

    They are running sums of log k in extended precision; the rounding of
    each running sum is recovered exactly (two-sum) and summed on the side,
    so only the errors of the log k remain: log 2000! is off by 1.5e-16,
    against 8.8e-15 for the plain running sum."""
    logk = np.log(np.arange(1, N + 1, dtype=np.longdouble))
    total = np.concatenate(([np.longdouble(0.0)], np.cumsum(logk)))
    step = total[1:] - total[:-1]
    lost = (total[:-1] - (total[1:] - step)) + (logk - step)
    hi, lo = _split(total, grid)
    return hi.astype(float), (lo + np.concatenate(([0.0], np.cumsum(lost)))).astype(float)


def _log_route_pmf(N: int, columns, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log multinomial pmf of the points whose counts (x0, x_1..x_n) are
    `columns`, one integer array per cell, with cells `cells` (any
    nonnegative cells: log C(N, x) prod_i cells_i^{x_i}), as float64 hi + lo.

    Each cell contributes f_i(x_i) = x_i log c_i - log x_i!, tabulated for
    x_i = 0..N in extended precision, split into float64 hi + lo and
    gathered one column at a time into one buffer.  Every partial sum is
    below bound = 2 log N! + N max|log c_i| in magnitude, so on a grid no
    finer than bound 2^-52 the tables' hi parts (log c_i is split likewise,
    so x_i times its grid part is exact) add exactly in float64; the small
    lo parts are summed in float64.  A zero count contributes nothing, also
    in a zero cell (0 log 0 = 0); a positive count there gives lo = -inf."""
    positive = [abs(math.log(c)) for c in cells if c > 0]
    bound = 2.0 * math.lgamma(N + 1.0) + N * max(positive, default=0.0)
    grid = 2.0 ** max(_GRID_EXP, math.frexp(bound)[1] - 52)
    fhi, flo = _log_factorials(N, grid)
    k = np.arange(N + 1)
    size = len(columns[0])
    hi = np.full(size, fhi[N])
    lo = np.full(size, flo[N])
    buf = np.empty(size)
    for column, cell in zip(columns, cells):
        if cell > 0:
            ghi, glo = _split(np.log(np.longdouble(cell)), grid)
            thi = k * float(ghi) - fhi
            tlo = (k * glo).astype(float) - flo
        else:
            thi, tlo = -fhi, np.where(k > 0, -np.inf, -flo)
        hi += np.take(thi, column, out=buf, mode="clip")
        lo += np.take(tlo, column, out=buf, mode="clip")
    return hi, lo


def multinomial_vector(space: StateSpace, eta0: float, eta) -> np.ndarray:
    """Multinomial pmf over the whole lattice, in rank order.  With
    eta0 = 1 the values are C(N, x) eta^x.
    """
    eta = np.array(eta, dtype=float)
    if len(eta) != space.n:
        raise ValidationError(f"need {space.n} cell probabilities, got {len(eta)}")
    N = space.N
    cells = np.concatenate(([float(eta0)], eta))
    return _multinomial_rows(N, _count_columns(N, space), cells)


def _multinomial_rows(N: int, columns, cells: np.ndarray) -> np.ndarray:
    """Multinomial pmf of the points whose counts (x0, x_1..x_n) are
    `columns` with cell probabilities `cells`: exact integer coefficients
    up to EXACT_N_MAX, summed in log space above."""
    if N <= EXACT_N_MAX:
        # N!/(x0! x!) as a product of binomials C(N - x_1 - .. - x_{j-1}, x_j),
        # each partial product a multinomial itself, so no int64 overflow
        binom = np.array([[math.comb(a, b) for b in range(N + 1)]
                          for a in range(N + 1)], dtype=np.int64)
        coeff = np.ones(len(columns[0]), dtype=np.int64)
        left = N
        for column in columns[1:]:
            coeff *= binom[left, column]
            left = left - column
        # powers tabulated per cell, multiplied in cell order
        value = coeff.astype(float)
        for column, v in zip(columns, cells):
            value *= np.array([float(v)**k for k in range(N + 1)])[column]
        return value
    hi, lo = _log_route_pmf(N, columns, cells)
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
    columns = _count_columns(space.N, space)
    hi, lo = _log_route_pmf(space.N, columns, np.array([prob.eta0, *prob.eta]))
    hi += lo
    return hi
