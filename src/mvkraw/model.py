"""The concrete model: linear birth rates toward a population ceiling N and
linear per-capita death rates.

With birth intensities p and death intensities q, the rates are
B_j(x) = (N - |x|) p_j and D_j(x) = q_j x_j.  The stationary distribution is
multinomial with probabilities eta derived from the ratios p_j/q_j.

At every N the pmf is taken in log space, log C(N; x) + sum_i x_i log c_i,
one column of counts at a time: each cell contributes a table of
k log c - log k!, k = 0..N, built in extended precision and split into a
float64 high part on a grid and a float64 low part.  The grid is 2^-32, or
coarser where the bound 2 log N! + N max|log c| on every partial sum
passes 2^21, so the column sums of high parts are exact in float64; the
low parts carry the rest.  Only the (N+1)-entry tables are in extended
precision, and the counts are read as columns of the lattice, so a
lattice-wide pmf makes one float64 pass per cell and part; slot 0's count
N - |x| is never built, its tables are read reversed at |x|.  The pmf is
exp(hi) + exp(hi) expm1(lo) in float64, gathered and taken in place one
block of points at a time, hi in the output and lo in block-size scratch,
and a positive count in a zero cell gives exactly 0.  Against
the exact pmf of the float cells at 50 digits it is within 2 ulp in the
normal range (worst 1.27 ulp over 20,000 entries, 4,000 each at (2,40),
(3,80), (2,150), (1,700) and (1,2000); 1.02 ulp over all 1,771 points of
(3,20) with p = (1, 2, 1.5), q = (1, 3, 6)) and within two subnormal
spacings below.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, _is_number

# the log route's grid is 2^_GRID_EXP, or coarser where its partial sums
# could pass 2^(53 + _GRID_EXP) (n = 1 from about N = 10^5)
_GRID_EXP = -32
# points (or events) per block of a lattice-wide pass
_BLOCK = 1 << 14


class _ModelFields(NamedTuple):
    n: int
    N: int
    p: tuple
    q: tuple


class ModelParams(_ModelFields):
    """Model parameters: dimension n, ceiling N, intensities p and q > 0."""

    __slots__ = ()

    def __new__(cls, n: int, N: int, p, q):
        if not (type(n) is int and type(N) is int):
            raise ValidationError("n and N must be integers")
        if n < 1 or N < 1:
            raise ValidationError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
        p, q = _floats(p), _floats(q)
        if len(p) != n or len(q) != n:
            raise ValidationError(
                f"p and q must have length n={n}, got {len(p)} and {len(q)}"
            )
        for name, vec in (("p", p), ("q", q)):
            if not all(math.isfinite(v) and v > 0 for v in vec):
                raise ValidationError(f"all {name} entries must be finite and positive")
        return super().__new__(cls, n, N, p, q)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: validate there too
        return cls(*iterable)

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


def _check_weight(W, space: StateSpace) -> np.ndarray:
    """Validate a weight given as a vector; returns it as a float array.

    Raises ValidationError unless it has one finite, nonnegative entry per
    lattice point."""
    W = np.asarray(W, dtype=float)
    if W.shape != (space.size,):
        raise ValidationError(
            f"weight vector has shape {W.shape}, lattice needs ({space.size},)"
        )
    if not np.isfinite(W).all() or (W < 0).any():
        raise ValidationError("weight vector must be finite and nonnegative")
    return W


def _check_space(params: ModelParams, space: StateSpace) -> None:
    """ValidationError unless `space` is the lattice of `params`."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")


def rate_tables(params: ModelParams, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The model's birth and death rates on every lattice point."""
    _check_space(params, space)
    return linear_rate_tables(params.p, params.q, space)


class Probabilities(NamedTuple):
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


def _count_columns(space: StateSpace, rows=slice(None)) -> list:
    """The columns (|x|, x_1..x_n) of the lattice points of ranks `rows`
    (all by default), for a slice of ranks views of `space`.  Slot 0's
    count x0 = N - |x| is never built: a table t over k = 0..N is read at
    x0 as t[::-1] at |x|."""
    return [space.degrees[rows], *space.coords[rows].T]


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
    """Log multinomial pmf of the points whose columns (|x|, x_1..x_n) are
    `columns` (`_count_columns`), x0 = N - |x|, with cells `cells` (any
    nonnegative cells: log C(N, x) prod_i cells_i^{x_i}), as float64 hi + lo,
    gathered from the tables of `_log_route_tables` into one buffer."""
    size = len(columns[0])
    hi, lo = np.empty(size), np.empty(size)
    _gather(_log_route_tables(N, cells), columns, hi, lo, np.empty(size))
    return hi, lo


def _log_route_tables(N: int, cells: np.ndarray):
    """The tables of the log pmf: (hi, lo) of -log N!, the part every point
    shares, and for each cell the (hi, lo) pair over its count 0..N.

    Each cell contributes f_i(x_i) = x_i log c_i - log x_i!, tabulated for
    x_i = 0..N in extended precision and split into float64 hi + lo; slot
    0's tables are reversed, so they are read at |x|.  Every partial sum is
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
    tables = []
    for slot, cell in enumerate(cells):
        if cell > 0:
            ghi, glo = _split(np.log(np.longdouble(cell)), grid)
            thi = k * float(ghi) - fhi
            tlo = (k * glo).astype(float) - flo
        else:
            thi, tlo = -fhi, np.where(k > 0, -np.inf, -flo)
        if slot == 0:
            thi, tlo = thi[::-1], tlo[::-1]
        tables.append((thi, tlo))
    return (fhi[N], flo[N]), tables


def _gather(tables, columns, hi: np.ndarray, lo: np.ndarray, buf: np.ndarray) -> None:
    """The log pmf hi + lo of the points of `columns` from the tables of
    `_log_route_tables`, into `hi` and `lo`, one column at a time through
    `buf`; all three are as long as the columns."""
    (base_hi, base_lo), cells = tables
    hi.fill(base_hi)
    lo.fill(base_lo)
    for column, (thi, tlo) in zip(columns, cells):
        hi += np.take(thi, column, out=buf, mode="clip")
        lo += np.take(tlo, column, out=buf, mode="clip")


def multinomial_vector(space: StateSpace, eta0: float, eta) -> np.ndarray:
    """Multinomial pmf over the whole lattice, in rank order, by
    `_multinomial_rows`.  With eta0 = 1 the values are C(N, x) eta^x.
    """
    eta = np.array(eta, dtype=float)
    if len(eta) != space.n:
        raise ValidationError(f"need {space.n} cell probabilities, got {len(eta)}")
    cells = np.concatenate(([float(eta0)], eta))
    return _multinomial_rows(space.N, _count_columns(space), cells)


def _multinomial_rows(N: int, columns, cells: np.ndarray) -> np.ndarray:
    """Multinomial pmf of the points whose columns (|x|, x_1..x_n) are
    `columns` (`_count_columns`), x0 = N - |x|, with cell probabilities
    `cells`, at every N from the log pmf hi + lo of `_log_route_pmf`.  The
    tables are built once; then each block of _BLOCK points is gathered,
    hi straight into the output and lo into block-size scratch, and the
    pmf exp(hi) + exp(hi) expm1(lo) is taken there in place: exp into hi,
    expm1 into lo, lo *= hi, then hi += lo where hi is finite, the float
    operations of the expression itself, so the bits are the same."""
    tables = _log_route_tables(N, cells)
    size = len(columns[0])
    out = np.empty(size)
    lo, buf = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, size, _BLOCK):
            b = slice(start, start + _BLOCK)
            hi = out[b]
            part = lo[:len(hi)]
            _gather(tables, [column[b] for column in columns], hi, part, buf[:len(hi)])
            np.exp(hi, out=hi)   # inf past the float64 range, and kept so
            np.expm1(part, out=part)
            part *= hi
            np.add(hi, part, out=hi, where=hi < np.inf)
    return out


def weight_vector(params: ModelParams, space: StateSpace) -> np.ndarray:
    """Stationary weight over the whole lattice, in rank order."""
    _check_space(params, space)
    prob = probabilities(params)
    return multinomial_vector(space, prob.eta0, prob.eta)


def log_weight_vector(params: ModelParams, space: StateSpace) -> np.ndarray:
    """log W over the whole lattice, in rank order, by the log route at
    every N: finite everywhere (all cells are positive), also where W
    underflows to 0."""
    _check_space(params, space)
    prob = probabilities(params)
    columns = _count_columns(space)
    hi, lo = _log_route_pmf(space.N, columns, np.array([prob.eta0, *prob.eta]))
    hi += lo
    return hi
