"""Eigenpolynomial evaluation and the orthogonality apparatus.

P_m(x) is the normalized coefficient of a product of linear forms:

    C(N, m) P_m(x) = coefficient of t0^{m0} t^m in prod_{i=0}^{n} (a_i . t)^{x_i},

with x0 = N - |x|, m0 = N - |m| and `a` the bordered coupling matrix (first
row and column of ones, block 1 - u).  `table` builds the whole table at
once from T = Sym^N(R) (`sympower.coefficient_power`), the orthonormal map,
with R = diag sqrt(eta0, eta) a diag sqrt(1, eta_bar) orthogonal, and reads
P = T / sqrt(W(x) C(N,m) eta_bar^m) off it in log space.

Two independent routes stay as oracles.  `eval_P` sums the truncated
hypergeometric series over n x n nonnegative-integer matrices c,

    P_m(x) = sum_c  prod_i (-x_i)_{row_i(c)} prod_j (-m_j)_{col_j(c)}
                    / (-N)_{|c|} * prod_ij u_ij^{c_ij} / c_ij!,

enumerated depth-first with exact budget pruning (the shifted factorials
vanish once a row sum exceeds x_i or a column sum exceeds m_j).
`eval_P_via_generating_function` expands the product for one x at a time
(`sympower.coefficient_row`); `table_via_generating_function` is the
row-by-row table that `verify --level full` compares with `table`.

The dual polynomials Q_x(m) are the same expression read as functions of m,
so eval_Q delegates to eval_P.  The module also provides the orthonormal
map T of a table, the one check of orthogonality in both directions
(`orthonormality`, from T^T T and T T^T), and the classical single-variable
evaluator used as the n=1 oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bdcore import difference_operator_from_tables
from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, _point_key
from .model import ModelParams, _log_route_pmf, multinomial_vector, rate_tables
from .spectrum import SpectralData
from .sympower import DENSE_CAP, coefficient_power, coefficient_row


def _u_matrix(spec) -> np.ndarray:
    u = spec.u if isinstance(spec, SpectralData) else np.asarray(spec, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("u must be a square matrix")
    return u


def _a_matrix(spec, space: StateSpace) -> np.ndarray:
    a = spec.a if isinstance(spec, SpectralData) else np.asarray(spec, dtype=float)
    shape = (space.n + 1, space.n + 1)
    if a.shape != shape:
        raise ValidationError(f"coefficient matrix must be {shape}")
    return a


def _check_point(name: str, v, n: int, N: int) -> list[int]:
    out = list(_point_key(v))
    if len(out) != n or any(c < 0 for c in out) or sum(out) > N:
        raise ValidationError(f"{name}={tuple(v)} is not in the lattice (n={n}, N={N})")
    return out


def eval_P(spec, m, x, N: int) -> float:
    """One polynomial value P_m(x) by direct summation of the series (oracle).

    `spec` is a SpectralData or a bare (n, n) u-matrix.  Always finite: the
    depth-first enumeration only visits c-matrices whose row sums stay
    within x and whose column sums stay within m.
    """
    u = _u_matrix(spec)
    n = u.shape[0]
    x = _check_point("x", x, n, N)
    m = _check_point("m", m, n, N)
    U = u.tolist()
    col_rem = m[:]
    total = 0.0

    def rec(i: int, j: int, row_rem: int, tot_rem: int, coeff: float) -> None:
        nonlocal total
        ni = i if j + 1 < n else i + 1
        nj = j + 1 if j + 1 < n else 0
        uij = U[i][j]
        c = 0
        cf = coeff
        while True:
            if ni == n:
                total += cf
            elif ni == i:
                rec(ni, nj, row_rem - c, tot_rem - c, cf)
            else:
                rec(ni, nj, x[ni], tot_rem - c, cf)
            if (
                uij == 0.0
                or cf == 0.0
                or row_rem - c == 0
                or col_rem[j] == 0
                or tot_rem - c == 0
            ):
                break
            # one more unit in cell (i, j): factors (-x_i + done), (-m_j + done)
            # over (-N + placed) and the running factorial
            cf = -cf * (row_rem - c) * col_rem[j] * uij / ((tot_rem - c) * (c + 1))
            col_rem[j] -= 1
            c += 1
        col_rem[j] += c

    rec(0, 0, x[0], N, 1.0)
    return total


def eval_Q(spec, x, m, N: int) -> float:
    """Dual polynomial Q_x(m): identical expression with roles swapped."""
    return eval_P(spec, m, x, N)


def _rescale(tab: np.ndarray, R: np.ndarray, space: StateSpace, power: float) -> np.ndarray:
    """tab[x, m] (W(x) C(N,m) eta_bar^m)^power as one exp of long-double log
    multinomials (`model._log_route_pmf`), the cells read off the one-body
    matrix: R[:, 0]^2 = (eta0, eta) and (R[0] / R[0, 0])^2 = (1, eta_bar)."""
    counts = np.column_stack((space.N - space.degrees, space.coords))
    logW, lognu = (power * _log_route_pmf(space.N, counts, c).astype(float)
                   for c in (R[:, 0] ** 2, (R[0] / R[0, 0]) ** 2))
    out = np.add.outer(logW, lognu)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(out, out=out)
        return np.multiply(tab, out, out=out)


def table(spec, space: StateSpace) -> np.ndarray:
    """Full polynomial table; rows are x ranks, columns are m ranks.

    `spec` is any object with the one-body matrix `.R` (SpectralData,
    rational.DualPair).  P is read off the orthonormal map T = Sym^N(R) as
    P_m(x) = T[x, m] / sqrt(W(x) C(N,m) eta_bar^m); CapExceeded when some
    P lies outside the float64 range.
    """
    R = np.asarray(spec.R, dtype=float)
    P = _rescale(coefficient_power(R, space), R, space, -0.5)
    if not np.isfinite(P).all():
        raise CapExceeded("polynomial values exceed the float64 range")
    return P


def eval_P_via_generating_function(spec, x, space: StateSpace) -> np.ndarray:
    """All P_m(x) for one x, via the generating function.

    Expands prod_{i=0}^{n} (sum_j a_ij t_j)^{x_i} (row 0 is all ones, raised
    to the x0 = N - |x| power) as a homogeneous polynomial of degree N in
    (t0, .., tn), one factor at a time (`sympower.coefficient_row`).  The
    coefficient of t0^{m0} t^m equals C(N, m) P_m(x).
    """
    a = _a_matrix(spec, space)
    x = np.array(_check_point("x", x, space.n, space.N))
    return coefficient_row(a, x, space) / multinomial_vector(space, 1.0, np.ones(space.n))


def table_via_generating_function(spec, space: StateSpace) -> np.ndarray:
    """Independent full table, one generating-function expansion per row;
    the oracle `verify --level full` compares `table` with.  Raises
    CapExceeded above DENSE_CAP points, before expanding any row."""
    if space.size > DENSE_CAP:
        raise CapExceeded(f"dense table needs {space.size} <= cap {DENSE_CAP} points")
    a = _a_matrix(spec, space)
    rows = np.array([coefficient_row(a, x, space) for x in space.coords])
    return rows / multinomial_vector(space, 1.0, np.ones(space.n))


def degree_eigenvalues(spec: SpectralData, space: StateSpace) -> np.ndarray:
    """E(m) = sum_j m_j lam_j for every m rank."""
    return space.coords @ spec.lam


def eigen_residuals(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> np.ndarray:
    """Per-column relative defect of the eigen equation Ht P_m = E(m) P_m."""
    Ht = difference_operator_from_tables(*rate_tables(params, space), space)
    E = degree_eigenvalues(spec, space)
    defect = Ht @ tab - tab * E[None, :]
    scale = np.maximum(1.0, np.abs(tab).max(axis=0))
    return np.abs(defect).max(axis=0) / scale


class Orthonormality(NamedTuple):
    """Defects of G = T^T T (columns) and G' = T T^T (rows) against I."""

    offdiagonal: float        # max |G_ij| / sqrt(G_ii G_jj), i != j
    diagonal: float           # max |G_ii - 1|
    dual_offdiagonal: float   # the same two of G'
    dual_diagonal: float
    identity: float           # max(|G - I|, |G' - I|)


def orthonormality(T: np.ndarray) -> Orthonormality:
    """How far the square matrix T is from orthogonal, both ways.

    The normalized off-diagonal does not change under a diagonal
    congruence, and with T = sqrt(W) P sqrt(C(N,m) eta_bar^m) the diagonal
    of T^T T is the Gram diagonal of P under W over its closed form
    1/(C(N,m) eta_bar^m); the diagonal of T T^T is the dual Gram diagonal
    under the dual weight over eta_dual0^N / W.  So the one check carries
    orthogonality and norms in both directions.
    """
    def defects(G):
        d = np.sqrt(np.diag(G))
        normalized = np.abs(G) / np.outer(d, d)
        np.fill_diagonal(normalized, 0.0)
        return (float(normalized.max()), float(np.abs(np.diag(G) - 1.0).max()),
                float(np.abs(G - np.eye(len(G))).max()))

    cols, rows = defects(T.T @ T), defects(T @ T.T)
    return Orthonormality(*cols[:2], *rows[:2], max(cols[2], rows[2]))


def orthonormal_map(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> np.ndarray:
    """T[x, m] = sqrt(W(x)) P_m(x) sqrt(C(N,m) eta_bar^m); orthogonal both
    ways.  The inverse of the scaling in `table`, so sqrt(W) never
    underflows on its own."""
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    return _rescale(tab, spec.R, space, 0.5)


def kr_P(m: int, x: int, p: float, N: int) -> float:
    """Classical single-variable evaluator: terminating Gauss sum
    sum_k (-m)_k (-x)_k / ((-N)_k k!) p^{-k}."""
    m, x = int(m), int(x)
    if not (0 <= m <= N and 0 <= x <= N):
        raise ValidationError(f"need 0 <= m, x <= N, got m={m}, x={x}, N={N}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"success probability must sit in (0,1), got {p}")
    total = 1.0
    term = 1.0
    for k in range(1, min(m, x) + 1):
        term *= (k - 1 - m) * (k - 1 - x) / ((k - 1 - N) * k * p)
        total += term
    return total
