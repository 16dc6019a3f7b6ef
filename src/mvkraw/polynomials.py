"""Eigenpolynomial evaluation and the orthogonality apparatus.

P_m(x) is the normalized coefficient of a product of linear forms:

    C(N, m) P_m(x) = coefficient of t0^{m0} t^m in prod_{i=0}^{n} (a_i . t)^{x_i},

with x0 = N - |x|, m0 = N - |m| and `a` the bordered coupling matrix (first
row and column of ones, block 1 - u).  `table` builds the whole table at
once as the N-th symmetric power of `a` (`sympower.coefficient_power`);
this is the production route.

Two independent routes stay as oracles.  `eval_P` sums the truncated
hypergeometric series over n x n nonnegative-integer matrices c,

    P_m(x) = sum_c  prod_i (-x_i)_{row_i(c)} prod_j (-m_j)_{col_j(c)}
                    / (-N)_{|c|} * prod_ij u_ij^{c_ij} / c_ij!,

enumerated depth-first with exact budget pruning (the shifted factorials
vanish once a row sum exceeds x_i or a column sum exceeds m_j).
`eval_P_via_generating_function` expands the product for one x at a time;
`table_via_generating_function` is the row-by-row table that `verify
--level full` compares with `table`.

The dual polynomials Q_x(m) are the same expression read as functions of m,
so eval_Q delegates to eval_P.  The module also provides the Gram matrices
for both orthogonality directions, the orthonormal matrix built from the
table, and the classical single-variable evaluator used as the n=1 oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bdcore import difference_operator_from_tables
from .errors import ValidationError
from .lattice import StateSpace, _point_key
from .model import ModelParams, multinomial_vector, rate_tables, weight_vector
from .spectrum import SpectralData
from .sympower import coefficient_power

DEFAULT_EIGEN_TOL = 1e-8
DEFAULT_ORTHO_TOL = 1e-10


def _u_matrix(spec) -> np.ndarray:
    u = spec.u if isinstance(spec, SpectralData) else np.asarray(spec, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("u must be a square matrix")
    return u


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


def table(spec, space: StateSpace) -> np.ndarray:
    """Full polynomial table; rows are x ranks, columns are m ranks.

    `spec` is a SpectralData or a bare (n, n) u-matrix; the table is the
    symmetric power of the bordered matrix a = [[1, 1], [1, 1 - u]]
    divided by C(N, m).
    """
    u = _u_matrix(spec)
    n = u.shape[0]
    if n != space.n:
        raise ValidationError("spectral data dimension does not match the lattice")
    a = np.ones((n + 1, n + 1))
    a[1:, 1:] = 1.0 - u
    return coefficient_power(a, space) / multinomial_vector(space, 1.0, np.ones(n))


def eval_P_via_generating_function(spec, x, space: StateSpace) -> np.ndarray:
    """All P_m(x) for one x, via the generating function.

    Expands prod_{i=0}^{n} (sum_j a_ij t_j)^{x_i} (row 0 is all ones, raised
    to the x0 = N - |x| power) as a homogeneous polynomial of degree N in
    (t0, .., tn).  The coefficient of t0^{m0} t^m equals C(N, m) P_m(x).
    Coefficients are stored on the lattice itself: rank(k) holds the
    monomial with t-part k and implicit t0-exponent degree - |k|.
    """
    return _expand_row(spec, x, space) / multinomial_vector(space, 1.0, np.ones(space.n))


def _expand_row(spec, x, space: StateSpace) -> np.ndarray:
    """C(N, m) P_m(x) for every m rank, one factor of the product at a time."""
    a = spec.a if isinstance(spec, SpectralData) else np.asarray(spec, dtype=float)
    n = space.n
    if a.shape != (n + 1, n + 1):
        raise ValidationError(f"coefficient matrix must be {(n + 1, n + 1)}")
    x = _check_point("x", x, n, space.N)
    x0 = space.N - sum(x)

    coeff = np.zeros(space.size)
    coeff[0] = 1.0
    down = space.down
    masks = [down[:, j] >= 0 for j in range(n)]
    for i, power in enumerate([x0] + x):
        row = a[i]
        for _ in range(power):
            new = row[0] * coeff
            for j in range(n):
                mask = masks[j]
                new[mask] += row[j + 1] * coeff[down[mask, j]]
            coeff = new
    return coeff


def table_via_generating_function(spec, space: StateSpace) -> np.ndarray:
    """Independent full table, one generating-function expansion per row;
    the oracle `verify --level full` compares `table` with."""
    rows = np.array([_expand_row(spec, x, space) for x in space.points])
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


@dataclass(frozen=True)
class GramCheck:
    gram: np.ndarray
    expected_diagonal: np.ndarray
    worst_offdiagonal: float      # |G_ij| / sqrt(G_ii G_jj), i != j
    worst_diagonal_rel: float     # |G_ii - expected| / expected


def gram_check(G: np.ndarray, expected: np.ndarray) -> GramCheck:
    """Normalized off-diagonal and relative diagonal residuals of a Gram matrix."""
    d = np.sqrt(np.diag(G))
    normalized = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(normalized, 0.0)
    return GramCheck(
        G,
        expected,
        float(normalized.max()),
        float(np.max(np.abs(np.diag(G) - expected) / expected)),
    )


def gram_matrix(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> GramCheck:
    """Gram matrix of the table columns under the stationary weight,
    compared against the closed-form diagonal 1/(C(N,m) eta_bar^m)."""
    W = weight_vector(params, space)
    G = tab.T @ (W[:, None] * tab)
    return gram_check(G, 1.0 / multinomial_vector(space, 1.0, spec.eta_bar))


def dual_gram(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> GramCheck:
    """Gram matrix of the table rows (dual polynomials Q_x) under the dual
    multinomial weight, against the closed form (eta0_dual)^N / W(eta; x)."""
    Wd = multinomial_vector(space, spec.eta_dual[0], spec.eta_dual[1:])
    G = tab @ (Wd[:, None] * tab.T)
    W = weight_vector(params, space)
    return gram_check(G, spec.eta_dual[0] ** space.N / W)


def orthonormal_map(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> np.ndarray:
    """T[x, m] = sqrt(W(x)) P_m(x) sqrt(C(N,m) eta_bar^m); orthogonal both ways."""
    W = weight_vector(params, space)
    norms = multinomial_vector(space, 1.0, spec.eta_bar)
    return np.sqrt(W)[:, None] * tab * np.sqrt(norms)[None, :]


def degree_structure_residuals(space: StateSpace, tab: np.ndarray) -> np.ndarray:
    """Least-squares defect of fitting each column by monomials x^alpha of
    total degree at most |m|; near zero iff the column is a polynomial of
    the right degree."""
    import scipy.linalg

    coords = space.coords.astype(float)
    monomials = np.prod(coords[:, None, :] ** coords[None, :, :], axis=2)
    out = np.empty(space.size)
    for mr in range(space.size):
        k = int(np.searchsorted(space.degrees, space.degrees[mr], side="right"))
        basis = monomials[:, :k]
        col = tab[:, mr]
        fit, *_ = scipy.linalg.lstsq(basis, col, lapack_driver="gelsy")
        out[mr] = np.linalg.norm(basis @ fit - col) / max(1.0, np.linalg.norm(col))
    return out


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
