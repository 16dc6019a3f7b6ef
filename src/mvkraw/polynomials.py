"""Eigenpolynomial evaluation and the orthogonality apparatus.

P_m(x) is the normalized coefficient of a product of linear forms:

    C(N, m) P_m(x) = coefficient of t0^{m0} t^m in prod_{i=0}^{n} (a_i . t)^{x_i},

with x0 = N - |x|, m0 = N - |m| and `a` the bordered coupling matrix (first
row and column of ones, block 1 - u).  `table` builds the whole table at
once from T = Sym^N(R) (`sympower.coefficient_power`), the orthonormal map,
with R = diag sqrt(eta0, eta) a diag sqrt(1, eta_bar) orthogonal, and reads
P = T / sqrt(W(x) C(N,m) eta_bar^m) off it in log space (`_to_P`, the one
reading of P off T, also for the oracle tables; `rational.verify_recurrence`
reads P up to one positive constant by the same `_rescale`).

Two independent routes stay as oracles.  `eval_P` sums the truncated
hypergeometric series over n x n nonnegative-integer matrices c,

    P_m(x) = sum_c  prod_i (-x_i)_{row_i(c)} prod_j (-m_j)_{col_j(c)}
                    / (-N)_{|c|} * prod_ij u_ij^{c_ij} / c_ij!,

enumerated depth-first with exact budget pruning (the shifted factorials
vanish once a row sum exceeds x_i or a column sum exceeds m_j).  The other
is the generating function of R in the orthonormal basis (`_oracle_rows`):
row x of T holds the coefficients of prod_i (R_i . t)^{x_i}, taken degree by
degree over all n+1 slots by the Euler-averaged recursion, on the rows
below x alone.  It powers R as a whole and shares none of `sympower`'s
plane factors.  Each row is averaged over its parents with weights whose
squares sum to 1, so rounding only adds up: the rows agree with the kernel
to 2.2e-16 at (1,120) and 1.9e-15 at (2,60), where the single-parent
product of `sympower.coefficient_row` was off by 0.76 and 1.4e-9.
`_oracle_check` compares it with the kernel's T: on a fixed sample of rows
in `table_checks` (`_oracle_sample`: the origin, the corners N e_j, the
centroid and three fixed ranks), on every row for `table --level full`.
`eval_P_via_generating_function` (one x) and `table_via_generating_function`
(every x) read P off it.

The dual polynomials Q_x(m) are the same expression read as functions of m:
Q_x(m) = eval_P(spec, m, x, N).  The module also provides the orthonormal
map T of a table, the one check of orthogonality in both directions
(`orthonormality`, from T^T T and T T^T), the table checks of `verify`
(`table_checks`), and the classical single-variable evaluator used as the
n=1 oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, _point_key, simplex_size
from .model import (
    ModelParams, _check_space, _count_columns, _log_route_pmf, check_rate_tables,
)
from .report import Report
from .spectrum import SpectralData
from .sympower import _dense, _one_body, coefficient_power


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
    """Series oracle of `table`: test_table_matches_series_entrywise.

    One polynomial value P_m(x) by direct summation of the series.  `spec`
    is a SpectralData or a bare (n, n) u-matrix.  Always finite: the
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


def _rescale(tab: np.ndarray, R: np.ndarray, space: StateSpace, power: float,
             rows=slice(None), unit: bool = False):
    """tab[x, m] (W(x) C(N,m) eta_bar^m)^power as one exp of log
    multinomials (`model._log_route_pmf`), the cells read off the one-body
    matrix: R[:, 0]^2 = (eta0, eta) and (R[0] / R[0, 0])^2 = (1, eta_bar).
    The rows of `tab` are the x ranks `rows`, all by default.  With `unit`
    the largest exponent is subtracted first: the result is then off by one
    positive constant, and no factor exceeds 1."""
    N = space.N
    logW = power * np.add(*_log_route_pmf(N, _count_columns(space, rows), R[:, 0] ** 2))
    lognu = power * np.add(*_log_route_pmf(N, _count_columns(space), (R[0] / R[0, 0]) ** 2))
    if unit:
        logW -= logW.max()
        lognu -= lognu.max()
    out = np.add.outer(logW, lognu)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(out, out=out)
        return np.multiply(tab, out, out=out)


def _to_P(T: np.ndarray, spec, space: StateSpace, rows=slice(None)) -> np.ndarray:
    """P_m(x) = T[x, m] / sqrt(W(x) C(N,m) eta_bar^m) for the x ranks
    `rows` of T, the cells read off `spec.R`: the one place P is read off
    the orthonormal scale.  CapExceeded when some P lies outside the
    float64 range."""
    P = _rescale(T, spec.R, space, -0.5, rows)
    if not np.isfinite(P).all():
        raise CapExceeded("polynomial values exceed the float64 range")
    return P


def table(spec, space: StateSpace) -> np.ndarray:
    """Full polynomial table; rows are x ranks, columns are m ranks.

    `spec` is any object with the one-body matrix `.R` (SpectralData,
    rational.DualPair).  P is read off the orthonormal map T = Sym^N(R) as
    P_m(x) = T[x, m] / sqrt(W(x) C(N,m) eta_bar^m); CapExceeded when some
    P lies outside the float64 range.
    """
    return _to_P(coefficient_power(spec.R, space), spec, space)


# the most float64 values one group of gathered parent rows may hold in
# `_oracle_rows`: at 512 KB a group stays in cache through its product with R
# and its column gathers, 10-25% faster than groups of 16 MB at (1,600),
# (2,60), (3,20) and (3,29); the table checks take their size x size
# passes in blocks of as many values
_ORACLE_BLOCK = 1 << 16


def _oracle_rows(R, space: StateSpace, rows) -> np.ndarray:
    """Rows of T = Sym^N(R) for the x ranks `rows`, in that order, from
    the generating function of R, degree by degree over all n+1 slots.

    With y_0 = d - |y| and m_0 = d - |m|, Euler's identity for the
    coefficients of prod_s (R_s . t)^{y_s} gives, in the orthonormal basis,

        T_d[y, m] = (1/d) sum_{s,j} sqrt(y_s) R_sj sqrt(m_j) T_{d-1}[y - e_s, m - e_j]

    from T_0 = [[1]].  Layer d keeps only the rows below the requested
    ones (y <= x in every slot) and every column |m| <= d.  In rank order
    the degree-d lattice is a prefix of the N-lattice, so a parent through
    slot 0 has the same rank and one through slot s >= 1 is `space.down`.
    Each layer is a gather of the parent rows, one product with R over
    the slots s, and n+1 gathers of the parent columns, in groups of at
    most `_ORACLE_BLOCK` values.  ValidationError unless R is
    (n+1) x (n+1)."""
    R = _one_body(R, space)
    n, N = space.n, space.N
    rows = np.asarray(rows, dtype=np.intp)
    sizes = [simplex_size(n, d) for d in range(N + 1)]   # points of degree <= d
    down, degrees, coords = space.down, space.degrees, space.coords

    def parents(points, d):
        # degree d - 1 ranks of points - e_s, slot 0 first; -1 where slot s is empty
        return np.vstack((np.where(points < sizes[d - 1], points, -1), down[points].T))

    def roots(points, d):
        # sqrt of the occupations of the n+1 slots at degree d
        return np.sqrt(np.vstack((d - degrees[points], coords[points].T)))

    # the rows of each layer in rank order, top down: every parent of the
    # layer above; a last spare entry takes the marks of index -1
    mark = np.zeros(space.size, dtype=bool)
    mark[rows] = True
    kept = [np.flatnonzero(mark)]
    for d in range(N, 0, -1):
        mark = np.zeros(sizes[d - 1] + 1, dtype=bool)
        mark[parents(kept[-1], d)] = True
        kept.append(np.flatnonzero(mark[:-1]))
    kept.reverse()
    # every layer carries one zero row and one zero column last, which the
    # index -1 reads where a parent leaves the lattice
    layer = np.zeros((2, 2))
    layer[0, 0] = 1.0
    for d in range(1, N + 1):
        y, m = kept[d], np.arange(sizes[d])
        position = np.full(sizes[d - 1] + 1, -1)
        position[kept[d - 1]] = np.arange(len(kept[d - 1]))
        parent_rows, root_rows = position[parents(y, d)], roots(y, d) / d
        parent_cols, root_cols = parents(m, d), roots(m, d)
        out = np.zeros((len(y) + 1, len(m) + 1))
        step = max(1, _ORACLE_BLOCK // ((n + 1) * layer.shape[1]))
        for lo in range(0, len(y), step):
            block = slice(lo, min(lo + step, len(y)))
            gathered = np.take(layer, parent_rows[:, block], axis=0)
            gathered *= root_rows[:, block, None]
            # mixed[j] = sum_s R[s, j] gathered[s]
            mixed = (R.T @ gathered.reshape(n + 1, -1)).reshape(gathered.shape)
            acc = out[block, :-1]
            for j in range(n + 1):
                term = np.take(mixed[j], parent_cols[j], axis=1)
                term *= root_cols[j]
                acc += term
        layer = out
    return layer[np.searchsorted(kept[N], rows), :-1]


def _oracle_sample(space: StateSpace) -> np.ndarray:
    """The x ranks `verify --level full` checks against the generating
    function, sorted and each once: the origin, the corners N e_j, the
    centroid floor(N/(n+1)) (1,..,1), and the ranks floor(size/3),
    floor(2 size/3) and size - 1."""
    n, N, size = space.n, space.N, space.size
    corners = [tuple(N * (i == j) for i in range(n)) for j in range(n)]
    points = [(0,) * n, *corners, (N // (n + 1),) * n]
    return np.array(sorted({*map(space.rank, points), size // 3, 2 * size // 3, size - 1}))


def _oracle_check(spec, space: StateSpace, T: np.ndarray, report, tol: float,
                  sample: bool = False):
    """`generating-function-agreement` added to `report`: max |T - T_oracle|
    on the orthonormal scale, |T| <= 1, over every row of the kernel's T,
    or with `sample` over the rows of `_oracle_sample`, which the detail
    names.  Returns the oracle's rows and that difference."""
    rows = _oracle_sample(space) if sample else slice(None)
    oracle = _oracle_rows(spec.R, space, np.arange(space.size)[rows])
    diff = float(np.abs(T[rows] - oracle).max())
    detail = "orthonormal scale"
    if sample:
        detail += ", rows " + " ".join(
            "(" + ";".join(map(str, x)) + ")" for x in space.coords[rows].tolist())
    report.add("generating-function-agreement", diff, tol, detail=detail)
    return oracle, diff


def eval_P_via_generating_function(spec, x, space: StateSpace) -> np.ndarray:
    """Row oracle of `table`: test_single_point_generating_function.

    All P_m(x) for one x, via the generating function: row x of
    T = Sym^N(R) by `_oracle_rows`, P read off it as in `table`.  `spec`
    is any object with the one-body matrix `.R`."""
    rows = [space.rank(x)]
    return _to_P(_oracle_rows(spec.R, space, rows), spec, space, rows)[0]


def table_via_generating_function(spec, space: StateSpace) -> np.ndarray:
    """Generating-function oracle of `table`: test_oracle_equivalence_canonical.

    Independent full table: every row of T = Sym^N(R) by `_oracle_rows`,
    P read off it as in `table`.  Raises CapExceeded above DENSE_CAP
    points, before expanding any row."""
    rows = np.arange(_dense(space))
    return _to_P(_oracle_rows(spec.R, space, rows), spec, space)


def degree_eigenvalues(spec: SpectralData, space: StateSpace) -> np.ndarray:
    """E(m) = sum_j m_j lam_j for every m rank."""
    return space.coords @ spec.lam


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
    orthogonality and norms in both directions.  G = T^T T and then G' =
    T T^T are formed whole, one at a time, and each is reduced to its
    defects in place (`_gram_defects`): T, one Gram matrix and one block.
    """
    cols = _gram_defects(T.T @ T)
    rows = _gram_defects(T @ T.T)
    return Orthonormality(*cols[:2], *rows[:2], max(cols[2], rows[2]))


def _gram_defects(G: np.ndarray) -> tuple:
    """max |G_ij| / sqrt(G_ii G_jj) off the diagonal, max |G_ii - 1| and
    max |G - I| of a Gram matrix, computed in place in G: its diagonal is
    copied, |G| taken with the diagonal zeroed, which with the diagonal
    defect gives |G - I|, and then G divided by sqrt(G_ii G_jj), one block
    of `_ORACLE_BLOCK` values at a time.  Each entry takes the float
    operations of the whole-matrix expressions, so the defects are the
    same bits."""
    diagonal = G.diagonal().copy()
    d = np.sqrt(diagonal)
    norms = np.abs(diagonal - 1.0).max()
    np.abs(G, out=G)
    np.fill_diagonal(G, 0.0)
    identity = np.max((G.max(), norms))
    step = max(1, _ORACLE_BLOCK // len(G))
    for lo in range(0, len(G), step):
        G[lo:lo + step] /= np.outer(d[lo:lo + step], d)
    return float(G.max()), float(norms), float(identity)


def table_checks(spec: SpectralData, space: StateSpace, B: np.ndarray, D: np.ndarray,
                 tol: float = 1e-10) -> Report:
    """The table checks of `verify --level full`, beside
    `bdcore.verify_structure` and `spectrum.identity_checks`.

    Each reads T = Sym^N(R), where every |T| <= 1, and no P, which grows
    like C(N, m) and may leave float64: `generating-function-agreement`
    on `_oracle_sample`, then `eigen-equation`, H T - T diag(E) per unit
    of the largest total exit rate, H the symmetrized operator of the rate
    tables B, D, both held to `tol`, then the five `orthonormality`
    defects: the off-diagonal to `tol`, the norms to max(tol, 1e-8), the
    dual off-diagonal and the identity to max(tol, 1e-9).  ValidationError
    for rate tables `model.check_rate_tables` refuses.
    """
    from .bdcore import _symmetrized

    B, D = check_rate_tables(B, D, space)
    T = coefficient_power(spec.R, space)
    report = Report()
    _oracle_check(spec, space, T, report, tol, sample=True)
    scale = max(1.0, float((B.sum(axis=1) + D.sum(axis=1)).max()))
    H, E = _symmetrized(B, D, space), degree_eigenvalues(spec, space)
    # column by column, so one block of the size x size defect at a time
    step = max(1, _ORACLE_BLOCK // len(T))
    blocks = [slice(lo, lo + step) for lo in range(0, len(T), step)]
    defect = np.max([np.abs(H @ T[:, b] - T[:, b] * E[b]).max() for b in blocks])
    report.add("eigen-equation", defect / scale, tol)
    o = orthonormality(T)
    report.add("orthogonality-offdiagonal", o.offdiagonal, tol)
    report.add("norms-closed-form", o.diagonal, max(tol, 1e-8))
    report.add("dual-orthogonality-offdiagonal", o.dual_offdiagonal, max(tol, 1e-9))
    report.add("dual-norms-closed-form", o.dual_diagonal, max(tol, 1e-8))
    report.add("orthonormal-map", o.identity, max(tol, 1e-9))
    return report


def orthonormal_map(
    params: ModelParams, spec: SpectralData, space: StateSpace, tab: np.ndarray
) -> np.ndarray:
    """T[x, m] = sqrt(W(x)) P_m(x) sqrt(C(N,m) eta_bar^m); orthogonal both
    ways.  The inverse of the scaling in `table`, so sqrt(W) never
    underflows on its own."""
    _check_space(params, space)
    return _rescale(tab, spec.R, space, 0.5)


def kr_P(m: int, x: int, p: float, N: int) -> float:
    """Univariate oracle of `table`: test_n1_matches_classical.

    Classical single-variable evaluator: terminating Gauss sum
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
