"""Generic multidimensional birth-death framework on the truncated lattice.

A rate field assigns a birth rate B_j(x) to the move x -> x + e_j and a
death rate D_j(x) to x -> x - e_j.  Every function here takes the field as
two tables B and D of shape (size, n), row r holding the rates at the
lattice point of rank r (`model.rate_tables` builds the model's), and
assembles from them, as sparse matrices over the state space:

* the generator L of the continuous-time chain (columns sum to zero),
* the symmetrized operator H = -W^{-1/2} L W^{1/2}, whose entries only need
  sqrt(B*D) products and which is symmetric positive semidefinite (PSD),
* the polynomial-side difference operator Ht = W^{-1/2} H W^{1/2}, which
  annihilates constants,
* the ladder factors A_j with H = sum_j A_j^T A_j and A_j sqrt(W) = 0,
  which make H PSD: `verify_structure` certifies it from the residual of
  this factorization, with no eigensolver, so nothing here is dense.

It also derives the stationary weight W from the two-term relation
W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j), one degree layer at a time (checking
path-independence), verifies the pairwise compatibility condition that
makes that relation consistent, and bundles all structural identities into
one report.  Tables entering those three are validated by
`check_rate_tables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .lattice import StateSpace
from .report import Report

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_IDENTITY_TOL = 1e-10


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
    bad_up = (space.up < 0) & (B != 0)
    if bad_up.any():
        i, j = np.argwhere(bad_up)[0]
        raise ValidationError(
            f"birth rate must vanish at the ceiling: direction {j} at {space.points[i]}"
        )
    bad_down = (space.down < 0) & (D != 0)
    if bad_down.any():
        i, j = np.argwhere(bad_down)[0]
        raise ValidationError(
            f"death rate must vanish at zero population: direction {j} at {space.points[i]}"
        )
    return B, D


def _csr(size: int, pieces) -> sp.csr_matrix:
    """(size, size) CSR matrix from COO pieces (rows, cols, vals), taken in
    order; duplicate entries are summed."""
    import scipy.sparse as sp

    rows, cols, vals = (np.concatenate(part) for part in zip(*pieces))
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def generator_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace) -> sp.csr_matrix:
    """Generator L: L[x, x-e_j] = B_j(x-e_j), L[x, x+e_j] = D_j(x+e_j),
    diagonal -(sum_j B_j + D_j)."""
    size, n = B.shape
    diag = np.arange(size)
    pieces = [(diag, diag, -(B.sum(axis=1) + D.sum(axis=1)))]
    for j in range(n):
        # column x contributes B_j(x) at row x+e_j and D reciprocally
        src = np.nonzero(space.up[:, j] >= 0)[0]
        pieces.append((space.up[src, j], src, B[src, j]))
        src = np.nonzero(space.down[:, j] >= 0)[0]
        pieces.append((space.down[src, j], src, D[src, j]))
    return _csr(size, pieces)


def symmetrized_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace) -> sp.csr_matrix:
    """Symmetric operator H with diagonal sum_j(B_j + D_j)(x) and
    off-diagonal -sqrt(B_j(x) D_j(x+e_j)) placed symmetrically."""
    size, n = B.shape
    diag = np.arange(size)
    pieces = [(diag, diag, B.sum(axis=1) + D.sum(axis=1))]
    for j in range(n):
        src = np.nonzero(space.up[:, j] >= 0)[0]
        tgt = space.up[src, j]
        coup = -np.sqrt(B[src, j] * D[tgt, j])
        pieces += [(src, tgt, coup), (tgt, src, coup)]
    return _csr(size, pieces)


def difference_operator_from_tables(
    B: np.ndarray, D: np.ndarray, space: StateSpace
) -> sp.csr_matrix:
    """Difference operator Ht acting on functions f of the lattice point:
    (Ht f)(x) = sum_j B_j(x)(f(x) - f(x+e_j)) + D_j(x)(f(x) - f(x-e_j))."""
    size, n = B.shape
    diag = np.arange(size)
    pieces = [(diag, diag, B.sum(axis=1) + D.sum(axis=1))]
    for j in range(n):
        src = np.nonzero(space.up[:, j] >= 0)[0]
        pieces.append((src, space.up[src, j], -B[src, j]))
        src = np.nonzero(space.down[:, j] >= 0)[0]
        pieces.append((src, space.down[src, j], -D[src, j]))
    return _csr(size, pieces)


def ladder_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace, j: int) -> sp.csr_matrix:
    """Ladder factor A_j: (A_j f)(x) = sqrt(B_j(x)) f(x) - sqrt(D_j(x+e_j)) f(x+e_j)."""
    if not 0 <= j < space.n:
        raise ValidationError(f"direction {j} out of range for n={space.n}")
    size = B.shape[0]
    diag = np.arange(size)
    src = np.nonzero(space.up[:, j] >= 0)[0]
    tgt = space.up[src, j]
    return _csr(size, [(diag, diag, np.sqrt(B[:, j])), (src, tgt, -np.sqrt(D[tgt, j]))])


def stationary_weight_generic(
    B: np.ndarray, D: np.ndarray, space: StateSpace, tol: float = 1e-10
) -> np.ndarray:
    """Stationary weight from the two-term relation, normalized to sum 1."""
    W = np.exp(_log_weight(B, D, space, tol))
    return W / W.sum()


def _log_weight(B: np.ndarray, D: np.ndarray, space: StateSpace,
                tol: float = 1e-10) -> np.ndarray:
    """log W from the two-term relation, shifted to maximum 0.

    It is propagated from the origin one degree layer at a time (the parents
    of a layer lie in the one before), so it neither under- nor overflows.
    Every alternative parent direction is checked against the first, so
    agreement here is exactly path-independence of the two-term relation;
    the first bad (point, direction) in rank order is reported.
    """
    B, D = check_rate_tables(B, D, space)
    # math.log once per distinct rate: numpy's log differs from it in the
    # last bit on about 0.1% of inputs, and W equals a point-by-point walk
    values, where = np.unique(np.stack((B, D)), return_inverse=True)
    logs = np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])
    logB, logD = logs[where.reshape(2, *B.shape)]
    dirs = np.arange(space.n)
    bounds = np.searchsorted(space.degrees, np.arange(space.N + 2))
    logw = np.zeros(space.size)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        occupied = space.down[lo:hi] >= 0
        parent = np.where(occupied, space.down[lo:hi], 0)
        with np.errstate(invalid="ignore"):
            candidate = logw[parent] + logB[parent, dirs] - logD[lo:hi]
            value = candidate[np.arange(hi - lo), occupied.argmax(axis=1)]
            split = np.abs(candidate - value[:, None]) > tol
        undefined = D[lo:hi] <= 0.0
        unreachable = B[parent, dirs] <= 0.0
        bad = occupied & (undefined | unreachable | split)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            pt = space.points[lo + i]
            if undefined[i, j]:
                raise ValidationError(
                    f"death rate vanishes entering {pt} along direction {j}: "
                    "two-term weight undefined"
                )
            if unreachable[i, j]:
                raise ValidationError(
                    f"state {pt} unreachable: birth rate vanishes at "
                    f"{space.points[parent[i, j]]} in direction {j}"
                )
            raise ValidationError(
                f"two-term relation is path-dependent at {pt}: "
                f"log-weight {candidate[i, j]:.12g} vs {value[i]:.12g}; "
                "rate field fails the compatibility condition"
            )
        logw[lo:hi] = value
    return logw - logw.max()


@dataclass(frozen=True)
class CompatibilityResult:
    passed: bool
    worst_residual: float
    witness: tuple | None
    pairs_checked: int
    pairs_skipped: int


def check_compatibility(
    B: np.ndarray, D: np.ndarray, space: StateSpace, tol: float = 1e-10
) -> CompatibilityResult:
    """Check the pairwise ratio condition that makes the two-term weight
    consistent: around every elementary plaquette (x, x+e_j, x+e_k,
    x+e_j+e_k) the products of birth/death ratios along the two paths must
    agree.  Ratios with a vanishing death denominator are skipped; a
    non-finite rate is an error (raised by `check_rate_tables`).
    """
    B, D = check_rate_tables(B, D, space)
    # plaquettes as a (corner, pair) array, corners x with |x| <= N - 2 in
    # rank order and pairs j < k in lexicographic order
    j, k = np.triu_indices(space.n, 1)
    x = np.nonzero(space.degrees <= space.N - 2)[0][:, None]
    xj, xk = space.up[x, j], space.up[x, k]
    xjk = space.up[xj, k]
    d1, d2, d3, d4 = D[xj, j], D[xjk, k], D[xk, k], D[xjk, j]
    skip = (d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0) | (d4 == 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lhs = (B[x, j] / d1) * (B[xj, k] / d2)
        rhs = (B[x, k] / d3) * (B[xk, j] / d4)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        residual = np.abs(lhs - rhs) / scale
    # a skipped plaquette or a NaN residual (inf/inf) never sets the worst
    residual = np.where(skip | np.isnan(residual), 0.0, residual).ravel()
    worst = float(residual.max(initial=0.0))
    witness = None
    if worst > 0.0:
        corner, pair = divmod(int(residual.argmax()), len(j))
        witness = (tuple(space.coords[x[corner, 0]].tolist()), int(j[pair]), int(k[pair]))
    skipped = int(skip.sum())
    return CompatibilityResult(worst <= tol, worst, witness, skip.size - skipped, skipped)


def _conjugate(A: sp.csr_matrix, logw: np.ndarray) -> sp.csr_matrix:
    """W^{-1/2} A W^{1/2} on the nonzeros of the CSR matrix A, each times
    exp((log W[col] - log W[row]) / 2), finite where W underflows."""
    out = A.copy()
    out.data *= np.exp(0.5 * (logw[A.indices] - np.repeat(logw, np.diff(A.indptr))))
    return out


def verify_structure(
    B: np.ndarray,
    D: np.ndarray,
    space: StateSpace,
    W: np.ndarray | None = None,
    tol: float = DEFAULT_IDENTITY_TOL,
) -> Report:
    """Verify the structural identities tying L, H, Ht, A_j and W together.

    Residuals are scaled by the largest total exit rate so tolerances stay
    meaningful across rate magnitudes.  Since sum_j A_j^T A_j is PSD, Weyl
    gives lambda_min(H) >= -||E||_2 >= -sqrt(||E||_1 ||E||_inf) for
    E = H - sum_j A_j^T A_j; the PSD check reports that bound over
    max_x H_xx <= ||H||_2, so never less than max(0, -lambda_min)/||H||_2.
    """
    B, D = check_rate_tables(B, D, space)
    if W is None:
        logw = _log_weight(B, D, space)
        W = np.exp(logw) / np.exp(logw).sum()
    else:
        logw = np.log(W)
    L = generator_from_tables(B, D, space)
    H = symmetrized_from_tables(B, D, space)
    Ht = difference_operator_from_tables(B, D, space)
    ladders = [ladder_from_tables(B, D, space, j) for j in range(space.n)]

    scale = max(1.0, float((B.sum(axis=1) + D.sum(axis=1)).max()))
    sqw = np.sqrt(W)
    report = Report()

    colsums = np.asarray(L.sum(axis=0)).ravel()
    report.add("generator-column-sums", np.abs(colsums).max() / scale, tol)

    report.add("generator-annihilates-weight", np.abs(L @ W).max() / scale, tol)

    sym_gap = abs(H - H.T).max()
    report.add("symmetrized-is-symmetric", sym_gap / scale, tol)

    conj = -_conjugate(L, logw)
    report.add("symmetrized-similarity", abs(H - conj).max() / scale, tol)

    gap = abs(H - sum(A.T @ A for A in ladders))
    report.add("ladder-factorization", gap.max() / scale, tol)

    worst_ladder = max(np.abs(A @ sqw).max() for A in ladders)
    report.add("ladder-annihilates-sqrt-weight", worst_ladder / math.sqrt(scale), tol)

    conj2 = _conjugate(H, logw)
    report.add("difference-op-similarity", abs(Ht - conj2).max() / scale, tol)

    ones = np.ones(space.size)
    report.add("difference-op-annihilates-constants", np.abs(Ht @ ones).max() / scale, tol)

    report.add("symmetrized-annihilates-sqrt-weight", np.abs(H @ sqw).max() / scale, tol)

    bound = math.sqrt(gap.sum(axis=0).max() * gap.sum(axis=1).max())
    hmax = max(float(H.diagonal().max()), 1e-300)
    report.add("symmetrized-positive-semidefinite", bound / hmax, tol)

    return report
