"""Generic multidimensional birth-death framework on the truncated lattice.

A rate field assigns a birth rate B_j(x) to the move x -> x + e_j and a
death rate D_j(x) to x -> x - e_j.  Every function here takes the field as
two tables B and D of shape (size, n), row r holding the rates at the
lattice point of rank r (`model.rate_tables` builds the model's), and
assembles from them, as sparse matrices over the state space:

* the generator L of the continuous-time chain (columns sum to zero),
* the symmetrized operator H = -W^{-1/2} L W^{1/2}, whose entries only need
  sqrt(B*D) products and which is symmetric positive semidefinite,
* the polynomial-side difference operator Ht = W^{-1/2} H W^{1/2}, which
  annihilates constants,
* the ladder factors A_j with H = sum_j A_j^T A_j and A_j sqrt(W) = 0.

It also derives the stationary weight W from the two-term relation
W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j) (checking path-independence), verifies the
pairwise compatibility condition that makes that relation consistent, and
bundles all structural identities into one report.  Tables entering those
three are validated by `check_rate_tables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace
from .report import Report

DEFAULT_IDENTITY_TOL = 1e-10
DENSE_CAP = 5000


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


def generator_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace) -> sp.csr_matrix:
    """Generator L: L[x, x-e_j] = B_j(x-e_j), L[x, x+e_j] = D_j(x+e_j),
    diagonal -(sum_j B_j + D_j)."""
    size, n = B.shape
    rows, cols, vals = [], [], []
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend((-(B.sum(axis=1) + D.sum(axis=1))).tolist())
    for j in range(n):
        has_up = space.up[:, j] >= 0
        src = np.nonzero(has_up)[0]
        # column x contributes B_j(x) at row x+e_j and D reciprocally
        rows.extend(space.up[src, j].tolist())
        cols.extend(src.tolist())
        vals.extend(B[src, j].tolist())
        has_down = space.down[:, j] >= 0
        src = np.nonzero(has_down)[0]
        rows.extend(space.down[src, j].tolist())
        cols.extend(src.tolist())
        vals.extend(D[src, j].tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def symmetrized_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace) -> sp.csr_matrix:
    """Symmetric operator H with diagonal sum_j(B_j + D_j)(x) and
    off-diagonal -sqrt(B_j(x) D_j(x+e_j)) placed symmetrically."""
    size, n = B.shape
    rows, cols, vals = [], [], []
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend((B.sum(axis=1) + D.sum(axis=1)).tolist())
    for j in range(n):
        src = np.nonzero(space.up[:, j] >= 0)[0]
        tgt = space.up[src, j]
        coup = -np.sqrt(B[src, j] * D[tgt, j])
        rows.extend(src.tolist())
        cols.extend(tgt.tolist())
        vals.extend(coup.tolist())
        rows.extend(tgt.tolist())
        cols.extend(src.tolist())
        vals.extend(coup.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def difference_operator_from_tables(
    B: np.ndarray, D: np.ndarray, space: StateSpace
) -> sp.csr_matrix:
    """Difference operator Ht acting on functions f of the lattice point:
    (Ht f)(x) = sum_j B_j(x)(f(x) - f(x+e_j)) + D_j(x)(f(x) - f(x-e_j))."""
    size, n = B.shape
    rows, cols, vals = [], [], []
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend((B.sum(axis=1) + D.sum(axis=1)).tolist())
    for j in range(n):
        src = np.nonzero(space.up[:, j] >= 0)[0]
        rows.extend(src.tolist())
        cols.extend(space.up[src, j].tolist())
        vals.extend((-B[src, j]).tolist())
        src = np.nonzero(space.down[:, j] >= 0)[0]
        rows.extend(src.tolist())
        cols.extend(space.down[src, j].tolist())
        vals.extend((-D[src, j]).tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def ladder_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace, j: int) -> sp.csr_matrix:
    """Ladder factor A_j: (A_j f)(x) = sqrt(B_j(x)) f(x) - sqrt(D_j(x+e_j)) f(x+e_j)."""
    if not 0 <= j < space.n:
        raise ValidationError(f"direction {j} out of range for n={space.n}")
    size = B.shape[0]
    rows, cols, vals = [], [], []
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(np.sqrt(B[:, j]).tolist())
    src = np.nonzero(space.up[:, j] >= 0)[0]
    tgt = space.up[src, j]
    rows.extend(src.tolist())
    cols.extend(tgt.tolist())
    vals.extend((-np.sqrt(D[tgt, j])).tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def stationary_weight_generic(
    B: np.ndarray, D: np.ndarray, space: StateSpace, tol: float = 1e-10
) -> np.ndarray:
    """Stationary weight from the two-term relation, normalized to sum 1.

    W is propagated from the origin in rank order (each point's parents
    precede it), accumulating in log space to avoid overflow.  Every
    alternative parent direction is checked, so agreement here is exactly
    path-independence of the two-term relation.
    """
    B, D = check_rate_tables(B, D, space)
    size = space.size
    logw = np.empty(size)
    logw[0] = 0.0
    for i in range(1, size):
        pt = space.points[i]
        value = None
        for j in range(space.n):
            if pt[j] == 0:
                continue
            parent = space.down[i, j]
            b, d = B[parent, j], D[i, j]
            if d <= 0.0:
                raise ValidationError(
                    f"death rate vanishes entering {pt} along direction {j}: "
                    "two-term weight undefined"
                )
            if b <= 0.0:
                raise ValidationError(
                    f"state {pt} unreachable: birth rate vanishes at "
                    f"{space.points[parent]} in direction {j}"
                )
            candidate = logw[parent] + math.log(b) - math.log(d)
            if value is None:
                value = candidate
            elif abs(candidate - value) > tol:
                raise ValidationError(
                    f"two-term relation is path-dependent at {pt}: "
                    f"log-weight {candidate:.12g} vs {value:.12g}; "
                    "rate field fails the compatibility condition"
                )
        logw[i] = value
    logw -= logw.max()
    W = np.exp(logw)
    return W / W.sum()


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
    worst = 0.0
    witness = None
    checked = 0
    skipped = 0
    for i in range(space.size):
        for j in range(space.n):
            xj = space.up[i, j]
            if xj < 0:
                continue
            for k in range(j + 1, space.n):
                xk = space.up[i, k]
                if xk < 0:
                    continue
                xjk = space.up[xj, k]
                if xjk < 0:
                    continue
                d1, d2 = D[xj, j], D[xjk, k]
                d3, d4 = D[xk, k], D[xjk, j]
                if d1 == 0.0 or d2 == 0.0 or d3 == 0.0 or d4 == 0.0:
                    skipped += 1
                    continue
                lhs = (B[i, j] / d1) * (B[xj, k] / d2)
                rhs = (B[i, k] / d3) * (B[xk, j] / d4)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                residual = abs(lhs - rhs) / scale
                checked += 1
                if residual > worst:
                    worst = residual
                    witness = (space.points[i], j, k)
    return CompatibilityResult(worst <= tol, worst, witness, checked, skipped)


def verify_structure(
    B: np.ndarray,
    D: np.ndarray,
    space: StateSpace,
    W: np.ndarray | None = None,
    tol: float = DEFAULT_IDENTITY_TOL,
    psd: bool = True,
    dense_cap: int = DENSE_CAP,
) -> Report:
    """Verify the structural identities tying L, H, Ht, A_j and W together.

    Residuals are scaled by the largest total exit rate so tolerances stay
    meaningful across rate magnitudes.  The positive-semidefiniteness check
    uses a dense eigendecomposition and is capped at `dense_cap` points.
    """
    B, D = check_rate_tables(B, D, space)
    if W is None:
        W = stationary_weight_generic(B, D, space)
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

    conj = -sp.diags(1.0 / sqw) @ L @ sp.diags(sqw)
    report.add("symmetrized-similarity", abs(H - conj).max() / scale, tol)

    fact = sum(A.T @ A for A in ladders)
    report.add("ladder-factorization", abs(H - fact).max() / scale, tol)

    worst_ladder = max(np.abs(A @ sqw).max() for A in ladders)
    report.add("ladder-annihilates-sqrt-weight", worst_ladder / math.sqrt(scale), tol)

    conj2 = sp.diags(1.0 / sqw) @ H @ sp.diags(sqw)
    report.add("difference-op-similarity", abs(Ht - conj2).max() / scale, tol)

    ones = np.ones(space.size)
    report.add("difference-op-annihilates-constants", np.abs(Ht @ ones).max() / scale, tol)

    report.add("symmetrized-annihilates-sqrt-weight", np.abs(H @ sqw).max() / scale, tol)

    if psd:
        if space.size > dense_cap:
            raise CapExceeded(
                f"dense eigendecomposition needs {space.size} <= cap {dense_cap}"
            )
        evals = scipy.linalg.eigh(H.toarray(), eigvals_only=True)
        norm = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        report.add("symmetrized-positive-semidefinite", max(0.0, -evals[0]) / norm, tol)

    return report
