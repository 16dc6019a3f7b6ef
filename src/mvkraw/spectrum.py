"""Spectral data of the model: eigenvalues from the secular equation and the
derived system parameters.

The degree-one block of the difference operator has the n x n matrix
F[i, j] = p_j + q_i delta_ij.  Its eigenvalues are the roots of the secular
equation sum_i p_i/(lam - q_i) = 1, which is strictly decreasing between
consecutive poles, so each root is bracketed: one in every gap of the sorted
q and one in (q_max, q_max + sum p].  Near coincident q every derived
quantity hangs on the pole distances lam_j - q_i, so each root is found as
its distance from the nearer pole of its bracket, by bisection to adjacent
floats (as LAPACK's dlaed4 iterates; Gu & Eisenstat, SIAM J. Matrix Anal.
Appl. 16, 1995).  That gives every distance to full relative precision in
float64.

From the distances everything else follows in closed form without
cancellation: u[i, j] = lam_j/(lam_j - q_i), the coefficient matrix a
(first row and column of ones, block 1 - u = -q_i/(lam_j - q_i)), the norm
reciprocals eta_bar, the dual probabilities eta_dual, and the orthogonal
one-body matrix R (`SpectralData.R`), whose N-th symmetric power is the
orthonormal map T that `polynomials.table` reads the polynomials off.

The numeric eigenbasis needs none of this: the N particles move
independently, so the eigenvectors of the symmetric operator H are the N-th
symmetric power of the eigenvectors of the (n+1) x (n+1) symmetrized
one-body generator.  It holds for every valid model, coincident q
included.  A dense eigendecomposition of H is the reference the tests
compare it with.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, ExceptionalParameters, NoConvergence, ValidationError
from .lattice import StateSpace
from .model import ModelParams, _check_space, _finite_sum
from .report import Report

# log2(width/root) + 53 halvings close a bracket to adjacent floats, and
# float64 (subnormals included) spans 1,024 + 1,074 binades
MAX_BISECTIONS = 1024 + 1074 + 53


def characteristic_matrix(p, q) -> np.ndarray:
    """Determinant oracle of `secular_function`: test_secular_vs_characteristic_determinant.

    F[i, j] = p_j + q_i delta_ij, and det(lam I - F) =
    -prod_i (lam - q_i) secular_function(lam), so its roots are the
    eigenvalues `solve_spectrum` finds."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.tile(p, (len(p), 1)) + np.diag(q)


def secular_function(lam: float, p, q) -> float:
    """sum_i p_i / (lam - q_i) - 1, compensated summation; CapExceeded where
    a term or the sum leaves float64."""
    return _finite_sum((pi / (lam - qi) for pi, qi in zip(p, q)), "secular term") - 1.0


class SpectralData(NamedTuple):
    """Eigenvalues and system parameters derived from (p, q).

    lam is ascending; u[i, j] = lam_j/(lam_j - q_i) keeps q in caller order.
    eta_dual has n+1 entries with index 0 first.  secular_residuals holds
    the per-root defect of the secular equation relative to its terms,
    |sum_i p_i/(lam_j - q_i) - 1| / sum_i |p_i/(lam_j - q_i)|: the relative
    error of the nearest pole distance, which u inherits.
    """

    p: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    a: np.ndarray
    eta0: float
    eta: np.ndarray
    eta_bar: np.ndarray
    eta_dual: np.ndarray
    secular_residuals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def u_magnitude(self) -> float:
        """max |u|; grows without bound as q's approach coincidence, so it
        doubles as a conditioning indicator for the closed-form route."""
        return float(np.abs(self.u).max())

    @property
    def R(self) -> np.ndarray:
        """The one-body matrix diag sqrt(eta0, eta) a diag sqrt(1, eta_bar),
        orthogonal for exact data; derived from `a`, so a perturbed `a`
        perturbs it.  Its N-th symmetric power in the orthonormal basis
        (`sympower.coefficient_power(R, space)`) is the orthonormal map T."""
        left = np.sqrt(np.concatenate(([self.eta0], self.eta)))
        right = np.sqrt(np.concatenate(([1.0], self.eta_bar)))
        return left[:, None] * self.a * right[None, :]


def _pole_root(p, q: np.ndarray, qs: list, j: int) -> tuple[float, float]:
    """Root j of the secular equation as (q_o, delta): the nearer pole of
    its bracket and the distance delta = lam_j - q_o.

    Root j lies between the sorted poles qs[j] and qs[j+1] (the last in
    (qs[-1], qs[-1] + sum p]).  The sign of the secular function at the
    bracket midpoint names the nearer pole; bisection then runs on delta in
    the function shifted to that pole, sum_i p_i/((q_o - q_i) + delta) - 1,
    whose pole term p_o/delta carries no cancellation, until delta's
    bracket is two adjacent floats.
    """
    if j + 1 < len(qs):
        half = 0.5 * (qs[j + 1] - qs[j])
        if secular_function(half, p, (q - qs[j]).tolist()) > 0.0:
            origin, lo, hi = qs[j + 1], -half, 0.0
        else:
            origin, lo, hi = qs[j], 0.0, half
    else:
        origin, lo, hi = qs[-1], 0.0, _finite_sum(p, "rate sum p_1 + ... + p_n")
    shifted = (q - origin).tolist()
    for _ in range(MAX_BISECTIONS):
        # halved first: in the last bracket lo + hi may pass float64
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            return origin, mid
        if secular_function(mid, p, shifted) > 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(
        f"root {j}: pole-distance bisection did not close in {MAX_BISECTIONS} steps"
    )


def _derived(p: np.ndarray, q: np.ndarray, lam: np.ndarray,
             gaps: np.ndarray) -> SpectralData:
    """Everything else from the pole distances gaps[i, j] = lam_j - q_i,
    by closed forms free of cancellation: 1 - u = -q/gaps, and
    1/eta_bar_j = sum_i eta_i u_ij^2 - 1 = eta0 lam_j sum_i p_i/gaps_ij^2.
    CapExceeded where one of them leaves float64: a value that is not
    finite, or a probability or norm ratio that underflows to 0."""
    n = len(p)
    with np.errstate(all="ignore"):
        terms = p[:, None] / gaps
        ratio = p / q
        eta0 = 1.0 / (1.0 + ratio.sum())
        eta_bar = 1.0 / (eta0 * lam * (terms / gaps).sum(axis=0))
        eta_dual0 = 1.0 / (1.0 + eta_bar.sum())
        a = np.ones((n + 1, n + 1))
        a[1:, 1:] = -q[:, None] / gaps
        spec = SpectralData(
            p=p,
            q=q,
            lam=lam,
            u=lam[None, :] / gaps,
            a=a,
            eta0=float(eta0),
            eta=eta0 * ratio,
            eta_bar=eta_bar,
            eta_dual=np.concatenate(([eta_dual0], eta_dual0 * eta_bar)),
            secular_residuals=np.abs(terms.sum(axis=0) - 1.0) / np.abs(terms).sum(axis=0),
        )
    positive = np.r_[spec.eta0, spec.eta, spec.eta_bar, spec.eta_dual]
    if not (all(np.isfinite(v).all() for v in spec) and positive.min() > 0):
        raise CapExceeded("spectral data outside the float64 range")
    return spec


def _perturbed(spec: SpectralData, eps: float) -> SpectralData:
    """Fault injection: u[0, 0] scaled by 1 + eps and only the matching
    entry a[1, 1] = 1 - u[0, 0] rebuilt, so R and every check read off it
    carry the defect."""
    u = spec.u.copy()
    u[0, 0] *= 1.0 + eps
    a = spec.a.copy()
    a[1, 1] = 1.0 - u[0, 0]
    return spec._replace(u=u, a=a)


def solve_spectrum(params: ModelParams) -> SpectralData:
    """Solve the secular equation and assemble the spectral data.

    Raises ExceptionalParameters when two q's are equal: there the formula
    u = lam/(lam - q) degenerates and only numeric_eigenbasis applies.
    Distinct q's, however close, are solved to full relative precision.
    CapExceeded where sum p, a secular term or a derived quantity leaves
    float64.
    """
    if params.exceptional():
        q = params.q
        i, j = next((i, j) for j in range(params.n) for i in range(j) if q[i] == q[j])
        raise ExceptionalParameters(
            "exceptional parameters: equal death intensities "
            f"q_{i + 1} = q_{j + 1} = {q[i]!r}; use the numeric eigenbasis"
        )

    p = np.asarray(params.p, dtype=float)
    q = np.asarray(params.q, dtype=float)
    qs = sorted(params.q)
    origin, delta = np.array(
        [_pole_root(params.p, q, qs, j) for j in range(params.n)]
    ).T
    gaps = (origin[None, :] - q[:, None]) + delta
    _assert_interlacing(gaps[np.argsort(q)], math.fsum(params.p))
    return _derived(p, q, origin + delta, gaps)


def _assert_interlacing(sorted_gaps: np.ndarray, psum: float) -> None:
    """Root j lies above the sorted poles 0..j and below the others, the
    last within sum p of the largest."""
    above = np.triu(np.ones(sorted_gaps.shape, dtype=bool))
    ok = bool(np.all(np.where(above, sorted_gaps > 0, sorted_gaps < 0)))
    if not (ok and sorted_gaps[-1, -1] <= psum * (1 + 1e-12)):
        raise NoConvergence(f"interlacing violated: lam - sorted q = {sorted_gaps}")


def rational_case_n2(p1: float, p2: float, q: float) -> SpectralData:
    """Exact-gap oracle of `solve_spectrum`: test_rational_case_matches_solver.

    A bivariate family with rational system parameters: with q1 = q and
    q2 = q + 2(p1 - p2) the eigenvalues are lam1 = q+p1-p2 and
    lam2 = q+2*p1, and the pole distances are differences of the inputs,
    lam_j - q_i = [[p1-p2, 2 p1], [p2-p1, 2 p2]], so u11 = lam1/(p1-p2),
    u12 = lam2/(2 p1), u21 = -lam1/(p1-p2), u22 = lam2/(2 p2).
    """
    for name, v in (("p1", p1), ("p2", p2), ("q", q)):
        if not (math.isfinite(v) and v > 0):
            raise ValidationError(f"{name} must be finite and positive")
    if p1 == p2:
        raise ExceptionalParameters(
            "p1 == p2 collapses the two death intensities; no rational spectrum")
    q2 = q + 2.0 * (p1 - p2)
    if q2 <= 0:
        raise ValidationError(f"q + 2(p1 - p2) = {q2} must be positive")
    lam = np.array([q + p1 - p2, q + 2.0 * p1])
    if lam[0] <= 0:
        raise ValidationError("degree-one eigenvalue q + p1 - p2 must be positive")
    gaps = np.array([[p1 - p2, 2.0 * p1], [p2 - p1, 2.0 * p2]])
    return _derived(np.array([p1, p2]), np.array([q, q2]), lam, gaps)


class _GramDefects(NamedTuple):
    """Largest |entry| of E = R^T R - I or E' = R R^T - I by part."""

    row0: float      # row 0 past the corner
    cross: float     # strict upper block below row 0
    diagonal: float  # diagonal below row 0
    whole: float


def _gram_defects(R: np.ndarray) -> tuple[_GramDefects, _GramDefects]:
    """E and E' of a one-body matrix R = diag sqrt(eta0, eta) a
    diag sqrt(1, eta_bar) with a[0] = a[:, 0] = 1 and a[1:, 1:] = 1 - u,
    where every entry is O(1) however large |u| grows.

    Row 0 of E is -sqrt(eta_bar_j) times the weighted column sums
    sum_i eta_i u_ij - 1, its strict upper block sqrt(eta_bar_j eta_bar_k)
    times the cross sums sum_i eta_i u_ij u_ik - 1, and its diagonal the
    relative error of eta_bar_j against the moment 1/(sum_i eta_i u_ij^2 - 1);
    E' holds the same sums over the dual probabilities, row by row.
    """
    eye = np.eye(len(R))
    upper = np.triu_indices(len(R) - 1, 1)
    return tuple(
        _GramDefects(
            row0=float(np.abs(E[0, 1:]).max()),
            cross=float(np.abs(E[1:, 1:][upper]).max(initial=0.0)),
            diagonal=float(np.abs(np.diag(E)[1:]).max()),
            whole=float(np.abs(E).max()),
        )
        for E in (R.T @ R - eye, R @ R.T - eye)
    )


def identity_checks(spec: SpectralData, tol: float = 1e-10) -> Report:
    """Scalar identities satisfied by exact spectral data, read off the
    defects E = R^T R - I and E' = R R^T - I of the orthogonal one-body
    matrix R (`SpectralData.R`, parts by `_gram_defects`): the weighted
    column (dual: row) sums and their cross sums.  The congruence
    a^T diag(eta0, eta) a = diag(1, 1/eta_bar) is E = 0, so it is judged
    as max(|E|, |E'|).
    """
    E, Ed = _gram_defects(spec.R)
    vacuous = "vacuous for n=1" if spec.n == 1 else ""

    report = Report()
    report.add(
        "secular-residuals", float(np.max(spec.secular_residuals)), tol,
        detail="relative to sum |p_i/(lam - q_i)|",
    )
    report.add("weighted-column-sums", E.row0, tol)
    report.add("weighted-column-cross-sums", E.cross, tol, detail=vacuous)
    report.add("dual-weighted-row-sums", Ed.row0, tol)
    report.add("dual-weighted-row-cross-sums", Ed.cross, tol, detail=vacuous)
    report.add("congruence-diagonalization", max(E.whole, Ed.whole), tol)
    return report


class EigenBasis(NamedTuple):
    """Dense orthonormal eigenbasis of the symmetrized operator."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors, same order as eigenvalues
    degenerate: bool     # some eigenvalue gap < 1e-8 * norm: basis not unique


def numeric_eigenbasis(params: ModelParams, space: StateSpace) -> EigenBasis:
    """Full orthonormal eigenbasis of the symmetric operator H.

    One particle is symmetrized to h = [[sum p, -sqrt(p q)^T],
    [-sqrt(p q), diag(q)]] with eigenpairs (lam_k, V[:, k]); the N-particle
    eigenvector with mode occupations m (m_0 = N - |m|) is column m of the
    symmetric power of V, with eigenvalue sum_k m_k lam_k.
    Columns are sorted by eigenvalue.  Works for any valid params,
    including the coincident-q regime where the closed-form construction
    fails.  The output is dense: CapExceeded above `sympower.DENSE_CAP`
    lattice points.
    """
    from .sympower import coefficient_power  # kept out of `verify --level fast`

    _check_space(params, space)
    p = np.asarray(params.p, dtype=float)
    q = np.asarray(params.q, dtype=float)
    h = np.diag(np.concatenate(([p.sum()], q)))
    h[0, 1:] = h[1:, 0] = -np.sqrt(p * q)
    lam, V = np.linalg.eigh(h)

    occupations = np.column_stack((space.N - space.degrees, space.coords))
    evals = occupations @ lam
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = coefficient_power(V, space, order)
    norm = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    gaps = np.diff(evals)
    degenerate = bool(len(gaps) and gaps.min() < 1e-8 * norm)
    return EigenBasis(evals, vecs, degenerate)
