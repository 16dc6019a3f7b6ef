"""Spectral data of the model: eigenvalues from the secular equation and the
derived system parameters.

The degree-one block of the difference operator has the n x n matrix
F[i, j] = p_j + q_i delta_ij.  Its eigenvalues are the roots of the secular
equation sum_i p_i/(lam - q_i) = 1, which is strictly decreasing between
consecutive poles, so each root is bracketed: one in every gap of the sorted
q and one in (q_max, q_max + sum p].  Each bracket is resolved by bisection
to machine width and polished by a few extended-precision Newton steps.

From the roots everything else follows: u[i, j] = lam_j/(lam_j - q_i), the
coefficient matrix a (first row and column of ones, block 1 - u), the norm
reciprocals eta_bar, and the dual probabilities eta_dual.

The numeric eigenbasis needs none of this: the N particles move
independently, so the eigenvectors of the symmetric operator H are the N-th
symmetric power (`sympower.coefficient_power`) of the eigenvectors of the
(n+1) x (n+1) symmetrized one-body generator.  It holds for every valid
model, coincident q included.  A dense eigendecomposition of H is the
reference the tests compare it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalParameters, NoConvergence, ValidationError
from .lattice import StateSpace
from .model import ModelParams
from .report import Report
from .sympower import coefficient_power

_LD = np.longdouble

MAX_BISECTIONS = 200
BRACKET_REL_WIDTH = 1e-14


def characteristic_matrix(p, q) -> np.ndarray:
    """F[i, j] = p_j + q_i delta_ij; det(lam I - F) = 0 is the secular equation."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.tile(p, (len(p), 1)) + np.diag(q)


def secular_function(lam: float, p, q) -> float:
    """sum_i p_i / (lam - q_i) - 1, compensated summation."""
    return math.fsum(pi / (lam - qi) for pi, qi in zip(p, q)) - 1.0


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues and system parameters derived from (p, q).

    lam is ascending; u[i, j] = lam_j/(lam_j - q_i) keeps q in caller order.
    eta_dual has n+1 entries with index 0 first.  secular_residuals holds
    the per-root defect of the secular equation at the refined root.
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
        perturbs it.  Its normalized N-th symmetric power
        (`sympower.coefficient_power(R, space, normalized=True)`) is the
        orthonormal map T."""
        left = np.sqrt(np.concatenate(([self.eta0], self.eta)))
        right = np.sqrt(np.concatenate(([1.0], self.eta_bar)))
        return left[:, None] * self.a * right[None, :]

    def degree_eigenvalue(self, m) -> float:
        """E(m) = sum_j m_j lam_j, the eigenvalue attached to degree vector m."""
        return float(np.dot(np.asarray(m, dtype=float), self.lam))


def _bracket_root(p: np.ndarray, q: np.ndarray, lo_pole: float, hi: float,
                  hi_is_pole: bool) -> float:
    """Bisection on the secular function inside one bracket, to machine width."""

    lo = np.nextafter(lo_pole, math.inf)
    hi_pt = np.nextafter(hi, -math.inf) if hi_is_pole else hi
    fhi = secular_function(hi_pt, p, q)
    if fhi == 0.0:
        return hi_pt
    if fhi > 0.0:
        # only possible for the unbounded-side bracket under heavy rounding
        for _ in range(60):
            hi_pt += float(np.sum(p)) + 1.0
            if secular_function(hi_pt, p, q) <= 0.0:
                break
        else:
            raise NoConvergence("could not bracket the largest eigenvalue")
    scale = max(abs(lo), abs(hi_pt), 1.0)
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi_pt)
        if mid == lo or mid == hi_pt:
            return 0.5 * (lo + hi_pt)
        if secular_function(mid, p, q) > 0.0:
            lo = mid
        else:
            hi_pt = mid
    if hi_pt - lo > BRACKET_REL_WIDTH * scale:
        raise NoConvergence(
            f"bracket ({lo_pole}, {hi}) failed to reduce below relative width "
            f"{BRACKET_REL_WIDTH}"
        )
    return 0.5 * (lo + hi_pt)


def _polish(lam: float, pL: np.ndarray, qL: np.ndarray, lo: float, hi: float):
    """A few Newton steps in extended precision, kept inside the bracket."""
    lamL = _LD(lam)
    for _ in range(4):
        d = lamL - qL
        if np.any(d == 0):
            break
        fv = np.sum(pL / d) - _LD(1)
        fp = -np.sum(pL / (d * d))
        if fp == 0:
            break
        cand = lamL - fv / fp
        if not (lo < float(cand) <= hi):
            break
        lamL = cand
    return lamL


def _derived(pL: np.ndarray, qL: np.ndarray, lamL: np.ndarray,
             uL: np.ndarray | None = None) -> SpectralData:
    n = len(pL)
    if uL is None:
        uL = lamL[None, :] / (lamL[None, :] - qL[:, None])
    ratio = pL / qL
    denom = _LD(1) + ratio.sum()
    etaL = ratio / denom
    eta0L = _LD(1) / denom
    moments = (etaL[:, None] * uL * uL).sum(axis=0) - _LD(1)
    if np.any(moments <= 0):
        raise NoConvergence("norm reciprocals came out nonpositive; spectrum unusable")
    ebarL = _LD(1) / moments
    ed0L = _LD(1) / (_LD(1) + ebarL.sum())
    aL = np.ones((n + 1, n + 1), dtype=_LD)
    aL[1:, 1:] = _LD(1) - uL
    residuals = np.array(
        [abs(float(np.sum(pL / (lamL[j] - qL)) - _LD(1))) for j in range(n)]
    )
    return SpectralData(
        p=pL.astype(float),
        q=qL.astype(float),
        lam=lamL.astype(float),
        u=uL.astype(float),
        a=aL.astype(float),
        eta0=float(eta0L),
        eta=etaL.astype(float),
        eta_bar=ebarL.astype(float),
        eta_dual=np.concatenate(([ed0L], ed0L * ebarL)).astype(float),
        secular_residuals=residuals,
    )


def solve_spectrum(params: ModelParams, band: float | None = None) -> SpectralData:
    """Solve the secular equation and assemble the spectral data.

    Raises ExceptionalParameters when some q's coincide within the
    detection band (default 1e-9 * max q): there the formula
    u = lam/(lam - q) degenerates and only numeric_eigenbasis applies.
    """
    if params.exceptional(band):
        details = {
            "q": params.q,
            "min_gap": params.coincidence_gap,
            "band": band if band is not None else 1e-9 * max(params.q),
        }
        if params.n == 2:
            qbar = 0.5 * (params.q[0] + params.q[1])
            details["reference_lambda"] = (qbar, params.p[0] + params.p[1] + qbar)
        raise ExceptionalParameters(
            "exceptional parameters: coincident death intensities "
            f"(min gap {details['min_gap']:.3g}); use the numeric eigenbasis",
            details,
        )

    p = np.asarray(params.p, dtype=float)
    q = np.asarray(params.q, dtype=float)
    order = np.argsort(q)
    ps, qs = p[order], q[order]
    psum = float(np.sum(p))

    pL_sorted = ps.astype(_LD)
    qL_sorted = qs.astype(_LD)
    roots = []
    for k in range(params.n):
        lo_pole = qs[k]
        hi = qs[k + 1] if k + 1 < params.n else qs[-1] + psum
        hi_is_pole = k + 1 < params.n
        lam = _bracket_root(ps, qs, lo_pole, hi, hi_is_pole)
        roots.append(_polish(lam, pL_sorted, qL_sorted, lo_pole, hi))
    lamL = np.array(roots, dtype=_LD)

    spec = _derived(p.astype(_LD), q.astype(_LD), lamL)
    _assert_interlacing(spec, qs, psum)
    return spec


def _assert_interlacing(spec: SpectralData, qs: np.ndarray, psum: float) -> None:
    lam = spec.lam
    ok = bool(np.all(qs < lam)) and bool(np.all(lam[:-1] < qs[1:]))
    ok = ok and lam[-1] <= qs[-1] + psum * (1 + 1e-12)
    if not ok:
        raise NoConvergence(f"interlacing violated: lam={lam}, sorted q={qs}")


def rational_case_n2(p1: float, p2: float, q: float) -> SpectralData:
    """Bivariate family with rational system parameters.

    With q1 = q and q2 = q + 2(p1 - p2) the eigenvalues are lam1 = q+p1-p2
    and lam2 = q+2*p1, and all four u entries are ratios of the inputs:
    u11 = lam1/(p1-p2), u12 = lam2/(2 p1), u21 = -lam1/(p1-p2),
    u22 = lam2/(2 p2).
    """
    for name, v in (("p1", p1), ("p2", p2), ("q", q)):
        if not (math.isfinite(v) and v > 0):
            raise ValidationError(f"{name} must be finite and positive")
    if p1 == p2:
        raise ExceptionalParameters(
            "p1 == p2 collapses the two death intensities; no rational spectrum",
            {"q": (q, q)},
        )
    q2 = q + 2.0 * (p1 - p2)
    if q2 <= 0:
        raise ValidationError(f"q + 2(p1 - p2) = {q2} must be positive")

    p1L, p2L, qL = _LD(p1), _LD(p2), _LD(q)
    lam1L = qL + p1L - p2L
    lam2L = qL + 2 * p1L
    if float(lam1L) <= 0:
        raise ValidationError("degree-one eigenvalue q + p1 - p2 must be positive")
    uL = np.array(
        [
            [lam1L / (p1L - p2L), lam2L / (2 * p1L)],
            [lam1L / (p2L - p1L), lam2L / (2 * p2L)],
        ],
        dtype=_LD,
    )
    pL = np.array([p1L, p2L], dtype=_LD)
    qvecL = np.array([qL, qL + 2 * (p1L - p2L)], dtype=_LD)
    lamL = np.array([lam1L, lam2L], dtype=_LD)
    return _derived(pL, qvecL, lamL, uL=uL)


def identity_checks(spec: SpectralData, tol: float = 1e-10) -> Report:
    """Scalar identities satisfied by exact spectral data, read off the
    defects E = R^T R - I and E' = R R^T - I of the orthogonal one-body
    matrix R (`SpectralData.R`), where every entry is O(1) however large
    |u| grows.

    Row 0 of E holds the weighted column sums sum_i eta_i u_ij - 1 (times
    -sqrt(eta_bar_j)) and its strict upper block the cross sums
    sum_i eta_i u_ij u_ik - 1 (times sqrt(eta_bar_j eta_bar_k)); the same
    entries of E' hold the dual sums over the dual probabilities.  The
    congruence a^T diag(eta0, eta) a = diag(1, 1/eta_bar) is E = 0, so it
    is judged as max(|E|, |E'|).
    """
    R = spec.R
    eye = np.eye(spec.n + 1)
    E = R.T @ R - eye
    Ed = R @ R.T - eye
    pairs = np.triu_indices(spec.n, 1)
    cross = np.abs(E[1:, 1:][pairs])
    dual_cross = np.abs(Ed[1:, 1:][pairs])
    vacuous = "vacuous for n=1" if spec.n == 1 else ""

    report = Report()
    report.add(
        "secular-residuals", float(np.max(spec.secular_residuals)), tol,
        detail="at the refined roots",
    )
    report.add("weighted-column-sums", float(np.abs(E[0, 1:]).max()), tol)
    report.add("weighted-column-cross-sums", float(cross.max(initial=0.0)), tol,
               detail=vacuous)
    report.add("dual-weighted-row-sums", float(np.abs(Ed[0, 1:]).max()), tol)
    report.add("dual-weighted-row-cross-sums", float(dual_cross.max(initial=0.0)),
               tol, detail=vacuous)
    report.add("congruence-diagonalization",
               max(float(np.abs(E).max()), float(np.abs(Ed).max())), tol)
    return report


@dataclass(frozen=True)
class EigenBasis:
    """Dense orthonormal eigenbasis of the symmetrized operator."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors, same order as eigenvalues
    degenerate: bool     # some eigenvalue gap < 1e-8 * norm: basis not unique


def numeric_eigenbasis(params: ModelParams, space: StateSpace) -> EigenBasis:
    """Full orthonormal eigenbasis of the symmetric operator H.

    One particle is symmetrized to h = [[sum p, -sqrt(p q)^T],
    [-sqrt(p q), diag(q)]] with eigenpairs (lam_k, V[:, k]); the N-particle
    eigenvector with mode occupations m (m_0 = N - |m|) is column m of the
    normalized symmetric power of V, with eigenvalue sum_k m_k lam_k.
    Columns are sorted by eigenvalue.  Works for any valid params,
    including the coincident-q regime where the closed-form construction
    fails.  The output is dense: CapExceeded above `sympower.DENSE_CAP`
    lattice points.
    """
    if space.n != params.n or space.N != params.N:
        raise ValidationError("state space does not match params")
    p = np.asarray(params.p, dtype=float)
    q = np.asarray(params.q, dtype=float)
    h = np.diag(np.concatenate(([p.sum()], q)))
    h[0, 1:] = h[1:, 0] = -np.sqrt(p * q)
    lam, V = np.linalg.eigh(h)

    occupations = np.column_stack((space.N - space.degrees, space.coords))
    evals = occupations @ lam
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = coefficient_power(V, space, normalized=True)[:, order]
    norm = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    gaps = np.diff(evals)
    degenerate = bool(len(gaps) and gaps.min() < 1e-8 * norm)
    return EigenBasis(evals, vecs, degenerate)
