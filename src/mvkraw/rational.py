"""Fully rational two-dimensional family with an explicit dual system.

Four positive numbers (p1, p2, p3, p4) with p1*p4 != p2*p3 pick out a
two-dimensional instance whose spectral data is rational in the inputs:
no secular equation needs solving, and the dual process is again of
birth-death type with explicit (generally signed) dual rates.  Because the
dual rates carry mixed signs the dual generator is not a stochastic
generator; all operator identities still hold and are checked here, but
the simulator refuses such rates by construction.

Every derived quantity is computed twice: once from the defining relations
and once from independent rational closed forms.  The defining-relation
route is the generic spectral one, `spectrum._derived` on the dual rates
and their pole gaps, and the weighted sums and moments are entries of the
orthogonality defects of the pair's one-body matrix `DualPair.R`.  The two
routes are required to agree and the residuals are recorded.  The closed
forms for three of the four coupling coefficients circulate in print with
the wrong denominator (the first rate in place of the matching one), so
the defining relations are treated as authoritative and a discrepancy note
is attached to the derived system; see ``DualPair.note``.

The table of the pair is read off T = Sym^N(DualPair.R), as for every
model (`polynomials.table`).  `verify_recurrence` powers R once: the
recurrence checks read P, up to one positive constant, off that T, the
orthogonality checks read T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdcore import _difference
from .errors import CapExceeded, SingularParameters, ValidationError
from .lattice import StateSpace
from .model import _finite_sum, linear_rate_tables
from .polynomials import _rescale, orthonormality
from .report import Report
from .spectrum import _derived, _gram_defects
from .sympower import coefficient_power

SINGULAR_REL_TOL = 1e-12
CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class RationalParams:
    """The four positive rates of the rational family."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        vals = (self.p1, self.p2, self.p3, self.p4)
        for name, v in zip(("p1", "p2", "p3", "p4"), vals):
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        # the surface test below needs a finite Delta, and the closed forms,
        # taken on the rates scaled to a sum S in [1, 2) (derive_dual_pair),
        # divide by products of two rates and by Delta^2, which is above
        # (SINGULAR_REL_TOL min(p)/(4 S))^2 off the surface: none is 0 where
        # (SINGULAR_REL_TOL min(p)/S)^2 is normal
        small = SINGULAR_REL_TOL * min(vals) / self.total
        if not (math.isfinite(self.discriminant) and small * small >= np.finfo(float).tiny):
            raise CapExceeded("rates outside the float64 range of the closed forms")
        if abs(self.discriminant) <= SINGULAR_REL_TOL * (
            self.p1 * self.p4 + self.p2 * self.p3
        ):
            raise SingularParameters(
                "p1*p4 == p2*p3: the dual system is undefined on this surface"
            )

    @property
    def total(self) -> float:
        return _finite_sum((self.p1, self.p2, self.p3, self.p4), "rate sum p1 + ... + p4")

    @property
    def discriminant(self) -> float:
        return self.p1 * self.p4 - self.p2 * self.p3


@dataclass(frozen=True)
class DualPair:
    """A rational instance together with its explicit dual system.

    ``U`` holds the coupling coefficients with rows indexed by the x
    labels and columns by the m coordinates, so ``U[j, i]`` multiplies
    x_{j+1} against m_{i+1} in the series.  ``eta`` and ``eta_dual`` are
    the full probability vectors (index 0 first); ``eta_bar`` are the norm
    ratios of the m-side orthogonality, ``eta_bar_dual`` those of the
    x-side.  ``cross_checks`` records the agreement of every dual-route
    computation; ``note`` documents the printed-denominator discrepancy.
    """

    params: RationalParams
    dual_p: tuple[float, float]
    dual_q: tuple[float, float]
    dual_lam: tuple[float, float]
    U: np.ndarray
    eta: np.ndarray
    eta_dual: np.ndarray
    eta_bar: np.ndarray
    eta_bar_dual: np.ndarray
    cross_checks: Report
    note: str

    @property
    def t(self) -> float:
        return float(self.U[0, 0])

    @property
    def v(self) -> float:
        return float(self.U[0, 1])

    @property
    def u(self) -> float:
        return float(self.U[1, 0])

    @property
    def w(self) -> float:
        return float(self.U[1, 1])

    @property
    def R(self) -> np.ndarray:
        """diag sqrt(eta) a(U) diag sqrt(1, eta_bar), as `SpectralData.R`."""
        a = np.pad(1.0 - self.U, (1, 0), constant_values=1.0)
        return np.sqrt(self.eta)[:, None] * a * np.sqrt(np.r_[1.0, self.eta_bar])


def _relative_gap(got, ref) -> float:
    """max |got - ref| / max |ref|."""
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def derive_dual_pair(params: RationalParams) -> DualPair:
    # the closed forms are homogeneous in the rates, so they are taken on the
    # rates times the power of 2 that puts S in [1, 2), and the dual rates
    # are scaled back: no product of rates can overflow, and every product
    # and quotient keeps the bits it has unscaled wherever that is normal
    scale = math.ldexp(1.0, 1 - math.frexp(params.total)[1])
    p1, p2, p3, p4 = (scale * v for v in (params.p1, params.p2, params.p3, params.p4))
    S = scale * params.total
    Delta = p1 * p4 - p2 * p3

    q1d = Delta / (p1 + p3)
    q2d = -Delta / (p2 + p4)
    p1d = p1 * p3 * (p2 + p4) * S / ((p1 + p3) * Delta)
    p2d = -p2 * p4 * (p1 + p3) * S / ((p2 + p4) * Delta)
    lam1d = -(p1 + p2)
    lam2d = p3 + p4

    # Defining relations: the dual system is a birth-death system of its
    # own, so the generic spectral route derives it from its pole gaps.
    dual_lam = np.array([lam1d, lam2d])
    dual_q = np.array([q1d, q2d])
    dual = _derived(np.array([p1d, p2d]), dual_q, dual_lam,
                    dual_lam[None, :] - dual_q[:, None])
    U = dual.u.T

    checks = Report()
    for j, resid in enumerate(dual.secular_residuals, start=1):
        checks.add(f"dual-secular-root-{j}", float(resid), CROSS_CHECK_TOL)

    # Independent rational closed forms, denominator matched to the rate,
    # and the same forms as commonly printed, all with the first rate in
    # the denominator.  Only the (1,1) entry of the printed forms survives
    # contact with the defining relation; the others go into the note.
    numerators = np.array(
        [
            [(p1 + p2) * (p1 + p3), (p1 + p2) * (p2 + p4)],
            [(p1 + p3) * (p3 + p4), (p2 + p4) * (p3 + p4)],
        ]
    )
    U_closed = numerators / (np.array([[p1, p2], [p3, p4]]) * S)
    checks.add("coupling-closed-form", _relative_gap(U_closed, U), CROSS_CHECK_TOL)
    U_printed = numerators / (p1 * S)
    printed_diff = np.abs(U - U_printed) / np.abs(U)

    # Probability vectors and norm ratios, closed forms.
    eta0 = Delta**2 / ((p1 + p2) * (p1 + p3) * (p2 + p4) * (p3 + p4))
    eta1 = p1 * p2 * S / ((p1 + p2) * (p1 + p3) * (p2 + p4))
    eta2 = p3 * p4 * S / ((p1 + p3) * (p2 + p4) * (p3 + p4))
    eta = np.array([eta0, eta1, eta2])
    eta1d = p1 * p3 * S / ((p1 + p2) * (p1 + p3) * (p3 + p4))
    eta2d = p2 * p4 * S / ((p1 + p2) * (p2 + p4) * (p3 + p4))
    eta_dual = np.array([eta0, eta1d, eta2d])
    eta_bar = np.array([eta1d / eta0, eta2d / eta0])
    eta_bar_dual = np.array([p1 * p2 * (p3 + p4) * S / Delta**2,
                             p3 * p4 * (p1 + p2) * S / Delta**2])
    checks.add("probability-normalization", abs(math.fsum(eta) - 1.0), CROSS_CHECK_TOL)
    checks.add("dual-probability-normalization", abs(math.fsum(eta_dual) - 1.0),
               CROSS_CHECK_TOL)
    # The dual route's probabilities (normalized rate ratios), norm ratios
    # (the moment formula) and dual probabilities (normalized norm ratios).
    checks.add("dual-probability-ratio-route", _relative_gap(dual.eta, eta_dual[1:]),
               CROSS_CHECK_TOL)
    checks.add("x-norm-ratio-moment-route", _relative_gap(dual.eta_bar, eta_bar_dual),
               CROSS_CHECK_TOL)

    entries = ("t", "v", "u", "w")
    diffs = dict(zip(entries, printed_diff.ravel()))
    note = (
        "Coupling coefficients follow the defining relation "
        "lam_dual/(lam_dual - q_dual). The commonly printed closed forms for "
        "v, u, w carry the first rate p1 in the denominator where p2, p3, p4 "
        "belong; with matched denominators the closed forms agree with the "
        "defining relation to machine precision. Relative deviation of the "
        "printed forms here: "
        + ", ".join(f"{k}={diffs[k]:.3e}" for k in entries)
        + "."
    )

    pair = DualPair(
        params=params,
        dual_p=(p1d / scale, p2d / scale),
        dual_q=(q1d / scale, q2d / scale),
        dual_lam=(lam1d / scale, lam2d / scale),
        U=U,
        eta=eta,
        eta_dual=eta_dual,
        eta_bar=eta_bar,
        eta_bar_dual=eta_bar_dual,
        cross_checks=checks,
        note=note,
    )

    # The orthogonality defects E = R^T R - I (m side) and E' = R R^T - I
    # (x side) of the pair's one-body matrix hold the m-side moment route
    # on diag E, and the weighted sums and cross sums in row 0 and in the
    # strict upper block.
    m_side, x_side = _gram_defects(pair.R)
    checks.add("m-norm-ratio-moment-route", m_side.diagonal, CROSS_CHECK_TOL)
    checks.add("probability-ratio-route", _relative_gap(dual.eta_dual, eta),
               CROSS_CHECK_TOL)
    checks.add("x-weighted-row-sums", x_side.row0, CROSS_CHECK_TOL)
    checks.add("m-weighted-column-sums", m_side.row0, CROSS_CHECK_TOL)
    checks.add("x-weighted-cross-sum", x_side.cross, CROSS_CHECK_TOL)
    checks.add("m-weighted-cross-sum", m_side.cross, CROSS_CHECK_TOL)
    return pair


def _falling(a: int, smax: int) -> list[float]:
    """Shifted factorials (-a)_s for s = 0..smax."""
    out = [1.0]
    v = 1.0
    for s in range(smax):
        v *= s - a
        out.append(v)
    return out


def eval_rational(pair: DualPair, m, x, N: int) -> float:
    """Literal four-index series for the rational family.

    Independent of the generic evaluator: the sum runs over (i, j, k, l)
    with i+j <= m1, k+l <= m2, i+k <= x1, j+l <= x2 and terms

        (-m1)_{i+j} (-m2)_{k+l} (-x1)_{i+k} (-x2)_{j+l}
        / (i! j! k! l! (-N)_{i+j+k+l}) * t^i u^j v^k w^l
    """
    m1, m2 = (int(c) for c in m)
    x1, x2 = (int(c) for c in x)
    if min(m1, m2, x1, x2) < 0 or m1 + m2 > N or x1 + x2 > N:
        raise ValidationError("m and x must lie in the lattice")
    t, u, v, w = pair.t, pair.u, pair.v, pair.w
    pm1, pm2 = _falling(m1, N), _falling(m2, N)
    px1, px2 = _falling(x1, N), _falling(x2, N)
    pN = _falling(N, N)
    fact = [math.factorial(s) for s in range(N + 1)]
    total = 0.0
    for i in range(min(m1, x1) + 1):
        for j in range(min(m1 - i, x2) + 1):
            for k in range(min(m2, x1 - i) + 1):
                for l in range(min(m2 - k, x2 - j) + 1):
                    s = i + j + k + l
                    total += (
                        pm1[i + j]
                        * pm2[k + l]
                        * px1[i + k]
                        * px2[j + l]
                        / (fact[i] * fact[j] * fact[k] * fact[l] * pN[s])
                        * t**i
                        * u**j
                        * v**k
                        * w**l
                    )
    return total


def verify_recurrence(pair: DualPair, N: int, tol: float = 1e-10) -> Report:
    """Check the dual difference equation on the whole lattice.

    The dual system acts on the m variable.  Three formulations are
    compared: the literal five-term relation with its explicit right-hand
    side, the assembled dual difference operator, and the dual eigenvalue
    form.  Orthogonality in both directions is checked against the
    closed-form diagonals.
    """
    space = StateSpace(2, N)
    T = coefficient_power(pair.R, space)
    # the relations are linear in P, so they read P c = T exp(e - max e),
    # e = -log sqrt(W(x) C(N,m) eta_bar^m): P up to one positive constant c,
    # |P c| <= 1 where P itself may pass the float64 range
    P = _rescale(T, pair.R, space, -0.5, unit=True)
    B, D = linear_rate_tables(pair.dual_p, pair.dual_q, space)
    # the signed dual rates grow like S/Delta near p1*p4 = p2*p3, so the
    # relations are judged per unit of max |P c| (P_0 = 1 puts max |P| at
    # 1 or above) and of the largest exit rate
    rates = float((np.abs(B) + np.abs(D)).sum(axis=1).max())
    scale = float(np.abs(P).max()) * max(1.0, rates)
    report = Report()

    p1d, p2d = pair.dual_p
    q1d, q2d = pair.dual_q
    pp = pair.params

    # Columns of P.T are the dual polynomials as functions of m.
    HdP = _difference(B, D, space) @ P.T
    Ed = space.coords @ np.asarray(pair.dual_lam)
    defect = HdP - P.T * Ed[None, :]
    report.add(
        "dual-eigen-equation", float(np.abs(defect).max()) / scale, tol,
        detail=f"lattice size {space.size}",
    )

    # the literal relation at every (x, m), columns m stepped by the
    # neighbour ranks; moves off the lattice add nothing
    m0, m1 = space.coords.T
    rem = N - space.degrees
    lhs = np.zeros_like(P)
    for coeff, step in ((rem * p1d, space.up[:, 0]), (rem * p2d, space.up[:, 1]),
                        (m0 * q1d, space.down[:, 0]), (m1 * q2d, space.down[:, 1])):
        lhs += np.where(step >= 0, coeff * (P[:, step] - P), 0.0)
    rhs_coeff = (pp.p1 + pp.p2) * m0 - (pp.p3 + pp.p4) * m1
    worst_literal = float(np.abs(lhs - rhs_coeff[:, None] * P).max())
    worst_operator = float(np.abs(lhs + HdP.T).max())
    report.add("five-term-recurrence", worst_literal / scale, tol)
    report.add("five-term-matches-operator", worst_operator / scale, tol)

    # T = sqrt(W) P sqrt(C(N,m) eta_bar^m) = sqrt(W) P sqrt(Wd / eta0^N) is
    # orthogonal both ways; its Gram diagonals are the two Gram diagonals of
    # P over their closed forms eta0^N / Wd and eta0^N / W
    o = orthonormality(T)
    # Gram entries cancel across strongly contrasting norms, so the scaled
    # off-diagonal floor sits above the recurrence checks.
    report.add("m-orthogonality", o.offdiagonal, max(tol, 1e-9))
    report.add("m-norms-closed-form", o.diagonal, max(tol, 1e-8))
    report.add("x-orthogonality", o.dual_offdiagonal, max(tol, 1e-9))
    report.add("x-norms-closed-form", o.dual_diagonal, max(tol, 1e-8))
    return report
