"""Fully rational two-dimensional family with an explicit dual system.

Four positive numbers (p1, p2, p3, p4) with p1*p4 != p2*p3 pick out a
two-dimensional instance whose spectral data is rational in the inputs:
no secular equation needs solving, and the dual process is again of
birth-death type with explicit (generally signed) dual rates.  Because the
dual rates carry mixed signs the dual generator is not a stochastic
generator; all operator identities still hold and are checked here, but
the simulator refuses such rates by construction.

Every derived quantity is computed twice: once from the defining relations
(dual eigenvalues over their pole gaps, moment sums, ratio
normalizations) and once from independent rational closed forms.  The two
routes are required to agree and the residuals are recorded.  The closed
forms for three of the four coupling coefficients circulate in print with
the wrong denominator (the first rate in place of the matching one), so
the defining relations are treated as authoritative and a discrepancy note
is attached to the derived system; see ``DualPair.note``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdcore import difference_operator_from_tables
from .errors import SingularParameters, ValidationError
from .lattice import StateSpace
from .model import linear_rate_tables
from .polynomials import _rescale, orthonormality, table
from .report import Report

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
        if abs(self.discriminant) <= SINGULAR_REL_TOL * (
            self.p1 * self.p4 + self.p2 * self.p3
        ):
            raise SingularParameters(
                "p1*p4 == p2*p3: the dual system is undefined on this surface"
            )

    @property
    def total(self) -> float:
        return math.fsum((self.p1, self.p2, self.p3, self.p4))

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


def derive_dual_pair(params: RationalParams) -> DualPair:
    p1, p2, p3, p4 = params.p1, params.p2, params.p3, params.p4
    S = params.total
    Delta = params.discriminant

    q1d = Delta / (p1 + p3)
    q2d = -Delta / (p2 + p4)
    p1d = p1 * p3 * (p2 + p4) * S / ((p1 + p3) * Delta)
    p2d = -p2 * p4 * (p1 + p3) * S / ((p2 + p4) * Delta)
    lam1d = -(p1 + p2)
    lam2d = p3 + p4

    checks = Report()

    # Dual eigenvalues satisfy the dual secular equation exactly.
    for j, lam in enumerate((lam1d, lam2d), start=1):
        resid = abs(math.fsum((p1d / (lam - q1d), p2d / (lam - q2d), -1.0)))
        checks.add(f"dual-secular-root-{j}", resid, CROSS_CHECK_TOL)

    # Coupling coefficients: defining relation (authoritative).
    lam_d = np.array([lam1d, lam2d])
    q_d = np.array([q1d, q2d])
    U = lam_d[:, None] / (lam_d[:, None] - q_d[None, :])

    # Independent rational closed forms, denominator matched to the rate.
    U_closed = np.array(
        [
            [(p1 + p2) * (p1 + p3) / (p1 * S), (p1 + p2) * (p2 + p4) / (p2 * S)],
            [(p1 + p3) * (p3 + p4) / (p3 * S), (p2 + p4) * (p3 + p4) / (p4 * S)],
        ]
    )
    checks.add(
        "coupling-closed-form",
        float(np.abs(U - U_closed).max() / np.abs(U).max()),
        CROSS_CHECK_TOL,
    )

    # The same forms as commonly printed, all with the first rate in the
    # denominator.  Only the (1,1) entry survives contact with the
    # defining relation; the others are recorded in the note.
    U_printed = np.array(
        [
            [(p1 + p2) * (p1 + p3) / (p1 * S), (p1 + p2) * (p2 + p4) / (p1 * S)],
            [(p1 + p3) * (p3 + p4) / (p1 * S), (p2 + p4) * (p3 + p4) / (p1 * S)],
        ]
    )
    printed_diff = np.abs(U - U_printed) / np.abs(U)

    # Probability vectors, closed forms.
    eta0 = Delta**2 / ((p1 + p2) * (p1 + p3) * (p2 + p4) * (p3 + p4))
    eta1 = p1 * p2 * S / ((p1 + p2) * (p1 + p3) * (p2 + p4))
    eta2 = p3 * p4 * S / ((p1 + p3) * (p2 + p4) * (p3 + p4))
    eta = np.array([eta0, eta1, eta2])
    eta1d = p1 * p3 * S / ((p1 + p2) * (p1 + p3) * (p3 + p4))
    eta2d = p2 * p4 * S / ((p1 + p2) * (p2 + p4) * (p3 + p4))
    eta_dual = np.array([eta0, eta1d, eta2d])
    checks.add("probability-normalization", abs(math.fsum(eta) - 1.0), CROSS_CHECK_TOL)
    checks.add(
        "dual-probability-normalization",
        abs(math.fsum(eta_dual) - 1.0),
        CROSS_CHECK_TOL,
    )

    # Second route to the dual probabilities: normalized rate ratios.
    r1, r2 = p1d / q1d, p2d / q2d
    denom = 1.0 + r1 + r2
    checks.add(
        "dual-probability-ratio-route",
        max(abs(r1 / denom - eta1d), abs(r2 / denom - eta2d)) / max(eta1d, eta2d),
        CROSS_CHECK_TOL,
    )

    # Norm ratios: closed forms against moment sums over the couplings.
    eta_bar_dual = np.array(
        [
            p1 * p2 * (p3 + p4) * S / Delta**2,
            p3 * p4 * (p1 + p2) * S / Delta**2,
        ]
    )
    eta_bar = np.array([eta1d / eta0, eta2d / eta0])
    moments_x = np.array(
        [
            1.0 / (math.fsum((eta1d * U[j, 0] ** 2, eta2d * U[j, 1] ** 2, -1.0)))
            for j in range(2)
        ]
    )
    moments_m = np.array(
        [
            1.0 / (math.fsum((eta1 * U[0, i] ** 2, eta2 * U[1, i] ** 2, -1.0)))
            for i in range(2)
        ]
    )
    checks.add(
        "x-norm-ratio-moment-route",
        float(np.abs(moments_x - eta_bar_dual).max() / eta_bar_dual.max()),
        CROSS_CHECK_TOL,
    )
    checks.add(
        "m-norm-ratio-moment-route",
        float(np.abs(moments_m - eta_bar).max() / eta_bar.max()),
        CROSS_CHECK_TOL,
    )
    # Third route: the probabilities are the normalized x-side ratios.
    checks.add(
        "probability-ratio-route",
        float(
            np.abs(eta_bar_dual / (1.0 + eta_bar_dual.sum()) - eta[1:]).max()
            / eta[1:].max()
        ),
        CROSS_CHECK_TOL,
    )

    # Weighted sum identities in both directions, linear and cross terms.
    checks.add(
        "x-weighted-row-sums",
        max(
            abs(math.fsum((eta1d * U[j, 0], eta2d * U[j, 1], -1.0))) for j in range(2)
        ),
        CROSS_CHECK_TOL,
    )
    checks.add(
        "m-weighted-column-sums",
        max(
            abs(math.fsum((eta1 * U[0, i], eta2 * U[1, i], -1.0))) for i in range(2)
        ),
        CROSS_CHECK_TOL,
    )
    checks.add(
        "x-weighted-cross-sum",
        abs(math.fsum((eta1d * U[0, 0] * U[1, 0], eta2d * U[0, 1] * U[1, 1], -1.0))),
        CROSS_CHECK_TOL,
    )
    checks.add(
        "m-weighted-cross-sum",
        abs(math.fsum((eta1 * U[0, 0] * U[0, 1], eta2 * U[1, 0] * U[1, 1], -1.0))),
        CROSS_CHECK_TOL,
    )

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

    return DualPair(
        params=params,
        dual_p=(p1d, p2d),
        dual_q=(q1d, q2d),
        dual_lam=(lam1d, lam2d),
        U=U,
        eta=eta,
        eta_dual=eta_dual,
        eta_bar=eta_bar,
        eta_bar_dual=eta_bar_dual,
        cross_checks=checks,
        note=note,
    )


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


def rational_table(pair: DualPair, space: StateSpace) -> np.ndarray:
    """Full table of the rational family; rows x ranks, columns m ranks.

    `polynomials.table` of the pair, read off the symmetric power of
    `DualPair.R`; `eval_rational` is its entry-by-entry oracle.
    """
    if space.n != 2:
        raise ValidationError("the rational family is two-dimensional")
    return table(pair, space)


def dual_rate_tables(pair: DualPair, space: StateSpace):
    """Signed dual birth/death tables over the m lattice."""
    return linear_rate_tables(pair.dual_p, pair.dual_q, space)


def verify_recurrence(pair: DualPair, N: int, tol: float = 1e-10) -> Report:
    """Check the dual difference equation on the whole lattice.

    The dual system acts on the m variable.  Three formulations are
    compared: the literal five-term relation with its explicit right-hand
    side, the assembled dual difference operator, and the dual eigenvalue
    form.  Orthogonality in both directions is checked against the
    closed-form diagonals.
    """
    space = StateSpace(2, N)
    R = rational_table(pair, space)
    scale = max(1.0, float(np.abs(R).max()))
    report = Report()

    p1d, p2d = pair.dual_p
    q1d, q2d = pair.dual_q
    pp = pair.params

    B, D = dual_rate_tables(pair, space)
    Hd = difference_operator_from_tables(B, D, space)
    # Columns of R.T are the dual polynomials as functions of m.
    Ed = space.coords @ np.asarray(pair.dual_lam)
    defect = Hd @ R.T - R.T * Ed[None, :]
    report.add(
        "dual-eigen-equation", float(np.abs(defect).max()) / scale, tol,
        detail=f"lattice size {space.size}",
    )

    # the literal relation at every (x, m), columns m stepped by the
    # neighbour ranks; moves off the lattice add nothing
    m0, m1 = space.coords.T
    rem = N - space.degrees
    lhs = np.zeros_like(R)
    for coeff, step in ((rem * p1d, space.up[:, 0]), (rem * p2d, space.up[:, 1]),
                        (m0 * q1d, space.down[:, 0]), (m1 * q2d, space.down[:, 1])):
        lhs += np.where(step >= 0, coeff * (R[:, step] - R), 0.0)
    rhs_coeff = (pp.p1 + pp.p2) * m0 - (pp.p3 + pp.p4) * m1
    worst_literal = float(np.abs(lhs - rhs_coeff[:, None] * R).max())
    worst_operator = float(np.abs(lhs + (Hd @ R.T).T).max())
    report.add("five-term-recurrence", worst_literal / scale, tol)
    report.add("five-term-matches-operator", worst_operator / scale, tol)

    # T = sqrt(W) R sqrt(C(N,m) eta_bar^m) = sqrt(W) R sqrt(Wd / eta0^N) is
    # orthogonal both ways; its Gram diagonals are the two Gram diagonals of
    # R over their closed forms eta0^N / Wd and eta0^N / W
    o = orthonormality(_rescale(R, pair.R, space, 0.5))
    # Gram entries cancel across strongly contrasting norms, so the scaled
    # off-diagonal floor sits above the recurrence checks.
    report.add("m-orthogonality", o.offdiagonal, max(tol, 1e-9))
    report.add("m-norms-closed-form", o.diagonal, max(tol, 1e-8))
    report.add("x-orthogonality", o.dual_offdiagonal, max(tol, 1e-9))
    report.add("x-norms-closed-form", o.dual_diagonal, max(tol, 1e-8))
    return report
