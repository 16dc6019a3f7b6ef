import math

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_operators, draw_model

from mvkraw import (
    CapExceeded,
    ExceptionalParameters,
    ModelParams,
    StateSpace,
    ValidationError,
    identity_checks,
    numeric_eigenbasis,
    rational_case_n2,
    secular_function,
    solve_spectrum,
)
from mvkraw.model import rate_tables
from mvkraw.polynomials import degree_eigenvalues
from mvkraw.spectrum import _perturbed, characteristic_matrix
from mvkraw.sympower import coefficient_power


def test_quadratic_anchor():
    # p = (1,1), q = (1,3): lam^2 - 6 lam + 7 = 0
    params = ModelParams(n=2, N=1, p=(1.0, 1.0), q=(1.0, 3.0))
    spec = solve_spectrum(params)
    assert spec.lam[0] == pytest.approx(3 - math.sqrt(2), abs=1e-14)
    assert spec.lam[1] == pytest.approx(3 + math.sqrt(2), abs=1e-14)
    assert spec.secular_residuals.max() < 1e-14


def test_n1_closed_form():
    params = ModelParams(n=1, N=3, p=(2.0,), q=(0.5,))
    spec = solve_spectrum(params)
    assert spec.lam[0] == pytest.approx(2.5, abs=1e-14)
    assert spec.u[0, 0] == pytest.approx(2.5 / 2.0, abs=1e-14)
    assert spec.eta_bar[0] == pytest.approx(4.0, rel=1e-13)


def test_secular_vs_characteristic_determinant():
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        params = draw_model(rng, n, 1)
        p, q = np.array(params.p), np.array(params.q)
        F = characteristic_matrix(p, q)
        for _ in range(4):
            lam = float(rng.uniform(-5.0, 25.0))
            if np.abs(lam - q).min() < 1e-3:
                continue
            det = np.linalg.det(lam * np.eye(n) - F)
            scalar = -np.prod(lam - q) * secular_function(lam, p, q)
            assert det == pytest.approx(scalar, rel=1e-9, abs=1e-9)


def test_interlacing_random_loop():
    rng = np.random.default_rng(20260815)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        params = draw_model(rng, n, 1)
        spec = solve_spectrum(params)
        qs = np.sort(params.q)
        assert np.all(qs < spec.lam)
        assert np.all(spec.lam[:-1] < qs[1:])
        assert spec.lam[-1] <= qs[-1] + sum(params.p) * (1 + 1e-12)
        assert spec.secular_residuals.max() < 1e-12


IDENTITY_NAMES = (
    "weighted-column-sums",
    "weighted-column-cross-sums",
    "dual-weighted-row-sums",
    "dual-weighted-row-cross-sums",
    "congruence-diagonalization",
)


def test_identity_checks_on_orthonormal_scale_near_coincidence():
    # |u| grows like 1/gap; the identities, read off R^T R - I and
    # R R^T - I, and the secular residual relative to its terms stay at
    # rounding on exact data down to adjacent floats (gap None)
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 3, 4):
        for gap in [10.0 ** -k for k in range(1, 16)] + [None]:
            for _ in range(3):
                params = draw_model(rng, n, 1)
                if n > 1:
                    q = list(params.q)
                    q[1] = (np.nextafter(q[0], math.inf) if gap is None
                            else q[0] + gap * max(q))
                    params = ModelParams(n=n, N=1, p=params.p, q=tuple(q))
                spec = solve_spectrum(params)
                report = identity_checks(spec)
                assert report.passed, (n, gap, report.lines())

                # an oracle off the secular route: the columns of R are the
                # eigenvectors of the symmetrized one-body generator h
                p, q = np.array(params.p), np.array(params.q)
                h = np.diag(np.concatenate(([p.sum()], q)))
                h[0, 1:] = h[1:, 0] = -np.sqrt(p * q)
                R = spec.R
                defect = h @ R - R * np.concatenate(([0.0], spec.lam))[None, :]
                assert np.abs(defect).max() / np.abs(h).max() <= 1e-14, (n, gap)

                # the injection changes one entry of R by delta; R is
                # orthogonal, so some entry of R^T R - I moves by at least
                # delta / sqrt(n + 1): the checks see the whole change
                injected = _perturbed(spec, 1e-6)
                delta = float(np.abs(injected.R - spec.R).max())
                checks = identity_checks(injected)
                worst = max(checks[name].residual for name in IDENTITY_NAMES)
                assert worst >= delta / math.sqrt(n + 1), (n, gap, delta, worst)
                assert not all(checks[name].passed for name in IDENTITY_NAMES), (
                    n, gap, checks.lines())


def test_identity_checks_on_clusters_within_ulps():
    # 2-4 q's a few ulps apart, at scales 1e-6..1e6: only equal q's are
    # exceptional, and the pole distances keep full relative precision
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        cluster = int(rng.integers(2, min(n, 4) + 1))
        scale = 10.0 ** rng.uniform(-6, 6)
        p = scale * rng.uniform(0.1, 10.0, n)
        q = scale * rng.uniform(0.1, 10.0, n)
        for i in range(1, cluster):
            q[i] = q[i - 1]
            for _ in range(int(rng.integers(1, 10))):
                q[i] = np.nextafter(q[i], math.inf)
        params = ModelParams(n=n, N=1, p=tuple(p), q=tuple(q))
        report = identity_checks(solve_spectrum(params))
        assert len(report.checks) == 6 and report.passed, (p, q, report.lines())


def test_one_body_matrix_follows_a():
    spec = solve_spectrum(ModelParams(n=2, N=1, p=(1.0, 2.0), q=(2.0, 2.001)))
    assert spec.u_magnitude > 1e3
    R = spec.R
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-14
    assert np.abs(_perturbed(spec, 1e-6).R - R).max() > 1e-7


@pytest.mark.parametrize("p1", [1e-45, 1e-100])
def test_secular_solve_with_tiny_p(p1):
    # the root sits about p1 above its pole: the bisection needs a halving
    # per binade down to it, far more than the 53 of one mantissa
    spec = solve_spectrum(ModelParams(n=2, N=3, p=(p1, 1.0), q=(1.0, 2.0)))
    report = identity_checks(spec)
    assert report.passed, report.lines()
    assert spec.secular_residuals.max() <= 1e-15


def test_identity_checks_random_loop():
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        params = draw_model(rng, n, 1)
        report = identity_checks(solve_spectrum(params))
        assert report.passed, "\n".join(report.lines())


def test_coordinate_relabeling_invariance():
    # permuting the coordinates permutes the u rows, eigenvalues unchanged
    params = ModelParams(n=3, N=2, p=(1.0, 2.0, 0.5), q=(0.5, 2.0, 6.0))
    spec = solve_spectrum(params)
    perm = (2, 0, 1)
    permuted = ModelParams(
        n=3, N=2,
        p=tuple(params.p[i] for i in perm),
        q=tuple(params.q[i] for i in perm),
    )
    spec_p = solve_spectrum(permuted)
    assert np.allclose(spec.lam, spec_p.lam, rtol=1e-14)
    assert np.allclose(spec.u[list(perm), :], spec_p.u, rtol=1e-12)
    assert np.allclose(np.asarray(spec.eta)[list(perm)], spec_p.eta, rtol=1e-12)
    assert np.allclose(spec.eta_bar, spec_p.eta_bar, rtol=1e-12)


def test_rational_case_anchor():
    spec = rational_case_n2(2.0, 1.0, 1.0)
    assert np.allclose(spec.lam, [2.0, 5.0], atol=1e-15)
    assert np.allclose(spec.u, [[2.0, 1.25], [-2.0, 2.5]], atol=1e-15)
    assert spec.secular_residuals.max() < 1e-17


def test_rational_case_matches_solver():
    for (p1, p2, q) in ((2.0, 1.0, 1.0), (0.7, 1.9, 3.1), (4.0, 1.5, 0.4)):
        direct = rational_case_n2(p1, p2, q)
        params = ModelParams(n=2, N=1, p=(p1, p2), q=(q, q + 2 * (p1 - p2)))
        solved = solve_spectrum(params)
        assert np.allclose(direct.lam, solved.lam, rtol=1e-13)
        assert np.allclose(direct.u, solved.u, rtol=1e-10)
        assert np.allclose(direct.eta_dual, solved.eta_dual, rtol=1e-10)


def test_rational_case_rejections():
    with pytest.raises(ExceptionalParameters):
        rational_case_n2(1.0, 1.0, 2.0)
    with pytest.raises(ValidationError):
        rational_case_n2(1.0, 3.0, 1.0)     # q2 = 1 - 4 < 0
    with pytest.raises(ValidationError):
        rational_case_n2(-1.0, 3.0, 1.0)


def test_exceptional_raise_and_details():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(4.0, 4.0))
    with pytest.raises(ExceptionalParameters) as info:
        solve_spectrum(params)
    # the message names the equal q's
    assert str(info.value) == ("exceptional parameters: equal death intensities "
                               "q_1 = q_2 = 4.0; use the numeric eigenbasis")
    middle = ModelParams(n=3, N=3, p=(1.0, 2.0, 3.0), q=(5.0, 4.0, 5.0))
    with pytest.raises(ExceptionalParameters, match="q_1 = q_3 = 5.0;"):
        solve_spectrum(middle)
    near = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(4.0, 4.05))
    solve_spectrum(near)


def test_numeric_eigenbasis_regular():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    basis = numeric_eigenbasis(params, space)
    V = basis.vectors
    assert np.abs(V.T @ V - np.eye(space.size)).max() < 1e-12
    spec = solve_spectrum(params)
    expected = np.sort(degree_eigenvalues(spec, space))
    assert np.allclose(np.sort(basis.eigenvalues), expected, atol=1e-10)


def one_body_h(p, q) -> np.ndarray:
    """The symmetrized one-body generator h of `numeric_eigenbasis`."""
    p, q = np.asarray(p), np.asarray(q)
    h = np.diag(np.concatenate(([p.sum()], q)))
    h[0, 1:] = h[1:, 0] = -np.sqrt(p * q)
    return h


def test_numeric_eigenbasis_coincident_q():
    # E(m) repeats and P does not exist, but the mode numbers label every
    # column: E in rank order is sum_k m_k lam_k, lam the eigenvalues of h
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(3.0, 3.0))
    space = StateSpace(2, 4)
    basis = numeric_eigenbasis(params, space)
    V, lam = basis.vectors, basis.eigenvalues
    occupations = np.column_stack((4 - space.degrees, space.coords))
    one_body = np.linalg.eigh(one_body_h(params.p, params.q))[0]
    assert np.array_equal(lam, occupations @ one_body)
    assert np.abs(V.T @ V - np.eye(space.size)).max() < 1e-12
    B, D = rate_tables(params, space)
    H = dense_operators(B, D, space)[1]
    assert np.abs(H @ V - V * lam[None, :]).max() < 1e-12
    assert basis.degenerate


@pytest.mark.parametrize(
    "p, q, N",
    [
        ((1.0, 2.0, 1.5), (1.0, 3.0, 6.0), 5),
        ((1.0, 2.0, 1.5), (3.0, 3.0, 5.0), 5),
        ((1.0, 2.0), (3.0, 3.0), 6),
        # a single parent per row would lose all digits here
        ((1.0,), (2.0,), 200),
    ],
)
def test_numeric_eigenbasis_against_dense_eigh(p, q, N):
    params = ModelParams(n=len(p), N=N, p=p, q=q)
    space = StateSpace(params.n, N)
    basis = numeric_eigenbasis(params, space)
    V, lam = basis.vectors, basis.eigenvalues
    B, D = rate_tables(params, space)
    H = dense_operators(B, D, space)[1]
    reference = scipy.linalg.eigh(H, eigvals_only=True)
    scale = max(1.0, float(np.abs(reference).max()))
    # eigenvalues in rank order: E(m) = sum_k m_k lam_k, m_0 = N - |m|
    occupations = np.column_stack((N - space.degrees, space.coords))
    assert np.array_equal(lam, occupations @ np.linalg.eigh(one_body_h(p, q))[0])
    assert np.abs(np.sort(lam) - reference).max() / scale < 1e-12
    assert np.abs(V.T @ V - np.eye(space.size)).max() < 1e-12
    assert np.abs(H @ V - V * lam[None, :]).max() / scale < 1e-12
    assert basis.degenerate == bool(np.diff(reference).min() < 1e-8 * scale)


@pytest.mark.parametrize(
    "p, q, N",
    [
        ((1.0, 2.0), (1.0, 4.0), 10),
        ((1.0, 2.0, 1.5), (1.0, 3.0, 6.0), 8),
        ((1.0, 2.0, 1.5, 0.7), (1.0, 3.0, 6.0, 2.2), 4),
        ((1.0,), (2.0,), 200),
    ],
)
def test_numeric_eigenbasis_is_T_up_to_column_signs(p, q, N):
    # column k carries the mode numbers space.coords[k], as T's column k
    # does: both are the power of one-body eigenvectors, V = R diag(sigma)
    params = ModelParams(n=len(p), N=N, p=p, q=q)
    space = StateSpace(params.n, N)
    spec = solve_spectrum(params)
    basis = numeric_eigenbasis(params, space)
    V = np.linalg.eigh(one_body_h(p, q))[1]
    sigma = np.sign(np.diag(V.T @ spec.R))
    occupations = np.column_stack((N - space.degrees, space.coords))
    signs = np.prod(sigma ** occupations, axis=1)
    T = coefficient_power(spec.R, space)
    assert np.abs(basis.vectors - T * signs).max() < 1e-13
    expected = degree_eigenvalues(spec, space)
    assert np.abs(basis.eigenvalues - expected).max() < 1e-13 * np.abs(expected).max()


def test_numeric_eigenbasis_guards():
    # 5,456 points, above the dense cap of the symmetric-power kernel
    big = ModelParams(n=3, N=30, p=(1.0, 2.0, 1.5), q=(3.0, 3.0, 5.0))
    with pytest.raises(CapExceeded):
        numeric_eigenbasis(big, StateSpace(3, 30))
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(3.0, 3.0))
    with pytest.raises(ValidationError):
        numeric_eigenbasis(params, StateSpace(2, 5))


def test_exceptional_degree_one_eigenvector():
    # with q1 = q2 = q, f(x) = p2 x1 - p1 x2 satisfies Ht f = q f
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(3.0, 3.0))
    space = StateSpace(2, 4)
    Ht = dense_operators(*rate_tables(params, space), space)[2]
    f = np.array([params.p[1] * x[0] - params.p[0] * x[1] for x in space.points])
    assert np.abs(Ht @ f - params.q[0] * f).max() < 1e-12
