import math

import numpy as np
import pytest

from mvkraw import ModelParams, StateSpace, ValidationError, orthonormality, solve_spectrum
from mvkraw.spectrum import _perturbed
from mvkraw.sympower import (
    _plane_blocks,
    _plane_factors,
    _plane_powers,
    coefficient_power,
    coefficient_row,
)

SIZES = [(1, 8), (2, 6), (3, 5), (4, 4)]


def log_factorials(space):
    """log of the full factorials m! = m_0! m_1! .. m_n! of every point."""
    occ = np.column_stack((space.N - space.degrees, space.coords))
    return np.array([sum(math.lgamma(k + 1) for k in row) for row in occ.tolist()])


@pytest.mark.parametrize("n, N", SIZES)
def test_power_is_multiplicative(n, N):
    # Sym^N(A) Sym^N(B) = Sym^N(AB) for non-orthogonal A and B
    rng = np.random.default_rng(10 * n + N)
    space = StateSpace(n, N)
    A, B = (np.eye(n + 1) + rng.normal(0.0, 0.4, (n + 1, n + 1)) for _ in range(2))
    SA, SB, SAB = (coefficient_power(M, space) for M in (A, B, A @ B))
    scale = np.abs(SA).max() * np.abs(SB).max() * space.size
    assert np.abs(SA @ SB - SAB).max() <= 1e-15 * scale


@pytest.mark.parametrize("n, N", SIZES)
def test_nonnegative_power_matches_single_parent_rows(n, N):
    # for a nonnegative M nothing cancels, so the single-parent product of
    # `coefficient_row` is exact to rounding: T[x] = C[x] sqrt(m!/x!)
    rng = np.random.default_rng(100 + 10 * n + N)
    space = StateSpace(n, N)
    M = rng.uniform(0.0, 1.0, (n + 1, n + 1))
    T = coefficient_power(M, space)
    logf = log_factorials(space)
    for r, x in enumerate(space.coords):
        row = coefficient_row(M, x, space) * np.exp(0.5 * (logf - logf[r]))
        assert np.abs(T[r] - row).max() <= 1e-13 * np.abs(row).max()


@pytest.mark.parametrize("n, N", [(1, 40), (2, 5), (3, 6)])
def test_perturbed_one_body_matrix_stays_perturbed(n, N):
    # R perturbed as `verify --inject-u-perturbation 1e-6` perturbs it: the
    # power carries the defect, Sym^N(R)^T Sym^N(R) = Sym^N(R^T R), and is
    # not orthogonalized away
    params = ModelParams(n, N, tuple(np.linspace(1.0, 2.0, n)), tuple(np.linspace(1.0, 6.0, n)))
    spec = solve_spectrum(params)
    R = _perturbed(spec, 1e-6).R
    one_body = np.abs(R.T @ R - np.eye(n + 1)).max()
    assert 1e-8 < one_body < 1e-5
    identity = orthonormality(coefficient_power(R, StateSpace(n, N))).identity
    assert one_body <= identity <= 2 * N * one_body
    assert orthonormality(coefficient_power(spec.R, StateSpace(n, N))).identity < 1e-13


def test_singular_matrix_is_refused():
    with pytest.raises(ValidationError, match="singular"):
        coefficient_power(np.ones((3, 3)), StateSpace(2, 3))


def all_factor_power(M, space):
    """Sym^N(M) with every factor of the exact factorization applied, the
    rounding-level shears included, each by a dense product: the reference
    the kernel, which leaves those shears out, is held to."""
    U = np.array(M, dtype=float)
    factors = []
    for i in range(len(U) - 1):
        for j in range(len(U) - 1, i, -1):
            if U[j, i] == 0.0:
                continue
            rho = math.hypot(U[i, i], U[j, i])
            c, s = U[i, i] / rho, U[j, i] / rho
            rotation = np.array([[c, s], [-s, c]])
            U[[i, j]] = rotation @ U[[i, j]]
            U[j, i] = 0.0
            factors.append(((i, j), rotation.T))
    scale = U.diagonal().copy()
    V = U / scale
    for j in range(len(V) - 1, 0, -1):
        factors += [((i, j), np.array([[1.0, V[i, j]], [0.0, 1.0]]))
                    for i in range(j) if V[i, j] != 0.0]
    occ = np.column_stack((space.N - space.degrees, space.coords))
    T = np.eye(space.size)
    for (i, j), G in reversed(factors):
        for rows, W in zip(_plane_blocks(occ, i, j), _plane_powers(G, space.N)):
            group = T[rows]
            T[rows] = (W @ group.reshape(len(W), -1)).reshape(group.shape)
    return T * np.prod(scale ** occ, axis=1)


ORTHOGONAL_IDS = ["R-2d", "R-3d", "R-4d", "V-3d-coincident",
                  "eigh-4x4-a", "eigh-5x5-a", "eigh-4x4-b", "eigh-5x5-b"]


def orthogonal_inputs():
    """Spectral R of the benchmark models, the one-body eigenvectors of the
    coincident one, and eigh of random symmetric 4 x 4 and 5 x 5 matrices
    (in the order of ORTHOGONAL_IDS)."""
    models = [((1.0, 2.0), (1.0, 4.0)), ((1.0, 2.0, 1.5), (1.0, 3.0, 6.0)),
              ((1.0, 2.0, 1.5, 0.7), (1.0, 3.0, 6.0, 2.2))]
    inputs = [solve_spectrum(ModelParams(len(p), 3, p, q)).R for p, q in models]
    p, q = np.array([1.0, 2.0, 1.5]), np.array([3.0, 3.0, 5.0])
    h = np.diag(np.concatenate(([p.sum()], q)))
    h[0, 1:] = h[1:, 0] = -np.sqrt(p * q)
    inputs.append(np.linalg.eigh(h)[1])
    rng = np.random.default_rng(7)
    for size in (4, 5, 4, 5):
        A = rng.normal(size=(size, size))
        inputs.append(np.linalg.eigh(A + A.T)[1])
    return inputs


@pytest.mark.parametrize("M", orthogonal_inputs(), ids=ORTHOGONAL_IDS)
def test_orthogonal_input_factors_into_rotations_only(M):
    # the unit shears of an orthogonal M are the identity to rounding; a
    # shear is [[1, c], [0, 1]], a transposed rotation has G[1, 0] = s != 0
    factors, scale = _plane_factors(M)
    n = len(M) - 1
    assert 0 < len(factors) <= n * (n + 1) // 2
    assert all(G[1, 0] != 0.0 for _, G in factors)
    assert np.abs(np.abs(scale) - 1.0).max() < 1e-14


@pytest.mark.parametrize("n, N", [(3, 20), (4, 12)])
def test_power_matches_all_factor_product(n, N):
    space = StateSpace(n, N)
    inputs = orthogonal_inputs()
    for M in [R for R in inputs if len(R) == n + 1][:2]:
        T = coefficient_power(M, space)
        assert np.abs(T - all_factor_power(M, space)).max() <= 1e-14


@pytest.mark.parametrize("n, N", SIZES)
def test_column_order_is_a_permuted_power(n, N):
    rng = np.random.default_rng(1000 + 10 * n + N)
    space = StateSpace(n, N)
    order = rng.permutation(space.size)
    general = np.eye(n + 1) + rng.normal(0.0, 0.4, (n + 1, n + 1))
    for M in (general, np.diag(rng.uniform(0.5, 1.5, n + 1))):
        T = coefficient_power(M, space, order)
        assert T.flags["C_CONTIGUOUS"]
        reference = coefficient_power(M, space)[:, order]
        assert np.abs(T - reference).max() <= 1e-15 * np.abs(reference).max()
