import dataclasses
import math

import numpy as np
import pytest

from mvkraw import ModelParams, StateSpace, ValidationError, orthonormality, solve_spectrum
from mvkraw.sympower import coefficient_power, coefficient_row

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
    u = spec.u.copy()
    u[0, 0] *= 1.0 + 1e-6
    a = spec.a.copy()
    a[1, 1] = 1.0 - u[0, 0]
    R = dataclasses.replace(spec, u=u, a=a).R
    one_body = np.abs(R.T @ R - np.eye(n + 1)).max()
    assert 1e-8 < one_body < 1e-5
    identity = orthonormality(coefficient_power(R, StateSpace(n, N))).identity
    assert one_body <= identity <= 2 * N * one_body
    assert orthonormality(coefficient_power(spec.R, StateSpace(n, N))).identity < 1e-13


def test_singular_matrix_is_refused():
    with pytest.raises(ValidationError, match="singular"):
        coefficient_power(np.ones((3, 3)), StateSpace(2, 3))
