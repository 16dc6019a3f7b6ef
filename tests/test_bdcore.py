import numpy as np
import pytest
import scipy.sparse

from conftest import draw_model

from mvkraw import (
    ModelParams,
    StateSpace,
    ValidationError,
    check_compatibility,
    check_rate_tables,
    difference_operator_from_tables,
    generator_from_tables,
    ladder_from_tables,
    rate_tables,
    stationary_weight_generic,
    symmetrized_from_tables,
    verify_structure,
    weight_vector,
)


def tables_of(space, birth, death):
    """Rate tables of a field given point by point: birth(j, x), death(j, x)."""
    B = np.array([[birth(j, x) for j in range(space.n)] for x in space.points])
    D = np.array([[death(j, x) for j in range(space.n)] for x in space.points])
    return B, D


def test_tabulate_rates_anchor():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    B, D = rate_tables(params, space)
    r = space.rank((1, 1))
    assert B[r].tolist() == [1.0, 2.0]          # (N - |x|) p = 1 * (1, 2)
    assert D[r].tolist() == [3.0, 5.0]          # q x = (3, 5)
    top = space.rank((0, 3))
    assert B[top].tolist() == [0.0, 0.0]
    assert D[top].tolist() == [0.0, 15.0]

    # the array expressions against the per-point formula on random lattices
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 9))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        B, D = rate_tables(params, space)
        B1, D1 = tables_of(
            space,
            lambda j, x: (N - sum(x)) * params.p[j],
            lambda j, x: params.q[j] * x[j],
        )
        assert np.array_equal(B, B1) and np.array_equal(D, D1)
        assert not B[space.degrees == N].any()
        assert not D[space.coords == 0].any()
        check_rate_tables(B, D, space)
    with pytest.raises(ValidationError, match="does not match"):
        rate_tables(params, StateSpace(params.n, params.N + 1))


def test_tabulate_rejects_bad_fields():
    space = StateSpace(2, 2)
    ok_birth = lambda j, x: 1.0 if sum(x) < 2 else 0.0  # noqa: E731
    ok_death = lambda j, x: float(x[j])  # noqa: E731
    check_rate_tables(*tables_of(space, ok_birth, ok_death), space)
    negative = tables_of(space, lambda j, x: -1.0, ok_death)
    with pytest.raises(ValidationError, match="negative rate"):
        check_rate_tables(*negative, space)
    # birth off the top boundary must vanish
    leaky = tables_of(space, lambda j, x: 1.0, ok_death)
    with pytest.raises(ValidationError, match="vanish at the ceiling"):
        check_rate_tables(*leaky, space)
    # death must vanish on the zero faces
    bad_death = tables_of(space, ok_birth, lambda j, x: 1.0)
    with pytest.raises(ValidationError, match="vanish at zero population"):
        check_rate_tables(*bad_death, space)
    for value in (np.nan, np.inf):
        B, D = tables_of(space, ok_birth, ok_death)
        D[space.rank((1, 1)), 0] = value
        with pytest.raises(ValidationError, match="non-finite rate"):
            check_rate_tables(B, D, space)
    B, D = tables_of(space, ok_birth, ok_death)
    with pytest.raises(ValidationError, match="shapes"):
        check_rate_tables(B[:, :1], D[:, :1], space)
    # every consumer of a rate field validates it
    for consume in (verify_structure, stationary_weight_generic, check_compatibility):
        with pytest.raises(ValidationError, match="vanish at the ceiling"):
            consume(*leaky, space)


def test_generator_shape_and_columns():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    L = generator_from_tables(*rate_tables(params, space), space)
    assert scipy.sparse.issparse(L)
    dense = L.toarray()
    assert dense.shape == (10, 10)
    assert np.abs(dense.sum(axis=0)).max() < 1e-14
    # off-diagonal entries are the rates into the column state
    x = space.rank((1, 0))
    up = space.rank((2, 0))
    assert dense[up, x] == 2.0    # B_1((1,0)) = (3-1)*1
    assert dense[x, up] == 6.0    # D_1((2,0)) = 3*2


def test_generator_kills_stationary_weight():
    params = ModelParams(n=2, N=4, p=(0.5, 2.5), q=(1.5, 4.0))
    space = StateSpace(2, 4)
    L = generator_from_tables(*rate_tables(params, space), space)
    W = weight_vector(params, space)
    assert np.abs(L @ W).max() < 1e-14


def test_symmetrized_operator():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    B, D = rate_tables(params, space)
    H = symmetrized_from_tables(B, D, space).toarray()
    assert np.abs(H - H.T).max() == 0.0
    W = weight_vector(params, space)
    s = np.sqrt(W)
    L = generator_from_tables(B, D, space).toarray()
    # H = -W^{-1/2} L W^{1/2}, entrywise -L[x, y] sqrt(W[y] / W[x])
    assert np.abs(H + (L * s[None, :]) / s[:, None]).max() < 1e-12
    assert np.abs(H @ s).max() < 1e-13
    evals = np.linalg.eigvalsh(H)
    assert evals.min() > -1e-12 * np.abs(evals).max()


def test_ladder_factorization():
    params = ModelParams(n=3, N=3, p=(1.0, 2.0, 0.5), q=(1.0, 2.5, 6.0))
    space = StateSpace(3, 3)
    B, D = rate_tables(params, space)
    H = symmetrized_from_tables(B, D, space).toarray()
    acc = np.zeros_like(H)
    W = weight_vector(params, space)
    s = np.sqrt(W)
    for j in range(3):
        A = ladder_from_tables(B, D, space, j).toarray()
        acc += A.T @ A
        assert np.abs(A @ s).max() < 1e-13
    assert np.abs(H - acc).max() < 1e-12
    for j in (-1, 3):
        with pytest.raises(ValidationError, match="out of range"):
            ladder_from_tables(B, D, space, j)


def test_difference_operator():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    B, D = rate_tables(params, space)
    Ht = difference_operator_from_tables(B, D, space)
    ones = np.ones(space.size)
    assert np.abs(Ht @ ones).max() == 0.0
    # action on the coordinate function x1 at an interior point:
    # B_1 (f(x) - f(x+e1)) + D_1 (f(x) - f(x-e1)) = -B_1 + D_1
    f = np.array([float(x[0]) for x in space.points])
    out = Ht @ f
    r = space.rank((1, 1))
    assert out[r] == pytest.approx(-B[r, 0] + D[r, 0], abs=1e-14)


def test_stationary_weight_generic_matches_closed_form():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        W1 = weight_vector(params, space)
        W2 = stationary_weight_generic(*rate_tables(params, space), space)
        assert np.abs(W1 - W2).max() < 1e-13


def test_path_dependent_rates_rejected():
    N = 4
    space = StateSpace(2, N)
    bad = tables_of(
        space,
        lambda j, x: 0.0 if sum(x) >= N else (1.0 + x[1] if j == 0 else 1.0),
        lambda j, x: float(x[j]),
    )
    comp = check_compatibility(*bad, space)
    assert not comp.passed
    assert comp.worst_residual > 0.1
    assert comp.witness is not None
    with pytest.raises(ValidationError, match="path-dependent"):
        stationary_weight_generic(*bad, space)


def test_compatibility_passes_for_model():
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 4)
    comp = check_compatibility(*rate_tables(params, space), space)
    assert comp.passed
    assert comp.pairs_checked > 0
    assert comp.worst_residual < 1e-14


def test_compatibility_vacuous_for_n1():
    params = ModelParams(n=1, N=4, p=(1.0,), q=(2.0,))
    space = StateSpace(1, 4)
    comp = check_compatibility(*rate_tables(params, space), space)
    assert comp.passed
    assert comp.pairs_checked == 0


def test_verify_structure_anchor_instances():
    cases = [
        ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0)),
        ModelParams(n=1, N=5, p=(0.3,), q=(0.7,)),
    ]
    for params in cases:
        space = StateSpace(params.n, params.N)
        report = verify_structure(*rate_tables(params, space), space, tol=1e-12)
        assert report.passed, "\n".join(report.lines())


def test_verify_structure_random_loop():
    rng = np.random.default_rng(20260815)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        report = verify_structure(*rate_tables(params, space), space)
        assert report.passed, "\n".join(report.lines())
