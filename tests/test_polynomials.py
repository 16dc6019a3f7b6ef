import numpy as np
import pytest

from conftest import draw_model, series_table

from mvkraw import (
    ModelParams,
    StateSpace,
    ValidationError,
    dual_gram,
    eigen_residuals,
    eval_P,
    eval_P_via_generating_function,
    eval_Q,
    gram_matrix,
    kr_P,
    orthonormal_map,
    solve_spectrum,
    table,
    table_via_generating_function,
)
from mvkraw.polynomials import degree_eigenvalues, degree_structure_residuals


def canonical(n):
    if n == 2:
        return ModelParams(n=2, N=5, p=(1.0, 2.0), q=(3.0, 5.0))
    return ModelParams(n=3, N=3, p=(1.0, 2.0, 3.0), q=(2.0, 4.0, 7.0))


def test_degree_zero_and_one():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    assert np.allclose(tab[:, 0], 1.0, atol=0.0)          # P_0 = 1
    assert np.allclose(tab[0, :], 1.0, atol=0.0)          # P_m(0) = 1
    # degree-one closed form P_{e_j}(x) = 1 - (1/N) sum_i u_ij x_i
    N = 5
    for j in range(2):
        m = tuple(int(i == j) for i in range(2))
        col = tab[:, space.rank(m)]
        for r, x in enumerate(space.points):
            expected = 1.0 - sum(spec.u[i, j] * x[i] for i in range(2)) / N
            assert col[r] == pytest.approx(expected, abs=1e-12)


def test_level_one_table_is_coupling_matrix():
    params = canonical(2)
    spec = solve_spectrum(params)
    space1 = StateSpace(2, 1)
    tab1 = table(spec, space1)
    # ranks order unit vectors by reverse coordinate, so permute
    perm = [0] + [space1.rank(tuple(int(i == j) for i in range(2))) for j in range(2)]
    a_permuted = spec.a[np.ix_(perm, perm)]
    assert np.abs(tab1 - a_permuted).max() < 1e-13


def test_oracle_equivalence_canonical():
    for n in (2, 3):
        params = canonical(n)
        spec = solve_spectrum(params)
        space = StateSpace(params.n, params.N)
        direct = table(spec, space)
        oracle = table_via_generating_function(spec, space)
        assert np.abs(direct - oracle).max() < 1e-10


def test_oracle_equivalence_scaled_random():
    rng = np.random.default_rng(20260815)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        params = draw_model(rng, n, N)
        spec = solve_spectrum(params)
        space = StateSpace(n, N)
        direct = table(spec, space)
        oracle = table_via_generating_function(spec, space)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(direct - oracle).max() / scale < 1e-13


def test_table_matches_series_entrywise():
    rng = np.random.default_rng(20260815)
    for n, N in ((1, 8), (2, 5), (3, 4), (4, 3)):
        for _ in range(3):
            params = draw_model(rng, n, N)
            spec = solve_spectrum(params)
            space = StateSpace(n, N)
            series = series_table(spec, space)
            scale = np.maximum(1.0, np.abs(series))
            assert np.abs(table(spec, space) - series).max() / scale.max() < 1e-12


def test_table_accepts_bare_u_matrix():
    params = canonical(3)
    spec = solve_spectrum(params)
    space = StateSpace(3, 3)
    assert np.array_equal(table(spec.u, space), table(spec, space))
    with pytest.raises(ValidationError):
        table(spec.u, StateSpace(2, 3))


def test_generating_function_at_unit_arguments():
    # at t = (1,..,1): sum_m C(N,m) P_m(x) = prod_i (row sum of a_i)^{x_i}
    from mvkraw.combinatorics import multinomial

    params = canonical(2)
    spec = solve_spectrum(params)
    N = 5
    space = StateSpace(2, N)
    tab = table(spec, space)
    binom = np.array([multinomial(N, m) for m in space.points])
    totals = tab @ binom
    row_sums = spec.a.sum(axis=1)
    for r, x in enumerate(space.points):
        powers = (N - sum(x),) + x
        expected = np.prod(row_sums ** np.array(powers))
        assert totals[r] == pytest.approx(expected, rel=1e-12, abs=1e-10)


def test_transpose_symmetry():
    params = canonical(2)
    spec = solve_spectrum(params)
    rng = np.random.default_rng(20260815)
    space = StateSpace(2, 5)
    pts = space.points
    for _ in range(30):
        m = pts[int(rng.integers(0, len(pts)))]
        x = pts[int(rng.integers(0, len(pts)))]
        direct = eval_P(spec.u, m, x, 5)
        swapped = eval_P(spec.u.T, x, m, 5)
        assert direct == pytest.approx(swapped, rel=1e-13, abs=1e-13)
        assert eval_Q(spec, x, m, 5) == direct


def test_eval_P_validation():
    params = canonical(2)
    spec = solve_spectrum(params)
    with pytest.raises(ValidationError):
        eval_P(spec, (3, 3), (0, 0), 5)
    with pytest.raises(ValidationError):
        eval_P(spec, (0, 0), (6, 0), 5)
    with pytest.raises(ValidationError):
        eval_P(spec, (0, -1), (0, 0), 5)


def test_eigen_equation_canonical():
    for n in (2, 3):
        params = canonical(n)
        spec = solve_spectrum(params)
        space = StateSpace(params.n, params.N)
        tab = table(spec, space)
        res = eigen_residuals(params, spec, space, tab)
        assert res.max() < 1e-10


def test_degree_eigenvalues_vector():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    E = degree_eigenvalues(spec, space)
    assert E[0] == 0.0
    r = space.rank((2, 1))
    assert E[r] == pytest.approx(2 * spec.lam[0] + spec.lam[1], rel=1e-15)


def test_gram_and_norms():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    g = gram_matrix(params, spec, space, tab)
    assert g.worst_offdiagonal < 1e-12
    assert g.worst_diagonal_rel < 1e-10
    assert np.all(g.expected_diagonal > 0)


def test_dual_gram():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    dg = dual_gram(params, spec, space, tab)
    assert dg.worst_offdiagonal < 1e-12
    assert dg.worst_diagonal_rel < 1e-10


def test_orthonormal_map_both_ways():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    T = orthonormal_map(params, spec, space, tab)
    eye = np.eye(space.size)
    assert np.abs(T.T @ T - eye).max() < 1e-12
    assert np.abs(T @ T.T - eye).max() < 1e-12


def test_columns_are_polynomials_of_their_degree():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    res = degree_structure_residuals(space, tab)
    assert res.max() < 1e-9


def test_n1_matches_classical():
    for N in range(1, 11):
        for (p, q) in ((1.0, 1.0), (0.3, 0.7), (5.0, 0.2), (0.1, 9.7)):
            params = ModelParams(n=1, N=N, p=(p,), q=(q,))
            spec = solve_spectrum(params)
            space = StateSpace(1, N)
            tab = table(spec, space)
            ref = np.array(
                [[kr_P(m, x, spec.eta[0], N) for m in range(N + 1)]
                 for x in range(N + 1)]
            )
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(tab - ref).max() / scale < 1e-12


def test_kr_P_anchor():
    # N = 2, p = 1/2: the degree-one polynomial is 1 - x
    vals = [kr_P(1, x, 0.5, 2) for x in range(3)]
    assert vals == [1.0, 0.0, -1.0]
    assert kr_P(0, 2, 0.3, 2) == 1.0
    with pytest.raises(ValidationError):
        kr_P(3, 0, 0.5, 2)
    with pytest.raises(ValidationError):
        kr_P(1, 1, 1.5, 2)


def test_relabeling_carries_to_tables():
    params = ModelParams(n=3, N=2, p=(1.0, 2.0, 0.5), q=(0.5, 2.0, 6.0))
    perm = (2, 0, 1)
    permuted = ModelParams(
        n=3, N=2,
        p=tuple(params.p[i] for i in perm),
        q=tuple(params.q[i] for i in perm),
    )
    spec, spec_p = solve_spectrum(params), solve_spectrum(permuted)
    space = StateSpace(3, 2)
    tab, tab_p = table(spec, space), table(spec_p, space)
    for r, x in enumerate(space.points):
        xp = tuple(x[i] for i in perm)
        rp = space.rank(xp)
        # P'_m(x') = P_m(x): same labels, permuted coordinates
        assert np.allclose(tab[r], tab_p[rp], rtol=1e-10, atol=1e-12)


def test_single_point_generating_function():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    row = eval_P_via_generating_function(spec, (2, 1), space)
    tab = table(spec, space)
    assert np.abs(row - tab[space.rank((2, 1))]).max() < 1e-11
