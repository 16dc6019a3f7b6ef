import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import draw_model, gram_reference, multinomial, series_table, traced_peak

from mvkraw import (
    CapExceeded,
    ModelParams,
    StateSpace,
    ValidationError,
    cli,
    eval_P,
    eval_P_via_generating_function,
    kr_P,
    orthonormal_map,
    orthonormality,
    rate_tables,
    solve_spectrum,
    table,
    table_checks,
    table_via_generating_function,
)
from mvkraw.model import multinomial_vector, weight_vector
from mvkraw.bdcore import _symmetrized
from mvkraw.polynomials import _ORACLE_BLOCK, degree_eigenvalues
from mvkraw.sympower import coefficient_power, coefficient_row


def degree_structure_residuals(space: StateSpace, tab: np.ndarray) -> np.ndarray:
    """Least-squares defect of fitting each column by monomials x^alpha of
    total degree at most |m|; near zero iff the column is a polynomial of
    the right degree."""
    import scipy.linalg

    coords = space.coords.astype(float)
    monomials = np.prod(coords[:, None, :] ** coords[None, :, :], axis=2)
    out = np.empty(space.size)
    for mr in range(space.size):
        k = int(np.searchsorted(space.degrees, space.degrees[mr], side="right"))
        basis = monomials[:, :k]
        col = tab[:, mr]
        fit, *_ = scipy.linalg.lstsq(basis, col, lapack_driver="gelsy")
        out[mr] = np.linalg.norm(basis @ fit - col) / max(1.0, np.linalg.norm(col))
    return out


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


def test_generating_function_at_unit_arguments():
    # at t = (1,..,1): sum_m C(N,m) P_m(x) = prod_i (row sum of a_i)^{x_i}
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


def test_eval_P_validation():
    params = canonical(2)
    spec = solve_spectrum(params)
    with pytest.raises(ValidationError):
        eval_P(spec, (3, 3), (0, 0), 5)
    with pytest.raises(ValidationError):
        eval_P(spec, (0, 0), (6, 0), 5)
    with pytest.raises(ValidationError):
        eval_P(spec, (0, -1), (0, 0), 5)
    # a table needs spectral data of the lattice's dimension
    with pytest.raises(ValidationError):
        table(spec, StateSpace(3, 5))
    # the one-row product takes slot 0 as a multinomial: row 0 of R >= 0;
    # the oracle's degree recursion powers any R and agrees with the kernel
    R = spec.R.copy()
    R[0, 1] = -1.0
    space = StateSpace(2, 5)
    with pytest.raises(ValidationError):
        coefficient_row(R, np.array([1, 0]), space)
    row = eval_P_via_generating_function(SimpleNamespace(R=R), (1, 0), space)
    kernel = table(SimpleNamespace(R=R), space)[space.rank((1, 0))]
    assert np.abs(row - kernel).max() <= 1e-12 * np.abs(kernel).max()
    # the oracle expands R, which must be (n+1) x (n+1) for the lattice
    with pytest.raises(ValidationError, match="coefficient matrix"):
        table_via_generating_function(spec, StateSpace(3, 2))
    with pytest.raises(ValidationError, match="coefficient matrix"):
        eval_P_via_generating_function(spec, (1, 0, 0), StateSpace(3, 2))


def test_eigen_equation_canonical():
    for n in (2, 3):
        params = canonical(n)
        space = StateSpace(params.n, params.N)
        report = table_checks(solve_spectrum(params), space, *rate_tables(params, space))
        assert report["eigen-equation"].residual < 1e-10


def test_table_checks_where_P_leaves_float64(tmp_path, capsys):
    # draw 53 of the seeded sweep: P leaves the float64 range, so `table`
    # raises, while the table checks read T alone; they pass, and they are
    # the checks `verify --level full` writes, to the bit
    params = ModelParams(n=1, N=496, p=(0.0030672663549587264,), q=(1.5522792771591298,))
    space = StateSpace(params.n, params.N)
    spec = solve_spectrum(params)
    with pytest.raises(CapExceeded):
        table(spec, space)
    report = table_checks(spec, space, *rate_tables(params, space))
    assert len(report.checks) == 7 and report.passed, "\n".join(report.lines())

    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": params.n, "N": params.N,
                                "p": list(params.p), "q": list(params.q)}))
    rc = cli.main(["verify", "--level", "full", "--params", str(path), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().out
    written = json.loads((tmp_path / "verify.json").read_text())["report"]["checks"]
    assert written[-7:] == report.as_dict()["checks"]


def test_table_checks_refuse_bad_rate_tables():
    params = canonical(2)
    space = StateSpace(params.n, params.N)
    B, D = rate_tables(params, space)
    with pytest.raises(ValidationError, match="rate tables have shapes"):
        table_checks(solve_spectrum(params), space, B[:-1], D)


def test_degree_eigenvalues_vector():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    E = degree_eigenvalues(spec, space)
    assert E[0] == 0.0
    r = space.rank((2, 1))
    assert E[r] == pytest.approx(2 * spec.lam[0] + spec.lam[1], rel=1e-15)


def _gram_references(params, spec, space, tab):
    """The two Gram checks of P: P^T W P against 1/(C(N,m) eta_bar^m) and
    P Wd P^T against eta_dual0^N / W."""
    W = weight_vector(params, space)
    Wd = multinomial_vector(space, spec.eta_dual[0], spec.eta_dual[1:])
    return (
        gram_reference(tab.T @ (W[:, None] * tab),
                       1.0 / multinomial_vector(space, 1.0, spec.eta_bar)),
        gram_reference(tab @ (Wd[:, None] * tab.T),
                       spec.eta_dual[0] ** space.N / W),
    )


def test_gram_and_norms():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    o = orthonormality(orthonormal_map(params, spec, space, tab))
    assert o.offdiagonal < 1e-12
    assert o.diagonal < 1e-10


def test_dual_gram():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    o = orthonormality(orthonormal_map(params, spec, space, tab))
    assert o.dual_offdiagonal < 1e-12
    assert o.dual_diagonal < 1e-10


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthonormality_matches_gram_reference(n, corrupt):
    params = canonical(n) if n > 1 else ModelParams(n=1, N=7, p=(0.3,), q=(0.7,))
    spec = solve_spectrum(params)
    space = StateSpace(params.n, params.N)
    tab = table(spec, space)
    if corrupt:
        tab[:, 2] *= 1.0 + 1e-6
        tab[3, 4] += 1e-6
    o = orthonormality(orthonormal_map(params, spec, space, tab))
    (off, diag), (dual_off, dual_diag) = _gram_references(params, spec, space, tab)
    got = (o.offdiagonal, o.diagonal, o.dual_offdiagonal, o.dual_diagonal)
    assert np.allclose(got, (off, diag, dual_off, dual_diag), rtol=0.0, atol=1e-12)
    if corrupt:
        assert min(diag, dual_diag) > 1e-7


def _whole_gram_defects(G):
    d = np.sqrt(np.diag(G))
    normalized = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(normalized, 0.0)
    return (float(normalized.max()), float(np.abs(np.diag(G) - 1.0).max()),
            float(np.abs(G - np.eye(len(G))).max()))


def test_table_checks_in_blocks_are_the_whole_matrix_bits():
    # at (3,12), 455 points, the Gram division and the eigen equation take
    # four blocks each; every residual is the bits of the whole-matrix
    # expressions, also for a T that is off by 1e-9 here and there
    params = ModelParams(3, 12, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    space = StateSpace(3, 12)
    spec = solve_spectrum(params)
    B, D = rate_tables(params, space)
    T = coefficient_power(spec.R, space)
    assert len(T) > 2 * _ORACLE_BLOCK // len(T)
    report = table_checks(spec, space, B, D)
    H, E = _symmetrized(B, D, space), degree_eigenvalues(spec, space)
    scale = max(1.0, float((B.sum(axis=1) + D.sum(axis=1)).max()))
    assert report["eigen-equation"].residual == np.abs(H @ T - T * E).max() / scale
    rng = np.random.default_rng(12)
    for corrupt in (False, True):
        if corrupt:
            T[rng.integers(len(T), size=40), rng.integers(len(T), size=40)] += 1e-9
        cols, rows = _whole_gram_defects(T.T @ T), _whole_gram_defects(T @ T.T)
        want = (*cols[:2], *rows[:2], max(cols[2], rows[2]))
        assert tuple(orthonormality(T)) == want
    assert want[0] > 1e-12


def test_orthonormality_memory_is_bounded():
    # at (3,16), 969 points, T is 7.5 MB: orthonormality holds one Gram
    # matrix of T's size, reduced in place, and one block of its division
    # (with room for numpy's buffers), where the whole-matrix expressions
    # held four T-sized matrices at once
    params = ModelParams(3, 16, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    T = coefficient_power(solve_spectrum(params).R, StateSpace(3, 16))
    o, peak = traced_peak(lambda: orthonormality(T))
    assert o.identity < 1e-12
    assert peak <= T.nbytes + 2 * 8 * _ORACLE_BLOCK, (peak, T.nbytes)


def test_orthonormal_map_both_ways():
    params = canonical(2)
    spec = solve_spectrum(params)
    space = StateSpace(2, 5)
    tab = table(spec, space)
    T = orthonormal_map(params, spec, space, tab)
    assert orthonormality(T).identity < 1e-12
    # T is the N-th symmetric power of the one-body matrix R
    assert np.abs(T - coefficient_power(spec.R, space)).max() < 1e-13


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


def test_generating_function_table_refuses_dense_cap_first(monkeypatch):
    # (3,30) has 5,456 points, above the 5,000-point dense cap; no row is
    # expanded before the refusal
    params = ModelParams(n=3, N=30, p=(1.0, 2.0, 1.5), q=(1.0, 3.0, 6.0))
    space = StateSpace(3, 30)
    monkeypatch.setattr("mvkraw.polynomials._oracle_rows",
                        lambda *_: pytest.fail("a row was expanded"))
    with pytest.raises(CapExceeded):
        table_via_generating_function(solve_spectrum(params), space)


def _perfbench_oracles():
    """perfbench/oracles.py, the 60-digit references, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p, q, N", [
    ((1.0,), (2.0,), 120),
    ((1.0, 2.0, 1.5), (1.0, 3.0, 6.0), 8),
])
def test_sampled_oracle_rows_against_60_digits(p, q, N):
    # the rows `verify --level full` checks, against the generating function
    # expanded at 60 digits with its own secular roots
    from mvkraw.polynomials import _oracle_rows, _oracle_sample

    n = len(p)
    space = StateSpace(n, N)
    rows = _oracle_sample(space)
    T = _oracle_rows(solve_spectrum(ModelParams(n=n, N=N, p=p, q=q)).R, space, rows)
    points = tuple(space.points[r] for r in rows)
    reference = _perfbench_oracles().orthonormal_rows(p, q, N, points)
    worst = max(abs(T[i, space.rank(m)] - float(scale * P))
                for i, x in enumerate(points) for m, (P, scale) in reference[x].items())
    assert worst <= 1e-13


@pytest.mark.parametrize("q, N", [(2.0, 700), (10.0, 300)])
def test_table_is_finite_where_raw_coefficients_overflow(q, N):
    # C(N, m) and the coefficients of a overflow together here (inf/inf);
    # P read off T = Sym^N(R) in log space stays finite, up to 1e300
    params = ModelParams(n=1, N=N, p=(1.0,), q=(q,))
    spec = solve_spectrum(params)
    space = StateSpace(1, N)
    tab = table(spec, space)
    assert np.isfinite(tab).all()
    assert orthonormality(orthonormal_map(params, spec, space, tab)).identity <= 1e-12


def test_table_refuses_values_beyond_float64():
    # the true P exceed 1e308 at 20 entries
    params = ModelParams(n=1, N=80, p=(1.0,), q=(1e4,))
    with pytest.raises(CapExceeded, match="float64 range"):
        table(solve_spectrum(params), StateSpace(1, 80))
