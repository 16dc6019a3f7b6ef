import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import BAD_WEIGHTS, dense_operators, draw_model

from mvkraw import (
    ModelParams,
    StateSpace,
    ValidationError,
    check_rate_tables,
    generator_from_tables,
    rate_tables,
    verify_structure,
    weight_vector,
)
from mvkraw import bdcore


def tables_of(space, birth, death):
    """Rate tables of a field given point by point: birth(j, x), death(j, x)."""
    B = np.array([[birth(j, x) for j in range(space.n)] for x in space.points])
    D = np.array([[death(j, x) for j in range(space.n)] for x in space.points])
    return B, D


def weight_by_point_walk(B, D, space, tol=1e-10):
    """Stationary weight propagated point by point in rank order, one
    math.log pair per parent direction: the reference for the layered
    propagation of `bdcore._log_weight`, messages included."""
    logw = np.empty(space.size)
    logw[0] = 0.0
    for i in range(1, space.size):
        pt = space.points[i]
        value = None
        for j in range(space.n):
            if pt[j] == 0:
                continue
            parent = space.down[i, j]
            b, d = B[parent, j], D[i, j]
            if d <= 0.0:
                raise ValidationError(
                    f"death rate vanishes entering {pt} along direction {j}: "
                    "two-term weight undefined"
                )
            if b <= 0.0:
                raise ValidationError(
                    f"state {pt} unreachable: birth rate vanishes at "
                    f"{space.points[parent]} in direction {j}"
                )
            candidate = logw[parent] + math.log(b) - math.log(d)
            if value is None:
                value = candidate
            elif abs(candidate - value) > tol:
                raise ValidationError(
                    f"two-term relation is path-dependent at {pt}: "
                    f"log-weight {candidate:.12g} vs {value:.12g}; "
                    "rate field fails the compatibility condition"
                )
        logw[i] = value
    logw -= logw.max()
    W = np.exp(logw)
    return W / W.sum()


def compatibility_by_plaquette_loop(B, D, space, tol=1e-10):
    """The pairwise condition that makes the two-term weight consistent:
    around every plaquette (x, x+e_j, x+e_k, x+e_j+e_k) the products of
    birth/death ratios along the two paths agree, plaquettes with a
    vanishing death rate skipped.  Returns (passed, worst residual, the
    first worst (x, j, k) or None)."""
    worst = 0.0
    witness = None
    for i in range(space.size):
        for j in range(space.n):
            xj = space.up[i, j]
            if xj < 0:
                continue
            for k in range(j + 1, space.n):
                xk = space.up[i, k]
                if xk < 0:
                    continue
                xjk = space.up[xj, k]
                if xjk < 0:
                    continue
                d1, d2 = D[xj, j], D[xjk, k]
                d3, d4 = D[xk, k], D[xjk, j]
                if d1 == 0.0 or d2 == 0.0 or d3 == 0.0 or d4 == 0.0:
                    continue
                lhs = (B[i, j] / d1) * (B[xj, k] / d2)
                rhs = (B[i, k] / d3) * (B[xk, j] / d4)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                residual = abs(lhs - rhs) / scale
                if residual > worst:
                    worst = residual
                    witness = (tuple(space.coords[i].tolist()), j, k)
    return worst <= tol, worst, witness


def _message(fn, *args):
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


def _layered_weight(B, D, space):
    """W from `bdcore._log_weight`, normalized as the point walk does."""
    W = np.exp(bdcore._log_weight(B, D, space))
    return W / W.sum()


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
    nan = tables_of(space, ok_birth, ok_death)
    nan[1][space.rank((1, 1)), 0] = np.nan
    for consume in (verify_structure, generator_from_tables):
        for field, match in ((leaky, "vanish at the ceiling"), (negative, "negative rate"),
                             (nan, "non-finite rate"), ((B[:, :1], D[:, :1]), "shapes")):
            with pytest.raises(ValidationError, match=match):
                consume(*field, space)


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
    L, H, _, _ = dense_operators(B, D, space)
    assert np.abs(H - H.T).max() == 0.0
    W = weight_vector(params, space)
    s = np.sqrt(W)
    # H = -W^{-1/2} L W^{1/2}, entrywise -L[x, y] sqrt(W[y] / W[x])
    assert np.abs(H + (L * s[None, :]) / s[:, None]).max() < 1e-12
    assert np.abs(H @ s).max() < 1e-13
    evals = np.linalg.eigvalsh(H)
    assert evals.min() > -1e-12 * np.abs(evals).max()


def test_ladder_factorization():
    params = ModelParams(n=3, N=3, p=(1.0, 2.0, 0.5), q=(1.0, 2.5, 6.0))
    space = StateSpace(3, 3)
    B, D = rate_tables(params, space)
    _, H, _, ladders = dense_operators(B, D, space)
    acc = np.zeros_like(H)
    W = weight_vector(params, space)
    s = np.sqrt(W)
    for A in ladders:
        acc += A.T @ A
        assert np.abs(A @ s).max() < 1e-13
    assert np.abs(H - acc).max() < 1e-12


def test_difference_operator():
    params = ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 3)
    B, D = rate_tables(params, space)
    Ht = dense_operators(B, D, space)[2]
    ones = np.ones(space.size)
    assert np.abs(Ht @ ones).max() == 0.0
    # action on the coordinate function x1 at an interior point:
    # B_1 (f(x) - f(x+e1)) + D_1 (f(x) - f(x-e1)) = -B_1 + D_1
    f = np.array([float(x[0]) for x in space.points])
    out = Ht @ f
    r = space.rank((1, 1))
    assert out[r] == pytest.approx(-B[r, 0] + D[r, 0], abs=1e-14)


@pytest.mark.parametrize("n, N", [(1, 6), (2, 4), (3, 3)])
def test_builders_match_their_formulas(n, N):
    # generic fields, a fifth of the rates zero inside the lattice as well
    rng = np.random.default_rng(100 * n + N)
    space = StateSpace(n, N)
    for _ in range(4):
        B, D = (rng.uniform(0.1, 5.0, (space.size, n))
                * (rng.random((space.size, n)) > 0.2) for _ in range(2))
        B[space.up < 0] = 0.0
        D[space.down < 0] = 0.0
        L, H, Ht, ladders = dense_operators(B, D, space)
        built = [generator_from_tables(B, D, space),
                 bdcore._symmetrized(B, D, space).csr(), bdcore._difference(B, D, space).csr()]
        built += [bdcore._ladder(B, D, space, j).csr() for j in range(n)]
        for op, ref in zip(built, [L, H, Ht, *ladders]):
            assert op.format == "csr" and op.has_sorted_indices
            assert np.array_equal(op.toarray(), ref)
            assert (op.data != 0).all()
        assert np.array_equal(built[1].toarray(), built[1].toarray().T)


@pytest.mark.parametrize("n, N", [(1, 6), (2, 4), (3, 3)])
def test_stencils_act_as_their_matrices(n, N):
    # the neighbour layout `verify_structure` reads: gather, mirrored
    # transpose, conjugation and column sums against the dense matrices
    rng = np.random.default_rng(7 * n + N)
    space = StateSpace(n, N)
    B, D = (rng.uniform(0.1, 5.0, (space.size, n)) for _ in range(2))
    B[space.up < 0] = 0.0
    D[space.down < 0] = 0.0
    logw = rng.normal(0.0, 3.0, space.size)
    v, V = rng.normal(size=space.size), rng.normal(size=(space.size, 4))
    stencils = [bdcore._generator(B, D, space), bdcore._symmetrized(B, D, space),
                bdcore._difference(B, D, space)]
    stencils += [bdcore._ladder(B, D, space, j) for j in range(n)]
    for op in stencils:
        A = op.csr().toarray()
        assert np.allclose(op @ v, A @ v, rtol=0.0, atol=1e-13)
        assert np.allclose(op @ V, A @ V, rtol=0.0, atol=1e-13)
        assert np.array_equal(op.T.csr().toarray(), A.T)
        conj = np.exp(0.5 * (logw[None, :] - logw[:, None])) * A
        assert np.allclose(op.conjugated(logw).csr().toarray(), conj, rtol=1e-14, atol=0.0)
        assert np.allclose(op.column_sums(), A.sum(axis=0), rtol=0.0, atol=1e-13)
    # sum_j A_j^T A_j in the full layout, from the ladders' entries
    H = stencils[1]
    gram = bdcore._Stencil(H.cols, bdcore._ladder_gram(stencils[3:], n))
    dense = sum(A.csr().toarray().T @ A.csr().toarray() for A in stencils[3:])
    assert np.allclose(gram.csr().toarray(), dense, rtol=0.0, atol=1e-13)


def test_stationary_weight_generic_matches_closed_form():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        W1 = weight_vector(params, space)
        B, D = rate_tables(params, space)
        W2 = weight_by_point_walk(B, D, space)
        assert np.abs(W1 - W2).max() < 1e-13
        assert np.array_equal(_layered_weight(B, D, space), W2)


def test_stationary_weight_generic_names_the_first_offender():
    params = ModelParams(n=3, N=4, p=(1.0, 2.0, 1.5), q=(1.0, 3.0, 6.0))
    space = StateSpace(3, 4)
    B, D = rate_tables(params, space)
    dead = D.copy()
    dead[space.rank((0, 2, 1)), 2] = 0.0
    dead[space.rank((1, 1, 0)), 1] = 0.0
    msg = _message(verify_structure, B, dead, space)
    assert msg == ("death rate vanishes entering (1, 1, 0) along direction 1: "
                   "two-term weight undefined")
    closed = B.copy()
    closed[space.rank((0, 1, 1)), 0] = 0.0
    closed[space.rank((0, 0, 1)), 0] = 0.0
    msg = _message(verify_structure, closed, D, space)
    assert msg == "state (1, 0, 1) unreachable: birth rate vanishes at (0, 0, 1) in direction 0"

    # random mixes of the three faults: the layered propagation reports the
    # (point, direction) the point-by-point walk stops at, word for word
    rng = np.random.default_rng(20260815)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        space = StateSpace(n, N)
        B, D = rate_tables(draw_model(rng, n, N), space)
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(space.size)), int(rng.integers(n))
            fault = int(rng.integers(3))
            if fault == 0:
                B[i, j] = 0.0
            elif fault == 1:
                D[i, j] = 0.0
            else:
                B[i, j] *= 1.5
        try:
            W = weight_by_point_walk(B, D, space)
        except ValidationError as exc:
            seen.update(k for k in ("undefined", "unreachable", "path-dependent")
                        if k in str(exc))
            assert _message(verify_structure, B, D, space) == str(exc)
        else:
            assert np.array_equal(_layered_weight(B, D, space), W)
    assert seen == {"undefined", "unreachable", "path-dependent"}


def test_path_dependent_rates_rejected():
    N = 4
    space = StateSpace(2, N)
    bad = tables_of(
        space,
        lambda j, x: 0.0 if sum(x) >= N else (1.0 + x[1] if j == 0 else 1.0),
        lambda j, x: float(x[j]),
    )
    passed, worst, witness = compatibility_by_plaquette_loop(*bad, space)
    assert not passed
    assert worst > 0.1
    assert witness is not None
    with pytest.raises(ValidationError, match="path-dependent"):
        verify_structure(*bad, space)


def test_verify_structure_anchor_instances():
    cases = [
        ModelParams(n=2, N=3, p=(1.0, 2.0), q=(3.0, 5.0)),
        ModelParams(n=1, N=5, p=(0.3,), q=(0.7,)),
    ]
    for params in cases:
        space = StateSpace(params.n, params.N)
        report = verify_structure(*rate_tables(params, space), space, tol=1e-12)
        assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("case", BAD_WEIGHTS)
def test_verify_structure_refuses_a_bad_weight(case):
    # the weight is read through gathers that clip their indices, so a
    # wrong shape would pass unnoticed and a negative entry reach sqrt
    params = ModelParams(n=2, N=4, p=(1.0, 1.0), q=(1.0, 3.0))
    space = StateSpace(2, 4)
    bad = BAD_WEIGHTS[case](weight_vector(params, space))
    with pytest.raises(ValidationError, match="weight vector"):
        verify_structure(*rate_tables(params, space), space, bad)


def test_verify_structure_random_loop():
    rng = np.random.default_rng(20260815)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        B, D = rate_tables(params, space)
        report = verify_structure(B, D, space)
        assert report.passed, "\n".join(report.lines())
        # the ladder certificate never reads below the dense eigh oracle, up
        # to the rounding both carry: lambda_min is 0 here, and eigh returns
        # it to within about size * eps relative (-8e-17 at one draw where
        # the certificate reads 1.7e-17)
        H = dense_operators(B, D, space)[1]
        assert report["symmetrized-positive-semidefinite"].residual >= (
            _dense_negative_part(H) - space.size * np.finfo(float).eps
        )


def _dense_negative_part(H):
    """max(0, -lambda_min) / ||H||_2 from a dense eigh: the PSD oracle."""
    evals = scipy.linalg.eigh(H, eigvals_only=True)
    return max(0.0, -evals[0]) / max(abs(evals[0]), abs(evals[-1]))


def test_psd_certificate_fails_on_shifted_operator(monkeypatch):
    # H - c I has lambda_min = -c; the ladder residual must flag it.  The
    # shift enters through the stencil `verify_structure` reads H from.
    params = ModelParams(n=2, N=5, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 5)
    build = bdcore._symmetrized

    def shifted(B, D, space):
        H = build(B, D, space)
        vals = H.vals.copy()
        vals[:, space.n] -= 1e-3 * vals[:, space.n].max()
        return H._replace(vals=vals)

    monkeypatch.setattr(bdcore, "_symmetrized", shifted)
    B, D = rate_tables(params, space)
    check = verify_structure(B, D, space)["symmetrized-positive-semidefinite"]
    assert not check.passed
    assert check.residual >= _dense_negative_part(shifted(B, D, space).csr().toarray())


@pytest.mark.parametrize("params", [
    # smallest W near 1e-334, below the float64 range
    ModelParams(n=1, N=700, p=(1.0,), q=(2.0,)),
    ModelParams(n=2, N=60, p=(1.0, 1.0), q=(1e6, 2e6)),
])
def test_similarity_checks_survive_underflowing_weight(params):
    # sqrt(W(col)/W(row)) comes from differences of log W, so the two
    # similarity checks stay finite where 1/sqrt(W) would read inf
    space = StateSpace(params.n, params.N)
    B, D = rate_tables(params, space)
    assert (weight_vector(params, space) == 0.0).any()
    # log W comes from the two-term relation also when the caller passes
    # a W with zeros in it
    for W in (None, weight_vector(params, space)):
        report = verify_structure(B, D, space, W=W)
        assert report.passed, "\n".join(report.lines())
        for name in ("symmetrized-similarity", "difference-op-similarity"):
            assert report[name].residual <= 1e-12, report[name].line()
