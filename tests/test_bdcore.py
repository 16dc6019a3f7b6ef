import math

import numpy as np
import pytest
import scipy.linalg
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
from mvkraw import bdcore


def tables_of(space, birth, death):
    """Rate tables of a field given point by point: birth(j, x), death(j, x)."""
    B = np.array([[birth(j, x) for j in range(space.n)] for x in space.points])
    D = np.array([[death(j, x) for j in range(space.n)] for x in space.points])
    return B, D


def weight_by_point_walk(B, D, space, tol=1e-10):
    """Stationary weight propagated point by point in rank order, one
    math.log pair per parent direction: the reference for the layered
    propagation of `stationary_weight_generic`, messages included."""
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
    """The plaquette-by-plaquette compatibility check: the reference for the
    array code of `check_compatibility`, witness order included."""
    worst = 0.0
    witness = None
    checked = 0
    skipped = 0
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
                    skipped += 1
                    continue
                lhs = (B[i, j] / d1) * (B[xj, k] / d2)
                rhs = (B[i, k] / d3) * (B[xk, j] / d4)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                residual = abs(lhs - rhs) / scale
                checked += 1
                if residual > worst:
                    worst = residual
                    witness = (tuple(space.coords[i].tolist()), j, k)
    return bdcore.CompatibilityResult(worst <= tol, worst, witness, checked, skipped)


def _message(fn, *args):
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


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
        B, D = rate_tables(params, space)
        W2 = stationary_weight_generic(B, D, space)
        assert np.abs(W1 - W2).max() < 1e-13
        assert np.array_equal(W2, weight_by_point_walk(B, D, space))


def test_stationary_weight_generic_names_the_first_offender():
    params = ModelParams(n=3, N=4, p=(1.0, 2.0, 1.5), q=(1.0, 3.0, 6.0))
    space = StateSpace(3, 4)
    B, D = rate_tables(params, space)
    dead = D.copy()
    dead[space.rank((0, 2, 1)), 2] = 0.0
    dead[space.rank((1, 1, 0)), 1] = 0.0
    msg = _message(stationary_weight_generic, B, dead, space)
    assert msg == ("death rate vanishes entering (1, 1, 0) along direction 1: "
                   "two-term weight undefined")
    closed = B.copy()
    closed[space.rank((0, 1, 1)), 0] = 0.0
    closed[space.rank((0, 0, 1)), 0] = 0.0
    msg = _message(stationary_weight_generic, closed, D, space)
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
            assert _message(stationary_weight_generic, B, D, space) == str(exc)
        else:
            assert np.array_equal(stationary_weight_generic(B, D, space), W)
    assert seen == {"undefined", "unreachable", "path-dependent"}


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


def test_check_compatibility_matches_plaquette_loop():
    # model tables (residuals at rounding level), fields with perturbed
    # births (path-dependent), zero death rates (skipped plaquettes) and
    # all-zero residuals (no witness), result for result
    rng = np.random.default_rng(20260815)
    kinds = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 7))
        space = StateSpace(n, N)
        B, D = rate_tables(draw_model(rng, n, N), space)
        for _ in range(int(rng.integers(0, 4))):
            i, j = int(rng.integers(space.size)), int(rng.integers(n))
            if rng.integers(2):
                B[i, j] *= 1.5
            else:
                D[i, j] = 0.0
        for field in ((B, D), (np.where(B > 0, 1.0, 0.0), np.where(D > 0, 1.0, 0.0))):
            ref = compatibility_by_plaquette_loop(*field, space)
            assert check_compatibility(*field, space) == ref
            kinds.update(k for k, hit in (("fail", not ref.passed),
                                          ("skip", ref.pairs_skipped > 0),
                                          ("exact", ref.witness is None
                                           and ref.pairs_checked > 0))
                         if hit)
    assert kinds == {"fail", "skip", "exact"}


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
        B, D = rate_tables(params, space)
        report = verify_structure(B, D, space)
        assert report.passed, "\n".join(report.lines())
        # the ladder certificate never reads below the dense eigh oracle, up
        # to the rounding both carry: lambda_min is 0 here, and eigh returns
        # it to within about size * eps relative (-8e-17 at one draw where
        # the certificate reads 1.7e-17)
        H = symmetrized_from_tables(B, D, space).toarray()
        assert report["symmetrized-positive-semidefinite"].residual >= (
            _dense_negative_part(H) - space.size * np.finfo(float).eps
        )


def _dense_negative_part(H):
    """max(0, -lambda_min) / ||H||_2 from a dense eigh: the PSD oracle."""
    evals = scipy.linalg.eigh(H, eigvals_only=True)
    return max(0.0, -evals[0]) / max(abs(evals[0]), abs(evals[-1]))


def test_psd_certificate_fails_on_shifted_operator(monkeypatch):
    # H - c I has lambda_min = -c; the ladder residual must flag it
    params = ModelParams(n=2, N=5, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 5)
    build = bdcore.symmetrized_from_tables

    def shifted(B, D, space):
        H = build(B, D, space)
        c = 1e-3 * H.diagonal().max()
        return H - c * scipy.sparse.identity(space.size, format="csr")

    monkeypatch.setattr(bdcore, "symmetrized_from_tables", shifted)
    B, D = rate_tables(params, space)
    check = verify_structure(B, D, space)["symmetrized-positive-semidefinite"]
    assert not check.passed
    assert check.residual >= _dense_negative_part(shifted(B, D, space).toarray())


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
    assert (stationary_weight_generic(B, D, space) == 0.0).any()
    report = verify_structure(B, D, space)
    assert report.passed, "\n".join(report.lines())
    for name in ("symmetrized-similarity", "difference-op-similarity"):
        assert report[name].residual <= 1e-12, report[name].line()
