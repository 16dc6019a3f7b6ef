import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import draw_model, multinomial

from mvkraw import (
    ModelParams,
    StateSpace,
    ValidationError,
    probabilities,
    weight_vector,
)
from mvkraw.model import multinomial_vector


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(n=2, N=3, p=(1.0,), q=(1.0, 2.0))
    with pytest.raises(ValidationError):
        ModelParams(n=2, N=3, p=(1.0, -1.0), q=(1.0, 2.0))
    with pytest.raises(ValidationError):
        ModelParams(n=2, N=3, p=(1.0, 1.0), q=(1.0, float("inf")))
    with pytest.raises(ValidationError):
        ModelParams(n=0, N=3, p=(), q=())
    with pytest.raises(ValidationError):
        ModelParams(n=1, N=0, p=(1.0,), q=(1.0,))
    # a string or JSON true is not a number, nor an integer past float64
    for bad in (1, ["x"], [None], ["1", 1.0], [True, 1.0], [10**400, 1.0]):
        with pytest.raises(ValidationError, match="lists of numbers"):
            ModelParams(n=2, N=3, p=bad, q=(1.0, 2.0))
    # JSON true is a bool, not the integer 1
    with pytest.raises(ValidationError, match="must be integers"):
        ModelParams(n=True, N=3, p=(1.0,), q=(2.0,))
    with pytest.raises(ValidationError, match="must be integers"):
        ModelParams(n=1, N=True, p=(1.0,), q=(2.0,))


def test_probabilities_anchor():
    # ratios p/q = (1, 1/3): eta0 = 1/(1 + 4/3) = 3/7
    params = ModelParams(n=2, N=1, p=(1.0, 1.0), q=(1.0, 3.0))
    probs = probabilities(params)
    assert probs.eta0 == pytest.approx(3 / 7, abs=1e-15)
    assert probs.eta[0] == pytest.approx(3 / 7, abs=1e-15)
    assert probs.eta[1] == pytest.approx(1 / 7, abs=1e-15)
    assert probs.eta0 + sum(probs.eta) == pytest.approx(1.0, abs=1e-15)


def test_probabilities_invariant_under_common_scaling():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        params = draw_model(rng, 3, 2)
        scale = float(rng.uniform(0.5, 20.0))
        scaled = ModelParams(
            n=3, N=2,
            p=tuple(scale * v for v in params.p),
            q=tuple(scale * v for v in params.q),
        )
        a, b = probabilities(params), probabilities(scaled)
        assert a.eta0 == pytest.approx(b.eta0, rel=1e-12)
        assert np.allclose(a.eta, b.eta, rtol=1e-12)


def test_weight_vector_anchor():
    params = ModelParams(n=2, N=1, p=(1.0, 1.0), q=(1.0, 3.0))
    space = StateSpace(2, 1)
    W = weight_vector(params, space)
    # points (0,0), (0,1), (1,0) -> eta0, eta2, eta1
    assert np.allclose(W, [3 / 7, 1 / 7, 3 / 7], atol=1e-15)
    # eta0 = eta = 1/3 at N = 3: W((1,1)) = 3!/(1!1!1!) / 27 = 6/27
    params = ModelParams(n=2, N=3, p=(1.0, 1.0), q=(1.0, 1.0))
    space = StateSpace(2, 3)
    W = weight_vector(params, space)
    assert W[space.rank((1, 1))] == pytest.approx(6 / 27, abs=1e-15)


def test_weight_is_multinomial():
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(3.0, 5.0))
    space = StateSpace(2, 4)
    probs = probabilities(params)
    W = weight_vector(params, space)
    assert W.sum() == pytest.approx(1.0, abs=1e-14)
    e0 = Fraction(probs.eta0)
    e = [Fraction(v) for v in probs.eta]
    # exact multinomial pmf via Fractions on the float probabilities
    for r, x in enumerate(space.points):
        coeff = math.factorial(4) // (
            math.factorial(x[0]) * math.factorial(x[1]) * math.factorial(4 - sum(x))
        )
        exact = coeff * e0 ** (4 - sum(x)) * e[0] ** x[0] * e[1] ** x[1]
        assert W[r] == pytest.approx(float(exact), rel=1e-13)


def test_multinomial_vector_matches_per_point_values():
    # both routes, exact integers up to N = 20 and log space above, against
    # the exact rational pmf of the float cells
    rng = np.random.default_rng(20260815)
    for n, N in ((1, 20), (2, 20), (3, 12), (4, 7), (2, 1), (2, 25), (3, 25), (2, 80)):
        space = StateSpace(n, N)
        cells = rng.dirichlet(np.ones(n + 1))
        W = multinomial_vector(space, cells[0], cells[1:])
        exact = [Fraction(v) for v in cells]
        powers = [[c**k for k in range(N + 1)] for c in exact]
        for r, x in enumerate(space.points):
            counts = (N - sum(x),) + x
            value = math.factorial(N)
            for c, k in enumerate(counts):
                value = value * powers[c][k] / math.factorial(k)
            assert abs(W[r] / float(value) - 1.0) < 1e-13, (x, W[r], float(value))
        if N <= 20:
            ones = multinomial_vector(space, 1.0, np.ones(n))
            assert np.array_equal(ones, [multinomial(N, x) for x in space.points])


def test_large_N_log_path_consistent():
    # exact integer path (N <= 20) against the log-gamma path (N > 20)
    eta0, eta = 0.2, np.array([0.5, 0.3])
    space_small = StateSpace(2, 20)
    W = multinomial_vector(space_small, eta0, eta)
    assert W.sum() == pytest.approx(1.0, rel=1e-12)
    space_big = StateSpace(2, 25)
    Wb = multinomial_vector(space_big, eta0, eta)
    assert Wb.sum() == pytest.approx(1.0, rel=1e-11)
    assert Wb.min() > 0


def test_coincidence_gap_and_exceptional():
    params = ModelParams(n=2, N=3, p=(1.0, 1.0), q=(2.0, 2.0))
    assert params.exceptional()
    assert ModelParams(n=3, N=3, p=(1.0, 1.0, 1.0), q=(5.0, 4.0, 5.0)).exceptional()
    # only equal q's are exceptional, however close distinct ones lie
    near = ModelParams(n=2, N=3, p=(1.0, 1.0), q=(2.0, 2.0 + 1e-12))
    assert not near.exceptional()
    apart = ModelParams(n=2, N=3, p=(1.0, 1.0), q=(2.0, 3.0))
    assert not apart.exceptional()
    single = ModelParams(n=1, N=3, p=(1.0,), q=(2.0,))
    assert not single.exceptional()


def test_multinomial_vector_zero_cell_above_exact_range():
    # the log route must give 0 log 0 = 0: at N=80 with cells (0.5, 0.5, 0)
    # the pmf is C(80, x1) 0.5^80 on x2 = 0 and vanishes elsewhere
    space = StateSpace(2, 80)
    W = multinomial_vector(space, 0.5, (0.5, 0.0))
    on_axis = space.coords[:, 1] == 0
    expected = [math.comb(80, int(x1)) * 0.5**80 for x1 in space.coords[on_axis, 0]]
    assert np.all(np.isfinite(W))
    np.testing.assert_allclose(W[on_axis], expected, rtol=1e-13, atol=0)
    assert np.all(W[~on_axis] == 0)
    assert W.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("n, N, sampled", [(2, 40, 300), (3, 80, 300), (1, 2000, None)])
def test_multinomial_vector_against_50_digits(n, N, sampled):
    # the log route against the exact pmf of the float cells at 50 digits:
    # within 4 ulp in the normal range; in the subnormal range, and where
    # the pmf rounds to 0, within two subnormal spacings.  At (1,2000) every
    # point is compared, the tails included.
    import mpmath

    rng = np.random.default_rng(2000 + N)
    space = StateSpace(n, N)
    cells = rng.dirichlet(np.ones(n + 1)) if n > 1 else np.array([0.3, 0.7])
    W = multinomial_vector(space, cells[0], cells[1:])
    ranks = (range(space.size) if sampled is None
             else rng.choice(space.size, sampled, replace=False))
    tiny, spacing = np.finfo(float).tiny, 2.0**-1074
    tails = []
    with mpmath.workdps(50):
        for r in ranks:
            counts = [N - int(space.degrees[r]), *space.coords[r].tolist()]
            exact = mpmath.factorial(N)
            for c, k in zip(cells, counts):
                exact *= mpmath.mpf(float(c)) ** k / mpmath.factorial(k)
            error = abs(mpmath.mpf(float(W[r])) - exact)
            if exact >= tiny:
                assert error <= 4 * math.ulp(float(exact)), (counts, W[r], exact)
            else:
                tails.append(W[r])
                assert error <= 2 * spacing, (counts, W[r], exact)
    if N == 2000:
        tails = np.array(tails)
        assert (tails == 0).sum() > 100 and ((tails > 0) & (tails < tiny)).sum() > 10
