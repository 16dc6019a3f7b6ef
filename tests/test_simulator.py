import numpy as np
import pytest
import scipy.linalg

from mvkraw import (
    AbsorbingState,
    ModelParams,
    StateSpace,
    ValidationError,
    evolve_distribution,
    generator_from_tables,
    gillespie_run,
    kl_divergence,
    rate_tables,
    relaxation_rate,
    run_replicas,
    total_variation,
    weight_vector,
)
from mvkraw.simulate import RNG_FAMILY, gillespie_from_tables


@pytest.fixture(scope="module")
def setup():
    params = ModelParams(2, 4, (1.0, 1.0), (1.0, 3.0))
    space = StateSpace(2, 4)
    return params, space


def test_deterministic_per_seed(setup):
    params, space = setup
    a = gillespie_run(params, space, 20_000, seed=7)
    b = gillespie_run(params, space, 20_000, seed=7)
    assert np.array_equal(a.occupation, b.occupation)
    assert a.final_state == b.final_state
    assert a.events == b.events == 20_000
    assert a.rng_family == RNG_FAMILY == "numpy-PCG64"
    c = gillespie_run(params, space, 20_000, seed=8)
    assert not np.array_equal(a.occupation, c.occupation)


def test_occupation_is_distribution(setup):
    params, space = setup
    res = gillespie_run(params, space, 5_000, seed=3)
    assert res.occupation.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.occupation.min() >= 0.0
    assert res.visits.sum() == res.events
    assert res.total_time > 0.0


def test_convergence_toward_stationary(setup):
    params, space = setup
    W = weight_vector(params, space)
    short = gillespie_run(params, space, 2_000, seed=11)
    long = gillespie_run(params, space, 200_000, seed=11)
    assert long.tv_to_stationary < short.tv_to_stationary
    assert long.tv_to_stationary < 0.05
    assert total_variation(long.occupation, W) == pytest.approx(
        long.tv_to_stationary
    )


def test_absorbing_state_detected():
    space = StateSpace(1, 2)
    B = np.zeros((space.size, 1))
    D = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(AbsorbingState):
        gillespie_from_tables(B, D, space, 100, seed=1, initial_rank=0)


def test_rate_table_validation(setup):
    params, space = setup
    B = np.ones((space.size, 2))
    D = np.ones((space.size, 2))
    with pytest.raises(ValidationError):
        gillespie_from_tables(B[:-1], D, space, 10, seed=0)
    B2 = B.copy()
    B2[0, 0] = -1.0
    with pytest.raises(ValidationError, match="negative rates"):
        gillespie_from_tables(B2, D, space, 10, seed=0)
    B3 = B.copy()
    B3[0, 0] = np.nan
    with pytest.raises(ValidationError):
        gillespie_from_tables(B3, D, space, 10, seed=0)
    # nonzero rates pointing off the lattice
    B4, D4 = rate_tables(params, space)
    B4[space.degrees == space.N] = 1.0
    with pytest.raises(ValidationError, match="vanish at the ceiling"):
        gillespie_from_tables(B4, D4, space, 10, seed=0)
    with pytest.raises(ValidationError, match="vanish at zero population"):
        gillespie_from_tables(rate_tables(params, space)[0], D, space, 10, seed=0)


def test_replicas_use_distinct_streams(setup):
    params, space = setup
    runs = run_replicas(params, space, 3_000, seed=42, replicas=4)
    assert len(runs) == 4
    seeds = {r.seed for r in runs}
    assert len(seeds) == 4
    finals = {r.final_state for r in runs}
    occs = [tuple(r.occupation) for r in runs]
    assert len(set(occs)) == 4, (finals, seeds)


def test_uniformization_matches_matrix_exponential():
    params = ModelParams(2, 3, (1.0, 2.0), (3.0, 5.0))
    space = StateSpace(2, 3)
    L = generator_from_tables(*rate_tables(params, space), space).toarray()
    v0 = np.zeros(space.size)
    v0[0] = 1.0
    res = evolve_distribution(params, space, "origin", T=1.8, steps=3)
    assert np.allclose(res.times, [0.0, 0.6, 1.2, 1.8])
    for k, t in enumerate(res.times):
        exact = scipy.linalg.expm(t * L) @ v0
        assert np.abs(res.distributions[k] - exact).max() < 1e-12, t
    assert res.mass_defect < 1e-13
    assert res.rate_bound > 0.0


def test_uniformization_tv_decreases(setup):
    params, space = setup
    res = evolve_distribution(params, space, "origin", T=8.0, steps=16)
    tv = res.tv_to_stationary
    assert tv[-1] < tv[0]
    assert tv[-1] < 1e-4
    assert np.all(res.kl_to_stationary > -1e-12)


def test_stationary_start_is_fixed_point(setup):
    params, space = setup
    res = evolve_distribution(params, space, "stationary", T=2.0, steps=4)
    assert res.tv_to_stationary.max() < 1e-13


def test_initial_vector_validation(setup):
    params, space = setup
    with pytest.raises(ValidationError):
        evolve_distribution(params, space, np.ones(space.size), T=1.0, steps=2)
    with pytest.raises(ValidationError):
        evolve_distribution(params, space, "nonsense", T=1.0, steps=2)
    with pytest.raises(ValidationError):
        evolve_distribution(params, space, "origin", T=-1.0, steps=2)
    with pytest.raises(ValidationError):
        evolve_distribution(params, space, "origin", T=1.0, steps=0)


def test_relaxation_rate_recovers_spectral_gap(setup):
    params, space = setup
    from mvkraw import solve_spectrum

    spec = solve_spectrum(params)
    gap = spec.lam[0]
    horizon = 20.0 / gap
    res = evolve_distribution(params, space, "origin", T=horizon, steps=80)
    fit = relaxation_rate(res)
    assert fit.slope == pytest.approx(-gap, rel=0.05)
    assert fit.points_used >= 2


def test_relaxation_rate_needs_points(setup):
    params, space = setup
    res = evolve_distribution(params, space, "origin", T=0.01, steps=2)
    with pytest.raises(ValidationError):
        relaxation_rate(res, window=(1e-300, 1e-250))


def test_divergence_helpers():
    d = np.array([0.5, 0.5, 0.0])
    r = np.array([0.25, 0.25, 0.5])
    assert total_variation(d, r) == pytest.approx(0.5)
    assert total_variation(d, d) == 0.0
    assert kl_divergence(d, r) == pytest.approx(
        0.5 * np.log(2.0) + 0.5 * np.log(2.0)
    )
    assert kl_divergence(r, r) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValidationError):
        kl_divergence(r, d)  # reference has a zero where mass sits
