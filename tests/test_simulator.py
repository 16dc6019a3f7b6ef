import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import CLI_ENV

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
from mvkraw.polynomials import degree_eigenvalues
from mvkraw.simulate import RNG_FAMILY, _uniformized_step, gillespie_from_tables


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


def _digest(res):
    return (
        hashlib.sha256(res.occupation.tobytes()).hexdigest(),
        hashlib.sha256(res.visits.tobytes()).hexdigest(),
        res.final_state,
    )


def test_streams_are_pinned(setup):
    # a seed fixes the output bit for bit; these digests must not change
    params, space = setup
    res = gillespie_run(params, space, 20_000, seed=7)
    assert _digest(res) == (
        "84971427861309110b476d2c2e3e73a1a6caf95ca25b41615abce897c4274849",
        "4893df7bfa543ddc7b45dc39216b8caf58059834fd5f4eeab17b63830ee4080e",
        (2, 0),
    )
    params = ModelParams(3, 6, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    res = gillespie_run(params, StateSpace(3, 6), 50_000, seed=11, initial=(1, 2, 1))
    assert _digest(res) == (
        "d61b9df4410f89563701c74010d86ae2f5fc306968ac3b4e13ba631c7c08fb98",
        "8b963f5f9799da0626aef979798fe2ffe134f34896c49d7850a65c5e4d35c7b5",
        (2, 0, 0),
    )


def test_absorbing_state_detected():
    space = StateSpace(1, 2)
    B = np.zeros((space.size, 1))
    D = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(AbsorbingState):
        gillespie_from_tables(B, D, space, 100, seed=1, initial_rank=0)


def test_absorbing_state_reached_mid_run():
    # no births: deaths walk (3,) down to (0,), which has no move at all
    space = StateSpace(1, 3)
    B = np.zeros((space.size, 1))
    D = space.coords.astype(float)
    with pytest.raises(AbsorbingState, match=r"state \(0,\) has zero total rate"):
        gillespie_from_tables(B, D, space, 100, seed=1, initial_rank=space.rank((3,)))
    # three events reach (0,) without leaving from it
    res = gillespie_from_tables(B, D, space, 3, seed=1, initial_rank=space.rank((3,)))
    assert res.final_state == (0,)
    assert res.visits.tolist() == [0, 1, 1, 1]


def test_gillespie_leaves_scipy_unloaded(tmp_path):
    # neither the import nor a Gillespie run needs scipy
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 4, "p": [1, 1], "q": [1, 3]},
        "mode": "gillespie", "events": 1000, "seed": 3,
    }))
    code = (
        "import sys, mvkraw\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "from mvkraw.cli import main\n"
        f"rc = main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=CLI_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "occupation.csv").exists()


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
    for rank in (-1, space.size):
        with pytest.raises(ValidationError, match="outside the lattice"):
            gillespie_from_tables(*rate_tables(params, space), space, 10, seed=0,
                                  initial_rank=rank)


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


def uniformized_law(params, space, v, times):
    """Snapshots of v under the many-body kernel K = I + L/Lam, one
    uniformization step per snapshot interval (Lam dt stays below the
    segment length here): the oracle of the exact point law."""
    B, D = rate_tables(params, space)
    lam = float((B.sum(axis=1) + D.sum(axis=1)).max())
    L = generator_from_tables(B, D, space)
    K = ((L / lam) + scipy.sparse.identity(space.size, format="csr")).tocsr()
    out = [v]
    for t0, t1 in zip(times, times[1:]):
        out.append(_uniformized_step(K, out[-1], lam * (t1 - t0)))
    return np.array(out)


def point_mass(space, x):
    v = np.zeros(space.size)
    v[space.rank(x)] = 1.0
    return v


@pytest.mark.parametrize("n, N, interior", [
    (1, 8, ((3,), (8,))),
    (2, 6, ((2, 1), (0, 5))),
    (3, 5, ((1, 2, 1), (0, 0, 4))),
    (4, 4, ((1, 0, 2, 1), (0, 1, 0, 0))),
])
def test_exact_law_matches_uniformization(n, N, interior):
    params = ModelParams(n, N, tuple(np.linspace(0.5, 2.0, n)),
                         tuple(np.linspace(1.0, 4.0, n)))
    space = StateSpace(n, N)
    W = weight_vector(params, space)
    for start in ("origin", *interior):
        v = point_mass(space, (0,) * n if start == "origin" else start)
        res = evolve_distribution(params, space, start if start == "origin" else v,
                                  T=1.5, steps=3)
        assert res.route == "exact"
        assert np.array_equal(res.distributions[0], v)
        ref = uniformized_law(params, space, v, res.times)
        assert np.abs(res.distributions - ref).max() < 1e-12, start
        assert res.mass_defect < 1e-13
    res = evolve_distribution(params, space, "stationary", T=1.5, steps=3)
    assert res.route == "exact"
    assert np.array_equal(res.distributions, np.tile(W, (4, 1)))
    assert not res.tv_to_stationary.any() and not res.kl_to_stationary.any()
    assert np.abs(uniformized_law(params, space, W, res.times) - W).max() < 1e-12


def test_general_vector_takes_uniformization(tmp_path):
    from mvkraw.cli import main

    params = ModelParams(2, 6, (1.0, 2.0), (1.5, 3.0))
    space = StateSpace(2, 6)
    v = np.zeros(space.size)
    v[[3, 17]] = (0.25, 0.75)
    res = evolve_distribution(params, space, v, T=3.0, steps=6)
    assert res.route == "uniformization"
    assert np.array_equal(res.distributions, uniformized_law(params, space, v, res.times))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 6, "p": [1.0, 2.0], "q": [1.5, 3.0]},
        "mode": "uniformization", "time": 3.0, "steps": 6, "initial": v.tolist(),
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    # the output of the uniformization route before the exact law was added
    digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
    assert digest == "306b0cee54c797094a01cb01cb8ae2f35a79efb300bf47cd3f1e293154410d20"
    assert json.loads((tmp_path / "simulate.json").read_text())["summary"]["route"] == (
        "uniformization")


@pytest.mark.parametrize("n, N, p, q", [
    (2, 6, (1.0, 2.0), (1.5, 3.0)),
    (3, 5, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0)),
])
def test_stochastic_self_duality(n, N, p, q):
    # E_x[P_m(X_t)] = exp(-E(m) t) P_m(x), on the orthonormal scale: times
    # sqrt(W(x)) sqrt(C(N,m) eta_bar^m) both sides are entries of
    # exp(-tH) T and of T, bounded by 1
    from mvkraw import solve_spectrum, table
    from mvkraw.model import multinomial_vector

    params = ModelParams(n, N, p, q)
    space = StateSpace(n, N)
    spec = solve_spectrum(params)
    P = table(spec, space)
    E = degree_eigenvalues(spec, space)
    scale = np.sqrt(multinomial_vector(space, 1.0, spec.eta_bar))
    sqw = np.sqrt(weight_vector(params, space))
    worst = 0.0
    for r in range(space.size):
        res = evolve_distribution(params, space, point_mass(space, space.coords[r]),
                                  T=0.8, steps=2)
        assert res.route == "exact"
        for t, law in zip(res.times[1:], res.distributions[1:]):
            defect = sqw[r] * scale * (law @ P - np.exp(-E * t) * P[r])
            worst = max(worst, float(np.abs(defect).max()))
    assert worst < 1e-12


def test_evolve_from_origin_leaves_scipy_unloaded(tmp_path):
    # the exact law needs no sparse operator
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 4, "p": [1, 1], "q": [1, 3]},
        "mode": "uniformization", "time": 2.0, "steps": 4, "initial": "origin",
    }))
    code = (
        "import sys, mvkraw\n"
        "from mvkraw.cli import main\n"
        f"rc = main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=CLI_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert "uniformization: exact route" in out.stdout
    assert (tmp_path / "evolution.csv").exists()


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
    # NaN compares false both ways, so it passed the sign and sum checks
    for bad in (np.nan, np.inf):
        v = np.zeros(space.size)
        v[:3] = (bad, 0.5, 0.5)
        with pytest.raises(ValidationError, match="non-finite"):
            evolve_distribution(params, space, v, T=1.0, steps=2)


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


def test_kl_allows_zero_reference_off_the_support():
    d = np.array([0.5, 0.5, 0.0])
    r = np.array([0.25, 0.75, 0.0])
    assert kl_divergence(d, r) == pytest.approx(
        0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    )


def test_kl_refuses_zero_reference_on_the_support():
    d = np.array([0.5, 0.25, 0.25])
    r = np.array([0.5, 0.5, 0.0])
    with pytest.raises(ValidationError):
        kl_divergence(d, r)


def test_kl_where_the_weight_underflows(tmp_path):
    # n=1, N=2000, p=q=1: W = C(2000, x) 2^-2000 is 0.0 on 396 of the 2,001
    # points and subnormal on 34 more, where the law from the origin has
    # mass (at t = 1/6, d/W overflows at a subnormal W).  KL is taken from
    # log W there, so the run exits 0, and KL is N KL(P1(t)[0] || eta) with
    # P1(t)[0] = ((1 + e^-2t)/2, (1 - e^-2t)/2) and eta = (1/2, 1/2).
    params = ModelParams(1, 2000, (1.0,), (1.0,))
    W = weight_vector(params, StateSpace(1, 2000))
    assert (W == 0.0).sum() == 396
    assert ((W > 0.0) & (W < np.finfo(float).tiny)).sum() == 34
    for time, steps in ((2.0, 4), (0.5, 3)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema": 1,
            "params": {"schema": 1, "n": 1, "N": 2000, "p": [1], "q": [1]},
            "mode": "uniformization", "time": time, "steps": steps,
            "initial": "origin",
        }))
        out = subprocess.run(
            [sys.executable, "-m", "mvkraw", "simulate", "--config", str(config),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == "", out.stderr
        rows = (tmp_path / "evolution.csv").read_text().splitlines()[2:]
        assert len(rows) == steps + 1
        for row in rows:
            t, _, kl = map(float, row.split(","))
            decay = math.exp(-2.0 * t)
            one_body = [(1.0 + decay) / 2.0, (1.0 - decay) / 2.0]
            closed = 2000 * sum(c * math.log(2.0 * c) for c in one_body if c > 0)
            assert kl == pytest.approx(closed, rel=1e-9), (t, kl, closed)


def test_evolution_memory_is_bounded():
    # tracemalloc counts numpy's buffers exactly, unlike RSS: the exact law
    # from the origin at (3,80) holds the snapshots, W and one multinomial
    # pass at a time, no rate or neighbour tables
    params = ModelParams(3, 80, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    tracemalloc.start()
    try:
        res = evolve_distribution(params, StateSpace(3, 80), "origin", 2.0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.route == "exact"
    assert peak <= 18e6, peak
