import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import BAD_WEIGHTS, CLI_ENV, kl_reference, traced_peak, tv_reference

from mvkraw import (
    AbsorbingState,
    CapExceeded,
    ModelParams,
    StateSpace,
    ValidationError,
    evolve_distribution,
    generator_from_tables,
    gillespie_run,
    rate_tables,
    relaxation_rate,
    weight_vector,
)
from mvkraw.polynomials import degree_eigenvalues
from mvkraw.simulate import (
    _BLOCK, RNG_FAMILY, _evolve, _jump_tables, _kl_terms, _kl_to_weight, _rate_bound,
    _transient_law, _tv_to_weight, _uniformized_step, gillespie_from_tables,
)


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
    assert tv_reference(long.occupation, W) == pytest.approx(
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


def test_gillespie_initial_forms(setup):
    # "origin" is the default start, as in the CLI; a point may be an array
    params, space = setup
    assert _digest(gillespie_run(params, space, 5_000, seed=7, initial="origin")) == \
        _digest(gillespie_run(params, space, 5_000, seed=7))
    point = np.array(space.points[3])
    assert _digest(gillespie_run(params, space, 5_000, seed=7, initial=point)) == \
        _digest(gillespie_run(params, space, 5_000, seed=7, initial=tuple(point.tolist())))
    with pytest.raises(ValidationError):
        gillespie_run(params, space, 5_000, seed=7, initial="stationary")


def _event_loop(B, D, space, n_events, seed, initial_rank=0):
    """The walk one event at a time, as an oracle: one `append` and one
    `bisect_left` per event, over rows padded with a last bound of +inf."""
    totals, absorbing, cums, targets = _jump_tables(B, D, space)
    cums = [row + [math.inf] for row in cums]
    occupation = np.zeros(space.size)
    visits = np.zeros(space.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = initial_rank
    done = 0
    while done < n_events:
        block = min(_BLOCK, n_events - done)
        exps = rng.standard_exponential(block)
        unis = rng.random(block).tolist()
        path = []
        for u in unis:
            path.append(state)
            state = targets[state][bisect_left(cums[state], u)]
        held = np.array(path)
        assert not absorbing[held].any()
        np.add.at(occupation, held, exps / totals[held])
        visits += np.bincount(held, minlength=space.size)
        done += block
    return occupation / occupation.sum(), visits, tuple(space.coords[state].tolist())


def _assert_walks_as_the_event_loop(B, D, space, n_events, seed, initial_rank):
    res = gillespie_from_tables(B, D, space, n_events, seed, initial_rank=initial_rank)
    occupation, visits, final_state = _event_loop(B, D, space, n_events, seed,
                                                  initial_rank)
    assert res.occupation.tobytes() == occupation.tobytes()
    assert np.array_equal(res.visits, visits)
    assert res.final_state == final_state


@pytest.mark.parametrize("n_events", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 1])
@pytest.mark.parametrize("n, N, p, q", [
    (2, 4, (1.0, 1.0), (1.0, 3.0)),
    (3, 6, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0)),
])
def test_walk_matches_the_event_loop(n, N, p, q, n_events):
    space = StateSpace(n, N)
    B, D = rate_tables(ModelParams(n, N, p, q), space)
    _assert_walks_as_the_event_loop(B, D, space, n_events, 5, space.size // 2)


def test_walk_matches_the_event_loop_with_zero_rate_moves():
    # interior states lose a birth or a death in the middle of their rows;
    # every state keeps a move (a birth of type 0 below the ceiling, a death
    # of type 1 or 0 on it)
    space = StateSpace(2, 4)
    x = space.coords
    B = (space.N - space.degrees)[:, None] * np.array([1.0, 2.5])
    D = x * np.array([3.0, 0.7])
    B[(x[:, 0] > 0) & (space.degrees < space.N), 1] = 0.0
    D[x[:, 1] > 0, 0] = 0.0
    interior = (x > 0).all(axis=1) & (space.degrees < space.N)
    assert ((B == 0) | (D == 0)).any(axis=1)[interior].all()
    _assert_walks_as_the_event_loop(B, D, space, 2 * _BLOCK + 1, 3,
                                    space.rank((1, 2)))


def test_gillespie_memory_is_bounded():
    # tracemalloc counts numpy's buffers and Python's lists exactly: the jump
    # tables, whose target rows share one int per rank, and one block of
    # draws, walk and held states, 1.46 MB at 1,771 points; the uniforms are
    # read through a buffer view, not a list, and the walk's list does not
    # outlive it (a list of one block's uniforms would add 0.5 MB)
    params = ModelParams(3, 20, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    space = StateSpace(3, 20)
    res, peak = traced_peak(
        lambda: gillespie_run(params, space, 200_000, seed=1, initial=(6, 2, 8)))
    assert res.events == 200_000
    assert peak <= 1.8e6, peak


def test_integer_arguments_are_checked_before_any_event(setup, monkeypatch):
    import mvkraw.simulate as sim

    params, space = setup
    # no event is drawn: a generator that is never built cannot draw one
    monkeypatch.setattr(sim.np.random, "PCG64", None)
    for kwargs in ({"n_events": 20000.0}, {"n_events": True}, {"seed": 5.0},
                   {"seed": False}, {"seed": "5"}, {"initial_rank": 2.7},
                   {"initial_rank": np.float64(2.0)}, {"initial_rank": True}):
        args = {"n_events": 100, "seed": 5, "initial_rank": 0, **kwargs}
        with pytest.raises(ValidationError, match="must be an integer"):
            gillespie_from_tables(*rate_tables(params, space), space, **args)
    with pytest.raises(ValidationError, match="must be an integer"):
        gillespie_run(params, space, 20000.0, seed=5)
    monkeypatch.undo()
    # numpy integers are integers
    res = gillespie_from_tables(*rate_tables(params, space), space, np.int64(100),
                                np.uint32(5), initial_rank=np.int16(3))
    ref = gillespie_from_tables(*rate_tables(params, space), space, 100, 5,
                                initial_rank=3)
    assert res.occupation.tobytes() == ref.occupation.tobytes()
    assert (res.events, res.seed) == (100, 5)
    assert type(res.events) is int and type(res.seed) is int


@pytest.mark.parametrize("case", BAD_WEIGHTS)
def test_gillespie_refuses_a_bad_reference(setup, monkeypatch, case):
    import mvkraw.simulate as sim

    params, space = setup
    bad = BAD_WEIGHTS[case](weight_vector(params, space))
    # refused before any event: a generator that is never built draws none
    monkeypatch.setattr(sim.np.random, "PCG64", None)
    with pytest.raises(ValidationError, match="weight vector"):
        gillespie_from_tables(*rate_tables(params, space), space, 100, 5,
                              reference=bad)


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
    # the oracle's snapshots, each brought back to mass 1, and their drift
    ref = uniformized_law(params, space, v, res.times)
    sums = ref.sum(axis=1)
    assert np.array_equal(res.distributions, ref / sums[:, None])
    assert res.mass_defect == np.abs(sums - 1.0).max()
    W = weight_vector(params, space)
    for d, tv, kl in zip(res.distributions, res.tv_to_stationary, res.kl_to_stationary):
        assert tv == pytest.approx(tv_reference(d, W), abs=1e-15)
        assert kl == pytest.approx(kl_reference(d, W), rel=1e-12)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 6, "p": [1.0, 2.0], "q": [1.5, 3.0]},
        "mode": "uniformization", "time": 3.0, "steps": 6, "initial": v.tolist(),
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    # the output of the uniformization route with renormalized snapshots; tv
    # and kl read W by the log route, each value here no farther from its
    # 50-digit value than the integer coefficients' were
    digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
    assert digest == "3da4394b408364a5b1ff0b3447a294c05cc5509fe63e94d09b92fb3472123c43"
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


def _vertex_draws():
    """Seeded models at n = 1-4 with non-dyadic p and q: uniform draws,
    draws rounded to one decimal, and flat faces, sum p = max q, where the
    total rate is the same along the edge from the origin to N e_j."""
    rng = np.random.default_rng(20261019)
    for draw in range(120):
        n, N = ((1, 300), (2, 40), (3, 15), (4, 8))[draw % 4]
        p, q = rng.uniform(0.01, 10.0, (2, n))
        if draw % 3 == 1:
            p, q = np.round(p, 1) + 0.1, np.round(q, 1) + 0.1
        if draw % 3 == 2:
            q = np.minimum(q, p.sum())
            q[rng.integers(n)] = p.sum()
        yield ModelParams(n, N, tuple(p), tuple(q))


def test_rate_bound_sits_at_a_vertex():
    # the total rate is linear in x, so the largest row of the tables is a
    # vertex row, and the vertex rows are taken with the tables' own float
    # expressions.  Bit for bit where the top vertex leads every neighbour
    # by more than the rounding of a row; on a (nearly) flat face rounding
    # can lift another row of the table above it by an ulp, and only there
    spaces = {}
    exact = lifted = 0
    for params in _vertex_draws():
        n, N = params.n, params.N
        space = spaces.setdefault((n, N), StateSpace(n, N))
        B, D = rate_tables(params, space)
        table = (B.sum(axis=1) + D.sum(axis=1)).max()
        bound = _rate_bound(params)
        vertices = sorted([N * sum(params.p), *(N * qj for qj in params.q)])
        leads = (vertices[-1] - vertices[-2]) / N > 4 * (n + 2) * 2.0**-52 * vertices[-1]
        if leads:
            assert bound == table, params
            exact += 1
        else:
            assert bound <= table <= bound * (1 + (n + 2) * 2.0**-52), params
            lifted += bound < table
    assert exact >= 60 and lifted > 0, (exact, lifted)


def test_uniformization_diagonal_stays_nonnegative():
    # K = I + L/lam is a stochastic kernel only if no exit rate exceeds lam:
    # from a general start the route uniformizes at the generator's own
    # largest exit rate, the largest row of the tables, flat faces included
    spaces = {}
    for params in _vertex_draws():
        n, N = params.n, params.N
        space = spaces.setdefault((n, N), StateSpace(n, N))
        v = np.zeros(space.size)
        v[[0, space.size - 1]] = 0.5
        res = evolve_distribution(params, space, v, T=1e-3, steps=1)
        assert res.route == "uniformization"
        B, D = rate_tables(params, space)
        assert res.rate_bound == (B.sum(axis=1) + D.sum(axis=1)).max()
        L = generator_from_tables(B, D, space)
        assert (1.0 + L.diagonal() / res.rate_bound >= 0.0).all(), params


def test_exact_law_builds_no_rate_table(monkeypatch):
    # from a point mass the law, W and the rate bound need no (size, n) table
    import mvkraw.model

    def refuse(*args):
        raise AssertionError("rate tables built")

    monkeypatch.setattr(mvkraw.model, "linear_rate_tables", refuse)
    params = ModelParams(3, 30, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    space = StateSpace(3, 30)
    for start in ("origin", point_mass(space, (4, 0, 7))):
        res = evolve_distribution(params, space, start, T=2.0, steps=4)
        assert res.route == "exact"
        assert res.rate_bound == 30 * 6.0
    with pytest.raises(AssertionError, match="rate tables built"):
        rate_tables(params, space)


@pytest.mark.parametrize("n, N, p, q, time, steps", [
    (1, 200, 1.0, 2.0, 12.0, 6),    # kl read -1.55e-13 at t = 10 and 12
    (1, 2000, 1.0, 1.0, 0.5, 3),    # tv read 1 + 1.7e-13 at t = 1/3
])
def test_simulate_writes_possible_distances(tmp_path, n, N, p, q, time, steps):
    # each snapshot is brought back to mass 1; mass_defect keeps the drift
    # before that.  TV is one minus the overlap and KL a sum of nonnegative
    # terms, so neither leaves its range by rounding
    from mvkraw.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1, "params": {"schema": 1, "n": n, "N": N, "p": [p], "q": [q]},
        "mode": "uniformization", "time": time, "steps": steps, "initial": "origin",
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "evolution.csv").read_text().splitlines()[2:]
    tv, kl = np.array([[float(v) for v in row.split(",")[1:]] for row in rows]).T
    assert ((tv >= 0.0) & (tv <= 1.0)).all(), tv
    assert (kl >= 0.0).all(), kl
    res = evolve_distribution(ModelParams(n, N, (p,), (q,)), StateSpace(n, N),
                              "origin", time, steps)
    assert res.mass_defect > 1e-14
    assert np.abs(res.distributions.sum(axis=1) - 1.0).max() < 1e-15


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
    # a bool or a string is not a number, also next to numbers or in an array
    point = [0] * space.size
    for bad in ([True] + point[1:], ["1"] + point[1:], point[:1] + [True] + point[2:],
                np.arange(space.size) == 0):
        with pytest.raises(ValidationError, match="vector of numbers"):
            evolve_distribution(params, space, bad, T=1.0, steps=2)


def test_horizon_and_steps_are_checked_before_any_work(setup, monkeypatch):
    import mvkraw.simulate as sim

    params, space = setup
    monkeypatch.setattr(sim, "weight_vector", lambda *_: pytest.fail("work began"))
    for T, steps in ((1.0, 2.5), (1.0, 2.0), (1.0, True), (1.0, "2"), (1.0, None),
                     ("1", 2), (None, 2), (True, 2), (np.nan, 2), (np.inf, 2),
                     (0.0, 2), (10**400, 2)):
        with pytest.raises(ValidationError):
            evolve_distribution(params, space, "origin", T=T, steps=steps)
    monkeypatch.undo()
    # numpy numbers are numbers
    res = evolve_distribution(params, space, "origin", T=np.float32(1.5),
                              steps=np.int64(3))
    ref = evolve_distribution(params, space, "origin", T=1.5, steps=3)
    assert res.distributions.tobytes() == ref.distributions.tobytes()


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
    # the in-range forms and their dense references on hand values
    d = np.array([0.5, 0.5, 0.0])
    r = np.array([0.25, 0.25, 0.5])
    for tv in (_tv_to_weight, tv_reference):
        assert tv(d, r) == pytest.approx(0.5)
        assert tv(d, d) == 0.0
    for kl in (lambda a, b: _kl_to_weight(a, b, None), kl_reference):
        assert kl(d, r) == pytest.approx(0.5 * np.log(2.0) + 0.5 * np.log(2.0))
        assert kl(r, r) == pytest.approx(0.0, abs=1e-15)


def test_kl_allows_zero_reference_off_the_support():
    d = np.array([0.5, 0.5, 0.0])
    r = np.array([0.25, 0.75, 0.0])
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert _kl_to_weight(d, r, None) == pytest.approx(expected)
    assert kl_reference(d, r) == pytest.approx(expected)


def test_kl_blocks_match_the_whole_lattice():
    # the terms are formed a block at a time and summed once: the same bits
    # as the terms of the whole lattice at once
    rng = np.random.default_rng(3)
    size = 2 * _BLOCK + 5
    W = rng.dirichlet(np.ones(size))
    W[rng.random(size) < 0.1] = 0.0
    W[rng.random(size) < 0.05] = 1e-310
    d = np.where(rng.random(size) < 0.2, 0.0, rng.uniform(0.3, 1.7, size) * W)
    d[W == 0.0] = 0.0
    d /= d.sum()
    logW = np.log(np.where(W > 0, W, 1e-320))
    whole = np.empty(size)
    _kl_terms(d, W, logW, whole)
    assert _kl_to_weight(d, W, logW) == float(whole.sum())


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
    # from the origin at (3,80) holds the lattice (2.9 MB), the snapshots
    # (3.7 MB), W and one block of a multinomial pass at a time, no rate or
    # neighbour tables; the start is snapshot 0 and each snapshot is written
    # into its row
    params = ModelParams(3, 80, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    res, peak = traced_peak(
        lambda: evolve_distribution(params, StateSpace(3, 80), "origin", 2.0, 4))
    assert res.route == "exact"
    assert peak <= 10.5e6, peak


def test_streamed_exact_route_memory_is_bounded():
    # the exact law from the origin at (3,80), 91,881 points, read one law
    # at a time as the CLI reads it, lattice included: below the lattice and
    # four lattice vectors.  W, the law and the KL terms are three; each
    # multinomial pass adds one block of scratch, where full-lattice
    # scratch vectors would pass the fourth
    params = ModelParams(3, 80, (1.0, 2.0, 1.5), (1.0, 3.0, 6.0))
    (space, lattice), _ = traced_peak(
        lambda: (StateSpace(3, 80), tracemalloc.get_traced_memory()[0]))

    def streamed():
        stream = _transient_law(params, StateSpace(3, 80), "origin", 2.0, 4)
        return _evolve(next(stream), stream)

    res, peak = traced_peak(streamed)
    assert res.route == "exact" and res.distributions is None
    assert peak <= lattice + 4 * 8 * space.size, (peak, lattice)


def _simulate_config(path, n, N, p, q, time, steps, initial="origin"):
    path.write_text(json.dumps({
        "schema": 1, "params": {"schema": 1, "n": n, "N": N, "p": p, "q": q},
        "mode": "uniformization", "time": time, "steps": steps, "initial": initial,
    }))
    return str(path)


@pytest.mark.parametrize("N, start", [(40, "origin"), (30, "two-point")])
def test_simulate_memory_does_not_grow_with_steps(tmp_path, N, start):
    # the CLI reads the law one snapshot at a time and keeps its time, tv
    # and kl: its peak at 64 steps is within one snapshot of its peak at 4.
    # From the origin at (3,40), 12,341 points, the exact route; half at
    # rank 0 and half at the last rank of (3,30), 5,456 points, uniformization
    from mvkraw.cli import main

    size = math.comb(N + 3, 3)
    initial = "origin"
    if start == "two-point":
        initial = [0.0] * size
        initial[0] = initial[-1] = 0.5
    peaks = {}
    for steps in (1, 4, 64):   # the first run loads the route's modules
        config = _simulate_config(tmp_path / f"{steps}.json", 3, N, [1.0, 2.0, 1.5],
                                  [1.0, 3.0, 6.0], 1.0, steps, initial)
        out = tmp_path / str(steps)
        rc, peaks[steps] = traced_peak(
            lambda: main(["simulate", "--config", config, "--out", str(out)]))
        assert rc == 0
    route = json.loads((out / "simulate.json").read_text())["summary"]["route"]
    assert route == ("exact" if start == "origin" else "uniformization")
    assert abs(peaks[64] - peaks[4]) < 8 * size, (peaks, 8 * size)


@pytest.mark.parametrize("initial, digests", [
    ("origin", ("7151bd65a4d0b2bb1a0ae0a6691d8af8ce80cda7e0784c3b409f764fa33eea58",
                "2d050eecee6e9721fff480e169d21916b08dfe9e10d736fbdad21a21f65ac5e5")),
    ((3, 2, 4), ("d78b16b307cfc8313b2c6221d079b8cf7b5c8561ff90b24d2a55cbc085c47134",
                 "fac50c60c3a2c594f9f138ab17d148df7c8123367255d6310c3f1a244472823b")),
])
def test_exact_route_outputs_are_pinned(tmp_path, initial, digests):
    # the exact route at (3,12), T = 2 in 4 steps, from the origin and from
    # a point mass inside the lattice: evolution.csv and simulate.json, byte
    # for byte, as they were written when every snapshot was held
    from mvkraw.cli import main

    if initial != "origin":
        initial = point_mass(StateSpace(3, 12), initial).tolist()
    config = _simulate_config(tmp_path / "config.json", 3, 12, [1.0, 2.0, 1.5],
                              [1.0, 3.0, 6.0], 2.0, 4, initial)
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("evolution.csv", "simulate.json")) == digests


def test_steps_past_the_cap_are_refused(tmp_path, setup, monkeypatch):
    # one row of evolution.csv per snapshot: steps + 1 above LATTICE_CAP is
    # refused before any array is built, with exit 4 and one error line
    import mvkraw.simulate as sim
    from mvkraw.lattice import LATTICE_CAP

    class WorkBegan(Exception):
        pass

    def began(*_):
        raise WorkBegan

    params, space = setup
    monkeypatch.setattr(sim, "weight_vector", began)
    for steps in (LATTICE_CAP, 10**12):
        with pytest.raises(CapExceeded, match="size cap exceeded"):
            evolve_distribution(params, space, "origin", T=1.0, steps=steps)
    # LATTICE_CAP snapshots pass the rule
    with pytest.raises(WorkBegan):
        evolve_distribution(params, space, "origin", T=1.0, steps=LATTICE_CAP - 1)
    monkeypatch.undo()
    out = tmp_path / "out"
    config = _simulate_config(tmp_path / "config.json", 2, 4, [1.0, 2.0], [1.0, 4.0],
                              1.0, 10**12)
    proc = subprocess.run(
        [sys.executable, "-m", "mvkraw", "simulate", "--config", config,
         "--out", str(out)], capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: size cap exceeded: {10**12 + 1} snapshots > {LATTICE_CAP}"]
    assert not out.exists()


def _counted_series(monkeypatch, limit):
    """Record the Poisson series `evolve_distribution` sums, by their
    uniformization parameter; one more than `limit` fails at once, so a
    run whose cost grows with rate times horizon stops at its first step."""
    import mvkraw.simulate as sim

    calls = []
    series = sim._uniformized_step

    def counted(K, v, a):
        calls.append(a)
        assert len(calls) <= limit, "more Poisson series than steps"
        return series(K, v, a)

    monkeypatch.setattr(sim, "_uniformized_step", counted)
    return calls


@pytest.mark.parametrize("p, q", [(1e5, 1e5), (1e5, 3e5)])
def test_squared_one_body_kernel_matches_the_binomial_law(monkeypatch, p, q):
    # from the origin at n = 1 the law is Binomial(N, pi(t)) with
    # pi(t) = p (1 - exp(-(p + q) t)) / (p + q); lam1 dt is 5e5 and 1.5e6,
    # so each step is one series at dt/2^k, squared k = 10 and 12 times
    calls = _counted_series(monkeypatch, limit=2)
    N = 30
    res = evolve_distribution(ModelParams(1, N, (p,), (q,)), StateSpace(1, N),
                              "origin", T=10.0, steps=2)
    assert len(calls) == 2 and max(calls) <= 600.0
    for t, d in zip(res.times[1:], res.distributions[1:]):
        pi = -p * math.expm1(-(p + q) * t) / (p + q)
        law = [math.comb(N, k) * pi**k * (1.0 - pi)**(N - k) for k in range(N + 1)]
        assert np.abs(d - law).max() <= 1e-12, t


def test_squared_one_body_kernel_matches_matrix_exponential(monkeypatch):
    # two time scales at n = 2: lam1 dt = 1e4, and the slow direction has
    # not relaxed at t = 5
    calls = _counted_series(monkeypatch, limit=2)
    params = ModelParams(2, 3, (2e3, 0.5), (1e3, 1.0))
    space = StateSpace(2, 3)
    L = generator_from_tables(*rate_tables(params, space), space).toarray()
    res = evolve_distribution(params, space, "origin", T=10.0, steps=2)
    assert len(calls) == 2
    for t, d in zip(res.times, res.distributions):
        assert np.abs(d - scipy.linalg.expm(t * L)[:, 0]).max() < 1e-12, t


@pytest.mark.parametrize("rate", [1e5, 1e300])
def test_simulate_cost_does_not_grow_with_rate_times_horizon(tmp_path, monkeypatch, rate):
    # the exact route sums one Poisson series per step however large
    # lam1 dt is; one per segment of 600 jumps would be 834 per step at
    # p = q = 1e5 and beyond counting at 1e300
    from mvkraw.cli import main

    calls = _counted_series(monkeypatch, limit=2)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 1, "N": 2, "p": [rate], "q": [rate]},
        "mode": "uniformization", "time": 10, "steps": 2, "initial": "origin",
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    rows = [tuple(map(float, row.split(",")))
            for row in (tmp_path / "evolution.csv").read_text().splitlines()[2:]]
    # the origin against W = Binomial(2, 1/2), then W itself
    assert rows[0] == (0.0, 0.75, pytest.approx(math.log(4.0), rel=1e-15))
    assert [t for t, _, _ in rows] == [0.0, 5.0, 10.0]
    assert all(tv <= 1e-12 and kl <= 1e-12 for _, tv, kl in rows[1:]), rows
