import math
import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak

from mvkraw import CapExceeded, StateSpace, ValidationError, simplex_size
from mvkraw.lattice import LATTICE_CAP


def _degree_block(n, total):
    # all length-n tuples of nonnegative ints summing to `total`, lex ascending
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_block(n - 1, total - first):
            yield (first,) + rest


def reference_lattice(n, N):
    """Points, degrees and neighbour ranks by recursive enumeration, a rank
    dict of tuples and a walk over every point: the reference the
    closed-form rank is held to."""
    points = [pt for degree in range(N + 1) for pt in _degree_block(n, degree)]
    rank = {pt: i for i, pt in enumerate(points)}
    up = np.full((len(points), n), -1, dtype=np.int64)
    down = np.full((len(points), n), -1, dtype=np.int64)
    for i, pt in enumerate(points):
        for j in range(n):
            if sum(pt) < N:
                up[i, j] = rank[pt[:j] + (pt[j] + 1,) + pt[j + 1:]]
            if pt[j] > 0:
                down[i, j] = rank[pt[:j] + (pt[j] - 1,) + pt[j + 1:]]
    degrees = np.array([sum(pt) for pt in points], dtype=np.int64)
    return points, np.array(points, dtype=np.int64), degrees, up, down


def test_simplex_size():
    assert simplex_size(1, 5) == 6
    assert simplex_size(2, 3) == 10
    assert simplex_size(3, 6) == 84
    for n in range(1, 5):
        for N in range(1, 7):
            assert simplex_size(n, N) == math.comb(N + n, n)


def test_graded_lex_order_n2():
    space = StateSpace(2, 2)
    assert space.points == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert space.degrees.tolist() == [0, 1, 1, 2, 2, 2]


def test_graded_lex_order_n1():
    space = StateSpace(1, 3)
    assert space.points == [(0,), (1,), (2,), (3,)]


def test_rank_round_trip():
    space = StateSpace(3, 4)
    for r, x in enumerate(space.points):
        assert space.rank(x) == r
        assert x in space
        assert space.rank(np.array(x)) == r
    assert space.rank((1.0, 0.0, 2.0)) == space.rank((1, 0, 2))
    for outside in ((4, 4, 4), (-1, 0, 0), (1, 0), (1, 0, 0, 0)):
        assert outside not in space
        with pytest.raises(ValidationError, match="not in the lattice"):
            space.rank(outside)
    # non-integral and boolean coordinates are rejected, not truncated
    for bad in ((1.5, 0, 0), (0.5, 0, 0), (True, 0, 0), (0, np.True_, 1),
                (float("nan"), 0, 0), "120", 3):
        with pytest.raises(ValidationError, match="not a lattice point"):
            space.rank(bad)
        with pytest.raises(ValidationError, match="not a lattice point"):
            bad in space  # noqa: B015


def test_neighbor_tables():
    space = StateSpace(2, 3)
    for r, x in enumerate(space.points):
        for j in range(2):
            up = space.up[r, j]
            if sum(x) < 3:
                assert up >= 0
                assert space.points[up] == (x[0] + (j == 0), x[1] + (j == 1))
            else:
                assert up == -1
            down = space.down[r, j]
            if x[j] > 0:
                assert down >= 0
                assert space.points[down] == (x[0] - (j == 0), x[1] - (j == 1))
            else:
                assert down == -1


def test_up_down_inverse():
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        space = StateSpace(n, N)
        for r in range(space.size):
            for j in range(n):
                up = space.up[r, j]
                if up >= 0:
                    assert space.down[up, j] == r


@pytest.mark.parametrize("n, N", [(1, 9), (2, 30), (3, 80), (4, 25), (1, 200000)])
def test_binomial_table_is_exact(n, N):
    # C(r + m, m) by running sums down the columns, against math.comb
    space = StateSpace(n, N)
    exact = [[math.comb(r + m, m) for m in range(n + 1)] for r in range(N + 1)]
    assert space._binom.tolist() == exact


def test_cap_enforced_before_building():
    # LATTICE_CAP points build, one more is refused before any array is
    # made; (3,300) would need 4,590,551 points
    assert LATTICE_CAP == 2_000_000
    assert StateSpace(1, 1_999_999).size == 2_000_000
    for n, N in ((1, 2_000_000), (3, 300)):
        with pytest.raises(CapExceeded, match=f"lattice has {simplex_size(n, N)} points"):
            StateSpace(n, N)


def test_validation():
    with pytest.raises(ValidationError):
        StateSpace(0, 3)
    with pytest.raises(ValidationError):
        StateSpace(2, 0)
    with pytest.raises(ValidationError):
        StateSpace(2, 2.5)
    for n, N in ((True, 2), (2, True)):
        with pytest.raises(ValidationError, match="must be integers"):
            StateSpace(n, N)


def test_graded_lex_blocks():
    space = StateSpace(2, 4)
    assert space.size == simplex_size(2, 4)
    degrees = [sum(x) for x in space.points]
    assert degrees == sorted(degrees)
    assert degrees == space.degrees.tolist()
    # within a degree the order is lexicographic
    for d in range(5):
        block = [x for x in space.points if sum(x) == d]
        assert block == sorted(block)


@pytest.mark.parametrize("n, N", [
    *((n, N) for n in range(1, 7) for N in range(1, 8 - n)),
    (3, 80), (70, 2), (1, 600),
])
def test_matches_reference_enumeration(n, N):
    points, coords, degrees, up, down = reference_lattice(n, N)
    space = StateSpace(n, N)
    assert space.size == len(space) == simplex_size(n, N)
    for name, ref in (("coords", coords), ("degrees", degrees), ("up", up), ("down", down)):
        got = getattr(space, name)
        assert got.dtype == np.int64, name
        assert np.array_equal(got, ref), name
    assert space.points == points
    assert all(type(c) is int for c in space.points[-1])


def test_computations_do_not_read_points(monkeypatch):
    # `points` is for output and messages; every computation reads the arrays
    from mvkraw import (
        ModelParams, evolve_distribution, gillespie_run, numeric_eigenbasis,
        rate_tables, solve_spectrum, table, verify_structure, weight_vector,
    )

    def unused(self):
        raise AssertionError("StateSpace.points read by a computation")

    monkeypatch.setattr(StateSpace, "points", property(unused))
    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(1.0, 4.0))
    space = StateSpace(2, 4)
    B, D = rate_tables(params, space)
    weight_vector(params, space)
    assert verify_structure(B, D, space).passed
    evolve_distribution(params, space, "origin", 1.0, 2)
    table(solve_spectrum(params), space)
    numeric_eigenbasis(params, space)
    assert gillespie_run(params, space, 200, seed=1, initial=(1, 1)).events == 200
    with pytest.raises(AssertionError, match="read by a computation"):
        space.points


def test_neighbour_tables_built_on_first_read(monkeypatch):
    # the multinomial laws and the symmetric-power tables read coords and
    # degrees alone; up/down are built when a reader first asks for them
    from mvkraw import (
        ModelParams, evolve_distribution, gillespie_run, numeric_eigenbasis,
        rate_tables, solve_spectrum, table, verify_structure, weight_vector,
    )
    from mvkraw.sympower import coefficient_row

    def unbuilt(self):
        raise AssertionError("neighbour tables built")

    params = ModelParams(n=2, N=4, p=(1.0, 2.0), q=(1.0, 4.0))
    with monkeypatch.context() as patch:
        patch.setattr(StateSpace, "_neighbours", property(unbuilt))
        space = StateSpace(2, 4)
        weight_vector(params, space)
        evolve_distribution(params, space, "origin", 1.0, 2)
        table(solve_spectrum(params), space)
        numeric_eigenbasis(params, space)
        with pytest.raises(AssertionError, match="neighbour tables built"):
            space.up

    _, _, _, up, down = reference_lattice(2, 4)
    one_body = np.full((3, 3), 1.0 / 3.0)
    readers = [
        lambda space: verify_structure(*rate_tables(params, space), space).passed,
        lambda space: gillespie_run(params, space, 200, seed=1, initial=(1, 1)).events == 200,
        lambda space: coefficient_row(one_body, np.array([1, 2]), space).sum()
        == pytest.approx(1.0, rel=1e-14),
    ]
    for reader in readers:
        space = StateSpace(2, 4)
        assert "_neighbours" not in vars(space)
        assert reader(space)
        assert "_neighbours" in vars(space)
        assert np.array_equal(space.up, up) and np.array_equal(space.down, down)


def test_lattice_memory_is_bounded():
    # tracemalloc counts numpy's buffers exactly, unlike RSS: at (3,80),
    # 91,881 points, the lattice holds coords, degrees and the binomial
    # table, 2.9 MB; the neighbour tables would add 4.4 MB.  Built in rank
    # order, column by column, it peaks at two more columns, 4.5 MB
    # what the built lattice holds is read while it is traced
    (space, held), peak = traced_peak(
        lambda: (StateSpace(3, 80), tracemalloc.get_traced_memory()[0]))
    assert space.size == 91_881
    assert held <= 3.5e6, held
    assert peak <= 5e6, peak


@pytest.mark.parametrize("n, N", [(1, 40), (2, 30), (3, 20), (4, 12), (5, 8)])
def test_closed_form_rank_is_the_index(n, N):
    # the lattice is built in rank order, with no pass of the closed form;
    # the closed form still gives `rank` and the neighbour tables
    space = StateSpace(n, N)
    assert np.array_equal(space._ranks(space.coords), np.arange(space.size))
