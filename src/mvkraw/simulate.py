"""Stochastic and deterministic evolution of the birth-death process.

Two engines:

* ``gillespie_run`` draws the embedded jump chain with exponential
  holding times and accumulates the time-weighted occupation measure.
  Each state's positive-rate moves, their targets and cumulative jump
  probabilities (2n - 1 bounds a row) are tabulated once with array
  operations; the target rows share one int object per rank.  Per block
  of events it draws the exponentials, then the uniforms, walks the chain
  in one list comprehension over a buffer view of the uniforms (a
  ``bisect_left`` of each into the current state's bounds, one Python
  float at a time, no list of them), and adds the holding times to the
  occupation with ``np.add.at`` in event order: the sums of an
  event-by-event loop, bit for bit.  Randomness comes from numpy's
  PCG64 generator; a run is fully determined by its seed, and
  ``tests/test_simulator.py`` pins the output of two seeds by digest.

* ``evolve_distribution`` applies exp(tL) to a distribution.  The N
  particles hop independently on the (n+1)-state star, so from a point
  mass x (the origin included) the law at time t is exact: the product
  over slots i of the multinomials of x_i particles with cells
  P1(t)[i, :], P1(t) = exp(t Q1) the (n+1) x (n+1) one-body kernel.  From
  the stationary weight W the law stays W.  Any other start takes
  uniformization, the oracle of the exact law in the tests: with rate
  bound Lam, K = I + L/Lam is column-stochastic and the Poisson-weighted
  series sum_k pois(k; Lam dt) K^k has an explicitly controlled tail.
  P1(t) is that series on I + Q1/Lam1, nonnegative term by term; above
  Lam1 dt = 600 it is squared up from dt/2^k, so its cost grows with
  log2(Lam1 dt), where uniformization's grows with Lam dt.  The rate bound
  is read off the vertices of the simplex, so the exact law builds no
  rate table; uniformization builds them and runs at the generator's own
  largest exit rate.  Rounding drifts the mass of a law from 1 (3.3e-13
  at n=1, N=2000, p=q=1), reported as `mass_defect`; each snapshot is
  then divided by its sum.  TV to W is 1 - sum min(d, W), and KL a sum of
  the nonnegative terms W phi(d/W), so neither leaves its range by
  rounding; that TV cancels to about 50 ulps of 1, so below about 1e-14
  it is rounding noise.  Where W is zero or subnormal (n=1, N=2000,
  p=q=1: 396 + 34 of the 2,001 points), KL reads log W off the log route,
  finite there.  `_transient_law` yields the laws one at a time, holding
  one: `evolve_distribution` copies each into its row, and the CLI keeps
  only time, TV and KL, so its memory does not grow with the steps.

Each route imports the layers it computes with when it runs: the exact
law needs ``sympower``, uniformization on the lattice ``bdcore`` and
``scipy.sparse``, and the Gillespie loop neither.

Both refuse rate tables with negative entries, which rules out signed dual
systems by construction.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import AbsorbingState, CapExceeded, NoConvergence, ValidationError
from .lattice import LATTICE_CAP, StateSpace, _is_number
from .model import (
    _BLOCK, ModelParams, _check_weight, _linear_rates, check_rate_tables, log_weight_vector,
    rate_tables, weight_vector,
)

RNG_FAMILY = "numpy-PCG64"
_POISSON_TAIL = 1e-18
_TINY = np.finfo(float).tiny   # below it W is zero or subnormal
_MAX_SEGMENT = 600.0


class GillespieResult(NamedTuple):
    occupation: np.ndarray
    visits: np.ndarray
    events: int
    total_time: float
    final_state: tuple
    seed: int
    rng_family: str
    tv_to_stationary: float | None


def _jump_tables(B: np.ndarray, D: np.ndarray, space: StateSpace):
    """Per-state jump tables of the embedded chain, as lists for the event
    loop: row r holds the targets of the positive-rate moves of state r
    (births, then deaths, each in direction order) and 2n - 1 cumulative
    probabilities.  The last move's bound and the padding after it are
    +inf, and 2n moves need no last bound, so `bisect_left` stays inside
    the targets; a state with zero total rate is absorbing (a self-loop).
    The target rows hold one shared int object per rank (and -1 off the
    lattice), not one per entry."""
    n = B.shape[1]
    rates = np.hstack((B, D))
    dest = np.hstack((space.up, space.down))
    totals = B.sum(axis=1) + D.sum(axis=1)
    absorbing = totals <= 0.0
    keep = rates > 0.0
    # zero rates add nothing to the running sums
    cums = np.cumsum(rates, axis=1) / np.where(absorbing, 1.0, totals)[:, None]
    # kept moves first, in their order; one stable sort per row
    order = np.argsort(~keep, axis=1, kind="stable")
    cums = np.take_along_axis(cums, order, axis=1)
    targets = np.take_along_axis(dest, order, axis=1)
    cums[np.arange(2 * n) >= keep.sum(axis=1)[:, None] - 1] = np.inf
    targets[absorbing, 0] = np.nonzero(absorbing)[0]
    # one int object per rank, shared by every row that targets it
    ranks = np.arange(space.size + 1).astype(object)
    ranks[-1] = -1
    return totals, absorbing, cums[:, :-1].tolist(), ranks[targets].tolist()


def _integer(name: str, value) -> int:
    """A Python or numpy integer, not a bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def gillespie_from_tables(
    B: np.ndarray,
    D: np.ndarray,
    space: StateSpace,
    n_events: int,
    seed: int,
    initial_rank: int = 0,
    reference: np.ndarray | None = None,
) -> GillespieResult:
    if np.any(np.asarray(B) < 0) or np.any(np.asarray(D) < 0):
        raise ValidationError(
            "negative rates: only stochastic (nonnegative) systems can be simulated"
        )
    # a nonzero rate off the lattice would jump to rank -1, the last point
    B, D = check_rate_tables(B, D, space)
    n_events = _integer("n_events", n_events)
    seed = _integer("seed", seed)
    state = _integer("initial rank", initial_rank)
    if n_events < 1:
        raise ValidationError("n_events must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if not 0 <= state < space.size:
        raise ValidationError(
            f"initial rank {state} is outside the lattice of {space.size} points"
        )
    if reference is not None:
        reference = _check_weight(reference, space)

    totals, absorbing, cums, targets = _jump_tables(B, D, space)
    occupation = np.zeros(space.size)
    visits = np.zeros(space.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))

    done = 0
    while done < n_events:
        block = min(_BLOCK, n_events - done)
        exps = rng.standard_exponential(block)
        unis = memoryview(rng.random(block))
        start = state
        after = [state := targets[state][bisect_left(cums[state], u)] for u in unis]
        held = np.fromiter(chain((start,), after), np.intp, block)
        # the walk's list does not outlive it, nor meet the next block's draws
        del after, unis
        stuck = absorbing[held]
        if stuck.any():
            first = tuple(space.coords[held[stuck.argmax()]].tolist())
            raise AbsorbingState(f"state {first} has zero total rate")
        # unbuffered, in event order: the same sums as one event at a time
        np.add.at(occupation, held, np.divide(exps, totals[held], out=exps))
        visits += np.bincount(held, minlength=space.size)
        done += block

    total_time = float(occupation.sum())
    occ = occupation / total_time
    tv = _tv_to_weight(occ, reference) if reference is not None else None
    return GillespieResult(
        occupation=occ,
        visits=visits,
        events=n_events,
        total_time=total_time,
        final_state=tuple(space.coords[state].tolist()),
        seed=seed,
        rng_family=RNG_FAMILY,
        tv_to_stationary=tv,
    )


def gillespie_run(
    params: ModelParams,
    space: StateSpace,
    n_events: int,
    seed: int,
    initial=None,
) -> GillespieResult:
    B, D = rate_tables(params, space)
    W = weight_vector(params, space)
    rank = 0 if initial is None else space.rank(initial)
    return gillespie_from_tables(
        B, D, space, n_events, seed, initial_rank=rank, reference=W
    )


class EvolveResult(NamedTuple):
    times: np.ndarray
    distributions: np.ndarray     # row k is the distribution at times[k]
    tv_to_stationary: np.ndarray
    kl_to_stationary: np.ndarray
    mass_defect: float
    rate_bound: float
    route: str                    # "exact" or "uniformization"


def evolve_distribution(params: ModelParams, space: StateSpace, initial, T: float,
                        steps: int) -> EvolveResult:
    """Distribution snapshots of exp(tL) applied to `initial`, a vector
    over ranks, "origin" or "stationary", at steps+1 equally spaced times
    from 0 to T; snapshot 0 is the start.  "stationary" stays W, a point
    mass ("origin" or a vector with one nonzero entry) evolves by its exact
    law, the `sympower.coefficient_row` of the one-body kernel, and any
    other vector by uniformization.  ValidationError, before any work,
    unless T is a finite positive number and steps a positive integer (a
    bool is neither); CapExceeded, before any array, above LATTICE_CAP
    snapshots.  Each law of `_transient_law` is copied into its row."""
    stream = _transient_law(params, space, initial, T, steps)
    head = next(stream)   # every input is checked here, before any array
    return _evolve(head, stream, np.empty((steps + 1, space.size)))


def _evolve(head, stream, dists=None) -> EvolveResult:
    """The result of a `_transient_law` stream; laws kept only in `dists`."""
    rows = []
    for t, d, defect, tv, kl in stream:
        if dists is not None:
            dists[len(rows)] = d
        rows.append((t, defect, tv, kl))
        del d   # no law outlives its snapshot
    times, defects, tv, kl = map(np.array, zip(*rows))
    return EvolveResult(times, dists, tv, kl, float(defects.max()), *head)


def _transient_law(params: ModelParams, space: StateSpace, initial, T, steps):
    """Yield (rate bound, route) once every input is checked, then (t, law,
    |sum - 1|, tv, kl) at steps+1 times from 0 to T, holding one law at a
    time; each law but W is divided by its sum in place."""
    try:
        horizon = float(T) if _is_number(T) else math.nan
    except OverflowError:   # an integer past the float64 range
        horizon = math.inf
    if not 0 < horizon < math.inf:
        raise ValidationError(f"horizon T must be a finite positive number, got {T!r}")
    steps = _integer("steps", steps)
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    if steps + 1 > LATTICE_CAP:   # evolution.csv has a row per snapshot
        raise CapExceeded(f"size cap exceeded: {steps + 1} snapshots > {LATTICE_CAP}")
    W = weight_vector(params, space)

    if isinstance(initial, str):
        if initial not in ("origin", "stationary"):
            raise ValidationError(f"unknown initial distribution {initial!r}")
        v = np.zeros(space.size)
        v[0] = 1.0
    else:
        # numpy reads JSON true as 1 and "0.5" as 0.5, also in a list of numbers
        if isinstance(initial, (list, tuple)) and not all(map(_is_number, initial)):
            raise ValidationError("initial must be a vector of numbers")
        start = np.asarray(initial)
        if start.dtype.kind not in "iuf":
            raise ValidationError("initial must be a vector of numbers")
        if start.shape != (space.size,):
            raise ValidationError("initial distribution does not match the lattice")
        v = start.astype(float)
        if not np.isfinite(v).all():
            raise ValidationError("initial distribution has a non-finite entry")
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
            raise ValidationError("initial must be a probability vector")

    lam = _rate_bound(params)
    times = np.linspace(0.0, horizon, steps + 1)
    if isinstance(initial, str) and initial == "stationary":
        yield lam, "exact"   # the law is W itself, at distance 0
        yield from ((t, W, abs(float(W.sum()) - 1.0), 0.0, 0.0) for t in times)
        return
    if np.count_nonzero(v) == 1:
        from .sympower import coefficient_row

        Q1 = np.zeros((space.n + 1, space.n + 1))
        Q1[0, 1:] = params.p
        Q1[1:, 0] = params.q
        exits = Q1.sum(axis=1)
        lam1 = float(exits.max())
        K1 = np.eye(space.n + 1) + (Q1 - np.diag(exits)) / lam1
        x, mass = space.coords[v.argmax()], v.max()
        laws = (np.multiply(mass, coefficient_row(P1, x, space))
                for P1 in _one_body_kernels(K1, lam1, times))
        yield lam, "exact"
    else:
        import scipy.sparse

        from .bdcore import generator_from_tables

        L = generator_from_tables(*rate_tables(params, space), space)
        # on a face of the simplex where the total rate is flat, rounding can
        # lift a table row an ulp above the vertices: K = I + L/lam keeps a
        # nonnegative diagonal only at the generator's own largest exit rate
        lam = float(-L.diagonal().min())
        K = ((L / lam) + scipy.sparse.identity(space.size, format="csr")).tocsr()
        # uniformization goes on from v and from each law it yields
        laws = map(np.copy, _snapshots(K, v, lam, times))
        v = v.copy()
        yield lam, "uniformization"
    logW = log_weight_vector(params, space) if W.min() < _TINY else None
    laws = chain(iter((v,)), laws)
    del v   # the spent iterator lets go of v: no law outlives its snapshot
    for t in times:
        d = next(laws)
        total = d.sum()
        d /= total   # rounding drifts the mass of the law from 1
        yield t, d, abs(float(total) - 1.0), _tv_to_weight(d, W), _kl_to_weight(d, W, logW)
        del d


def _rate_bound(params: ModelParams) -> float:
    """Largest total jump rate over the lattice, the uniformization rate.

    The total rate sum_j (N - |x|) p_j + q_j x_j is linear in x, so its
    largest value sits at a vertex of the simplex: the origin, N sum_j p_j,
    or N e_j, N q_j.  Those n + 1 rows are taken with the rate tables' own
    float expressions, so no table is built."""
    n, N = params.n, params.N
    vertices = N * np.eye(n + 1, n, -1, dtype=np.int64)
    B, D = _linear_rates(params.p, params.q, N, vertices.sum(axis=1), vertices)
    return float((B.sum(axis=1) + D.sum(axis=1)).max())


def _tv_to_weight(d: np.ndarray, W: np.ndarray) -> float:
    """TV(d, W) as 1 - sum min(d, W), one minus the overlap: never above 1,
    and cut at 0, which an overlap can pass only by rounding."""
    return max(0.0, 1.0 - float(np.minimum(d, W).sum()))


def _kl_to_weight(d: np.ndarray, W: np.ndarray, logW: np.ndarray | None) -> float:
    """KL(d || W) summed term by term as W phi(d/W) = d log(d/W) - d + W,
    phi(r) = r log r - r + 1 >= 0: the sum of d log(d/W) for two laws of
    mass 1, made of terms that cannot be negative (one that rounds below 0
    is cut at 0).  log(d/W) is log1p((d - W)/W) where d/W is within 1/2 of
    1, so the small terms of a KL near 0 keep their digits, and log d -
    log W where W is below the smallest normal double, zero or subnormal,
    and d/W could overflow: log W from the log route is finite there
    (`logW`, needed only when W has such a point).  One lattice-size float
    buffer holds the terms, formed _BLOCK points at a time and summed once;
    a point without mass adds W (phi(0) = 1)."""
    out = np.empty_like(d)
    for lo in range(0, len(d), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        _kl_terms(d[b], W[b], None if logW is None else logW[b], out[b])
    return float(out.sum())


def _kl_terms(d: np.ndarray, W: np.ndarray, logW: np.ndarray | None,
              term: np.ndarray) -> None:
    """The terms of `_kl_to_weight` for one block of points, into `term`."""
    mass = d > 0
    with np.errstate(divide="ignore", over="ignore"):
        term.fill(0.0)
        np.divide(d, W, out=term, where=mass)
        diff = np.subtract(term, 1.0)
        near = mass & (np.abs(diff, out=diff) < 0.5)
        np.log(term, out=term, where=mass & ~near)
    np.subtract(d, W, out=diff, where=mass)
    np.divide(diff, W, out=term, where=near)
    np.log1p(term, out=term, where=near)
    gone = mass & (W < _TINY)
    if gone.any():
        np.log(d, out=term, where=gone)
        np.subtract(term, logW, out=term, where=gone)
    term *= d
    term -= diff
    np.maximum(term, 0.0, out=term)
    np.copyto(term, W, where=~mass)


def _one_body_kernels(K1: np.ndarray, lam1: float, times: np.ndarray):
    """Yield P1(t) = exp(t Q1) at times[1:].  A step applies the Poisson
    series of K1 = I + Q1/lam1 at lam1 dt <= _MAX_SEGMENT to P1; a longer
    one takes P1(dt) as the series at dt/2^k squared k times, each square's
    rows divided by their sums (else they grow like (1 + eps)^(2^k)).  The
    cost grows with log2(lam1 dt)."""
    P1 = np.eye(len(K1))
    for dt in np.diff(times).tolist():
        if lam1 * dt <= _MAX_SEGMENT:
            P1 = _uniformized_step(K1, P1, lam1 * dt)
        else:
            k = math.ceil(math.log2(lam1) + math.log2(dt) - math.log2(_MAX_SEGMENT))
            step = _uniformized_step(K1, np.eye(len(K1)), math.ldexp(lam1, -k) * dt)
            for _ in range(k):
                step = step @ step
                step /= step.sum(axis=1)[:, None]
            P1 = step @ P1
        yield P1


def _snapshots(K, v: np.ndarray, lam: float, times: np.ndarray):
    """Yield the image of v at times[1:] under uniformization of K at rate
    bound lam, each step cut into pieces of at most _MAX_SEGMENT jumps: the
    cost grows linearly with lam times the horizon."""
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        pieces = max(1, int(math.ceil(lam * dt / _MAX_SEGMENT)))
        for _ in range(pieces):
            v = _uniformized_step(K, v, lam * dt / pieces)
        yield v


def _uniformized_step(K, v: np.ndarray, a: float) -> np.ndarray:
    """sum_k pois(k; a) K^k v, truncated once the index has passed the
    Poisson mode and the term weight is below the cutoff.  K^k v stays a
    probability vector (a stochastic matrix, when v is one), so the
    truncation error is bounded by the remaining tail mass."""
    if a == 0.0:
        return v.copy()
    weight = math.exp(-a)
    acc = weight * v
    term = v
    k = 0
    while k < a or weight > _POISSON_TAIL:
        k += 1
        term = K @ term
        acc += weight * (a / k) * term
        weight *= a / k
        if k > 200000:
            raise NoConvergence("uniformization series failed to converge")
    return acc


class RelaxationFit(NamedTuple):
    slope: float
    intercept: float
    points_used: int
    window: tuple[float, float]


def relaxation_rate(
    result: EvolveResult, window: tuple[float, float] = (1e-8, 1e-2)
) -> RelaxationFit:
    """Linear fit of log tv(t); asymptotically the slope is minus the
    spectral gap.  Only snapshots with tv inside `window` enter the fit,
    excluding both the early multi-mode transient and the numerical floor.
    """
    tv = result.tv_to_stationary
    mask = (tv > window[0]) & (tv < window[1])
    if mask.sum() < 2:
        raise ValidationError(
            "fewer than two snapshots fall in the fitting window; "
            "adjust T, steps, or the window"
        )
    slope, intercept = np.polyfit(result.times[mask], np.log(tv[mask]), 1)
    return RelaxationFit(float(slope), float(intercept), int(mask.sum()), window)
