"""Stochastic and deterministic evolution of the birth-death process.

Two engines:

* ``gillespie_run`` draws the embedded jump chain with exponential
  holding times and accumulates the time-weighted occupation measure.
  Each state's positive-rate moves, their cumulative jump probabilities
  (last bound +inf) and targets are tabulated once with array operations;
  per event the loop only walks the chain, one ``bisect_left`` of a
  uniform into the current state's bounds.  Per block of events it draws
  the exponentials, then the uniforms, and adds the holding times to the
  occupation with ``np.add.at`` in event order, so the sums are those of
  an event-by-event loop, bit for bit.  Randomness comes from numpy's
  PCG64 generator; a run is fully determined by its seed, and
  ``tests/test_simulator.py`` pins the output of two seeds by digest.

* ``evolve_distribution`` applies exp(tL) to a distribution.  The N
  particles hop independently on the (n+1)-state star, so from a point
  mass x (the origin included) the law at time t is exact: the product
  over slots i of the multinomials of x_i particles with cells
  P1(t)[i, :], where P1(t) = exp(t Q1) is the (n+1) x (n+1) one-body
  kernel.  From the stationary weight W the law stays W.  Any other start
  is pushed through the many-body kernel by uniformization, the only route
  whose cost does not grow with the support of the start and the oracle
  of the exact law in the tests: with rate bound Lam the transition kernel
  K = I + L/Lam is column-stochastic and the Poisson-weighted series
  sum_k pois(k; Lam dt) K^k converges with explicitly controlled tail.
  P1(t) is the same series on the one-body kernel I + Q1/Lam1, so all of
  its terms are nonnegative and its rows sum to 1 up to rounding.  The
  rate tables live only while the rate bound is taken (uniformization
  from a general start builds them again).  KL to W is d log(d/W) where
  W is a normal double; where W is below the smallest normal double, zero
  or subnormal (n=1, N=2000, p=q=1: 396 + 34 of the 2,001 points), it is
  taken from log W, the log route's own values, which are finite there.

Each route imports the layers it computes with when it runs: the exact
law needs ``sympower``, uniformization on the lattice ``bdcore`` and
``scipy.sparse``, and the Gillespie loop neither.

Both refuse rate tables with negative entries, which rules out signed dual
systems by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import AbsorbingState, NoConvergence, ValidationError
from .lattice import StateSpace
from .model import (
    ModelParams, check_rate_tables, log_weight_vector, rate_tables, weight_vector,
)

RNG_FAMILY = "numpy-PCG64"
_BLOCK = 1 << 14
_POISSON_TAIL = 1e-18
_TINY = np.finfo(float).tiny   # below it W is zero or subnormal
_MAX_SEGMENT = 600.0


def total_variation(d: np.ndarray, ref: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(d) - np.asarray(ref)).sum())


def kl_divergence(d: np.ndarray, ref: np.ndarray) -> float:
    """KL(d || ref) with the 0 log 0 = 0 convention; ref must be positive
    wherever d is (a weight that underflows to 0 off the support of d is
    fine)."""
    d = np.asarray(d, dtype=float)
    ref = np.asarray(ref, dtype=float)
    mask = d > 0
    if np.any(ref[mask] <= 0):
        raise ValidationError("reference distribution must be positive where d has mass")
    return float(np.sum(d[mask] * np.log(d[mask] / ref[mask])))


@dataclass(frozen=True)
class GillespieResult:
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
    loop: row r holds the cumulative probabilities of the positive-rate
    moves of state r (births, then deaths, each in direction order) and
    their targets.  The last move's bound and the padding after it are
    +inf, so `bisect_left` stays inside the row; a state with zero total
    rate gets a self-loop and is flagged absorbing."""
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
    return totals, absorbing, cums.tolist(), targets.tolist()


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
    if n_events < 1:
        raise ValidationError("n_events must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    state = int(initial_rank)
    if not 0 <= state < space.size:
        raise ValidationError(
            f"initial rank {state} is outside the lattice of {space.size} points"
        )

    totals, absorbing, cums, targets = _jump_tables(B, D, space)
    occupation = np.zeros(space.size)
    visits = np.zeros(space.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))

    done = 0
    while done < n_events:
        block = min(_BLOCK, n_events - done)
        exps = rng.standard_exponential(block)
        unis = rng.random(block).tolist()
        path = []
        append = path.append
        for u in unis:
            append(state)
            state = targets[state][bisect_left(cums[state], u)]
        held = np.array(path)
        stuck = absorbing[held]
        if stuck.any():
            first = tuple(space.coords[held[stuck.argmax()]].tolist())
            raise AbsorbingState(f"state {first} has zero total rate")
        # unbuffered, in event order: the same sums as one event at a time
        np.add.at(occupation, held, exps / totals[held])
        visits += np.bincount(held, minlength=space.size)
        done += block

    total_time = float(occupation.sum())
    occ = occupation / total_time
    tv = total_variation(occ, reference) if reference is not None else None
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


def run_replicas(
    params: ModelParams,
    space: StateSpace,
    n_events: int,
    seed: int,
    replicas: int,
    initial=None,
) -> list[GillespieResult]:
    """Independent runs with child seeds spawned from one root seed."""
    return [
        gillespie_run(params, space, n_events,
                      int(child.generate_state(1, dtype=np.uint64)[0]), initial)
        for child in np.random.SeedSequence(seed).spawn(replicas)
    ]


@dataclass(frozen=True)
class EvolveResult:
    times: np.ndarray
    distributions: np.ndarray     # row k is the distribution at times[k]
    tv_to_stationary: np.ndarray
    kl_to_stationary: np.ndarray
    mass_defect: float
    rate_bound: float
    route: str                    # "exact" or "uniformization"


def evolve_distribution(
    params: ModelParams,
    space: StateSpace,
    initial,
    T: float,
    steps: int,
) -> EvolveResult:
    """Distribution snapshots of exp(tL) applied to `initial`.

    `initial` is a distribution vector over ranks, or "origin" /
    "stationary".  Snapshots are taken at steps+1 equally spaced times
    from 0 to T; snapshot 0 is the initial vector itself.  The start
    picks the route: "stationary" stays W, and a point mass ("origin" or
    a vector with one nonzero entry) evolves by its exact law, the
    `sympower.coefficient_row` of the one-body kernel; any other vector is
    pushed through the many-body kernel by uniformization.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValidationError(f"horizon T must be positive, got {T}")
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    W = weight_vector(params, space)

    if isinstance(initial, str):
        if initial == "origin":
            v = np.zeros(space.size)
            v[0] = 1.0
        elif initial == "stationary":
            v = W.copy()
        else:
            raise ValidationError(f"unknown initial distribution {initial!r}")
    else:
        try:
            v = np.asarray(initial, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"initial {initial!r} is not a distribution") from None
        if v.shape != (space.size,):
            raise ValidationError("initial distribution does not match the lattice")
        if not np.isfinite(v).all():
            raise ValidationError("initial distribution has a non-finite entry")
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
            raise ValidationError("initial must be a probability vector")

    lam = _rate_bound(params, space)
    times = np.linspace(0.0, T, steps + 1)
    dists = np.empty((steps + 1, space.size))
    dists[0] = v
    support = np.flatnonzero(v)
    if isinstance(initial, str) and initial == "stationary":
        route = "exact"
        dists[1:] = W
    elif len(support) == 1:
        from .sympower import coefficient_row

        route = "exact"
        Q1 = np.zeros((space.n + 1, space.n + 1))
        Q1[0, 1:] = params.p
        Q1[1:, 0] = params.q
        exits = Q1.sum(axis=1)
        lam1 = float(exits.max())
        K1 = np.eye(space.n + 1) + (Q1 - np.diag(exits)) / lam1
        x = space.coords[support[0]]
        for k, P1 in enumerate(_snapshots(K1, np.eye(space.n + 1), lam1, times), 1):
            dists[k] = v[support[0]] * coefficient_row(P1, x, space)
    else:
        import scipy.sparse

        from .bdcore import generator_from_tables

        route = "uniformization"
        L = generator_from_tables(*rate_tables(params, space), space)
        K = ((L / lam) + scipy.sparse.identity(space.size, format="csr")).tocsr()
        for k, snapshot in enumerate(_snapshots(K, v, lam, times), 1):
            dists[k] = snapshot

    tv = np.array([total_variation(d, W) for d in dists])
    logW = log_weight_vector(params, space) if W.min() < _TINY else None
    kl = np.array([_kl_to_weight(d, W, logW) for d in dists])
    mass = float(np.abs(dists.sum(axis=1) - 1.0).max())
    return EvolveResult(times, dists, tv, kl, mass, lam, route)


def _rate_bound(params: ModelParams, space: StateSpace) -> float:
    """Largest total jump rate over the lattice, the uniformization rate;
    the rate tables live only for this call."""
    B, D = rate_tables(params, space)
    return float((B.sum(axis=1) + D.sum(axis=1)).max())


def _kl_to_weight(d: np.ndarray, W: np.ndarray, logW: np.ndarray | None) -> float:
    """KL(d || W) as `kl_divergence` takes it, d log(d/W), but with
    log d - log W where W is below the smallest normal double, zero or
    subnormal, and d/W could overflow: log W from the log route is finite
    there (`logW`, needed only when W has such a point)."""
    mask = d > 0
    d, W = d[mask], W[mask]
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(d / W)
    gone = W < _TINY
    if gone.any():
        log_ratio[gone] = np.log(d[gone]) - logW[mask][gone]
    return float(np.sum(d * log_ratio))


def _snapshots(K, v: np.ndarray, lam: float, times: np.ndarray):
    """Yield the image of v at times[1:] under uniformization of K at rate
    bound lam, each step cut into pieces of at most _MAX_SEGMENT jumps."""
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


@dataclass(frozen=True)
class RelaxationFit:
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
