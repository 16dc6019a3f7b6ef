"""Stochastic and deterministic evolution of the birth-death process.

Two engines:

* ``gillespie_run`` draws the embedded jump chain event by event with
  exponential holding times and accumulates the time-weighted occupation
  measure.  Randomness comes from numpy's PCG64 generator; a run is fully
  determined by its seed.

* ``evolve_distribution`` pushes a distribution through exp(tL) by
  uniformization: with rate bound Lam the transition kernel
  K = I + L/Lam is column-stochastic and the Poisson-weighted series
  sum_k pois(k; Lam dt) K^k converges with explicitly controlled tail.

Both refuse rate tables with negative entries, which rules out signed dual
systems by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bdcore import check_rate_tables, generator_from_tables
from .errors import AbsorbingState, NoConvergence, ValidationError
from .lattice import StateSpace
from .model import ModelParams, rate_tables, weight_vector

RNG_FAMILY = "numpy-PCG64"
_BLOCK = 1 << 14
_POISSON_TAIL = 1e-18
_MAX_SEGMENT = 600.0


def total_variation(d: np.ndarray, ref: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(d) - np.asarray(ref)).sum())


def kl_divergence(d: np.ndarray, ref: np.ndarray) -> float:
    """KL(d || ref) with the 0 log 0 = 0 convention; ref must be positive."""
    d = np.asarray(d, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if np.any(ref <= 0):
        raise ValidationError("reference distribution must be strictly positive")
    mask = d > 0
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


def _jump_structure(B: np.ndarray, D: np.ndarray, space: StateSpace):
    """Per-state cumulative jump probabilities and targets."""
    size, n = B.shape
    totals = (B.sum(axis=1) + D.sum(axis=1)).tolist()
    cums: list[list[float]] = []
    targets: list[list[int]] = []
    for r in range(size):
        rate_acc = 0.0
        cum: list[float] = []
        tgt: list[int] = []
        for j in range(n):
            if B[r, j] > 0.0:
                rate_acc += B[r, j]
                cum.append(rate_acc)
                tgt.append(int(space.up[r, j]))
        for j in range(n):
            if D[r, j] > 0.0:
                rate_acc += D[r, j]
                cum.append(rate_acc)
                tgt.append(int(space.down[r, j]))
        total = totals[r]
        cums.append([c / total for c in cum] if total > 0 else [])
        targets.append(tgt)
    return totals, cums, targets


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

    totals, cums, targets = _jump_structure(B, D, space)
    occupation = [0.0] * space.size
    visits = np.zeros(space.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))

    state = int(initial_rank)
    done = 0
    while done < n_events:
        block = min(_BLOCK, n_events - done)
        exps = rng.standard_exponential(block).tolist()
        unis = rng.random(block).tolist()
        for e, r in zip(exps, unis):
            total = totals[state]
            if total <= 0.0:
                raise AbsorbingState(
                    f"state {space.points[state]} has zero total rate"
                )
            occupation[state] += e / total
            cum = cums[state]
            pos = 0
            last = len(cum) - 1
            while pos < last and cum[pos] < r:
                pos += 1
            visits[state] += 1
            state = targets[state][pos]
        done += block

    occ = np.asarray(occupation)
    total_time = float(occ.sum())
    occ = occ / total_time
    tv = total_variation(occ, reference) if reference is not None else None
    return GillespieResult(
        occupation=occ,
        visits=visits,
        events=n_events,
        total_time=total_time,
        final_state=space.points[state],
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
    rank = 0 if initial is None else space.rank(tuple(initial))
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
    children = np.random.SeedSequence(seed).spawn(replicas)
    B, D = rate_tables(params, space)
    W = weight_vector(params, space)
    rank = 0 if initial is None else space.rank(tuple(initial))
    out = []
    for child in children:
        rng_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        out.append(
            gillespie_from_tables(
                B, D, space, n_events, rng_seed, initial_rank=rank, reference=W
            )
        )
    return out


@dataclass(frozen=True)
class EvolveResult:
    times: np.ndarray
    distributions: np.ndarray     # row k is the distribution at times[k]
    tv_to_stationary: np.ndarray
    kl_to_stationary: np.ndarray
    mass_defect: float
    rate_bound: float


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
    from 0 to T.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValidationError(f"horizon T must be positive, got {T}")
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    B, D = rate_tables(params, space)
    L = generator_from_tables(B, D, space)
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
        v = np.asarray(initial, dtype=float)
        if v.shape != (space.size,):
            raise ValidationError("initial distribution does not match the lattice")
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
            raise ValidationError("initial must be a probability vector")

    lam = float((B.sum(axis=1) + D.sum(axis=1)).max())
    K = ((L / lam) + scipy.sparse.identity(space.size, format="csr")).tocsr()

    times = np.linspace(0.0, T, steps + 1)
    dists = np.empty((steps + 1, space.size))
    dists[0] = v
    for k in range(steps):
        dt = times[k + 1] - times[k]
        pieces = max(1, int(math.ceil(lam * dt / _MAX_SEGMENT)))
        for _ in range(pieces):
            v = _uniformized_step(K, v, lam * dt / pieces)
        dists[k + 1] = v

    tv = np.array([total_variation(d, W) for d in dists])
    kl = np.array([kl_divergence(d, W) for d in dists])
    mass = float(np.abs(dists.sum(axis=1) - 1.0).max())
    return EvolveResult(times, dists, tv, kl, mass, lam)


def _uniformized_step(K, v: np.ndarray, a: float) -> np.ndarray:
    """sum_k pois(k; a) K^k v, truncated once the index has passed the
    Poisson mode and the term weight is below the cutoff.  K^k v stays a
    probability vector, so the truncation error is bounded by the
    remaining tail mass."""
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
