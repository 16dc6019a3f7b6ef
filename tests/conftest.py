import math
import os
import tracemalloc
from pathlib import Path

import numpy as np

import mvkraw
from mvkraw import ModelParams

# CLI tests start `python -m mvkraw` in child interpreters; they import the
# same package as this process, also when it was found through pytest's
# `pythonpath` setting rather than PYTHONPATH or an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(mvkraw.__file__).resolve().parents[1])]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

# a CLI child process turns RuntimeWarning into an error, as the
# `filterwarnings` setting in pyproject.toml does in this process
CLI_ENV = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}


def _with_entry_1(W, value):
    out = W.copy()
    out[1] = value
    return out


# vectors that are not a weight of W's lattice, each refused where a
# caller's weight or reference enters
BAD_WEIGHTS = {
    "one-long": lambda W: np.append(W, W[-1]),
    "one-short": lambda W: W[:-1],
    "length-1": lambda W: W[:1],
    "two-columns": lambda W: np.column_stack((W, W)),
    "negative": lambda W: _with_entry_1(W, -W[1]),
    "nan": lambda W: _with_entry_1(W, np.nan),
}


def draw_model(rng, n, N, lo=0.1, hi=10.0, q_sep=0.05):
    """Random model with a guaranteed separation between the q's."""
    while True:
        p = rng.uniform(lo, hi, n)
        q = rng.uniform(lo, hi, n)
        if n == 1 or float(np.diff(np.sort(q)).min()) >= q_sep:
            return ModelParams(n=n, N=N, p=tuple(p), q=tuple(q))


def sweep_models(seed, draws, max_points=500):
    """Seeded valid models: n uniform over 1..4, N uniform over the
    ceilings whose lattice has at most `max_points` points, and p and q
    log-uniform over 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n = int(rng.integers(1, 5))
        top = 1
        while math.comb(top + 1 + n, n) <= max_points:
            top += 1
        N = int(rng.integers(1, top + 1))
        p, q = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
        yield ModelParams(n=n, N=N, p=tuple(p.tolist()), q=tuple(q.tolist()))


def series_table(spec, space):
    """Polynomial table from the hypergeometric series, one entry at a time."""
    from mvkraw import eval_P

    return np.array(
        [[eval_P(spec, m, x, space.N) for m in space.points] for x in space.points]
    )


def gram_reference(G, expected):
    """The Gram check `orthonormality` replaced, kept as its reference:
    normalized off-diagonal max |G_ij| / sqrt(G_ii G_jj) and relative
    diagonal mismatch max |G_ii - expected_i| / expected_i."""
    d = np.sqrt(np.diag(G))
    normalized = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(normalized, 0.0)
    return (float(normalized.max()),
            float(np.max(np.abs(np.diag(G) - expected) / expected)))


def tv_reference(d, ref) -> float:
    """The dense TV distance 1/2 sum |d - ref|, the reference of the
    package's in-range form 1 - sum min(d, W)."""
    return 0.5 * float(np.abs(np.asarray(d) - np.asarray(ref)).sum())


def kl_reference(d, ref) -> float:
    """The dense KL(d || ref) = sum d log(d/ref) over the support of d, the
    reference of the package's sum of nonnegative terms W phi(d/W)."""
    d = np.asarray(d, dtype=float)
    ref = np.asarray(ref, dtype=float)
    mass = d > 0
    return float(np.sum(d[mass] * np.log(d[mass] / ref[mass])))


def dense_operators(B, D, space):
    """The operators of `bdcore` as dense matrices, entry by entry: the
    generator L, the symmetrized H with off-diagonal
    -sqrt(B_j(x)) sqrt(D_j(x+e_j)) placed symmetrically, the difference
    operator (Ht f)(x) = sum_j B_j(x)(f(x) - f(x+e_j)) + D_j(x)(f(x) - f(x-e_j))
    and the ladder factors (A_j f)(x) = sqrt(B_j(x)) f(x) - sqrt(D_j(x+e_j)) f(x+e_j)."""
    size, n = B.shape
    L, H, Ht = (np.zeros((size, size)) for _ in range(3))
    ladders = [np.zeros((size, size)) for _ in range(n)]
    for x in range(size):
        exit_rate = B[x].sum() + D[x].sum()
        L[x, x], H[x, x], Ht[x, x] = -exit_rate, exit_rate, exit_rate
        for j in range(n):
            ladders[j][x, x] = math.sqrt(B[x, j])
            up, down = space.up[x, j], space.down[x, j]
            if up >= 0:
                L[x, up] = D[up, j]
                H[x, up] = -(math.sqrt(B[x, j]) * math.sqrt(D[up, j]))
                Ht[x, up] = -B[x, j]
                ladders[j][x, up] = -math.sqrt(D[up, j])
            if down >= 0:
                L[x, down] = B[down, j]
                H[x, down] = -(math.sqrt(B[down, j]) * math.sqrt(D[x, j]))
                Ht[x, down] = -D[x, j]
    return L, H, Ht, ladders


def multinomial(N: int, parts) -> float:
    """N! / (prod parts_i! * (N - sum parts)!) from integer binomials, exact."""
    out, remaining = 1, N
    for v in parts:
        out *= math.comb(remaining, int(v))
        remaining -= int(v)
    return float(out)


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes.
    tracemalloc counts numpy's buffers and Python's objects exactly, unlike
    RSS."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
