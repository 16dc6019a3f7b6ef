import math
import os
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


def draw_model(rng, n, N, lo=0.1, hi=10.0, q_sep=0.05):
    """Random model with a guaranteed separation between the q's."""
    while True:
        p = rng.uniform(lo, hi, n)
        q = rng.uniform(lo, hi, n)
        if n == 1 or float(np.diff(np.sort(q)).min()) >= q_sep:
            return ModelParams(n=n, N=N, p=tuple(p), q=tuple(q))


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


def multinomial(N: int, parts) -> float:
    """N! / (prod parts_i! * (N - sum parts)!) from integer binomials, exact."""
    out, remaining = 1, N
    for v in parts:
        out *= math.comb(remaining, int(v))
        remaining -= int(v)
    return float(out)
