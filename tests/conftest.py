import numpy as np

from mvkraw import ModelParams


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
