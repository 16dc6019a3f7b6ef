"""State space: the truncated nonnegative-integer lattice {x : |x| <= N}.

Points are enumerated graded-lexicographically (by total degree, then
lexicographically within each degree block), so the origin has rank 0 and
the ordering is deterministic across runs.  The same lattice indexes both
the population states and the polynomial degree vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, ValidationError

DEFAULT_CAP = 2_000_000


def simplex_size(n: int, N: int) -> int:
    """Number of lattice points: binomial(N + n, n)."""
    return math.comb(N + n, n)


def _degree_block(n: int, total: int):
    # all length-n tuples of nonnegative ints summing to `total`, lex ascending
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_block(n - 1, total - first):
            yield (first,) + rest


def _point_key(x) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in x)
    except (TypeError, ValueError):
        raise ValidationError(f"{x!r} is not a lattice point") from None


class StateSpace:
    """Graded-lex enumeration of {x in Z_{>=0}^n : |x| <= N}.

    Attributes
    ----------
    n, N : int
        Dimension and ceiling.
    points : list[tuple[int, ...]]
        Lattice points in rank order.
    coords : (size, n) int array
        Same points as an array.
    degrees : (size,) int array
        Total degree |x| per rank.
    up, down : (size, n) int arrays
        Rank of x + e_j / x - e_j, or -1 when the neighbour leaves the
        lattice.
    """

    def __init__(self, n: int, N: int, cap: int = DEFAULT_CAP):
        if not (isinstance(n, int) and isinstance(N, int)):
            raise ValidationError("n and N must be integers")
        if n < 1 or N < 1:
            raise ValidationError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
        size = simplex_size(n, N)
        if size > cap:
            raise CapExceeded(f"lattice has {size} points, exceeds cap {cap}")

        points: list[tuple[int, ...]] = []
        for degree in range(N + 1):
            points.extend(_degree_block(n, degree))
        assert len(points) == size

        self.n = n
        self.N = N
        self.points = points
        self.coords = np.array(points, dtype=np.int64)
        self.degrees = self.coords.sum(axis=1)
        self._rank = {pt: i for i, pt in enumerate(points)}

        self.up = np.full((size, n), -1, dtype=np.int64)
        self.down = np.full((size, n), -1, dtype=np.int64)
        for i, pt in enumerate(points):
            if self.degrees[i] < N:
                for j in range(n):
                    moved = pt[:j] + (pt[j] + 1,) + pt[j + 1:]
                    self.up[i, j] = self._rank[moved]
            for j in range(n):
                if pt[j] > 0:
                    moved = pt[:j] + (pt[j] - 1,) + pt[j + 1:]
                    self.down[i, j] = self._rank[moved]

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, x) -> bool:
        return _point_key(x) in self._rank

    def rank(self, x) -> int:
        """Index of a lattice point; ValidationError if outside."""
        key = _point_key(x)
        try:
            return self._rank[key]
        except KeyError:
            raise ValidationError(
                f"{key} is not in the lattice (n={self.n}, N={self.N})"
            ) from None


def enumerate_states(n: int, N: int, cap: int = DEFAULT_CAP) -> StateSpace:
    """Build the state space, rejecting instances above `cap` points."""
    return StateSpace(n, N, cap=cap)
