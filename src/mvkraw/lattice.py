"""State space: the truncated nonnegative-integer lattice {x : |x| <= N}.

Points are enumerated graded-lexicographically (by total degree, then
lexicographically within each degree block), so the origin has rank 0 and
the ordering is deterministic across runs.  The same lattice indexes both
the population states and the polynomial degree vectors.  The rank is the
closed form, with d = |x|, r_0 = d, r_{k+1} = r_k - x_k and m_k = n - 1 - k,

    rank(x) = C(d-1+n, n) [d > 0]
              + sum_{k=0}^{n-2} [C(r_k + m_k, m_k) - C(r_k - x_k + m_k, m_k)]

(the points of lower degree, then those of degree d that agree with x
before coordinate k and are smaller there).  Its binomials C(r + m, m),
r <= N and m <= n, are at most the lattice size, so int64 cannot overflow.

A lattice holds its coordinates, degrees and binomial table, the table
built by running sums down its columns (C(r + m, m) = sum_{s <= r}
C(s + m - 1, m - 1)), 14 ms at (1, 200000) against 0.35 s for one
`math.comb` per entry.  The coordinates are built in rank order, with no
pass of the closed form: the degree d first, then x_1..x_{n-1} each from 0
up to what is left, and x_n the rest.  The points below one choice are
contiguous, so each column is one `np.repeat` of its level's values by the
subtree sizes C(s + m, m), s left over and m + 1 coordinates still to
place, and the degrees are d repeated C(d + n - 1, n - 1) times.  They are
stored column by column (Fortran order), the layout the multinomial passes
read them in.  At (3,80) the build peaks at 4.5 MB of arrays for 2.9 MB
kept, and at (3,226), 1,975,354 points, at 95 MB for 63 MB.  The closed
form serves `rank` and the neighbour tables `up` and `down`, which are
built on first read, since the multinomial laws and the symmetric-power
tables never read them.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np

from .errors import CapExceeded, ValidationError

# the most points a lattice may have; StateSpace checks it before allocating
LATTICE_CAP = 2_000_000


def simplex_size(n: int, N: int) -> int:
    """Number of lattice points: binomial(N + n, n)."""
    return math.comb(N + n, n)


def _is_number(v) -> bool:
    """True for a real number that is not a bool: what a JSON number reads
    as, where JSON true would pass for 1 and a string for its value."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _point_key(x) -> tuple[int, ...]:
    try:
        values = list(x)
        if all(_is_number(v) and float(v).is_integer() for v in values):
            return tuple(int(v) for v in values)
    except (TypeError, OverflowError):
        pass
    raise ValidationError(f"{x!r} is not a lattice point")


class StateSpace:
    """Graded-lex enumeration of {x in Z_{>=0}^n : |x| <= N}.

    Attributes
    ----------
    n, N : int
        Dimension and ceiling.
    points : list[tuple[int, ...]]
        Lattice points in rank order, built from `coords` on first use.
    coords : (size, n) int array
        Same points as an array, in Fortran order.
    degrees : (size,) int array
        Total degree |x| per rank.
    up, down : (size, n) int arrays
        Rank of x + e_j / x - e_j, or -1 when the neighbour leaves the
        lattice.  Both are built on the first read of either; at (3,80)
        they hold 4.4 MB beside the 2.9 MB of the rest.
    """

    def __init__(self, n: int, N: int):
        if not (type(n) is int and type(N) is int):
            raise ValidationError("n and N must be integers")
        if n < 1 or N < 1:
            raise ValidationError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
        size = simplex_size(n, N)
        if size > LATTICE_CAP:
            raise CapExceeded(
                f"size cap exceeded: lattice has {size} points > {LATTICE_CAP}")

        self.n = n
        self.N = N
        # the hockey stick: column m is the running sum of column m - 1
        self._binom = np.ones((N + 1, n + 1), dtype=np.int64)
        for m in range(1, n + 1):
            np.cumsum(self._binom[:, m - 1], out=self._binom[:, m])
        # in rank order, one level of choices per column (see the module
        # docstring); x_n is the degree less the others
        self.degrees = np.repeat(np.arange(N + 1), self._binom[:, n - 1])
        self.coords = np.empty((len(self.degrees), n), dtype=np.int64, order="F")
        self.coords[:, n - 1] = self.degrees
        left = np.arange(N + 1)
        for k in range(n - 1):
            # the choices 0..s below each node, s what it has left
            width = left + 1
            value = np.arange(width.sum())
            value -= np.repeat(np.cumsum(width) - width, width)
            if k < n - 2:   # at the last level each subtree is one point
                left = np.repeat(left, width) - value
                value = np.repeat(value, self._binom[left, n - 2 - k])
            self.coords[:, k] = value
            self.coords[:, n - 1] -= value

    def _ranks(self, pts: np.ndarray) -> np.ndarray:
        """Ranks of lattice points, the rows of `pts`, by the closed form."""
        T, n = self._binom, self.n
        r = pts.sum(axis=1)
        rank = T[r, n] - T[r, n - 1]   # C(d-1+n, n) by Pascal's rule, 0 at d = 0
        for k in range(n - 1):
            rank += T[r, n - 1 - k] - T[r - pts[:, k], n - 1 - k]
            r = r - pts[:, k]
        return rank

    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(up, down), the neighbour tables, built once on first use."""
        up = np.full((self.size, self.n), -1, dtype=np.int64)
        down = np.full((self.size, self.n), -1, dtype=np.int64)
        inner = np.nonzero(self.degrees < self.N)[0]
        for j, step in enumerate(np.eye(self.n, dtype=np.int64)):
            up[inner, j] = self._ranks(self.coords[inner] + step)
            down[up[inner, j], j] = inner
        return up, down

    @property
    def up(self) -> np.ndarray:
        return self._neighbours[0]

    @property
    def down(self) -> np.ndarray:
        return self._neighbours[1]

    @cached_property
    def points(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.coords.tolist()))

    @property
    def size(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __contains__(self, x) -> bool:
        key = _point_key(x)
        return len(key) == self.n and min(key) >= 0 and sum(key) <= self.N

    def rank(self, x) -> int:
        """Index of a lattice point; ValidationError if outside."""
        key = _point_key(x)
        if key not in self:
            raise ValidationError(
                f"{key} is not in the lattice (n={self.n}, N={self.N})"
            )
        return int(self._ranks(np.array([key]))[0])
