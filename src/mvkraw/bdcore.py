"""Generic multidimensional birth-death framework on the truncated lattice.

A rate field assigns a birth rate B_j(x) to the move x -> x + e_j and a
death rate D_j(x) to x -> x - e_j.  Every function here takes the field as
two tables B and D of shape (size, n), row r holding the rates at the
lattice point of rank r (`model.rate_tables` builds the model's), and
builds from them the operators over the state space:

* the generator L of the continuous-time chain (columns sum to zero),
* the symmetrized operator H = -W^{-1/2} L W^{1/2}, whose entries only need
  products sqrt(B) sqrt(D) and which is symmetric positive semidefinite (PSD),
* the polynomial-side difference operator Ht = W^{-1/2} H W^{1/2}, which
  annihilates constants,
* the ladder factors A_j with H = sum_j A_j^T A_j and A_j sqrt(W) = 0,
  which make H PSD: `verify_structure` certifies it from the residual of
  this factorization, with no eigensolver, so nothing here is dense.

The moves are nearest-neighbour, so each operator is a diagonal plus one
coefficient per neighbour x +- e_j, given as (size, n) tables aligned with
`space.up` and `space.down`.  One assembly lays them out as a neighbour
stencil (`_Stencil`: ranks and values, one row per point), the form
`verify_structure`, the eigen equation and the dual recurrence apply by
gather; `generator_from_tables` converts the generator to CSR for
uniformization, the only use of scipy here.

It also derives the stationary weight W from the two-term relation
W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j), one degree layer at a time (checking
path-independence), and bundles all structural identities into one report.
Tables entering the generator and the report are validated by
`model.check_rate_tables`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ValidationError
from .lattice import StateSpace
from .model import _check_weight, check_rate_tables
from .report import Report

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_IDENTITY_TOL = 1e-10
# largest gap between two parents' log W that `_log_weight` calls agreement
_PATH_TOL = 1e-10


class _Stencil(NamedTuple):
    """An operator in its neighbour layout: row x holds vals[x, s] at the
    rank cols[x, s], slots laid out as x-e_j (j increasing), x, x+e_j (j
    decreasing) over the operator's directions, ranks that graded-lex
    order makes increasing.  A move off the lattice has rank -1 and value
    0.  Slots s and w-1-s are opposite moves, so the transpose mirrors
    them."""

    cols: np.ndarray
    vals: np.ndarray

    def _sources(self) -> np.ndarray:
        """cols with each -1 replaced by the row's own rank."""
        return np.where(self.cols >= 0, self.cols, np.arange(len(self.cols))[:, None])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """A v by gather, slot by slot in increasing rank as CSR sums a row;
        a -1 slot reads row x of v, times 0."""
        v = np.asarray(v, dtype=float)
        src = self._sources()
        vals = self.vals.reshape(self.vals.shape + (1,) * (v.ndim - 1))
        out = np.zeros((len(src),) + v.shape[1:])
        term = np.empty_like(out)
        for s in range(src.shape[1]):
            # indices are in range; "clip" writes to `term` unbuffered
            np.take(v, src[:, s], axis=0, out=term, mode="clip")
            term *= vals[:, s]
            out += term
        return out

    @property
    def T(self) -> _Stencil:
        """The transpose: A^T[x, y] for y = x +- e_j is A[y, x], the
        mirrored slot of row y."""
        mirrored = self.vals[:, ::-1][self.cols, np.arange(self.cols.shape[1])]
        return self._replace(vals=np.where(self.cols >= 0, mirrored, 0.0))

    def conjugated(self, logw: np.ndarray) -> _Stencil:
        """W^{-1/2} A W^{1/2}: each entry times exp((log W[col] - log W[row])
        / 2), finite where W underflows."""
        return self._replace(vals=self.vals * np.exp(0.5 * (logw[self._sources()]
                                                            - logw[:, None])))

    def column_sums(self) -> np.ndarray:
        on = self.cols >= 0
        return np.bincount(self.cols[on], self.vals[on], minlength=len(self.cols))

    def csr(self) -> sp.csr_matrix:
        """As CSR, without zeros; each row's indices come out sorted."""
        import scipy.sparse as sp

        kept = np.flatnonzero((self.cols >= 0) & (self.vals != 0))
        size = len(self.cols)
        indptr = np.bincount(kept // self.cols.shape[1] + 1, minlength=size + 1).cumsum()
        return sp.csr_matrix((self.vals.ravel()[kept], self.cols.ravel()[kept], indptr),
                             shape=(size, size))


def _stencil(space: StateSpace, diag: np.ndarray, up: np.ndarray,
             down: np.ndarray, dirs=slice(None)) -> _Stencil:
    """Operator with diagonal `diag`, up[x, k] at (x, x+e_j) and down[x, k]
    at (x, x-e_j) for the k-th direction j in the slice `dirs`; an entry
    toward a -1 neighbour is 0."""
    cols = np.column_stack((space.down[:, dirs], np.arange(space.size),
                            space.up[:, dirs][:, ::-1]))
    vals = np.column_stack((down, diag, up[:, ::-1]))
    return _Stencil(cols, np.where(cols >= 0, vals, 0.0))


def _across(rates: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """rates_j at the neighbour nbr[x, j], 0 off the lattice (-1 reads the
    appended zero row): B_j(x-e_j) = _across(B, space.down) and
    D_j(x+e_j) = _across(D, space.up)."""
    padded = np.concatenate((rates, np.zeros((1, rates.shape[1]))))
    return np.take_along_axis(padded, nbr, axis=0)


def _generator(B, D, space: StateSpace) -> _Stencil:
    return _stencil(space, -(B.sum(axis=1) + D.sum(axis=1)),
                    _across(D, space.up), _across(B, space.down))


def _symmetrized(B, D, space: StateSpace) -> _Stencil:
    # sqrt(B) sqrt(D), not sqrt(B D): the product leaves float64 from ~1e154
    return _stencil(space, B.sum(axis=1) + D.sum(axis=1),
                    -(np.sqrt(B) * np.sqrt(_across(D, space.up))),
                    -(np.sqrt(_across(B, space.down)) * np.sqrt(D)))


def _difference(B, D, space: StateSpace) -> _Stencil:
    return _stencil(space, B.sum(axis=1) + D.sum(axis=1), -B, -D)


def _ladder(B, D, space: StateSpace, j: int) -> _Stencil:
    dirs = slice(j, j + 1)
    up = -np.sqrt(_across(D[:, dirs], space.up[:, dirs]))
    return _stencil(space, np.sqrt(B[:, j]), up, np.zeros_like(up), dirs)


def generator_from_tables(B: np.ndarray, D: np.ndarray, space: StateSpace) -> sp.csr_matrix:
    """Generator L: L[x, x-e_j] = B_j(x-e_j), L[x, x+e_j] = D_j(x+e_j),
    diagonal -(sum_j B_j + D_j).  ValidationError for tables
    `model.check_rate_tables` refuses."""
    B, D = check_rate_tables(B, D, space)
    return _generator(B, D, space).csr()


def _log_weight(B: np.ndarray, D: np.ndarray, space: StateSpace) -> np.ndarray:
    """log W from the two-term relation, shifted to maximum 0.

    It is propagated from the origin one degree layer at a time (the parents
    of a layer lie in the one before), so it neither under- nor overflows.
    Every alternative parent direction is checked against the first, so
    agreement here is exactly path-independence of the two-term relation;
    the first bad (point, direction) in rank order is reported.  The
    tables are those `check_rate_tables` returned.
    """
    # math.log once per distinct rate: numpy's log differs from it in the
    # last bit on about 0.1% of inputs, and W equals a point-by-point walk
    values, where = np.unique(np.stack((B, D)), return_inverse=True)
    logs = np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])
    logB, logD = logs[where.reshape(2, *B.shape)]
    dirs = np.arange(space.n)
    bounds = np.searchsorted(space.degrees, np.arange(space.N + 2))
    logw = np.zeros(space.size)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        occupied = space.down[lo:hi] >= 0
        parent = np.where(occupied, space.down[lo:hi], 0)
        with np.errstate(invalid="ignore"):
            candidate = logw[parent] + logB[parent, dirs] - logD[lo:hi]
            value = candidate[np.arange(hi - lo), occupied.argmax(axis=1)]
            split = np.abs(candidate - value[:, None]) > _PATH_TOL
        undefined = D[lo:hi] <= 0.0
        unreachable = B[parent, dirs] <= 0.0
        bad = occupied & (undefined | unreachable | split)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            pt = space.points[lo + i]
            if undefined[i, j]:
                raise ValidationError(
                    f"death rate vanishes entering {pt} along direction {j}: "
                    "two-term weight undefined"
                )
            if unreachable[i, j]:
                raise ValidationError(
                    f"state {pt} unreachable: birth rate vanishes at "
                    f"{space.points[parent[i, j]]} in direction {j}"
                )
            raise ValidationError(
                f"two-term relation is path-dependent at {pt}: "
                f"log-weight {candidate[i, j]:.12g} vs {value[i]:.12g}; "
                "rate field fails the compatibility condition"
            )
        logw[lo:hi] = value
    return logw - logw.max()


def verify_structure(
    B: np.ndarray,
    D: np.ndarray,
    space: StateSpace,
    W: np.ndarray | None = None,
    tol: float = DEFAULT_IDENTITY_TOL,
) -> Report:
    """Verify the structural identities tying L, H, Ht, A_j and W together.

    Residuals are scaled by the largest total exit rate so tolerances stay
    meaningful across rate magnitudes.  Since sum_j A_j^T A_j is PSD, Weyl
    gives lambda_min(H) >= -||E||_2 >= -sqrt(||E||_1 ||E||_inf) for
    E = H - sum_j A_j^T A_j; the PSD check reports that bound over
    max_x H_xx <= ||H||_2, so never less than max(0, -lambda_min)/||H||_2.
    The two similarity checks always take log W from the two-term relation
    (`_log_weight`), finite where W underflows; a caller's W enters only the
    annihilation checks (L W, A_j sqrt W and H sqrt W), and ValidationError
    unless it has one finite, nonnegative entry per lattice point.
    """
    B, D = check_rate_tables(B, D, space)
    logw = _log_weight(B, D, space)
    if W is None:
        W = np.exp(logw)
        W /= W.sum()
    else:
        W = _check_weight(W, space)
    L = _generator(B, D, space)
    H = _symmetrized(B, D, space)
    Ht = _difference(B, D, space)
    ladders = [_ladder(B, D, space, j) for j in range(space.n)]

    scale = max(1.0, float((B.sum(axis=1) + D.sum(axis=1)).max()))
    sqw = np.sqrt(W)
    report = Report()

    report.add("generator-column-sums", np.abs(L.column_sums()).max() / scale, tol)

    report.add("generator-annihilates-weight", np.abs(L @ W).max() / scale, tol)

    sym_gap = np.abs(H.vals - H.T.vals).max()
    report.add("symmetrized-is-symmetric", sym_gap / scale, tol)

    conj = -L.conjugated(logw).vals
    report.add("symmetrized-similarity", np.abs(H.vals - conj).max() / scale, tol)

    gap = _Stencil(H.cols, np.abs(H.vals - _ladder_gram(ladders, space.n)))
    report.add("ladder-factorization", gap.vals.max() / scale, tol)

    worst_ladder = max(np.abs(A @ sqw).max() for A in ladders)
    report.add("ladder-annihilates-sqrt-weight", worst_ladder / math.sqrt(scale), tol)

    conj2 = H.conjugated(logw).vals
    report.add("difference-op-similarity", np.abs(Ht.vals - conj2).max() / scale, tol)

    ones = np.ones(space.size)
    report.add("difference-op-annihilates-constants", np.abs(Ht @ ones).max() / scale, tol)

    report.add("symmetrized-annihilates-sqrt-weight", np.abs(H @ sqw).max() / scale, tol)

    # a product of square roots: the product of the norms can leave float64
    bound = (math.sqrt(float(gap.column_sums().max()))
             * math.sqrt(float(gap.vals.sum(axis=1).max())))
    hmax = max(float(H.vals[:, space.n].max()), 1e-300)
    report.add("symmetrized-positive-semidefinite", bound / hmax, tol)

    return report


def _ladder_gram(ladders: list, n: int) -> np.ndarray:
    """The values of sum_j A_j^T A_j in the full layout, from each A_j's two
    entries per row, a(x) = A_j[x, x] and b(x) = A_j[x, x+e_j]: column y of
    A_j holds b(y-e_j) and a(y), so the diagonal is b(y-e_j)^2 + a(y)^2 and
    the entry toward x+e_j is a(x) b(x), in both directions."""
    out = np.zeros((len(ladders[0].cols), 2 * n + 1))
    for j, A in enumerate(ladders):
        # x-e_j, or the appended 0 off the lattice
        below = A.cols[:, 0]
        a, b = A.vals[:, 1], A.vals[:, 2]
        b_below = np.append(b, 0.0)[below]
        out[:, n] += b_below * b_below + a * a
        out[:, 2 * n - j] = a * b
        out[:, j] = np.append(a * b, 0.0)[below]
    return out
