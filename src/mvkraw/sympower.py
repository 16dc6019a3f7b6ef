"""The symmetric-power kernel: coefficients of a product of linear forms.

For an (n+1) x (n+1) matrix M and the lattice of ceiling N, the N-th
symmetric power of M in the orthonormal oscillator basis is the table

    T[x, m] = C[x, m] sqrt(m!/x!),  C[x, m] = coefficient of t^m in
                                    f_x(t) = prod_{i=0..n} (M_i . t)^{x_i},

with x_0 = N - |x|, m_0 = N - |m|, t^m = t_0^{m_0} t_1^{m_1} .. t_n^{m_n}
and full factorials.  For orthogonal M it is orthogonal, |T| <= 1: with
M = R of the spectral data the orthonormal map, which `polynomials.table`
reads P off, and with M the one-body eigenvectors the eigenbasis.

The table is built degree by degree, d = 1..N, on the graded prefix
|x| <= d of the lattice, where x_0 = d - |x|.  Each layer uses Euler's
identity for the homogeneous f_x of degree d,

    d f_x = sum_j t_j df_x/dt_j = sum_s x_s f_{x - e_s} (M_s . t),

so every row is the x_s/d-weighted average of its n+1 parents, each times
one linear form.  Taking a single parent instead (f_x = f_{x-e_s} M_s . t)
costs about n+1 times less but is not stable: for orthogonal M it amplifies
rounding by up to sqrt(C(N, x)), and the orthogonality defect of the
eigenbasis at n=1 reaches 6e-11 at N=50 and O(1) at N=200.  In the
orthonormal basis the averaged layer is a contraction, so rounding only
adds up: the defect stays near 1e-13 at n=1, N=600.

`coefficient_row` is one row of C by the single-parent product, for the
one-body kernel of the transient law (nonnegative, so nothing cancels)
and for the per-row oracle of the polynomial table.

Every size x size table of the package is built here, so DENSE_CAP, the
one dense-size cap, is enforced here.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, simplex_size
from .model import _multinomial_rows

DENSE_CAP = 5000

# columns of the next layer built per block, to bound the (n+1)-fold copy
_BLOCK_ELEMENTS = 1 << 21


def coefficient_power(M, space: StateSpace) -> np.ndarray:
    """T[x, m] = C[x, m] sqrt(m!/x!), C[x, m] the coefficient of t^m in
    prod_i (M_i . t)^{x_i}: the symmetric power in the orthonormal basis.

    Rows and columns are lattice ranks of `space`; M is (n+1, n+1) with row
    and column 0 belonging to the implicit slot x_0 = N - |x|.  T is
    orthogonal when M is and bounded by 1, where the plain coefficients of
    an orthogonal M grow like sqrt(x!/m!) and overflow near N=2000 at n=1.
    Raises CapExceeded above DENSE_CAP points, before allocating.
    """
    if space.size > DENSE_CAP:
        raise CapExceeded(f"dense table needs {space.size} <= cap {DENSE_CAP} points")
    import scipy.sparse as sp

    M = np.asarray(M, dtype=float)
    n = space.n
    if M.shape != (n + 1, n + 1):
        raise ValidationError(f"coefficient matrix must be {(n + 1, n + 1)}")
    slots = np.arange(n + 1)
    T = np.array([[1.0, 0.0]])   # layer 0, and a zero column kept last
    prev = 1
    for d in range(1, space.N + 1):
        size = simplex_size(n, d)
        # occupation of every slot of the prefix x' and the rank of x' + e_s
        occ = np.column_stack((d - 1 - space.degrees[:prev], space.coords[:prev]))
        dest = np.column_stack((np.arange(prev), space.up[:prev]))

        # rows: out[x' + e_s] += sqrt(x_s) M_sj Z_j[x'] over s, j, one sparse
        # product with Z_j[:, m] = sqrt(m_j) T[:, m - e_j] stacked over j
        rows = np.repeat(dest, n + 1, axis=1).ravel()
        cols = (slots[None, None, :] * prev + np.arange(prev)[:, None, None])
        cols = np.broadcast_to(cols, (prev, n + 1, n + 1)).ravel()
        weight = np.sqrt(occ + 1.0)
        vals = (weight[:, :, None] * M[None, :, :]).ravel()
        G = sp.csr_matrix((vals, (rows, cols)), shape=(size, (n + 1) * prev))

        # columns: the source of m in Z_j is m - e_j, or the zero column
        src = np.full((n + 1, size), prev)
        src[slots[:, None], dest.T] = np.arange(prev)
        col_weight = np.zeros((n + 1, size))
        col_weight[slots[:, None], dest.T] = weight.T

        # the last layer is returned as is; earlier ones carry the zero column
        out = np.zeros((size, size + (d < space.N)))
        step = max(1, _BLOCK_ELEMENTS // ((n + 1) * prev))
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            block = np.empty((n + 1, prev, hi - lo))
            for j in range(n + 1):
                # indices are in range; "clip" writes to `out` unbuffered
                np.take(T, src[j, lo:hi], axis=1, out=block[j], mode="clip")
            block *= col_weight[:, None, lo:hi]
            np.divide(G @ block.reshape((n + 1) * prev, hi - lo), d,
                      out=out[:, lo:hi])
        T = out
        prev = size
    return T


def coefficient_row(M, x: np.ndarray, space: StateSpace) -> np.ndarray:
    """C[x, m] for every m rank: the coefficients of prod_i (M_i . t)^{x_i},
    x_0 = N - |x|, one point x at a time.

    Slot 0's factor is the multinomial of its x_0 particles on the graded
    prefix |y| <= x_0 (`model._multinomial_rows`, so row 0 of M must be
    nonnegative); each particle of slot i >= 1 then multiplies by its
    linear form, growing the prefix one degree.  For a nonnegative M every
    term is nonnegative, so this single-parent product has no cancellation
    to amplify."""
    if np.any(M[0] < 0):
        raise ValidationError("row 0 of the coefficient matrix must be nonnegative")
    n = space.n
    d = space.N - int(x.sum())
    size = simplex_size(n, d)
    counts = np.column_stack((d - space.degrees[:size], space.coords[:size]))
    row = _multinomial_rows(d, counts, M[0])
    for i, power in enumerate(x.tolist(), start=1):
        for _ in range(power):
            d += 1
            grown = np.zeros(simplex_size(n, d))
            grown[:size] = M[i, 0] * row
            for j in range(n):
                # x -> x + e_j is one-to-one, so no target repeats
                grown[space.up[:size, j]] += M[i, j + 1] * row
            row, size = grown, len(grown)
    return row
