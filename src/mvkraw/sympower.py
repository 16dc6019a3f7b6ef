"""The symmetric-power kernel: coefficients of a product of linear forms.

For an (n+1) x (n+1) matrix M and the lattice of ceiling N, the N-th
symmetric power of M in the monomial basis is the table

    C[x, m] = coefficient of t^m in f_x(t) = prod_{i=0..n} (M_i . t)^{x_i},

with x_0 = N - |x| and t^m = t_0^{m_0} t_1^{m_1} .. t_n^{m_n},
m_0 = N - |m|.  With M the bordered coupling matrix `a` this is the
polynomial table up to the factor C(N, m); with M the orthogonal one-body
eigenvectors, rescaled to T[x, m] = C[x, m] sqrt(m!/x!), it is the
orthonormal many-body eigenbasis.

The table is built degree by degree, d = 1..N, on the graded prefix
|x| <= d of the lattice, where x_0 = d - |x|.  Each layer uses Euler's
identity for the homogeneous f_x of degree d,

    d f_x = sum_j t_j df_x/dt_j = sum_s x_s f_{x - e_s} (M_s . t),

so every row is the x_s/d-weighted average of its n+1 parents, each times
one linear form.  Taking a single parent instead (f_x = f_{x-e_s} M_s . t)
costs about n+1 times less but is not stable: for orthogonal M it amplifies
rounding by up to sqrt(C(N, x)), and the orthogonality defect of the
eigenbasis at n=1 reaches 6e-11 at N=50 and O(1) at N=200.  In the
normalized basis the averaged layer is a contraction, so rounding only
adds up: the defect stays near 1e-13 at n=1, N=600.

Every size x size table of the package is built here, so DENSE_CAP, the
one dense-size cap, is enforced here.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, simplex_size

DENSE_CAP = 5000

# columns of the next layer built per block, to bound the (n+1)-fold copy
_BLOCK_ELEMENTS = 1 << 21


def coefficient_power(M, space: StateSpace, normalized: bool = False) -> np.ndarray:
    """C[x, m], the coefficient of t^m in prod_i (M_i . t)^{x_i}.

    Rows and columns are lattice ranks of `space`; M is (n+1, n+1) with row
    and column 0 belonging to the implicit slot x_0 = N - |x|.  With
    `normalized` the table is C[x, m] sqrt(m!/x!) (full factorials, slot 0
    included): the symmetric power in the orthonormal oscillator basis,
    orthogonal when M is and bounded by 1, where plain coefficients of an
    orthogonal M grow like sqrt(x!/m!) and overflow near N=2000 at n=1.
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
    C = np.array([[1.0, 0.0]])   # layer 0, and a zero column kept last
    prev = 1
    for d in range(1, space.N + 1):
        size = simplex_size(n, d)
        # occupation of every slot of the prefix x' and the rank of x' + e_s
        occ = np.column_stack((d - 1 - space.degrees[:prev], space.coords[:prev]))
        dest = np.column_stack((np.arange(prev), space.up[:prev]))

        # rows: out[x' + e_s] += x_s M_sj Z_j[x'] over s, j, one sparse product
        # with Z_j[:, m] = C[:, m - e_j] stacked over j
        rows = np.repeat(dest, n + 1, axis=1).ravel()
        cols = (slots[None, None, :] * prev + np.arange(prev)[:, None, None])
        cols = np.broadcast_to(cols, (prev, n + 1, n + 1)).ravel()
        weight = np.sqrt(occ + 1.0) if normalized else occ + 1.0
        vals = (weight[:, :, None] * M[None, :, :]).ravel()
        G = sp.csr_matrix((vals, (rows, cols)), shape=(size, (n + 1) * prev))

        # columns: the source of m in Z_j is m - e_j, or the zero column
        src = np.full((n + 1, size), prev)
        src[slots[:, None], dest.T] = np.arange(prev)
        if normalized:
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
                np.take(C, src[j, lo:hi], axis=1, out=block[j], mode="clip")
            if normalized:
                block *= col_weight[:, None, lo:hi]
            # integer weights, divided last, keep P_0 = 1 and P_m(0) = 1 exact
            np.divide(G @ block.reshape((n + 1) * prev, hi - lo), d,
                      out=out[:, lo:hi])
        C = out
        prev = size
    return C
