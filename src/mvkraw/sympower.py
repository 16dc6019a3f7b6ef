"""The symmetric-power kernel: coefficients of a product of linear forms.

For an (n+1) x (n+1) matrix M and the lattice of ceiling N, the N-th
symmetric power of M in the orthonormal oscillator basis is the table

    T[x, m] = C[x, m] sqrt(m!/x!),  C[x, m] = coefficient of t^m in
                                    f_x(t) = prod_{i=0..n} (M_i . t)^{x_i},

with x_0 = N - |x|, m_0 = N - |m|, t^m = t_0^{m_0} t_1^{m_1} .. t_n^{m_n}
and full factorials.  For orthogonal M it is orthogonal, |T| <= 1: with
M = R of the spectral data the orthonormal map, which `polynomials.table`
reads P off, and with M the one-body eigenvectors the eigenbasis.

Sym^N is multiplicative, Sym^N(AB) = Sym^N(A) Sym^N(B), so the table is a
product of simple factors (Genest, Vinet & Zhedanov, J. Phys. A 46 (2013)
505203: the polynomials are matrix elements of rotation-group
representations on oscillator states).  M is factored exactly as
M = F_1 .. F_K diag(s): the transposed Givens rotations of a QR sweep
M = Q U, then the unit upper shears [[1, c], [0, 1]] of U diag(1/s), s the
diagonal of U.  Nothing is orthogonalized, so a perturbed R is powered with
its defect.  Two kinds of factor are left out: rotations that are exactly
the identity, and shears whose entry is within the rounding of the sweep,
|c| <= (n+1) eps.  An orthogonal M (the spectral R, or the one-body
eigenvectors) has only such shears, 0.2-1.7 eps at n = 3, so it is powered
by its n(n+1)/2 rotations alone, half the dense passes; the shears of R
perturbed by 1e-6, as `verify --inject-u-perturbation` does, are ~1e-6 and
stay.  Each F is the identity but for one 2 x 2 block G on a plane of
slots (i, j), and Sym^N(F) is block-diagonal: a block holds the points whose
other slots are fixed and whose x_i + x_j = k, and it is Sym^k(G), for a
rotation the Wigner d-matrix of spin k/2.  Sym^N(diag s) scales column m by
prod_i s_i^{m_i}.  At n = 1, M itself is the one 2 x 2 factor, with
s = 1, so a singular M is powered too and every n runs the same loop.

Sym^k(G) for every k <= N comes from one pass of the Euler-averaged
recursion on the 2 x 2 matrix, degree by degree.  For the homogeneous
f_x of degree d, Euler's identity

    d f_x = sum_j t_j df_x/dt_j = sum_s x_s f_{x - e_s} (G_s . t)

makes every row the x_s/d-weighted average of its parents, each times one
linear form.  Taking a single parent instead (f_x = f_{x-e_s} G_s . t)
costs less but is not stable: for orthogonal G it amplifies rounding by up
to sqrt(C(N, x)), and the orthogonality defect at N=50 reaches 6e-11 and at
N=200 O(1).  In the orthonormal basis the averaged layer of a rotation is a
contraction, so rounding only adds up: the defect stays near 1e-13 at
N=600.  Each block product adds a few roundings per entry, so the products
stay near orthogonal too: T^T T - I reads 1.6e-14 at (2,40) and 4.9e-15 at
(3,20) for the spectral R, against the all-factor product by at most
1.8e-15.

The table starts as the identity, C-contiguous, and every factor acts on
its rows, so rows and columns are both lattice ranks: column m of the
power of the one-body eigenvectors is the eigenvector with mode numbers
m.  The first factor is written in as its blocks, not multiplied in; each
later one is applied in place, one k at a time: the blocks of that k are
gathered as rows, multiplied by Sym^k(G) in one matrix product and written
back.  The blocks are disjoint, so the peak memory is the table plus one
group of rows and its product.  Sym^N of the spectral R takes 17 ms at
(2,40), 82 ms at (3,20), 0.13 s at (4,12) and 0.58 s at (3,29) on one
BLAS thread (2 shared cores), against 57 ms, 0.17 s, 0.25 s and 1.78 s
with every shear and the first factor multiplied in.

`coefficient_row` is one row of C by the single-parent product.  It gives
only the transient law, from the one-body kernel, which is nonnegative, so
nothing cancels.  For a signed matrix the product amplifies rounding as N
grows: from the spectral R at n = 1, p = 1, q = 2 its rows of T are off by
3.7e-12 at N = 40, 2.1e-9 at N = 60 and 0.76 at N = 120.  The oracle rows
of T come instead from the Euler-averaged recursion over all n+1 slots
(`polynomials._oracle_rows`), off by at most 2.8e-16 at those N.

Every size x size table of the package is this kernel's or the oracle's
over every row, and each is refused by `_dense` before it is built, so
DENSE_CAP, the one dense-size cap, is enforced here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, ValidationError
from .lattice import StateSpace, simplex_size
from .model import _count_columns, _multinomial_rows

DENSE_CAP = 5000


def coefficient_power(M, space: StateSpace) -> np.ndarray:
    """T[x, m] = C[x, m] sqrt(m!/x!), C[x, m] the coefficient of t^m in
    prod_i (M_i . t)^{x_i}: the symmetric power in the orthonormal basis.

    Rows and columns are lattice ranks of `space`; M is (n+1, n+1) with row
    and column 0 belonging to the implicit slot x_0 = N - |x|.  T is
    orthogonal when M is and bounded by 1, where the plain coefficients of
    an orthogonal M grow like sqrt(x!/m!) and overflow near N=2000 at n=1.
    T is C-contiguous.  Raises CapExceeded above DENSE_CAP points, before
    allocating, and ValidationError for a singular M with n >= 2.
    """
    N, size = space.N, _dense(space)
    M = _one_body(M, space)
    # at n = 1, M is its own single plane factor, so a singular M is powered
    factors, scale = ([((0, 1), M)], np.ones(2)) if space.n == 1 else _plane_factors(M)
    occ = np.column_stack((N - space.degrees, space.coords))
    T = np.eye(size)
    if factors:
        # Sym^N(F_K) is its blocks, written over the identity with no product
        (i, j), G = factors.pop()
        for rows, W in zip(_plane_blocks(occ, i, j), _plane_powers(G, N)):
            T[rows[:, None], rows[None]] = W[:, :, None]
    for (i, j), G in reversed(factors):
        for rows, W in zip(_plane_blocks(occ, i, j), _plane_powers(G, N)):
            # one group: the rows of every block of one k, multiplied at once
            group = T[rows]
            T[rows] = (W @ group.reshape(len(W), -1)).reshape(group.shape)
    # Sym^N(diag s) is diag prod_i s_i^{m_i}, a column scaling on the right
    T *= np.prod(scale ** occ, axis=1)
    return T


def _dense(space: StateSpace) -> int:
    """The size of a size x size table on `space`; CapExceeded above
    DENSE_CAP points, before anything is allocated."""
    if space.size > DENSE_CAP:
        raise CapExceeded(f"size cap exceeded: dense table needs {space.size} "
                          f"<= {DENSE_CAP} points")
    return space.size


def _one_body(M, space: StateSpace) -> np.ndarray:
    """M as a float array; ValidationError unless it is (n+1) x (n+1)."""
    if np.shape(M) != (space.n + 1, space.n + 1):
        raise ValidationError(f"coefficient matrix must be {(space.n + 1, space.n + 1)}")
    return np.asarray(M, dtype=float)


def _plane_factors(M: np.ndarray):
    """M = F_1 .. F_K diag(s) as ([((i, j), G_1), ..], s): each F is the
    identity but for the 2 x 2 block G on slots i < j.  The first factors
    are the transposed Givens rotations of a QR sweep, M = Q U; the rest
    are the unit upper shears [[1, c], [0, 1]] of U diag(1/s), s the
    diagonal of U, column by column from the last.  Rotations equal to the
    identity are left out, and so are shears with |c| <= (n+1) eps: the
    sweep itself rounds U by that much, so such a shear is rounding, not a
    defect of M (an orthogonal M keeps no shear at all).  Larger shears
    stay, so a non-orthogonal M is powered as it is."""
    U = M.copy()
    factors = []
    for i in range(len(U) - 1):
        for j in range(len(U) - 1, i, -1):
            if U[j, i] == 0.0:
                continue
            rho = math.hypot(U[i, i], U[j, i])
            c, s = U[i, i] / rho, U[j, i] / rho
            rotation = np.array([[c, s], [-s, c]])
            U[[i, j]] = rotation @ U[[i, j]]
            U[j, i] = 0.0
            factors.append(((i, j), rotation.T))
    scale = U.diagonal().copy()
    if (scale == 0.0).any():
        raise ValidationError("coefficient matrix is singular")
    V = U / scale
    rounding = len(V) * np.finfo(float).eps
    for j in range(len(V) - 1, 0, -1):
        factors += [((i, j), np.array([[1.0, V[i, j]], [0.0, 1.0]]))
                    for i in range(j) if abs(V[i, j]) > rounding]
    return factors, scale


def _plane_blocks(occ: np.ndarray, i: int, j: int) -> list:
    """Blocks of Sym^N of a factor on slots (i, j), k = 0..N: the points
    with occ_i + occ_j = k as a (k+1, blocks) array of ranks, one column
    per setting of the other slots, rows by occ_j = 0..k."""
    k = occ[:, i] + occ[:, j]
    others = np.delete(occ, (i, j), axis=1)
    order = np.lexsort((occ[:, j], *others.T, k))
    bounds = np.searchsorted(k[order], np.arange(k.max() + 2))
    return [order[lo:hi].reshape(-1, d + 1).T
            for d, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _plane_powers(G: np.ndarray, N: int):
    """Sym^d(G) in the orthonormal basis for d = 0..N, G a 2 x 2 matrix:
    the layers of the Euler-averaged recursion, rows and columns indexed by
    the occupation of slot 1, 0..d.  For orthogonal G these are the Wigner
    d-matrices of the rotation.  Each layer is yielded and then dropped."""
    T = np.ones((1, 1))
    yield T
    for d in range(1, N + 1):
        # row x of layer d - 1 is the parent of row x (slot 0 grows to
        # d - x) and of row x + 1 (slot 1 grows to x + 1); the same roots
        # weigh the columns, Z_j[:, m] = sqrt(m_j) T[:, m - e_j]
        x = np.arange(d)
        root0, root1 = np.sqrt(d - x), np.sqrt(x + 1.0)
        out = np.zeros((d + 1, d + 1))
        for rows, root, g in ((slice(0, d), root0, G[0]), (slice(1, d + 1), root1, G[1])):
            parent = T * (root / d)[:, None]
            out[rows, :-1] += parent * (g[0] * root0)
            out[rows, 1:] += parent * (g[1] * root1)
        T = out
        yield T


def coefficient_row(M, x: np.ndarray, space: StateSpace) -> np.ndarray:
    """C[x, m] for every m rank: the coefficients of prod_i (M_i . t)^{x_i},
    x_0 = N - |x|, one point x at a time.

    Slot 0's factor is the multinomial of its x_0 particles on the graded
    prefix |y| <= x_0 (`model._multinomial_rows`, so row 0 of M must be
    nonnegative); each particle of slot i >= 1 then multiplies by its
    linear form, growing the prefix one degree.  For a nonnegative M every
    term is nonnegative, so this single-parent product has no cancellation
    to amplify.  ValidationError unless M is (n+1) x (n+1)."""
    M = _one_body(M, space)
    if np.any(M[0] < 0):
        raise ValidationError("row 0 of the coefficient matrix must be nonnegative")
    n = space.n
    d = space.N - int(x.sum())
    size = simplex_size(n, d)
    row = _multinomial_rows(d, _count_columns(space, slice(size)), M[0])
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
