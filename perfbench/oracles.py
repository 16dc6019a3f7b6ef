"""Independent reference computations for the benchmark's output checks.

Nothing here imports mvkraw.  Each check recomputes what the program
reports from the model's definition: table entries and the rational dual
system with mpmath at 60 digits, the numeric eigenbasis from the one-body
matrix, the transient law from the (n+1)-state one-body generator, and
the Gillespie occupation against the multinomial weight with bounds
derived from the spectral gap.  Every check returns a list of error
strings, empty when the output is correct.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import gammaln, xlogy

DPS = 60
TABLE_TOL = 1e-10         # table entries, on the orthonormal scale |T| <= 1
EIGENVALUE_TOL = 1e-12    # numeric eigenbasis, relative to the largest eigenvalue
ORTHO_TOL = 1e-10         # numeric eigenbasis, max |V^T V - I| and eigen defect
TV_TOL = 1e-10            # uniformization TV trace, absolute
KL_TOL = 1e-9             # uniformization KL trace, relative
RATIONAL_TOL = 1e-12      # rational dual system, normalized Gram off-diagonals
MEAN_SIGMAS = 6.0         # Gillespie means: deviations allowed, in gap-bound sigmas
TV_BOUND_FACTOR = 3.0     # Gillespie TV: multiple of its gap bound
TOTAL_TIME_REL = 0.05     # Gillespie simulated time against events / mean rate


# --- lattice and multinomial --------------------------------------------------

def _compositions(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def simplex(n: int, N: int) -> np.ndarray:
    """{x in N_0^n : |x| <= N} in graded-lexicographic order, as (size, n)."""
    pts = [pt for d in range(N + 1) for pt in _compositions(n, d)]
    return np.array(pts, dtype=np.int64)


def eta_vector(p, q) -> np.ndarray:
    """Stationary cell probabilities (eta0, eta_1..eta_n)."""
    r = np.asarray(p, float) / np.asarray(q, float)
    return np.concatenate(([1.0], r)) / (1.0 + r.sum())


def multinomial_pmf(points: np.ndarray, N: int, probs) -> np.ndarray:
    """Multinomial(N, probs) at counts (N - |x|, x) for each row x."""
    X = np.column_stack((N - points.sum(axis=1), points))
    logc = gammaln(N + 1) - gammaln(X + 1).sum(axis=1)
    return np.exp(logc + xlogy(X, np.asarray(probs, float)[None, :]).sum(axis=1))


def one_body_eigenvalues(p, q) -> np.ndarray:
    """Eigenvalues of 1 p^T + diag(q), via the similar symmetric matrix
    diag(q) + sqrt(p) sqrt(p)^T; these are the secular roots."""
    s = np.sqrt(np.asarray(p, float))
    return scipy.linalg.eigvalsh(np.diag(np.asarray(q, float)) + np.outer(s, s))


# --- CSV parsing --------------------------------------------------------------

def _label(text: str) -> tuple:
    return tuple(int(v) for v in text.strip("()").split(";"))


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# manifest:"):
            raise ValueError(f"{path}: first line does not name a manifest")
        return list(csv.reader(fh))


# --- polynomial table at 60 digits ----------------------------------------------

def _secular_roots(pm, qm):
    """Roots of sum_i p_i/(lam - q_i) = 1, one in each gap of the sorted q
    and one in (q_max, q_max + sum p], by bisection at the working precision."""
    qs = sorted(qm)
    n = len(qs)

    def f(lam):
        return mp.fsum(pi / (lam - qi) for pi, qi in zip(pm, qm)) - 1

    roots = []
    for k in range(n):
        lo = qs[k]
        hi = qs[k + 1] if k + 1 < n else qs[-1] + mp.fsum(pm)
        for _ in range(4 * DPS):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        roots.append((lo + hi) / 2)
    return roots


def _gf_row(a, x, N: int) -> dict:
    """Coefficients of prod_i (sum_j a_ij t_j)^{x_i}, x_0 = N - |x|, keyed by
    the exponents of t_1..t_n; the coefficient of t^m is C(N, m) P_m(x)."""
    n = len(a) - 1
    poly = {(0,) * n: mp.mpf(1)}
    for i, power in enumerate((N - sum(x),) + tuple(x)):
        for _ in range(power):
            new: dict = {}
            for k, c in poly.items():
                new[k] = new.get(k, 0) + c * a[i][0]
                for j in range(n):
                    kk = k[:j] + (k[j] + 1,) + k[j + 1:]
                    new[kk] = new.get(kk, 0) + c * a[i][j + 1]
            poly = new
    return poly


def _multinomial_mp(N: int, m) -> mp.mpf:
    out = mp.factorial(N) / mp.factorial(N - sum(m))
    for v in m:
        out /= mp.factorial(v)
    return out


def _weight_mp(N: int, eta, x) -> mp.mpf:
    out = _multinomial_mp(N, x) * eta[0] ** (N - sum(x))
    for e, v in zip(eta[1:], x):
        out *= e ** v
    return out


@functools.lru_cache(maxsize=None)
def orthonormal_rows(p: tuple, q: tuple, N: int, rows: tuple) -> dict:
    """For each x in `rows`: {m: (P_m(x), orthonormal scale factor)} at DPS
    digits, with the secular roots solved in mpmath too.  The factor
    sqrt(W(x) C(N,m) eta_bar^m) turns P into the orthonormal map T."""
    with mp.workdps(DPS):
        pm = [mp.mpf(v) for v in p]
        qm = [mp.mpf(v) for v in q]
        lam = _secular_roots(pm, qm)
        n = len(pm)
        u = [[lam[j] / (lam[j] - qm[i]) for j in range(n)] for i in range(n)]
        ratio = [pi / qi for pi, qi in zip(pm, qm)]
        denom = 1 + mp.fsum(ratio)
        eta = [1 / denom] + [r / denom for r in ratio]
        eta_bar = [1 / (mp.fsum(eta[i + 1] * u[i][j] ** 2 for i in range(n)) - 1)
                   for j in range(n)]
        a = [[mp.mpf(1)] * (n + 1)] + [[mp.mpf(1)] + [1 - u[i][j] for j in range(n)]
                                       for i in range(n)]
        out = {}
        for x in rows:
            coeff = _gf_row(a, x, N)
            wx = _weight_mp(N, eta, x)
            entries = {}
            for m, c in coeff.items():
                cnm = _multinomial_mp(N, m)
                norm = cnm
                for e, v in zip(eta_bar, m):
                    norm *= e ** v
                entries[m] = (c / cnm, mp.sqrt(wx * norm))
            out[x] = entries
        return out


def check_table(path: str, p, q, N: int, rows) -> list[str]:
    """Sampled rows of table.csv against the 60-digit oracle, compared on the
    orthonormal scale: |scale * (P_program - P_oracle)| <= TABLE_TOL."""
    data = _read_csv(path)
    header = [_label(h) for h in data[0][1:]]
    table = {_label(r[0]): [float(v) for v in r[1:]] for r in data[1:]}
    expected_size = math.comb(N + len(p), len(p))
    if len(header) != expected_size or len(table) != expected_size:
        return [f"table.csv has {len(table)}x{len(header)} entries, "
                f"expected {expected_size}x{expected_size}"]
    oracle = orthonormal_rows(tuple(p), tuple(q), N, tuple(rows))
    worst = 0.0
    for x in rows:
        ref = oracle[x]
        for m, got in zip(header, table[x]):
            P, scale = ref[m]
            if abs(float(scale * P)) > 1 + 1e-12:
                return [f"oracle entry T[{x},{m}] exceeds 1"]
            worst = max(worst, float(abs(scale * (mp.mpf(got) - P))))
    if not worst <= TABLE_TOL:
        return [f"table entries differ from the 60-digit oracle by {worst:.3e} "
                f"on the orthonormal scale (tol {TABLE_TOL:.0e})"]
    return []


# --- rational dual system -------------------------------------------------------

def check_rational(manifest_path: str, N: int) -> list[str]:
    """Orthogonality of the reported dual pair in both directions, with the
    polynomials rebuilt at 60 digits from the manifest's couplings and the
    Gram sums weighted by the manifest's eta and eta_dual."""
    with open(manifest_path) as fh:
        man = json.load(fh)
    dual = man["dual"]
    c = dual["couplings"]
    errors = []
    for key in ("eta", "eta_dual"):
        w = dual[key]
        if len(w) != 3 or min(w) <= 0 or abs(math.fsum(w) - 1.0) > 1e-12:
            errors.append(f"{key} is not a probability vector: {w}")
    if errors:
        return errors
    pts = [tuple(int(v) for v in pt) for pt in simplex(2, N)]
    with mp.workdps(DPS):
        one = mp.mpf(1)
        # rows: x coordinates, columns: m coordinates (t: x1 m1, v: x1 m2,
        # u: x2 m1, w: x2 m2)
        a = [[one, one, one],
             [one, 1 - mp.mpf(c["t"]), 1 - mp.mpf(c["v"])],
             [one, 1 - mp.mpf(c["u"]), 1 - mp.mpf(c["w"])]]
        R = mp.matrix(len(pts), len(pts))
        for xi, x in enumerate(pts):
            coeff = _gf_row(a, x, N)
            for mi, m in enumerate(pts):
                R[xi, mi] = coeff[m] / _multinomial_mp(N, m)
        eta = [mp.mpf(v) for v in dual["eta"]]
        eta_dual = [mp.mpf(v) for v in dual["eta_dual"]]
        W = [_weight_mp(N, eta, x) for x in pts]
        Wd = [_weight_mp(N, eta_dual, m) for m in pts]
        for name, weights, transpose in (("m-orthogonality", W, False),
                                         ("x-orthogonality", Wd, True)):
            M = R.T if transpose else R
            G = M.T * mp.diag(weights) * M
            worst = max(
                abs(G[i, j]) / mp.sqrt(G[i, i] * G[j, j])
                for i in range(len(pts)) for j in range(len(pts)) if i != j
            )
            if not worst <= RATIONAL_TOL:
                errors.append(f"{name} of the reported dual pair: "
                              f"{float(worst):.3e} > {RATIONAL_TOL:.0e}")
    return errors


# --- numeric eigenbasis ---------------------------------------------------------

def symmetrized_operator(p, q, N: int) -> scipy.sparse.csr_matrix:
    """H on the graded-lex lattice: diagonal sum_j B_j + D_j, off-diagonal
    -sqrt(B_j(x) D_j(x + e_j)) with B_j = (N - |x|) p_j, D_j = q_j x_j."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    pts = simplex(len(p), N)
    rank = {tuple(pt): i for i, pt in enumerate(pts.tolist())}
    rem = N - pts.sum(axis=1)
    diag = rem * p.sum() + pts @ q
    rows, cols, vals = list(range(len(pts))), list(range(len(pts))), diag.tolist()
    for i, pt in enumerate(pts.tolist()):
        if rem[i] == 0:
            continue
        for j in range(len(p)):
            up = pt.copy()
            up[j] += 1
            k = rank[tuple(up)]
            v = -math.sqrt(rem[i] * p[j] * q[j] * up[j])
            rows += [i, k]
            cols += [k, i]
            vals += [v, v]
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(pts),) * 2)


def check_eigenbasis(p, q, N: int, evals: np.ndarray, vecs: np.ndarray) -> list[str]:
    """Eigenvalues equal sum_j m_j lam_j over the lattice, where lam are the
    one-body eigenvalues; the vectors are orthonormal eigenvectors of H."""
    lam = one_body_eigenvalues(p, q)
    expected = np.sort(simplex(len(p), N) @ lam)
    errors = []
    if evals.shape != expected.shape or vecs.shape != (len(expected),) * 2:
        return [f"eigenbasis shape {vecs.shape} does not match the lattice"]
    top = max(1.0, float(np.abs(expected).max()))
    ev_err = float(np.abs(np.sort(evals) - expected).max()) / top
    if not ev_err <= EIGENVALUE_TOL:
        errors.append(f"eigenvalues differ from sums of one-body eigenvalues by "
                      f"{ev_err:.3e} relative (tol {EIGENVALUE_TOL:.0e})")
    ortho = float(np.abs(vecs.T @ vecs - np.eye(len(evals))).max())
    if not ortho <= ORTHO_TOL:
        errors.append(f"eigenvectors not orthonormal: {ortho:.3e}")
    H = symmetrized_operator(p, q, N)
    defect = float(np.abs(H @ vecs - vecs * evals[None, :]).max()) / top
    if not defect <= ORTHO_TOL:
        errors.append(f"eigen equation defect {defect:.3e} (tol {ORTHO_TOL:.0e})")
    return errors


# --- uniformization -------------------------------------------------------------

def check_evolution(path: str, p, q, N: int, T: float, steps: int) -> list[str]:
    """TV and KL traces from the origin against the exact law
    multinomial(N, expm(t Q1)[0]) of N independent particles, where Q1 is
    the (n+1)-state one-body generator (0 -> i at p_i, i -> 0 at q_i)."""
    data = _read_csv(path)
    if data[0] != ["time", "tv", "kl"] or len(data) != steps + 2:
        return [f"evolution.csv: unexpected header or {len(data) - 1} rows"]
    t, tv, kl = (np.array(col, float) for col in zip(*data[1:]))
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    n = len(p)
    Q1 = np.zeros((n + 1, n + 1))
    Q1[0, 1:] = p
    Q1[1:, 0] = q
    Q1 -= np.diag(Q1.sum(axis=1))
    eta = eta_vector(p, q)
    pts = simplex(n, N)
    ref = multinomial_pmf(pts, N, eta)
    errors = []
    if np.abs(t - np.linspace(0.0, T, steps + 1)).max() > 1e-12 * T:
        errors.append(f"evolution.csv times {t.tolist()} are not linspace(0, {T})")
    for k, tk in enumerate(t):
        P1 = np.clip(scipy.linalg.expm(tk * Q1)[0], 0.0, None)
        tv_ref = 0.5 * float(np.abs(multinomial_pmf(pts, N, P1) - ref).sum())
        kl_ref = N * float(np.sum(xlogy(P1, P1) - xlogy(P1, eta)))
        if not abs(tv[k] - tv_ref) <= TV_TOL:
            errors.append(f"tv(t={tk}) = {float(tv[k])!r}, exact {tv_ref!r}")
        if not abs(kl[k] - kl_ref) <= KL_TOL * max(1.0, kl_ref):
            errors.append(f"kl(t={tk}) = {float(kl[k])!r}, exact {kl_ref!r}")
    return errors


# --- Gillespie occupation -------------------------------------------------------

def _transient_bias(scale: float, sigma: float, pi0: float, gap: float) -> float:
    """Integral over t of min(scale, sigma * sqrt(1/pi0) * exp(-gap t)): the
    bound on the time-integrated deviation caused by starting at a point of
    stationary mass pi0 instead of at stationarity (reversible chain)."""
    b = sigma * math.sqrt(1.0 / pi0)
    if b <= scale:
        return b / gap
    return scale / gap * (1.0 + math.log(b / scale))


def check_occupation(csv_path: str, manifest_path: str, p, q, N: int,
                     events: int, initial) -> list[str]:
    """Time-weighted occupation against the multinomial stationary law.

    For a reversible chain with spectral gap g (the smallest one-body
    eigenvalue) the time average of f over a stationary run of length T has
    variance at most 2 Var(f) / (g T).  Coordinate means must lie within
    MEAN_SIGMAS such deviations of N eta_j, and the TV distance within
    TV_BOUND_FACTOR times the resulting bound on its root mean square, both
    widened by the transient from `initial`.  Any correct sampler meets
    these; they are not fitted to one random stream.
    """
    data = _read_csv(csv_path)
    if data[0] != ["rank", "state", "occupation", "stationary"]:
        return [f"occupation.csv: unexpected header {data[0]}"]
    pts = np.array([_label(r[1]) for r in data[1:]], dtype=np.int64)
    occ = np.array([float(r[2]) for r in data[1:]])
    stationary = np.array([float(r[3]) for r in data[1:]])
    with open(manifest_path) as fh:
        man = json.load(fh)
    total_time = float(man["summary"]["total_time"])
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    eta = eta_vector(p, q)
    expected_pts = simplex(len(p), N)
    if pts.shape != expected_pts.shape or (pts != expected_pts).any():
        return ["occupation.csv does not list the lattice in rank order"]
    W = multinomial_pmf(pts, N, eta)
    errors = []
    if man.get("events") != events:
        errors.append(f"manifest reports {man.get('events')} events, asked {events}")
    if occ.min() < 0 or abs(occ.sum() - 1.0) > 1e-9:
        errors.append(f"occupation is not a distribution (sum {occ.sum()!r})")
    if np.abs(stationary - W).max() > 1e-9 * W.max():
        errors.append("stationary column differs from the multinomial weight")
    mean_rate = N * (eta[0] * p.sum() + float(q @ eta[1:]))
    expected_time = events / mean_rate
    if abs(total_time / expected_time - 1.0) > TOTAL_TIME_REL:
        errors.append(f"simulated time {total_time:.6g}, expected about "
                      f"{expected_time:.6g} from events / mean exit rate")

    gap = float(one_body_eigenvalues(p, q).min())
    pi0 = float(multinomial_pmf(np.array([initial]), N, eta)[0])
    sd = np.sqrt(N * eta[1:] * (1.0 - eta[1:]))
    means = occ @ pts
    for j in range(len(p)):
        allowed = (MEAN_SIGMAS * sd[j] * math.sqrt(2.0 / (gap * total_time))
                   + _transient_bias(N, sd[j], pi0, gap) / total_time)
        dev = abs(means[j] - N * eta[j + 1])
        if not dev <= allowed:
            errors.append(f"mean of x_{j + 1} is {means[j]:.6g}, N*eta = "
                          f"{N * eta[j + 1]:.6g}: deviation {dev:.3e} > {allowed:.3e}")
    tv = 0.5 * float(np.abs(occ - W).sum())
    rms = 0.5 * float(np.sum(np.sqrt(2.0 * W * (1.0 - W) / (gap * total_time))))
    tv_allowed = TV_BOUND_FACTOR * rms + _transient_bias(1.0, 0.5, pi0, gap) / total_time
    if not tv <= tv_allowed:
        errors.append(f"TV to the multinomial weight {tv:.4g} > {tv_allowed:.4g}")
    return errors
