"""Acceptance suite: one test per release criterion.

Each test prints exactly one summary line (visible even under -q) and then
asserts every tolerance and time budget it covers.  Criteria that share
instances reuse a cached construction so the draws are identical.
"""

import functools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import CLI_ENV, draw_model, series_table

from mvkraw import (
    ExceptionalParameters,
    ModelParams,
    RationalParams,
    StateSpace,
    derive_dual_pair,
    eigen_residuals,
    evolve_distribution,
    gillespie_run,
    identity_checks,
    kr_P,
    numeric_eigenbasis,
    orthonormal_map,
    orthonormality,
    rate_tables,
    relaxation_rate,
    solve_spectrum,
    symmetrized_from_tables,
    table,
    table_via_generating_function,
    verify_recurrence,
    verify_structure,
    weight_vector,
)

SEED = 20260815


def _emit(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


@functools.lru_cache(maxsize=None)
def _eigen_instances():
    """Ten random instances at each of (n=2, N=6) and (n=3, N=4)."""
    rng = np.random.default_rng(SEED)
    out = []
    for n, N in ((2, 6), (3, 4)):
        space = StateSpace(n, N)
        for _ in range(10):
            params = draw_model(rng, n, N)
            spec = solve_spectrum(params)
            out.append((params, spec, space, table(spec, space)))
    return out


def test_criterion_01_structural_identities(capsys):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = {}
    for _ in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        params = draw_model(rng, n, N)
        space = StateSpace(n, N)
        report = verify_structure(
            *rate_tables(params, space), space, W=weight_vector(params, space)
        )
        for check in report.checks:
            worst[check.name] = max(worst.get(check.name, 0.0), check.residual)
    elapsed = time.perf_counter() - t0
    names = (
        "ladder-factorization",
        "symmetrized-is-symmetric",
        "symmetrized-positive-semidefinite",
        "ladder-annihilates-sqrt-weight",
        "generator-annihilates-weight",
        "difference-op-annihilates-constants",
        "generator-column-sums",
    )
    peak = max(worst[k] for k in names)
    ok = peak <= 1e-10 and elapsed < 30.0
    _emit(capsys, "criterion-01 structural-identities", ok,
          f"worst residual {peak:.3e} <= 1e-10 over 50 draws; "
          f"{elapsed:.1f}s < 30s")
    for k in names:
        assert worst[k] <= 1e-10, (k, worst[k])
    assert elapsed < 30.0


def test_criterion_02_secular_solver(capsys):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        params = draw_model(rng, n, 1)
        spec = solve_spectrum(params)
        worst = max(worst, float(np.max(spec.secular_residuals)))
        qs = np.sort(params.q)
        for i in range(n):
            assert qs[i] < spec.lam[i], (params, spec.lam)
            if i + 1 < n:
                assert spec.lam[i] < qs[i + 1], (params, spec.lam)
        assert spec.lam[-1] <= qs[-1] + math.fsum(params.p) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _emit(capsys, "criterion-02 secular-solver", ok,
          f"worst root residual {worst:.3e} <= 1e-12, interlacing strict "
          f"over 500 draws; {elapsed:.1f}s < 5s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_03_eigen_equation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for params, spec, space, tab in _eigen_instances():
        worst = max(worst, float(eigen_residuals(params, spec, space, tab).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _emit(capsys, "criterion-03 eigen-equation", ok,
          f"worst relative defect {worst:.3e} <= 1e-8 at (2,6) and (3,4), "
          f"10 draws each; {elapsed:.1f}s < 60s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_04_orthogonality_norms(capsys):
    worst_off = 0.0
    worst_diag = 0.0
    for params, spec, space, tab in _eigen_instances():
        o = orthonormality(orthonormal_map(params, spec, space, tab))
        worst_off = max(worst_off, o.offdiagonal)
        worst_diag = max(worst_diag, o.diagonal)
    ok = worst_off <= 1e-10 and worst_diag <= 1e-8
    _emit(capsys, "criterion-04 orthogonality-norms", ok,
          f"off-diagonal {worst_off:.3e} <= 1e-10, "
          f"norm mismatch {worst_diag:.3e} <= 1e-8 (same instances)")
    assert worst_off <= 1e-10
    assert worst_diag <= 1e-8


def test_criterion_05_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst_kernel = 0.0
    worst_series = 0.0
    for n, N, p, q in (
        (2, 5, (1.0, 2.0), (3.0, 5.0)),
        (3, 3, (1.0, 2.0, 3.0), (2.0, 4.0, 7.0)),
    ):
        params = ModelParams(n, N, p, q)
        space = StateSpace(n, N)
        spec = solve_spectrum(params)
        oracle = table_via_generating_function(spec, space)
        worst_kernel = max(
            worst_kernel, float(np.abs(table(spec, space) - oracle).max())
        )
        worst_series = max(
            worst_series, float(np.abs(series_table(spec, space) - oracle).max())
        )
    elapsed = time.perf_counter() - t0
    worst = max(worst_kernel, worst_series)
    ok = worst <= 1e-10 and elapsed < 30.0
    _emit(capsys, "criterion-05 oracle-equivalence", ok,
          f"kernel vs generating function {worst_kernel:.3e}, series vs "
          f"generating function {worst_series:.3e}, both <= 1e-10 "
          f"at (2,5) and (3,3); {elapsed:.1f}s < 30s")
    assert worst_kernel <= 1e-10
    assert worst_series <= 1e-10
    assert elapsed < 30.0


def test_criterion_06_weighted_sum_identities(capsys):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = {}
    for _ in range(200):
        n = int(rng.integers(1, 4))
        params = draw_model(rng, n, 1)
        report = identity_checks(solve_spectrum(params))
        for check in report.checks:
            worst[check.name] = max(worst.get(check.name, 0.0), check.residual)
    elapsed = time.perf_counter() - t0
    names = (
        "weighted-column-sums",
        "weighted-column-cross-sums",
        "dual-weighted-row-sums",
        "dual-weighted-row-cross-sums",
        "congruence-diagonalization",
    )
    peak = max(worst[k] for k in names)
    ok = peak <= 1e-10 and elapsed < 10.0
    _emit(capsys, "criterion-06 weighted-sum-identities", ok,
          f"worst deviation {peak:.3e} <= 1e-10 over 200 draws "
          f"(sums to one and congruence); {elapsed:.1f}s < 10s")
    for k in names:
        assert worst[k] <= 1e-10, (k, worst[k])
    assert elapsed < 10.0


def test_criterion_07_duality(capsys):
    params = ModelParams(2, 5, (1.0, 2.0), (3.0, 5.0))
    space = StateSpace(2, 5)
    spec = solve_spectrum(params)
    tab = table(spec, space)
    o = orthonormality(orthonormal_map(params, spec, space, tab))
    ok = o.identity <= 1e-9 and o.dual_diagonal <= 1e-8
    _emit(capsys, "criterion-07 duality", ok,
          f"orthonormal map defect {o.identity:.3e} <= 1e-9, dual norm mismatch "
          f"{o.dual_diagonal:.3e} <= 1e-8 at (2,5)")
    assert o.identity <= 1e-9
    assert o.dual_diagonal <= 1e-8


def test_criterion_08_univariate_reduction(capsys):
    worst = 0.0
    for p_, q_ in ((0.5, 1.0), (2.0, 0.7), (1.0, 3.0), (4.0, 0.5)):
        for N in range(1, 11):
            params = ModelParams(1, N, (p_,), (q_,))
            space = StateSpace(1, N)
            spec = solve_spectrum(params)
            tab = table(spec, space)
            eta1 = float(spec.eta[0])
            for mr, m in enumerate(space.points):
                for xr, x in enumerate(space.points):
                    ref = kr_P(m[0], x[0], eta1, N)
                    err = abs(tab[xr, mr] - ref) / max(1.0, abs(ref))
                    worst = max(worst, err)
    ok = worst <= 1e-12
    _emit(capsys, "criterion-08 univariate-reduction", ok,
          f"pipeline vs classical evaluation {worst:.3e} <= 1e-12 "
          f"(scaled), all (m, x), N <= 10, 4 parameter pairs")
    assert worst <= 1e-12


def test_criterion_09_rational_family(capsys):
    t0 = time.perf_counter()
    pair = derive_dual_pair(RationalParams(1.0, 2.0, 3.0, 4.0))

    eta_exact = (1.0 / 126.0, 5.0 / 18.0, 5.0 / 7.0)
    eta_err = max(abs(a - b) for a, b in zip(pair.eta, eta_exact))
    sum_exact = float(pair.eta.sum()) == 1.0
    coup_err = max(
        abs(pair.t - 1.2), abs(pair.v - 0.9),
        abs(pair.u - 14.0 / 15.0), abs(pair.w - 1.05),
    )
    dual_sums = max(
        pair.cross_checks[name].residual
        for name in ("x-weighted-row-sums", "m-weighted-column-sums",
                     "x-weighted-cross-sum", "m-weighted-cross-sum")
    )
    recurrence = verify_recurrence(pair, 5)
    rec_res = recurrence["five-term-recurrence"].residual
    note_ok = all(tok in pair.note for tok in ("v", "u", "w", "denominator"))
    elapsed = time.perf_counter() - t0

    ok = (eta_err <= 1e-15 and sum_exact and coup_err <= 1e-14
          and dual_sums <= 1e-12 and rec_res <= 1e-10 and note_ok
          and elapsed < 10.0)
    _emit(capsys, "criterion-09 rational-family", ok,
          f"weights exact (sum==1: {sum_exact}), couplings {coup_err:.1e}, "
          f"weighted sums {dual_sums:.1e} <= 1e-12, recurrence "
          f"{rec_res:.3e} <= 1e-10, note emitted: {note_ok}; "
          f"{elapsed:.1f}s < 10s")
    assert eta_err <= 1e-15
    assert sum_exact
    assert coup_err <= 1e-14
    assert dual_sums <= 1e-12
    assert rec_res <= 1e-10
    assert recurrence.passed, "\n".join(recurrence.lines())
    assert note_ok, pair.note
    assert elapsed < 10.0


def test_criterion_10_simulation(capsys):
    params = ModelParams(2, 5, (1.0, 1.0), (1.0, 3.0))
    space = StateSpace(2, 5)
    t0 = time.perf_counter()

    run = gillespie_run(params, space, 1_000_000, seed=SEED)
    tv_g = run.tv_to_stationary

    spec = solve_spectrum(params)
    gap = float(spec.lam[0])
    horizon = 20.0 / gap
    res = evolve_distribution(params, space, "origin", T=horizon, steps=80)
    tv_u = float(res.tv_to_stationary[-1])
    fit = relaxation_rate(res)
    slope_err = abs(fit.slope + gap) / gap
    elapsed = time.perf_counter() - t0

    ok = (tv_g <= 0.02 and tv_u <= 1e-8 and slope_err <= 0.10
          and elapsed < 120.0)
    _emit(capsys, "criterion-10 simulation", ok,
          f"gillespie tv {tv_g:.4f} <= 0.02 (1e6 events), uniformized tv(T) "
          f"{tv_u:.2e} <= 1e-8, slope error {slope_err:.2%} <= 10%; "
          f"{elapsed:.1f}s < 120s")
    assert tv_g <= 0.02
    assert tv_u <= 1e-8
    assert slope_err <= 0.10
    assert elapsed < 120.0


def test_criterion_11_exceptional_guard(capsys, tmp_path):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 3, "p": [1.0, 2.0], "q": [2.0, 2.0]}
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "mvkraw", "spectrum",
         "--params", str(params_file), "--out", str(tmp_path)],
        capture_output=True, text=True, env=CLI_ENV,
    )
    exit_distinct = proc.returncode == 3

    with pytest.raises(ExceptionalParameters):
        solve_spectrum(ModelParams(2, 3, (1.0, 2.0), (2.0, 2.0)))

    params = ModelParams(2, 4, (1.0, 2.0), (3.0, 3.0))
    space = StateSpace(2, 4)
    basis = numeric_eigenbasis(params, space)
    V = basis.vectors
    H = symmetrized_from_tables(*rate_tables(params, space), space).toarray()
    ortho = float(np.abs(V.T @ V - np.eye(space.size)).max())
    defect = float(np.abs(H @ V - V * basis.eigenvalues).max())

    ok = exit_distinct and ortho <= 1e-9 and defect <= 1e-9
    _emit(capsys, "criterion-11 exceptional-guard", ok,
          f"coincident rates exit code {proc.returncode} (expected 3), "
          f"numeric basis orthonormal {ortho:.2e} <= 1e-9, "
          f"eigen defect {defect:.2e} <= 1e-9")
    assert exit_distinct, (proc.returncode, proc.stderr)
    assert "exceptional parameters" in proc.stderr
    assert basis.degenerate
    assert ortho <= 1e-9
    assert defect <= 1e-9
