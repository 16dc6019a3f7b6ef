from fractions import Fraction

import numpy as np
import pytest
from conftest import gram_reference

from mvkraw import (
    RationalParams,
    SingularParameters,
    StateSpace,
    ValidationError,
    derive_dual_pair,
    eval_P,
    eval_rational,
    table,
    verify_recurrence,
)
from mvkraw.model import linear_rate_tables, multinomial_vector
from mvkraw.polynomials import _rescale
from mvkraw.simulate import gillespie_from_tables


@pytest.fixture(scope="module")
def pair():
    return derive_dual_pair(RationalParams(1.0, 2.0, 3.0, 4.0))


def test_exact_dual_rates(pair):
    assert pair.dual_q[0] == pytest.approx(-0.5, abs=0.0)
    assert pair.dual_q[1] == pytest.approx(float(Fraction(1, 3)), abs=1e-16)
    assert pair.dual_p[0] == pytest.approx(-22.5, abs=0.0)
    assert pair.dual_p[1] == pytest.approx(float(Fraction(80, 3)), rel=1e-15)
    assert pair.dual_lam == (-3.0, 7.0)


def test_exact_couplings(pair):
    assert pair.t == pytest.approx(1.2, abs=1e-15)
    assert pair.v == pytest.approx(0.9, abs=1e-15)
    assert pair.u == pytest.approx(float(Fraction(14, 15)), abs=1e-15)
    assert pair.w == pytest.approx(1.05, abs=1e-15)


def test_exact_probabilities(pair):
    assert pair.eta[0] == pytest.approx(float(Fraction(1, 126)), rel=1e-15)
    assert pair.eta[1] == pytest.approx(float(Fraction(5, 18)), rel=1e-15)
    assert pair.eta[2] == pytest.approx(float(Fraction(5, 7)), rel=1e-15)
    assert float(pair.eta.sum()) == 1.0          # exact sum to one
    assert pair.eta_dual[0] == pytest.approx(float(Fraction(1, 126)), rel=1e-15)
    assert pair.eta_dual[1] == pytest.approx(float(Fraction(5, 14)), rel=1e-15)
    assert pair.eta_dual[2] == pytest.approx(float(Fraction(40, 63)), rel=1e-15)
    assert np.allclose(pair.eta_bar, [45.0, 80.0], rtol=1e-13)
    assert np.allclose(pair.eta_bar_dual, [35.0, 90.0], rtol=1e-13)


def test_cross_checks_pass(pair):
    assert pair.cross_checks.passed, "\n".join(pair.cross_checks.lines())
    for name in ("x-weighted-row-sums", "m-weighted-column-sums",
                 "x-weighted-cross-sum", "m-weighted-cross-sum"):
        assert pair.cross_checks[name].residual < 1e-12


def test_note_names_the_misprinted_entries(pair):
    for token in ("v", "u", "w", "denominator"):
        assert token in pair.note
    # at (1,2,3,4) the printed forms are off by factors 2, 3, 4
    assert "v=1.000e+00" in pair.note
    assert "u=2.000e+00" in pair.note
    assert "w=3.000e+00" in pair.note
    assert "t=0.000e+00" in pair.note


def test_sign_pattern_any_parameters():
    rng = np.random.default_rng(20260815)
    count = 0
    while count < 20:
        p = rng.uniform(0.1, 10.0, 4)
        try:
            pr = RationalParams(*p)
        except SingularParameters:
            continue
        count += 1
        pair = derive_dual_pair(pr)
        assert pair.dual_p[0] * pair.dual_p[1] < 0
        assert pair.dual_q[0] * pair.dual_q[1] < 0
        assert pair.dual_lam[0] < 0 < pair.dual_lam[1]
        assert pair.cross_checks.passed, "\n".join(pair.cross_checks.lines())
        assert np.all(pair.eta > 0) and np.all(pair.eta_dual > 0)


def test_singular_surface_rejected():
    with pytest.raises(SingularParameters):
        RationalParams(1.0, 2.0, 2.0, 4.0)
    with pytest.raises(SingularParameters):
        RationalParams(3.0, 3.0, 3.0, 3.0)
    with pytest.raises(SingularParameters):
        RationalParams(1.0, 2.0, 3.0, 4.0)._replace(p4=6.0)
    with pytest.raises(ValidationError):
        RationalParams(1.0, -2.0, 3.0, 4.0)
    with pytest.raises(ValidationError):
        RationalParams(0.0, 2.0, 3.0, 4.0)


def test_recurrence_whole_lattice(pair):
    report = verify_recurrence(pair, 5)
    assert report.passed, "\n".join(report.lines())
    assert report["five-term-recurrence"].residual < 1e-10
    assert report["dual-eigen-equation"].residual < 1e-10


def test_evaluator_agreement(pair):
    # the kernel table and both independent series must agree
    space = StateSpace(2, 5)
    R = table(pair, space)
    for mr, m in enumerate(space.points):
        for xr, x in enumerate(space.points):
            generic = eval_P(pair.U, m, x, 5)
            literal = eval_rational(pair, m, x, 5)
            assert R[xr, mr] == pytest.approx(generic, rel=1e-12, abs=1e-12)
            assert R[xr, mr] == pytest.approx(literal, rel=1e-12, abs=1e-12)


def test_level_one_values(pair):
    # at N = 1 the table rows are (1, 1, 1), (1, 1-v, 1-t)... wait: check
    # against direct evaluation instead of hand expansion
    space = StateSpace(2, 1)
    R = table(pair, space)
    assert np.allclose(R[0], 1.0)
    assert np.allclose(R[:, 0], 1.0)
    r_x = space.rank((1, 0))
    r_m = space.rank((1, 0))
    assert R[r_x, r_m] == pytest.approx(1.0 - pair.t, abs=1e-15)
    r_m2 = space.rank((0, 1))
    assert R[r_x, r_m2] == pytest.approx(1.0 - pair.v, abs=1e-15)
    r_x2 = space.rank((0, 1))
    assert R[r_x2, r_m] == pytest.approx(1.0 - pair.u, abs=1e-15)
    assert R[r_x2, r_m2] == pytest.approx(1.0 - pair.w, abs=1e-15)


def test_generating_function_route(pair):
    # the generating function of the pair's one-body matrix R reproduces
    # the rational table
    from mvkraw.polynomials import table_via_generating_function

    space = StateSpace(2, 4)
    oracle = table_via_generating_function(pair, space)
    R = table(pair, space)
    assert np.abs(R - oracle).max() < 1e-12


def test_eval_rational_validation(pair):
    with pytest.raises(ValidationError):
        eval_rational(pair, (3, 3), (0, 0), 5)
    with pytest.raises(ValidationError):
        eval_rational(pair, (0, 0), (-1, 0), 5)


def test_simulator_refuses_signed_dual_rates(pair):
    space = StateSpace(2, 3)
    B, D = linear_rate_tables(pair.dual_p, pair.dual_q, space)
    assert B.min() < 0 or D.min() < 0
    with pytest.raises(ValidationError, match="negative rates"):
        gillespie_from_tables(B, D, space, 100, seed=1)


def test_recurrence_other_parameters():
    pair = derive_dual_pair(RationalParams(2.0, 1.0, 0.5, 3.0))
    report = verify_recurrence(pair, 4)
    assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("corrupt", [False, True])
def test_orthogonality_checks_match_gram_reference(pair, corrupt, monkeypatch):
    # the m-side Gram R^T W R against eta0^N / Wd and the x-side Gram
    # R Wd R^T against eta0^N / W, read through the orthonormal scaling;
    # verify_recurrence reads its table off T = Sym^N(pair.R), so the
    # corrupted table reaches it as its T
    N = 6
    space = StateSpace(2, N)
    R = table(pair, space)
    if corrupt:
        R[:, 2] *= 1.0 + 1e-6
        R[3, 4] += 1e-6
        T = _rescale(R, pair.R, space, 0.5)
        monkeypatch.setattr("mvkraw.rational.coefficient_power", lambda *_: T)
    report = verify_recurrence(pair, N)
    W = multinomial_vector(space, pair.eta[0], pair.eta[1:])
    Wd = multinomial_vector(space, pair.eta_dual[0], pair.eta_dual[1:])
    expected = (
        *gram_reference(R.T @ (W[:, None] * R), pair.eta[0] ** N / Wd),
        *gram_reference(R @ (Wd[:, None] * R.T), pair.eta_dual[0] ** N / W),
    )
    names = ("m-orthogonality", "m-norms-closed-form",
             "x-orthogonality", "x-norms-closed-form")
    got = [report[name].residual for name in names]
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    assert report.passed != corrupt


@pytest.mark.parametrize("rates", [
    # draws of default_rng(7) whose hand-summed moments cancelled to 1e-10..1e-8
    (6.942639987899722, 9.702732080891543, 6.177916602481983, 8.620051838997199),
    (13.151336493005433, 66.14260876175193, 17.250720502651607, 87.13033635056198),
    (5.112286912771546, 8.040365123448286, 5.296025807098314, 8.341902277876528),
    (47.56261782885369, 23.48056983781713, 18.55259068745847, 9.114530670115784),
    (52.25454588716373, 35.3121978607448, 42.56115848141706, 28.659156916731803),
    (16.122618328345975, 28.70679096598723, 51.23158574098012, 91.15606029377022),
    (1.0, 1.0, 1.0, 1.001),
])
def test_cross_checks_pass_near_singular_surface(rates):
    pair = derive_dual_pair(RationalParams(*rates))
    assert pair.cross_checks.passed, "\n".join(pair.cross_checks.lines())
    assert max(c.residual for c in pair.cross_checks.checks) < 1e-12


def test_perturbed_coupling_fails_the_identity_checks(monkeypatch):
    from mvkraw import rational

    def perturbed(*args):
        spec = derived(*args)
        spec.u[0, 0] *= 1.0 + 1e-6
        return spec

    derived = rational._derived
    monkeypatch.setattr(rational, "_derived", perturbed)
    checks = derive_dual_pair(RationalParams(1.0, 2.0, 3.0, 4.0)).cross_checks
    failed = {c.name for c in checks.checks if not c.passed}
    assert {"coupling-closed-form", "x-weighted-row-sums", "m-weighted-column-sums",
            "x-weighted-cross-sum", "m-weighted-cross-sum"} <= failed


@pytest.mark.parametrize("p4", [4.0, 6.001])
def test_recurrence_scale_still_sees_a_perturbed_coupling(p4):
    # the recurrence checks are judged per unit of the largest dual exit
    # rate, which grows like S/Delta near the singular surface; exact data
    # passes there and a 1e-6 change of t still reads about 5e-7
    pair = derive_dual_pair(RationalParams(1.0, 2.0, 3.0, p4))
    assert verify_recurrence(pair, 6).passed
    U = pair.U.copy()
    U[0, 0] *= 1.0 + 1e-6
    report = verify_recurrence(pair._replace(U=U), 6)
    for name in ("dual-eigen-equation", "five-term-recurrence"):
        assert report[name].residual > 1e-7, report[name].line()
