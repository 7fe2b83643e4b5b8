import math
from fractions import Fraction

import numpy as np
import pytest

from ballharm import lemmas
from ballharm import (
    DomainError,
    HarmonicExpansion,
    UsageError,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    evaluate,
    sph_dim,
)


# ---------------------------------------------------------------------------
# lemma 1: two-term kernel bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 2.0)])
def test_lemma1_passes(n, beta):
    rep = check_lemma1(n, beta)
    assert rep.passed
    assert rep.measured["fine_grid_margin"] <= 1.05
    assert rep.measured["integral_growth_exponent"] <= 1.0 + beta + 0.1
    assert rep.measured["fitted_C1"] >= 0.0 and rep.measured["fitted_C2"] >= 0.0


def test_lemma1_scaling_absorbed_by_constants():
    # the fitted constants are positively homogeneous in the kernel size,
    # so a passing report stays passing under any fixed rescaling of Q
    rep = check_lemma1(2, 1.0)
    assert rep.passed


def test_lemma1_domain():
    with pytest.raises(DomainError):
        check_lemma1(2, -1.5)


def _exact_nnls2(design, rhs):
    """Brute force in exact rational arithmetic on the float entries: the
    least-squares solution on each of the supports {1, 2}, {1}, {2} and
    {}, and the feasible one with the least residual."""
    a = [[Fraction(float(v)) for v in col] for col in design.T]
    b = [Fraction(float(v)) for v in rhs]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    g11, g12, g22 = dot(a[0], a[0]), dot(a[0], a[1]), dot(a[1], a[1])
    h1, h2 = dot(a[0], b), dot(a[1], b)
    det = g11 * g22 - g12 * g12
    candidates = [
        ((h1 * g22 - h2 * g12) / det, (g11 * h2 - g12 * h1) / det),
        (h1 / g11, Fraction(0)),
        (Fraction(0), h2 / g22),
        (Fraction(0), Fraction(0)),
    ]

    def residual(c):
        return sum((c[0] * x + c[1] * y - z) ** 2 for x, y, z in zip(a[0], a[1], b))

    return min((c for c in candidates if min(c) >= 0), key=residual)


def _assert_nnls2_matches_brute_force(design, rhs, rel):
    got = lemmas._nnls2(design, rhs)
    exact = _exact_nnls2(design, rhs)
    for g, e in zip(got.tolist(), exact):
        assert (g == 0.0) == (e == 0)
        assert g == pytest.approx(float(e), rel=rel)
    return tuple(v > 0.0 for v in got)


def test_nnls2_matches_brute_force_on_random_designs():
    rng = np.random.default_rng(25)
    supports = set()
    for _ in range(200):
        rows = int(rng.integers(2, 30))
        design = rng.standard_normal((rows, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, 2)
        rhs = rng.standard_normal(rows)
        supports.add(_assert_nnls2_matches_brute_force(design, rhs, 1e-9))
    assert supports == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n,beta", [(2, 1.0), (2, 2.0), (3, 0.5), (3, 1.0), (3, 2.0)])
def test_nnls2_matches_brute_force_on_lemma1_designs(n, beta, monkeypatch):
    designs = []
    real = lemmas._nnls2
    monkeypatch.setattr(lemmas, "_nnls2", lambda d, b: designs.append((d, b)) or real(d, b))
    check_lemma1(n, beta)
    [(design, rhs)] = designs
    _assert_nnls2_matches_brute_force(design, rhs, 1e-12)


# ---------------------------------------------------------------------------
# lemma 2: weighted radial integral decay
# ---------------------------------------------------------------------------


def test_lemma2_closed_form_case():
    rep = check_lemma2(0.0, 2.0)
    assert rep.passed
    assert rep.measured["fitted_slope"] == pytest.approx(-1.0, abs=1e-6)
    assert rep.measured["closed_form_max_rel_err"] <= 1e-10


def test_lemma2_half_power_case():
    rep = check_lemma2(0.5, 2.0)
    assert rep.passed
    assert rep.measured["fitted_slope"] == pytest.approx(-0.5, abs=0.05)


def test_lemma2_value_at_origin():
    # F(0) = 1/(alpha + 1)
    for alpha, lam in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        rep = check_lemma2(alpha, lam, rho_grid=np.array([1e-12, 0.5, 0.9]))
        assert rep.measured["F_at_grid"][0] == pytest.approx(1.0 / (alpha + 1.0), rel=1e-9)


def test_lemma2_precondition():
    with pytest.raises(DomainError):
        check_lemma2(0.5, 1.2)  # needs lam > alpha + 1
    with pytest.raises(DomainError):
        check_lemma2(-1.0, 2.0)


# ---------------------------------------------------------------------------
# lemma 3: reproducing pairing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_lemma3_passes(n):
    rep = check_lemma3(n, tuples=20, seed=1789)
    assert rep.passed
    assert rep.measured["max_rel_error"] <= 1e-8


def test_lemma3_reproducing_special_case():
    # all-ones g convolved with the Poisson kernel reproduces f at r^2
    from ballharm.lemmas import _poisson_convolution, _sphere_pairing
    from ballharm.quadrature import sphere_rule

    rng = np.random.default_rng(21)
    n, degree = 3, 6
    f = HarmonicExpansion(
        n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(degree + 1)]
    )
    ones = HarmonicExpansion(
        n, "full", [np.ones(sph_dim(n, k)) for k in range(degree + 1)]
    )
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    rule = sphere_rule(n, 4 * degree + 4)
    r = 0.7
    left = _sphere_pairing(_poisson_convolution(ones, y), f, [r], rule)[0]
    assert left == pytest.approx(evaluate(f, r * r, y), rel=1e-10)


def test_lemma3_explicit_tuple_mode():
    rng = np.random.default_rng(77)
    n = 3
    f = HarmonicExpansion(n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(5)])
    g = HarmonicExpansion(n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(5)])
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    rep = check_lemma3(n, f=f, g=g, r=0.55, direction=y)
    assert rep.passed and "explicit" in rep.parameter_grid


def test_lemma3_rejects_unsupported():
    with pytest.raises(UsageError):
        check_lemma3(4)
    with pytest.raises(UsageError):
        check_lemma3(3, degree=13)
    with pytest.raises(UsageError):
        check_lemma3(3, f=HarmonicExpansion(3, "full", [[1.0]]))


# ---------------------------------------------------------------------------
# lemma 4: radial moments
# ---------------------------------------------------------------------------


def test_lemma4_grid():
    for n in (2, 3, 4, 5):
        for m in (1, 2, 5):
            rep = check_lemma4(n, m)
            assert rep.passed and rep.measured["max_rel_error"] <= 1e-10


def test_lemma4_example_values():
    # direct checks of the two closed-form examples
    R = np.linspace(0, 1, 100001)
    lhs = np.trapezoid((1 - R**2) ** 1 * R ** (2 * 0 + 2 - 1), R)
    assert lhs == pytest.approx(0.25, abs=1e-8)
    assert 8.0 / 315.0 == pytest.approx(1 / 5 - 2 / 7 + 1 / 9, rel=1e-15)


def test_lemma4_gamma_recurrence_ratio():
    # consecutive right-hand sides are related by (k + n/2)/(m + 1 + n/2 + k)
    from scipy.special import gammaln

    n, m = 3, 2
    for k in range(0, 10):
        a = 0.5 * math.exp(gammaln(m + 1) + gammaln(k + n / 2) - gammaln(m + 1 + n / 2 + k))
        b = 0.5 * math.exp(
            gammaln(m + 1) + gammaln(k + 1 + n / 2) - gammaln(m + 2 + n / 2 + k)
        )
        assert b / a == pytest.approx((k + n / 2) / (m + 1 + n / 2 + k), rel=1e-12)


# ---------------------------------------------------------------------------
# lemma 5: mean-growth inequality
# ---------------------------------------------------------------------------


def test_lemma5_passes_default():
    rep = check_lemma5()
    assert rep.passed
    assert math.isfinite(rep.measured["sup_ratio"])


def test_lemma5_q1_is_identity():
    # at q = 1 both sides carry the same integrand: ratio exactly 1
    rep = check_lemma5(p=2.0, q=1.0, beta=0.5, degree=4, x_levels=np.array([1.0, 2.0, 3.0]))
    assert rep.measured["sup_ratio"] == pytest.approx(1.0, rel=1e-8)
    assert rep.passed


def test_lemma5_explicit_expansion():
    f = HarmonicExpansion(3, "zonal", [1.0, -0.5, 0.25], pole=[0.0, 0.0, 1.0])
    rep = check_lemma5(p=2.0, q=0.5, beta=0.5, n=3, f=f,
                       x_levels=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert rep.passed


def test_lemma5_domain():
    with pytest.raises(DomainError):
        check_lemma5(q=1.5)
    with pytest.raises(DomainError):
        check_lemma5(beta=-1.0)
    with pytest.raises(UsageError):
        check_lemma5(f=HarmonicExpansion(2, "full", [[1.0]]))


# ---------------------------------------------------------------------------
# lemma 6: weighted ball pairing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_lemma6_passes(n):
    rep = check_lemma6(n, m=2, tuples=20, seed=1789)
    assert rep.passed
    assert rep.measured["max_rel_error"] <= 1e-6


def test_lemma6_matches_lemma3_for_ones():
    # with g all ones both pairings reproduce f at r^2: cross-lemma coherence
    from ballharm.lemmas import _poisson_convolution, _sphere_pairing
    from ballharm import frac_derivative
    from ballharm.quadrature import radial_rule, sphere_rule

    rng = np.random.default_rng(33)
    n, degree, m = 2, 5, 2
    f = HarmonicExpansion(
        n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(degree + 1)]
    )
    ones = HarmonicExpansion(n, "full", [np.ones(sph_dim(n, k)) for k in range(degree + 1)])
    y = np.array([math.cos(0.3), math.sin(0.3)])
    rule = sphere_rule(n, 4 * degree + 4)
    r = 0.6
    gp = _poisson_convolution(ones, y)
    left = _sphere_pairing(gp, f, [r], rule)[0]
    radial = radial_rule(0.0, degree + m + n + 2)
    R, wR = radial.nodes, radial.weights
    inner = np.array(_sphere_pairing(frac_derivative(gp, m), f, r * R, rule))
    right = 2.0 * float((wR * inner * (1 - R**2) ** m * R ** (n - 1)).sum())
    target = evaluate(f, r * r, y)
    assert left == pytest.approx(target, rel=1e-10)
    assert right == pytest.approx(target, rel=1e-8)


def test_lemma6_constants_chain():
    # constant f, g: the ball pairing collapses to the radial moment identity
    n, m = 3, 2
    f = HarmonicExpansion(n, "full", [[2.0]])
    g = HarmonicExpansion(n, "full", [[3.0]])
    from ballharm.lemmas import _poisson_convolution, _sphere_pairing
    from ballharm import frac_derivative, lambda_coeff
    from ballharm.quadrature import radial_rule, sphere_rule

    rule = sphere_rule(n, 8)
    y = np.array([0.0, 0.0, 1.0])
    gp = _poisson_convolution(g, y)
    left = _sphere_pairing(gp, f, [0.5], rule)[0]
    assert left == pytest.approx(6.0, rel=1e-12)
    radial = radial_rule(0.0, m + n + 2)
    R, wR = radial.nodes, radial.weights
    gamma0 = lambda_coeff(n, 0, m)
    moment = float((wR * (1 - R**2) ** m * R ** (n - 1)).sum())
    assert 2.0 * gamma0 * 6.0 * moment == pytest.approx(6.0, rel=1e-12)


def test_lemma6_explicit_tuple_mode():
    rng = np.random.default_rng(88)
    n = 2
    f = HarmonicExpansion(n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(4)])
    g = HarmonicExpansion(n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(4)])
    rep = check_lemma6(n, f=f, g=g, r=0.5, direction=np.array([0.0, 1.0]), m=3)
    assert rep.passed and "explicit" in rep.parameter_grid


def test_lemma6_validation():
    with pytest.raises(DomainError):
        check_lemma6(3, m=0)
    with pytest.raises(UsageError):
        check_lemma6(3, degree=11)


def test_lemma_reports_serialize():
    rep = check_lemma4(2, 1)
    payload = rep.to_payload()
    assert payload["lemma_id"] == 4 and payload["pass"] is True
