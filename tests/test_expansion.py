import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharm import (
    DEGREE_CAP,
    DomainError,
    HarmonicExpansion,
    IncompatibleExpansionError,
    KernelSpec,
    MultiplierSequence,
    UnsupportedBasisError,
    apply_multiplier,
    basis_value,
    convolve,
    evaluate,
    frac_derivative,
    gamma_ratio,
    load_expansion,
    load_multiplier,
    poisson,
    q_kernel,
    save_expansion,
    save_multiplier,
    sph_dim,
    tail_degree,
)
from ballharm.expansion import _basis_matrix
from ballharm.quadrature import sphere_rule

E3 = np.array([0.0, 0.0, 1.0])
E2 = np.array([1.0, 0.0])


def random_full(n, degree, rng):
    return HarmonicExpansion(
        n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(degree + 1)]
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_full_requires_dim_2_or_3():
    with pytest.raises(UnsupportedBasisError):
        HarmonicExpansion(4, "full", [[1.0]])


def test_block_length_validation_names_block():
    with pytest.raises(DomainError, match=r"block 1 has length 3, expected d_1 = 2"):
        HarmonicExpansion(2, "full", [[1.0], [1.0, 2.0, 3.0]])


def test_zonal_requires_unit_pole():
    with pytest.raises(DomainError, match="unit vector"):
        HarmonicExpansion(3, "zonal", [1.0], pole=[0.0, 0.0, 1.5])
    # tolerance 1e-12 on the pole norm
    HarmonicExpansion(3, "zonal", [1.0], pole=[0.0, 0.0, 1.0 + 1e-13])
    with pytest.raises(DomainError, match="unit vector"):
        HarmonicExpansion(3, "zonal", [1.0], pole=[0.0, 0.0, math.nan])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        HarmonicExpansion(3, "zonal", [1.0, bad], pole=E3)
    with pytest.raises(DomainError, match="block 1 has non-finite"):
        HarmonicExpansion(2, "full", [[1.0], [0.5, bad]])
    with pytest.raises(DomainError, match="finite"):
        MultiplierSequence(3, "zonal", [1.0, bad])


def test_degree_cap_enforced():
    with pytest.raises(DomainError, match="cap"):
        HarmonicExpansion(3, "zonal", np.ones(DEGREE_CAP + 2), pole=E3)


def test_expansions_are_immutable():
    f = HarmonicExpansion(3, "zonal", [1.0, 2.0], pole=E3)
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


# ---------------------------------------------------------------------------
# basis values
# ---------------------------------------------------------------------------


def test_basis_constant_and_first_harmonics_n2():
    assert basis_value(2, 0, 1, [0.3, math.sqrt(1 - 0.09)]) == 1.0
    assert basis_value(2, 1, 1, [1.0, 0.0]) == pytest.approx(math.sqrt(2.0))
    theta = 0.77
    p = [math.cos(theta), math.sin(theta)]
    assert basis_value(2, 3, 1, p) == pytest.approx(math.sqrt(2) * math.cos(3 * theta))
    assert basis_value(2, 3, 2, p) == pytest.approx(math.sqrt(2) * math.sin(3 * theta))


def test_basis_addition_sum_n3():
    rng = np.random.default_rng(3)
    for k in (0, 1, 2, 5, 9):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        total = sum(basis_value(3, k, j, p) ** 2 for j in range(1, 2 * k + 2))
        assert total == pytest.approx(2 * k + 1, rel=1e-12)


def test_basis_addition_theorem_n3_to_degree_120_and_at_the_poles():
    # sum_j Y_kj(x)^2 = 2k + 1 holds for every block at every unit vector;
    # the points include both poles and points within 1e-12 of each
    rng = np.random.default_rng(120)
    points = rng.standard_normal((200, 3))
    points[:6] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [3e-13, -4e-13, 1.0],
                  [-6e-13, 8e-13, -1.0], [1e-12, 0.0, 1.0], [0.0, -1e-12, -1.0]]
    points /= np.linalg.norm(points, axis=1)[:, None]
    basis = _basis_matrix(3, 120, points)
    for k in range(121):
        sums = (basis[:, k * k:(k + 1) ** 2] ** 2).sum(axis=1)
        np.testing.assert_allclose(sums, 2 * k + 1, rtol=1e-12, err_msg=f"block {k}")


def test_basis_addition_theorem_n3_at_the_degree_cap():
    # at sin(theta) = 1/e the order-K/e sectoral seed is about e^(-K/e),
    # below the smallest normal double once K > 1925, while the blocks it
    # seeds are of order one
    s = 1.0 / math.e
    point = np.array([[0.6 * s, 0.8 * s, math.sqrt(1.0 - s * s)]])
    basis = _basis_matrix(3, DEGREE_CAP, point)[0]
    for k in (1925, 2000, DEGREE_CAP):
        total = (basis[k * k:(k + 1) ** 2] ** 2).sum()
        assert total == pytest.approx(2 * k + 1, rel=1e-12)


def test_basis_index_errors():
    with pytest.raises(IndexError):
        basis_value(2, 2, 3, [1.0, 0.0])
    with pytest.raises(UnsupportedBasisError):
        basis_value(4, 1, 1, [1.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_constant():
    f = HarmonicExpansion(2, "full", [[1.0]])
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta = rng.uniform(0, 2 * math.pi)
        assert evaluate(f, rng.uniform(0, 0.99), [math.cos(theta), math.sin(theta)]) == 1.0


def test_evaluate_single_full_coefficient_n2():
    f = HarmonicExpansion(2, "full", [[0.0], [1.0, 0.0]])
    theta, r = 0.6, 0.45
    val = evaluate(f, r, [math.cos(theta), math.sin(theta)])
    assert val == pytest.approx(math.sqrt(2) * r * math.cos(theta), rel=1e-14)


def test_evaluate_zonal_degree_one_n3():
    f = HarmonicExpansion(3, "zonal", [0.0, 1.0], pole=E3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        r = rng.uniform(0, 0.95)
        assert evaluate(f, r, d) == pytest.approx(3.0 * r * d[2], rel=1e-13, abs=1e-14)


def test_evaluate_full_n3_past_degree_85_is_finite():
    # scipy's lpmv(85, 86, x) is NaN, which once made every dim-3 full
    # expansion of degree >= 86 evaluate to NaN
    f = HarmonicExpansion(3, "full", [np.ones(2 * k + 1) for k in range(91)])
    value = evaluate(f, 0.5, np.array([2.0, -3.0, 6.0]) / 7.0)
    assert math.isfinite(value)


def test_evaluate_domain_errors():
    f = HarmonicExpansion(2, "full", [[1.0]])
    with pytest.raises(DomainError):
        evaluate(f, 1.0, [1.0, 0.0])
    with pytest.raises(DomainError):
        evaluate(f, -0.1, [1.0, 0.0])


# ---------------------------------------------------------------------------
# convolution / multipliers / fractional derivative
# ---------------------------------------------------------------------------


def test_convolve_examples():
    a = HarmonicExpansion(3, "zonal", [1.0, 2.0], pole=E3)
    b = HarmonicExpansion(3, "zonal", [3.0, 5.0], pole=E3)
    assert np.array_equal(convolve(a, b).coeffs, [3.0, 10.0])
    ones = HarmonicExpansion(3, "zonal", [1.0, 1.0], pole=E3)
    assert np.array_equal(convolve(a, ones).coeffs, a.coeffs)
    zero = HarmonicExpansion(3, "zonal", [0.0, 0.0], pole=E3)
    assert np.array_equal(convolve(a, zero).coeffs, [0.0, 0.0])


def test_convolve_mismatches():
    a = HarmonicExpansion(3, "zonal", [1.0], pole=E3)
    b = HarmonicExpansion(3, "zonal", [1.0], pole=[0.0, 1.0, 0.0])
    with pytest.raises(IncompatibleExpansionError):
        convolve(a, b)
    c = HarmonicExpansion(2, "zonal", [1.0], pole=E2)
    with pytest.raises(IncompatibleExpansionError):
        convolve(a, c)
    d = HarmonicExpansion(3, "full", [[1.0]])
    with pytest.raises(IncompatibleExpansionError):
        convolve(a, d)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
)
def test_convolve_commutative_associative(xs, ys, zs):
    f = HarmonicExpansion(3, "zonal", xs, pole=E3)
    g = HarmonicExpansion(3, "zonal", ys, pole=E3)
    h = HarmonicExpansion(3, "zonal", zs, pole=E3)
    assert np.array_equal(convolve(f, g).coeffs, convolve(g, f).coeffs)
    lhs = convolve(convolve(f, g), h).coeffs
    rhs = convolve(f, convolve(g, h)).coeffs
    assert np.allclose(lhs, rhs, rtol=1e-15, atol=1e-300)


def test_apply_multiplier_identity_and_powerlaw():
    f = HarmonicExpansion(3, "zonal", np.ones(4), pole=E3)
    ones = MultiplierSequence.ones(3, 3)
    assert np.array_equal(apply_multiplier(ones, f).coeffs, f.coeffs)
    c = MultiplierSequence(3, "zonal", 1.0 / np.arange(1.0, 5.0))
    assert np.allclose(apply_multiplier(c, f).coeffs, [1, 0.5, 1 / 3, 0.25], rtol=0)


def test_apply_zonal_multiplier_broadcasts_over_full_blocks():
    rng = np.random.default_rng(2)
    f = random_full(3, 3, rng)
    c = MultiplierSequence(3, "zonal", [2.0, 3.0, 4.0, 5.0])
    g = apply_multiplier(c, f)
    for k in range(4):
        assert np.array_equal(g.coeffs[k], f.coeffs[k] * (k + 2.0))


def test_full_multiplier_cannot_act_on_zonal():
    c = MultiplierSequence(2, "full", [[1.0]])
    f = HarmonicExpansion(2, "zonal", [1.0], pole=E2)
    with pytest.raises(IncompatibleExpansionError):
        apply_multiplier(c, f)


def test_frac_derivative_examples():
    f = HarmonicExpansion(2, "zonal", [1.0], pole=E2)
    assert np.allclose(frac_derivative(f, 1.0).coeffs, [2.0], rtol=1e-14)
    g = HarmonicExpansion(2, "zonal", [1.0, 1.0], pole=E2)
    assert np.allclose(frac_derivative(g, 1.0).coeffs, [2.0, 6.0], rtol=1e-14)
    with pytest.raises(DomainError):
        frac_derivative(g, -1.0)


def test_frac_derivative_linear():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    a, b = 2.5, -1.25
    f = HarmonicExpansion(3, "zonal", x, pole=E3)
    g = HarmonicExpansion(3, "zonal", y, pole=E3)
    comb = HarmonicExpansion(3, "zonal", a * x + b * y, pole=E3)
    lhs = frac_derivative(comb, 1.5).coeffs
    rhs = a * frac_derivative(f, 1.5).coeffs + b * frac_derivative(g, 1.5).coeffs
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_frac_derivative_commutes_with_convolution():
    rng = np.random.default_rng(5)
    f = HarmonicExpansion(3, "zonal", rng.standard_normal(6), pole=E3)
    g = HarmonicExpansion(3, "zonal", rng.standard_normal(6), pole=E3)
    lhs = frac_derivative(convolve(f, g), 2.0).coeffs
    rhs = convolve(frac_derivative(f, 2.0), g).coeffs
    assert np.allclose(lhs, rhs, rtol=1e-14)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_poisson_at_origin_is_one():
    P = poisson(KernelSpec(3, E3, 30))
    assert evaluate(P, 0.0, np.array([0.0, 1.0, 0.0])) == 1.0


def test_poisson_closed_form_on_axis():
    P = poisson(KernelSpec(2, E2, tail_degree("poisson", 2, 0.5, 1e-13)))
    assert evaluate(P, 0.5, E2) == pytest.approx((1 - 0.25) / 0.25, rel=1e-12)


def test_poisson_mean_is_one():
    P = poisson(KernelSpec(3, E3, 25))
    rule = sphere_rule(3, 30)
    for r in (0.2, 0.6, 0.9):
        vals = evaluate(P, r, rule.nodes)
        assert float((rule.weights * vals).sum()) == pytest.approx(1.0, abs=1e-12)


def test_poisson_closed_form_pointwise():
    for n in (2, 3):
        K = tail_degree("poisson", n, 0.95, 1e-9)
        P = poisson(KernelSpec(n, np.eye(n)[0], K))
        ts = np.cos(np.linspace(0, math.pi, 21))
        dirs = np.zeros((21, n))
        dirs[:, 0] = ts
        dirs[:, 1] = np.sqrt(1 - ts**2)
        for r in (0.3, 0.7, 0.95):
            series = evaluate(P, r, dirs)
            closed = (1 - r * r) / (1 - 2 * r * ts + r * r) ** (n / 2.0)
            assert np.max(np.abs(series - closed) / closed) <= 1e-8


def test_reproducing_identity_against_poisson():
    # pairing a random expansion with the Poisson kernel evaluates it at r^2;
    # the rule must be exact for the (truncated kernel) x f product degree
    rng = np.random.default_rng(6)
    for n in (2, 3):
        f = random_full(n, 10, rng)
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        r = 0.8
        K = tail_degree("poisson", n, r, 1e-12)
        rule = sphere_rule(n, 2 * (K + 10) + 2)
        P = poisson(KernelSpec(n, y, min(K, DEGREE_CAP)))
        lhs = float(
            (rule.weights * evaluate(P, r, rule.nodes) * evaluate(f, r, rule.nodes)).sum()
        )
        assert lhs == pytest.approx(evaluate(f, r * r, y), rel=1e-8)


def test_q_kernel_coefficients():
    qk = q_kernel(KernelSpec(2, E2, 5, order=1.0))
    assert qk.coeffs[0] == pytest.approx(4.0, rel=1e-14)
    qk3 = q_kernel(KernelSpec(3, E3, 12, order=2.0))
    expected = 2.0 * gamma_ratio(10 + 1.5 + 3.0, 10 + 1.5) / math.gamma(3.0)
    assert qk3.coeffs[10] == pytest.approx(expected, rel=1e-13)


def test_q_kernel_is_scaled_derivative_of_poisson():
    spec = KernelSpec(3, E3, 40, order=2.5)
    qk = q_kernel(spec)
    chained = frac_derivative(poisson(spec), 2.5)
    assert np.allclose(qk.coeffs, 2.0 * chained.coeffs, rtol=1e-14)


def test_q_kernel_order_validation():
    with pytest.raises(DomainError):
        KernelSpec(3, E3, 10, order=-1.0)


# ---------------------------------------------------------------------------
# truncation control
# ---------------------------------------------------------------------------


def test_tail_degree_poisson_example():
    K = tail_degree("poisson", 2, 0.5, 1e-12)
    assert K <= 60
    # the bound it promises actually holds
    k = np.arange(K + 1, 4000)
    assert float((2.0 * 0.5**k).sum()) < 1e-12 * 4  # d_k = 2 for n = 2


def test_tail_degree_monotone_in_tol():
    for kind, m in (("poisson", None), ("q_kernel", 2.0)):
        prev = 0
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            K = tail_degree(kind, 3, 0.8, tol, m=m)
            assert K >= prev
            prev = K


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.97),
    st.floats(min_value=1e-12, max_value=1e-3),
)
def test_tail_degree_monotone_property(r, tol):
    assert tail_degree("poisson", 3, r, tol) >= tail_degree("poisson", 3, r, 2 * tol)


def test_tail_degree_small_radius():
    assert tail_degree("poisson", 3, 1e-6, 1e-3) == 0


def test_tail_degree_domain():
    with pytest.raises(DomainError):
        tail_degree("poisson", 3, 1.0, 1e-9)
    with pytest.raises(DomainError):
        tail_degree("q_kernel", 3, 0.5, 1e-9)  # missing order
    with pytest.raises(DomainError):
        tail_degree("unknown", 3, 0.5, 1e-9)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------


def test_expansion_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    cases = [
        HarmonicExpansion(3, "full", [rng.standard_normal(sph_dim(3, k)) for k in range(6)]),
        HarmonicExpansion(2, "full", [rng.standard_normal(sph_dim(2, k)) for k in range(9)]),
        HarmonicExpansion(
            4, "zonal", rng.standard_normal(12) * 10.0 ** rng.integers(-200, 200, 12),
            pole=np.array([0.5, 0.5, 0.5, 0.5]),
        ),
    ]
    for i, f in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        save_expansion(f, path)
        g = load_expansion(path)
        assert g.dim == f.dim and g.kind == f.kind
        if f.kind == "zonal":
            assert np.array_equal(g.coeffs, f.coeffs)
            assert np.array_equal(g.pole, f.pole)
        else:
            for a, b in zip(g.coeffs, f.coeffs):
                assert np.array_equal(a, b)


def test_multiplier_file_roundtrip(tmp_path):
    c = MultiplierSequence(3, "zonal", [1.0, 0.5, 1.0 / 3.0])
    path = tmp_path / "mult.json"
    save_multiplier(c, path)
    back = load_multiplier(path)
    assert np.array_equal(back.values, c.values)


def test_load_expansion_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "kind": "zonal", "coeffs": [1.0]}')
    with pytest.raises(DomainError, match="pole"):
        load_expansion(path)


def test_load_expansion_bad_block(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text('{"dim": 2, "kind": "full", "coeffs": [[1.0], [1.0, 2.0, 3.0]]}')
    with pytest.raises(DomainError, match="block 1"):
        load_expansion(path)
