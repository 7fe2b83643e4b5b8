import math

import numpy as np
import pytest

from ballharm import (
    AccuracyError,
    DomainError,
    HarmonicExpansion,
    SpaceParams,
    log_gamma,
    mean_norm,
    mixed_norm,
    radial_rule,
    sph_dim,
    sphere_rule,
    zonal,
    zonal_sphere_integral,
)
from ballharm import _zonalseries, expansion
from ballharm._zonalseries import zonal_abs_power_mean
from ballharm.expansion import _basis_matrix, _per_entry
from ballharm.quadrature import _direct_pnorm, _power_profile, _zonal_power_profile

E2 = np.array([1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# radial rules
# ---------------------------------------------------------------------------


def test_radial_rule_gauss_exactness():
    rule = radial_rule(0.0, 2)
    assert float((rule.weights * rule.nodes**3).sum()) == pytest.approx(0.25, rel=1e-14)


def test_radial_rule_weight_mass():
    for s in (-0.5, 0.0, 1.0, 2.5):
        rule = radial_rule(s, 7)
        assert float(rule.weights.sum()) == pytest.approx(1.0 / (s + 1.0), rel=1e-12)


def test_radial_rule_beta_integral():
    # int_0^1 (1-r)^2.5 r dr = B(2, 3.5), via log-Gamma
    rule = radial_rule(2.5, 6)
    expected = math.exp(log_gamma(2.0) + log_gamma(3.5) - log_gamma(5.5))
    assert float((rule.weights * rule.nodes).sum()) == pytest.approx(expected, rel=1e-13)


def test_radial_rule_legendre_bit_identical():
    # the cached Jacobi source reproduces the Legendre rule on [0, 1] exactly
    from scipy.special import roots_legendre

    from ballharm.specfun import _gauss_jacobi

    for N in (1, 7, 16, 48, 96):
        x, w = roots_legendre(N)
        rule = radial_rule(0.0, N)
        assert np.array_equal(rule.nodes, 0.5 * (x + 1.0))
        assert np.array_equal(rule.weights, 0.5 * w)
        cached = _gauss_jacobi(N, 0.0, 0.0)
        assert cached is _gauss_jacobi(N, 0.0, 0.0)
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_radial_rule_domain():
    with pytest.raises(DomainError):
        radial_rule(-1.0, 4)
    with pytest.raises(DomainError):
        radial_rule(0.0, 0)


# ---------------------------------------------------------------------------
# spherical rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sphere_rule_normalized(n):
    rule = sphere_rule(n, 7)
    assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


def test_sphere_rule_moments():
    r3 = sphere_rule(3, 10)
    assert float((r3.weights * r3.nodes[:, 2] ** 2).sum()) == pytest.approx(1 / 3, rel=1e-13)
    r2 = sphere_rule(2, 10)
    assert float((r2.weights * r2.nodes[:, 0] ** 2).sum()) == pytest.approx(0.5, rel=1e-13)
    r4 = sphere_rule(4, 8)
    assert float((r4.weights * r4.nodes[:, 3] ** 4).sum()) == pytest.approx(
        3.0 / (4 * 6), rel=1e-12
    )  # E[x_i^4] = 3/(n(n+2))


def test_sphere_rule_domain():
    with pytest.raises(DomainError):
        sphere_rule(3, 0)
    with pytest.raises(DomainError):
        sphere_rule(7, 4)


@pytest.mark.parametrize("n", [2, 3])
def test_gram_matrix_is_identity(n):
    deg = 16
    rule = sphere_rule(n, max(2 * deg + 2, 40))
    B = _basis_matrix(n, deg, rule.nodes)
    gram = B.T @ (rule.weights[:, None] * B)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


# ---------------------------------------------------------------------------
# zonal reduction integrals
# ---------------------------------------------------------------------------


def test_zonal_sphere_integral_constant():
    for n in (2, 3, 5):
        assert zonal_sphere_integral(n, lambda t: np.ones_like(t), 12) == pytest.approx(1.0)


def test_zonal_sphere_integral_orthogonality_to_constants():
    for n in (2, 3, 4):
        for k in (1, 2, 5):
            val = zonal_sphere_integral(n, lambda t: zonal(n, k, t), 30)
            assert val == pytest.approx(0.0, abs=1e-12)


def test_zonal_sphere_integral_squared_zonal():
    val = zonal_sphere_integral(3, lambda t: zonal(3, 2, t) ** 2, 30)
    assert val == pytest.approx(5.0, rel=1e-12)


def test_zonal_sphere_integral_rejects_nonfinite():
    def bad(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (t - t)

    with pytest.raises(DomainError):
        zonal_sphere_integral(3, bad, 8)


# ---------------------------------------------------------------------------
# spherical means
# ---------------------------------------------------------------------------


def test_mean_norm_constant():
    f = HarmonicExpansion(2, "full", [[1.0]])
    rule = sphere_rule(2, 8)
    for q in (0.5, 1.0, 2.0, math.inf):
        assert mean_norm(f, q, 0.37, rule) == pytest.approx(1.0, rel=1e-12)


def test_mean_norm_q2_matches_coefficient():
    f = HarmonicExpansion(2, "full", [[0.0], [1.0, 0.0]])  # sqrt(2) r cos
    rule = sphere_rule(2, 16)
    assert mean_norm(f, 2.0, 0.4, rule) == pytest.approx(0.4, rel=1e-13)


def test_mean_norm_q1_oracle_value_full():
    # (1/2pi) int sqrt(2) |cos| r dtheta = 2 sqrt(2) r / pi; kinked
    # integrand, so the fixed product rule needs real resolution
    f = HarmonicExpansion(2, "full", [[0.0], [1.0, 0.0]])
    rule = sphere_rule(2, 4096)
    expected = 2.0 * math.sqrt(2.0) * 0.4 / math.pi
    assert mean_norm(f, 1.0, 0.4, rule) == pytest.approx(expected, rel=1e-6)


def test_mean_norm_q1_oracle_value_zonal():
    # zonal path resolves the kink adaptively
    f = HarmonicExpansion(2, "zonal", [0.0, 1.0 / math.sqrt(2.0)], pole=E2)
    rule = sphere_rule(2, 16)
    expected = 2.0 * math.sqrt(2.0) * 0.4 / math.pi
    assert mean_norm(f, 1.0, 0.4, rule) == pytest.approx(expected, rel=1e-9)


def test_mean_norm_monotone_in_radius():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        rule = sphere_rule(n, 30)
        f = HarmonicExpansion(
            n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(7)]
        )
        radii = np.linspace(0.05, 0.95, 10)
        for q in (1.0, 2.0):
            vals = [mean_norm(f, q, r, rule) for r in radii]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_mean_norm_domain():
    f = HarmonicExpansion(2, "full", [[1.0]])
    rule = sphere_rule(2, 8)
    with pytest.raises(DomainError):
        mean_norm(f, 1.0, 1.0, rule)
    with pytest.raises(DomainError):
        mean_norm(f, 1.0, 0.5, sphere_rule(3, 8))


@pytest.mark.parametrize("n", [2, 3])
def test_power_profile_full_equals_per_radius_loop(n):
    rng = np.random.default_rng(16)
    K = 6
    f = HarmonicExpansion(n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(K + 1)])
    rule = sphere_rule(n, 16)
    radii = radial_rule(0.5, 12).nodes
    coeffs = np.concatenate(f.coeffs)
    for q in (0.5, 1.0, 2.0):
        # reference: the per-radius evaluation the profile replaced, which
        # built the basis at the rule nodes again for every radius
        reference = []
        for r in radii:
            vals = _basis_matrix(n, K, rule.nodes) @ (
                coeffs * _per_entry(f.coeffs, r ** np.arange(K + 1, dtype=float))
            )
            reference.append(float((rule.weights * np.abs(vals) ** q).sum()))
        assert _power_profile(f, q, radii, rule).tolist() == reference


def _per_radius_profile(dim, coeffs, q, radii):
    # the zonal profile as one zonal_abs_power_mean call per radius, the
    # loop that radius batching replaced (the profile's rtol is 1e-10)
    k = np.arange(len(coeffs), dtype=float)
    return np.array([zonal_abs_power_mean(dim, coeffs * r**k, q, rtol=1e-10) for r in radii])


def _outcome(profile, *args):
    # the exact doubles, or the exact message of the refusal
    try:
        values = profile(*args)
    except AccuracyError as err:
        return str(err)
    return values.dtype, values.shape, [float(v).hex() for v in values]


# r = 0, interior radial nodes and the two nodes nearest 1
_RULE_RADII = radial_rule(0.5, 96).nodes
_PROFILE_RADII = np.concatenate([[0.0], _RULE_RADII[8:-2:32], _RULE_RADII[-2:]])


@pytest.mark.parametrize("K", [0, 1, 4, 8, 64, 255, 256, 257])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_zonal_profile_equals_per_radius_loop(dim, K):
    # up to _AHEAD_TERMS = 256 terms (K = 255) the radii share one adaptive
    # loop; longer series take them one at a time; the bits are the loop's
    rng = np.random.default_rng(1000 * dim + K)
    coeffs = rng.standard_normal(K + 1) * 0.98 ** np.arange(K + 1.0)
    for q in (0.5, 1.0, 2.0):
        expected = _outcome(_per_radius_profile, dim, coeffs, q, _PROFILE_RADII)
        assert _outcome(_zonal_power_profile, dim, coeffs, q, _PROFILE_RADII) == expected


@pytest.mark.parametrize(
    "coeffs,radii",
    [
        (np.zeros(5), _PROFILE_RADII),  # every row all-zero
        (np.array([0.0, 1.0, -0.5]), _PROFILE_RADII),  # the row at r = 0 all-zero
        (np.array([1.0, 0.5]), []),
        (np.array([1.0, 0.5]), np.array([])),
    ],
)
def test_zonal_profile_edge_cases_equal_per_radius_loop(coeffs, radii):
    expected = _outcome(_per_radius_profile, 3, coeffs, 1.0, radii)
    assert _outcome(_zonal_power_profile, 3, coeffs, 1.0, radii) == expected


@pytest.mark.parametrize(
    "dim,coeffs,q",
    [
        # the rows overflow |G|^2 at every radius but r = 0
        (2, np.array([0.5, 0.5e308]), 2.0),
        # the row at r = 0 holds inf * 0 = nan; every row fails at once
        (3, np.array([1.0, np.inf]), 1.0),
    ],
)
def test_zonal_profile_raises_as_the_per_radius_loop(dim, coeffs, q):
    # several radii fail: the profile refuses with the lowest one's error
    radii = [0.0, 0.3, 0.6, 0.9]
    with np.errstate(all="ignore"):
        expected = _outcome(_per_radius_profile, dim, coeffs, q, radii)
        assert "non-finite" in expected
        assert _outcome(_zonal_power_profile, dim, coeffs, q, radii) == expected


@pytest.mark.parametrize("K", [8, 256])
def test_zonal_profile_makes_one_core_call_per_chunk(monkeypatch, K):
    # a short series takes its radii in chunks of _PROFILE_CHUNK, a long one
    # (257 terms) one at a time with lookahead; at q = 1 the short one would
    # take the exact route instead, so it runs at q = 2
    q = 2.0 if K < 256 else 1.0
    seen = []

    def counted(dim, G, deltas, power, rtol, ahead=0):
        seen.append((len(deltas), ahead))
        return core(dim, G, deltas, power, rtol, ahead)

    core = _zonalseries._abs_power_mean
    monkeypatch.setattr(_zonalseries, "_abs_power_mean", counted)
    coeffs = 0.9 ** np.arange(K + 1.0)
    radii = np.concatenate([[0.0], _RULE_RADII])
    expected = _per_radius_profile(3, coeffs, q, radii)
    seen.clear()
    assert _zonal_power_profile(3, coeffs, q, radii).tolist() == expected.tolist()
    step = _zonalseries._PROFILE_CHUNK if K < 256 else 1
    assert seen == [
        (min(step, radii.size - start), _zonalseries._AHEAD_PANELS if K == 256 else 0)
        for start in range(0, radii.size, step)
    ]


def test_full_norms_build_one_basis_per_level(monkeypatch):
    built = []
    original = expansion._basis_matrix

    def counting(*args):
        built.append(args[:2])
        return original(*args)

    monkeypatch.setattr(expansion, "_basis_matrix", counting)
    rng = np.random.default_rng(17)
    f = HarmonicExpansion(3, "full", [rng.standard_normal(sph_dim(3, k)) for k in range(5)])
    mixed_norm(f, SpaceParams(p=1.0, q=2.0, alpha=0.5))
    assert len(built) <= 2
    _direct_pnorm(f, SpaceParams(p=2.0, q=2.0, alpha=0.5), 96, 24)
    assert len(built) <= 3


# ---------------------------------------------------------------------------
# mixed norms
# ---------------------------------------------------------------------------


def test_mixed_norm_constant_definition():
    f = HarmonicExpansion(2, "full", [[1.0]])
    for p in (0.5, 1.0, 2.0):
        params = SpaceParams(p=p, q=1.0, alpha=0.0, convention="definition")
        assert mixed_norm(f, params) == pytest.approx(0.5 ** (1.0 / p), rel=1e-12)


def test_mixed_norm_constant_theorem_beta_integral():
    f = HarmonicExpansion(2, "full", [[1.0]])
    params = SpaceParams(p=1.0, q=1.0, alpha=0.5, convention="theorem")
    # int_0^1 (1-r)^(-1/2) r dr = B(2, 1/2) = 4/3
    assert mixed_norm(f, params) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_mixed_norm_homogeneous():
    rng = np.random.default_rng(12)
    f = HarmonicExpansion(3, "zonal", rng.standard_normal(6), pole=E3)
    g = HarmonicExpansion(3, "zonal", 2.0 * f.coeffs, pole=E3)
    params = SpaceParams(p=1.0, q=2.0, alpha=0.5)
    assert mixed_norm(g, params) == pytest.approx(2.0 * mixed_norm(f, params), rel=1e-10)
    # q = 1 means have kinked radial profiles; scaling is still exact per level
    from ballharm.quadrature import _mixed_norm_levels

    params1 = SpaceParams(p=1.0, q=1.0, alpha=0.5)
    _, va = _mixed_norm_levels(f, params1, 48, 16)
    _, vb = _mixed_norm_levels(g, params1, 48, 16)
    assert vb == pytest.approx(2.0 * va, rel=1e-12)


def test_mixed_norm_pq_collapse_matches_direct():
    rng = np.random.default_rng(13)
    for n, kind in ((2, "full"), (3, "zonal")):
        if kind == "full":
            f = HarmonicExpansion(
                n, "full", [rng.standard_normal(sph_dim(n, k)) for k in range(7)]
            )
        else:
            f = HarmonicExpansion(n, "zonal", rng.standard_normal(7), pole=E3)
        params = SpaceParams(p=2.0, q=2.0, alpha=0.75)
        value = mixed_norm(f, params)
        direct = _direct_pnorm(f, params, 96, 32)
        assert value == pytest.approx(direct, rel=1e-10)


def test_mixed_norm_refinement_stability():
    rng = np.random.default_rng(14)
    f = HarmonicExpansion(
        2, "full", [rng.standard_normal(sph_dim(2, k)) for k in range(17)]
    )
    for alpha, conv in ((-0.45, "definition"), (3.0, "definition"), (0.05, "theorem")):
        params = SpaceParams(p=2.0, q=2.0, alpha=alpha, convention=conv)
        a = mixed_norm(f, params, radial_N=48, sphere_res=40)
        b = mixed_norm(f, params, radial_N=96, sphere_res=80)
        assert abs(a - b) <= 1e-8 * abs(b)


def test_mixed_norm_accuracy_error_carries_values():
    rng = np.random.default_rng(15)
    f = HarmonicExpansion(
        2, "full", [rng.standard_normal(sph_dim(2, k)) for k in range(17)]
    )
    params = SpaceParams(p=2.0, q=2.0, alpha=0.0)
    with pytest.raises(AccuracyError) as err:
        # radial rule of size 2 cannot integrate a degree-16 expansion
        mixed_norm(f, params, radial_N=2, sphere_res=40, accuracy_rtol=1e-12)
    assert err.value.coarse != err.value.fine


def test_settle_by_doubling_reports_last_two_levels():
    from ballharm.quadrature import _settle_by_doubling

    seen = []

    def never_settles(N):
        seen.append(float(N))
        return float(N)

    with pytest.raises(AccuracyError, match="test integral did not settle") as err:
        _settle_by_doubling(never_settles, 8, 1e-9, 5, "test integral")
    assert seen == [8.0, 16.0, 32.0, 64.0, 128.0]
    assert (err.value.coarse, err.value.fine) == (64.0, 128.0)


def test_space_params_validation():
    with pytest.raises(DomainError):
        SpaceParams(p=0.0, q=1.0, alpha=0.0)
    with pytest.raises(DomainError):
        SpaceParams(p=1.0, q=1.0, alpha=-1.0, convention="definition")
    with pytest.raises(DomainError):
        SpaceParams(p=1.0, q=1.0, alpha=0.0, convention="theorem")
    with pytest.raises(DomainError):
        SpaceParams(p=1.0, q=1.0, alpha=0.5, convention="mystery")


@pytest.mark.parametrize(
    "p,q,alpha",
    [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan),
     (math.inf, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, 1.0, math.inf)],
)
def test_space_params_reject_non_finite(p, q, alpha):
    for convention in ("definition", "theorem"):
        with pytest.raises(DomainError, match="finite"):
            SpaceParams(p=p, q=q, alpha=alpha, convention=convention)
