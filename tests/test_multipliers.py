import math

import numpy as np
import pytest

from ballharm import (
    AccuracyError,
    DomainError,
    MultiplierSequence,
    TheoremParams,
    UsageError,
    condition2_integral,
    condition2_sup,
    equivalence_verdict,
    multiplier_family,
    probe_operator_norm,
    reports,
    sph_dim,
)
from ballharm import multipliers
from ballharm.multipliers import _CURVE_CACHE, _direction_design, _family_from_values, _fit_window
from ballharm.expansion import _basis_matrix
from ballharm.quadrature import _PROFILE_CHUNK, radial_rule, sphere_rule
from ballharm._zonalseries import _AHEAD_TERMS, zonal_series_values
from ballharm.specfun import _log_lambda_coeff, lambda_coeff


def params_for(dim=3, p=1.0, alpha=0.5, beta=0.25, m=2.0):
    return TheoremParams(p=p, alpha=alpha, beta=beta, m=m, dim=dim)


# ---------------------------------------------------------------------------
# hypothesis window
# ---------------------------------------------------------------------------


def test_theorem_params_validation():
    with pytest.raises(DomainError, match="0 < p <= 1"):
        TheoremParams(p=1.5, alpha=0.5, beta=0.5, m=2.0, dim=3)
    with pytest.raises(DomainError, match="alpha"):
        TheoremParams(p=1.0, alpha=1.0, beta=0.5, m=2.0, dim=3)
    with pytest.raises(DomainError, match="beta"):
        TheoremParams(p=1.0, alpha=0.5, beta=0.0, m=2.0, dim=3)
    with pytest.raises(DomainError, match="m >"):
        TheoremParams(p=0.25, alpha=0.5, beta=0.5, m=2.0, dim=3)  # needs m > 3
    TheoremParams(p=0.25, alpha=0.5, beta=0.5, m=3.5, dim=3)


@pytest.mark.parametrize(
    "field,bad",
    [("beta", math.nan), ("beta", math.inf), ("m", math.nan), ("m", math.inf),
     ("alpha", math.nan), ("p", math.nan)],
)
def test_theorem_params_reject_non_finite(field, bad):
    values = dict(p=1.0, alpha=0.5, beta=0.25, m=2.0, dim=3)
    values[field] = bad
    with pytest.raises(DomainError, match="finite"):
        TheoremParams(**values)


def test_family_parsing():
    assert multiplier_family("ones").values(3).tolist() == [1, 1, 1, 1]
    pl = multiplier_family("powerlaw:0.5")
    assert pl.values(3)[1] == pytest.approx(2.0 ** (-0.5))
    fin = multiplier_family("finite:2")
    assert fin.values(4).tolist() == [1, 1, 1, 0, 0]
    with pytest.raises(DomainError):
        multiplier_family("gibberish")
    with pytest.raises(DomainError):
        multiplier_family("powerlaw:x")


# ---------------------------------------------------------------------------
# the growth integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,j,expected",
    [("ones", 8, 12569), ("ones", 10, 54908),
     ("powerlaw:0.5", 8, 12215), ("powerlaw:0.5", 10, 53453)],
)
def test_growth_integral_series_degree_pinned(family, j, expected):
    # the truncation degree of the full search at I(s)'s own tolerance,
    # n = 3, m = 2; the route pick's search stops at _AHEAD_TERMS terms
    s = 1.0 - 2.0 ** (-j)
    fam = multiplier_family(family)
    assert multipliers._series_degree(3, 2.0, fam, s) == expected
    assert multipliers._series_degree(3, 2.0, fam, s, cap=_AHEAD_TERMS) is None


# theta = 0 and pi, an even grid, and a graded run into the peak at theta = 0
_THETA = np.concatenate([[0.0, np.pi], np.linspace(0.0, np.pi, 97)[1:-1], np.geomspace(1e-4, 0.3, 24)])


@pytest.mark.parametrize("family", ["ones", "powerlaw:0.25", "powerlaw:0.5", "powerlaw:1"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_kernel_matches_truncated_series(n, family):
    # the closed form against the series it replaces, truncated where
    # s^K is far below double precision
    fam = multiplier_family(family)
    for m in (0, 1, 2, 3):
        for s in (0.5, 0.9):
            K = 1200
            k = np.arange(K + 1, dtype=float)
            series = lambda_coeff(n, k, m) * s**k * fam.values(K)
            expected = zonal_series_values(n, series, np.cos(_THETA))
            got = multipliers._closed_kernel(n, float(m), fam, s)(_THETA)
            err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (m, s, err)


def _route(monkeypatch, n, m, family, s):
    """The route ``_growth_integral`` takes: ("closed",), ("series", K), or
    ("refused", message)."""
    taken = []
    monkeypatch.setattr(multipliers, "_abs_power_mean",
                        lambda *args: taken.append(("closed",)) or [1.0])
    monkeypatch.setattr(multipliers, "zonal_abs_power_mean",
                        lambda n, series, *args, **kwargs: taken.append(("series", series.size - 1)) or 1.0)
    try:
        multipliers._growth_integral(n, m, family, s)
    except AccuracyError as err:
        taken.append(("refused", str(err)))
    assert len(taken) == 1
    return taken[0]


@pytest.mark.parametrize(
    "family,m,j,route",
    [
        # named families at integer m, beyond _AHEAD_TERMS series terms
        ("ones", 2.0, 8, "closed"),
        ("powerlaw:0.5", 3.0, 8, "closed"),
        ("powerlaw:0", 0.0, 8, "closed"),
        # past the degree cap
        ("ones", 2.0, 14, "closed"),
        ("powerlaw:0.5", 2.0, 14, "closed"),
        # short series stay on the series
        ("ones", 2.0, 1, "series"),
        ("powerlaw:0.5", 2.0, 1, "series"),
        # fractional m, finite:K and user sequences at any depth
        ("ones", 1.5, 8, "series"),
        ("powerlaw:0.5", 2.5, 8, "series"),
        ("finite:4000", 2.0, 8, "series"),
        (_family_from_values(np.ones(4000)), 2.0, 8, "series"),
    ],
)
def test_growth_integral_route(monkeypatch, family, m, j, route):
    fam = multiplier_family(family) if isinstance(family, str) else family
    assert _route(monkeypatch, 3, m, fam, 1.0 - 2.0**-j)[0] == route


# 1 - s = 2^-j at the growth curve's ladder depths j = 0.25..14
_LADDER_J = [0.25 * i for i in range(1, 8)] + [0.5 * i for i in range(4, 29)]


def _todays_route(n, m, family, s, closed):
    """The route rule of the full degree search: the closed kernel, where
    the family has one, for K + 1 > _AHEAD_TERMS terms or a search past the
    degree cap; else the series at the full search's K."""
    try:
        K = multipliers._series_degree(n, m, family, s)
    except AccuracyError as err:
        return ("closed",) if closed else ("refused", str(err))
    return ("closed",) if closed and K + 1 > _AHEAD_TERMS else ("series", K)


@pytest.mark.parametrize("family", ["ones", "powerlaw:0.5", "finite:300", "sequence"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_growth_route_is_the_full_search_rule(monkeypatch, n, family):
    # the pick from a search stopped at _AHEAD_TERMS terms, at every ladder
    # depth j = 0.25..14 and the orders of the closed and the series route
    if family == "sequence":
        fam = _family_from_values(np.cos(np.arange(300.0)))
    else:
        fam = multiplier_family(family)
    for m in (0.0, 1.0, 2.0, 3.0, 1.5):
        closed = family in ("ones", "powerlaw:0.5") and m != 1.5
        for j in _LADDER_J:
            s = 1.0 - 2.0**-j
            expected = _todays_route(n, m, fam, s, closed)
            assert _route(monkeypatch, n, m, fam, s) == expected, (m, j)


def test_closed_route_builds_no_long_search_window():
    # I(s) of ``ones`` at j = 14 by the closed kernel; the degree search
    # tries windows of 64, 128 and 256 terms, not the 524,288 of the cap
    windows = []

    def ones(k):
        windows.append(k.size - 1)
        return np.ones_like(k)

    family = multipliers.ZonalFamily("ones", ("ones",), None, ones)
    value = multipliers._growth_integral(3, 2.0, family, 1.0 - 2.0**-14)
    assert value == pytest.approx(6090064325234.604, rel=1e-7)  # test_growth_reference
    assert max(windows) <= _AHEAD_TERMS


def test_series_route_past_the_degree_cap_refuses():
    # a fractional m has no closed form, so j = 14 still refuses
    with pytest.raises(AccuracyError, match="degree cap"):
        multipliers._growth_integral(3, 1.5, multiplier_family("ones"), 1.0 - 2.0**-14)


@pytest.mark.parametrize("family,verdict", [("ones", "unbounded"), ("powerlaw:0.5", "bounded")])
def test_condition2_deep_ladder_verdicts(family, verdict):
    # j = 3..14: I grows like (1 - rho)^-(m + 1 - t), against the weight
    # exponent m + 1 - alpha + beta = 2.75, so Phi's exponent is 0.25 - t
    rep = condition2_sup(family, params_for(), j_levels=range(3, 15))
    assert rep.verdict == verdict
    t = 0.0 if family == "ones" else 0.5
    assert rep.phi_exponent == pytest.approx(0.25 - t, abs=0.02)


def test_condition2_integral_constant_multiplier():
    # only the degree-0 term: the integrand is |gamma_0| everywhere
    p = TheoremParams(p=1.0, alpha=0.5, beta=0.25, m=1.0, dim=2)
    for rho in (0.1, 0.5, 0.9, 0.99):
        assert condition2_integral("finite:0", p, rho) == pytest.approx(2.0, rel=1e-12)


def test_condition2_integral_domain():
    p = params_for()
    with pytest.raises(DomainError):
        condition2_integral("ones", p, 0.0)
    with pytest.raises(DomainError):
        condition2_integral("ones", p, 1.0)


def test_condition2_full_matches_zonal_for_broadcast_blocks():
    # a full multiplier with constant blocks acts exactly like the zonal one
    p = params_for(dim=3)
    cz = MultiplierSequence(3, "zonal", [1.0, 0.7, 0.4, 0.2])
    cf = MultiplierSequence(
        3, "full", [np.full(sph_dim(3, k), cz.values[k]) for k in range(4)]
    )
    rng = np.random.default_rng(2)
    for rho in (0.3, 0.8):
        z = condition2_integral(cz, p, rho)
        for _ in range(3):
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            # kinked integrand: the fixed rule converges like resolution^-2
            fv = condition2_integral(cf, p, rho, direction=y)
            assert fv == pytest.approx(z, rel=2e-4)
            fine = condition2_integral(cf, p, rho, direction=y, resolution=512)
            assert fine == pytest.approx(z, rel=1e-5)


def _full_integral_loop(blocks, p, rho, direction):
    """I(rho, y') with one rule and basis per pair and per-block weights:
    the reference the shared full-kind routine must reproduce exactly."""
    K = len(blocks) - 1
    rule = sphere_rule(p.dim, max(8 * K + 64, 128))
    basis_y = _basis_matrix(p.dim, K, np.asarray(direction).reshape(1, -1))[0]
    k = np.arange(K + 1, dtype=float)
    gam = np.exp(_log_lambda_coeff(p.dim, k, p.m) + k * math.log(rho))
    offsets = np.cumsum([0] + [b.size for b in blocks])
    weights = np.concatenate(
        [blocks[kk] * basis_y[offsets[kk] : offsets[kk + 1]] * gam[kk] for kk in range(K + 1)]
    )
    vals = _basis_matrix(p.dim, K, rule.nodes) @ weights
    return float((rule.weights * np.abs(vals)).sum())


@pytest.mark.parametrize("dim", [2, 3])
def test_condition2_sup_full_is_max_of_condition2_integral(dim):
    # condition2_sup and condition2_integral share one routine for full
    # multipliers: the design maximum must reproduce bit for bit, and both
    # must equal the per-pair loop
    rng = np.random.default_rng(5)
    cf = MultiplierSequence(dim, "full", [rng.uniform(-1, 1, sph_dim(dim, k)) for k in range(5)])
    p = params_for(dim=dim)
    rep = condition2_sup(cf, p, j_levels=[3, 4, 5], direction_count=8)
    design = _direction_design(dim, 8)
    for rho, raw in zip(rep.rho_grid, rep.raw_integrals):
        assert raw == max(condition2_integral(cf, p, rho, direction=y) for y in design)
        assert raw == max(_full_integral_loop(cf.values, p, rho, y) for y in design)


@pytest.mark.parametrize("direction", [[0.0, 0.0, 2.0], [0.6, 0.0, 0.6], [0.0, 1.0],
                                       [np.nan, 0.0, 1.0]])
def test_condition2_integral_rejects_bad_direction(direction):
    cf = MultiplierSequence(3, "full", [[1.0], [0.5, 0.5, 0.5]])
    with pytest.raises(DomainError, match="direction"):
        condition2_integral(cf, params_for(dim=3), 0.5, direction=direction)


def test_condition2_scaling_covariance():
    p = params_for()
    base = MultiplierSequence(3, "zonal", [1.0, 0.5, 0.25, 0.125])
    doubled = MultiplierSequence(3, "zonal", 2.0 * base.values)
    tripled = MultiplierSequence(3, "zonal", 3.0 * base.values)
    for rho in (0.4, 0.9):
        v = condition2_integral(base, p, rho)
        # doubling is exact in binary floating point
        assert condition2_integral(doubled, p, rho) == 2.0 * v
        assert condition2_integral(tripled, p, rho) == pytest.approx(3.0 * v, rel=1e-13)


def test_monotone_domination_at_pole():
    # at the pole every zonal harmonic is positive, so the series value is
    # monotone in nonnegative coefficients
    n, m = 3, 2.0
    k = np.arange(6, dtype=float)
    gam = lambda_coeff(n, k, m)
    small = gam * np.array([1, 0.5, 0.3, 0.2, 0.1, 0.05])
    large = gam * np.array([1, 0.6, 0.4, 0.2, 0.15, 0.05])
    s = 0.7**k
    assert zonal_series_values(n, small * s, 1.0) <= zonal_series_values(n, large * s, 1.0) + 1e-10


@pytest.mark.parametrize("n,m,expect", [(2, 1.0, 2.0), (2, 2.0, 3.0), (3, 2.0, 3.0)])
def test_identity_multiplier_exponent(n, m, expect):
    p = TheoremParams(p=1.0, alpha=0.5, beta=0.5, m=m, dim=n)
    rep = condition2_sup("ones", p, j_levels=list(range(3, 11)))
    assert rep.fitted_exponent == pytest.approx(expect, abs=0.1)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_condition2_finite_multiplier_bounded():
    rep = condition2_sup("finite:5", params_for(alpha=0.5, beta=0.25), j_levels=list(range(3, 10)))
    assert rep.verdict == "bounded"
    # a polynomial multiplier gives bounded fractional derivative: Phi -> 0
    assert rep.values[-1] < rep.values[0]


def test_condition2_identity_verdicts():
    unb = condition2_sup("ones", params_for(alpha=0.5, beta=0.25))
    assert unb.verdict == "unbounded"
    assert unb.phi_exponent == pytest.approx(0.25, abs=0.05)
    bnd = condition2_sup("ones", params_for(alpha=0.25, beta=0.5))
    assert bnd.verdict == "bounded"
    assert bnd.phi_exponent == pytest.approx(-0.25, abs=0.05)


def test_condition2_sup_off_ladder_levels_are_computed():
    # 3.3 lies between ladder radii and 4.3 beyond the deepest one; neither
    # is read off the interpolant
    params = TheoremParams(1.0, 0.5, 0.25, 2.0, 3)
    rep = condition2_sup("ones", params, j_levels=[3, 3.3, 4, 4.3])
    for i in (1, 3):
        assert rep.raw_integrals[i] == condition2_integral("ones", params, rep.rho_grid[i])


def test_condition2_grid_validation():
    with pytest.raises(DomainError):
        condition2_sup("ones", params_for(), j_levels=[3, 4, 15])
    with pytest.raises(DomainError):
        condition2_sup("ones", params_for(), j_levels=[5, 4, 3])


def test_growth_fit_needs_two_points():
    with pytest.raises(DomainError, match="two"):
        _fit_window([1.0], [2.0])
    with pytest.raises(DomainError, match="two"):
        _fit_window([], [])
    assert _fit_window([0.0, 1.0], [1.0, 3.0]) == pytest.approx(2.0)
    for levels in ([3], [], [3, 3, 4]):
        with pytest.raises(DomainError):
            condition2_sup("ones", params_for(), j_levels=levels)
    with pytest.raises(DomainError, match="two"):
        probe_operator_norm("ones", params_for(), sizes=[0.875])


def test_probe_norm_failure_reports_two_distinct_levels():
    from ballharm.multipliers import _radial_power_norm

    # a profile that changes with the rule size never settles
    with pytest.raises(AccuracyError, match="probe norm quadrature did not settle") as err:
        _radial_power_norm(lambda r: np.full(r.size, float(r.size)), 1.0, 0.0, 3)
    assert err.value.coarse != err.value.fine
    assert err.value.fine / err.value.coarse == pytest.approx(2.0, rel=1e-12)


def test_probe_identity_equal_weights_flat():
    p = params_for(alpha=0.5, beta=0.5)
    rep = probe_operator_norm("ones", p, sizes=[1 - 2.0 ** (-j) for j in range(3, 8)])
    assert rep.verdict == "bounded"
    for ratio in rep.norm_ratios:
        assert ratio == pytest.approx(1.0, rel=1e-6)


def test_probe_growth_matches_weight_gap():
    p = params_for(alpha=0.5, beta=0.25)
    rep = probe_operator_norm("ones", p, sizes=[1 - 2.0 ** (-j) for j in range(3, 10)])
    assert rep.growth_fit == pytest.approx(p.alpha - p.beta, abs=0.1)
    assert rep.verdict == "unbounded"


def test_probe_zero_multiplier():
    zero = MultiplierSequence(3, "zonal", [0.0, 0.0, 0.0])
    rep = probe_operator_norm(zero, params_for(), sizes=[0.875, 0.9375])
    assert all(r == 0.0 for r in rep.norm_ratios)
    assert rep.verdict == "bounded"


def test_probe_random_polynomials_family():
    p = params_for(alpha=0.5, beta=0.5)
    rep = probe_operator_norm("ones", p, family="random_polynomials", sizes=[4, 8, 16], seed=7)
    assert rep.probe_family == "random_polynomials"
    assert rep.verdict == "bounded"
    for ratio in rep.norm_ratios:
        assert ratio == pytest.approx(1.0, rel=1e-4)


def test_probe_empty_sizes_usage_error():
    with pytest.raises(UsageError):
        probe_operator_norm("ones", params_for(), sizes=[])
    with pytest.raises(UsageError):
        probe_operator_norm("ones", params_for(), family="unheard_of")


def test_equivalence_verdicts():
    p_unb = params_for(alpha=0.5, beta=0.25)
    cond2 = condition2_sup("ones", p_unb)
    probe = probe_operator_norm("ones", p_unb, sizes=[1 - 2.0 ** (-j) for j in range(3, 10)])
    check = equivalence_verdict(cond2, probe)
    assert check.verdict == "PASS"
    assert check.measured["condition2_verdict"] == "unbounded"

    p_bnd = params_for(alpha=0.25, beta=0.5)
    cond2b = condition2_sup("finite:5", p_bnd)
    probeb = probe_operator_norm("finite:5", p_bnd, sizes=[1 - 2.0 ** (-j) for j in range(3, 9)])
    assert equivalence_verdict(cond2b, probeb).verdict == "PASS"


def test_equivalence_rejects_mismatched_reports():
    cond2 = condition2_sup("ones", params_for(alpha=0.5, beta=0.25))
    probe = probe_operator_norm("ones", params_for(alpha=0.25, beta=0.5),
                                sizes=[0.875, 0.9375])
    with pytest.raises(UsageError):
        equivalence_verdict(cond2, probe)


def test_reports_reproducible_after_cache_clear():
    p = params_for(alpha=0.5, beta=0.25)
    _CURVE_CACHE.clear()
    first = condition2_sup("ones", p, j_levels=list(range(3, 8)))
    _CURVE_CACHE.clear()
    second = condition2_sup("ones", p, j_levels=list(range(3, 8)))
    assert first.raw_integrals == second.raw_integrals
    assert first.fitted_exponent == second.fitted_exponent


def _count_growth_integrals(monkeypatch):
    """Record (family key, s) of every growth integral computed."""
    seen = []
    inner = multipliers._growth_integral

    def counted(n, m, family, s, rtol=1e-7):
        seen.append((family.key, s))
        return inner(n, m, family, s, rtol)

    monkeypatch.setattr(multipliers, "_growth_integral", counted)
    return seen


def test_condition2_computes_only_its_grid_and_probe_reuses_it(monkeypatch):
    params = params_for()
    _CURVE_CACHE.clear()
    seen = _count_growth_integrals(monkeypatch)
    condition2_sup("powerlaw:0.5", params, j_levels=range(3, 9))
    assert len(seen) == 6
    probe_operator_norm("powerlaw:0.5", params, sizes=[1.0 - 2.0 ** (-j) for j in range(3, 8)])
    assert len(seen) == len(set(seen))
    _CURVE_CACHE.clear()


def test_condition2_after_probe_equals_cold_condition2():
    params = params_for()
    _CURVE_CACHE.clear()
    probe_operator_norm("powerlaw:0.5", params, sizes=[1.0 - 2.0 ** (-j) for j in range(3, 8)])
    warm = reports.dumps(condition2_sup("powerlaw:0.5", params, j_levels=range(3, 9)).to_payload())
    _CURVE_CACHE.clear()
    cold = reports.dumps(condition2_sup("powerlaw:0.5", params, j_levels=range(3, 9)).to_payload())
    _CURVE_CACHE.clear()
    assert warm == cold


def _loop_curve(n, m, family):
    """A fresh growth curve that computes what ``at`` lacks radius by
    radius through ``exact``, in the order ``at`` asks for them."""
    curve = multipliers._GrowthCurve(n, m, family, 1e-7)
    curve._fill = lambda radii: [curve.exact(s) for s in np.asarray(radii).tolist()]
    return curve


def _fill_radii(j_deepest):
    """0, a duplicate, a probe's radial rule times s = 0.3 (about half of
    it below the ladder), the ladder nodes themselves, and 0 again."""
    ladder = [1.0 - 2.0**-j for j in _LADDER_J if j <= j_deepest]
    return np.concatenate([[0.0, 0.1, 0.1], radial_rule(0.5, 96).nodes * 0.3, ladder, [0.0]])


def _hexes(values):
    return {s: float(v).hex() for s, v in values.items()}


@pytest.mark.parametrize(
    "family",
    ["ones", "powerlaw:0.5", "finite:40", _family_from_values(0.9 ** np.arange(60.0) * np.cos(np.arange(60.0)))],
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_growth_curve_fill_keeps_the_per_radius_bits(n, family):
    fam = multiplier_family(family) if isinstance(family, str) else family
    radii = _fill_radii(6)
    for m in (0.0, 2.0, 1.5):
        batched, loop = multipliers._GrowthCurve(n, m, fam, 1e-7), _loop_curve(n, m, fam)
        assert batched.at(radii, 6).tobytes() == loop.at(radii, 6).tobytes(), m
        assert _hexes(batched._exact) == _hexes(loop._exact), m


def test_growth_curve_fill_raises_as_the_per_radius_loop():
    # c_40 = 1e308 overflows the series from the ladder node at j = 1.75
    # on; the loop raises there, after the nodes before it
    values = np.zeros(41)
    values[0], values[40] = 1.0, 1e308
    fam = _family_from_values(values)
    radii = _fill_radii(4)
    outcomes = []
    for curve in (multipliers._GrowthCurve(3, 2.0, fam, 1e-7), _loop_curve(3, 2.0, fam)):
        with np.errstate(all="ignore"), pytest.raises(AccuracyError, match="non-finite") as err:
            curve.at(radii, 4)
        outcomes.append((str(err.value), repr(err.value.coarse), repr(err.value.fine), err.value.rtol))
    assert outcomes[0] == outcomes[1]


def test_growth_curve_fill_takes_at_most_a_chunk_per_loop(monkeypatch):
    rows = []
    real = multipliers._zonal_abs_power_means

    def counted(dim, batch, power, rtol):
        rows.append(batch.shape[0])
        return real(dim, batch, power, rtol)

    monkeypatch.setattr(multipliers, "_zonal_abs_power_means", counted)
    curve = multipliers._GrowthCurve(3, 2.0, multiplier_family("ones"), 1e-7)
    curve.at(_fill_radii(8), 8)
    # the short ladder nodes, then the radii below the ladder in chunks
    assert max(rows) == _PROFILE_CHUNK
    assert len(rows) >= 3


def test_sequence_family_padding_is_zero():
    fam = _family_from_values(np.array([1.0, 2.0]))
    assert fam.values(4).tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
