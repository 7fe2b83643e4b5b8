import math

import numpy as np
import pytest
import scipy

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
from ballharm.multipliers import (
    _CLOSED_TERMS,
    _CURVE_CACHE,
    _direction_design,
    _family_from_values,
    _fit_window,
)
from ballharm.expansion import _basis_matrix
from ballharm import _zonalseries
from ballharm.quadrature import radial_rule, sphere_rule
from ballharm._zonalseries import _PROFILE_CHUNK, zonal_series_values
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
    # n = 3, m = 2; the route pick's search stops at _CLOSED_TERMS terms
    s = 1.0 - 2.0 ** (-j)
    fam = multiplier_family(family)
    assert multipliers._series_degrees(3, 2.0, fam)(s) == expected
    assert multipliers._series_degrees(3, 2.0, fam, cap=_CLOSED_TERMS)(s) is None


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
            got = multipliers._growth_kernel(n, float(m), fam, s)(_THETA)
            err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (m, s, err)


def _route(monkeypatch, n, m, family, s):
    """The route ``_growth_integrals`` takes for a batch of one:
    ("closed",), ("series", K), or ("refused", message)."""
    taken = []
    monkeypatch.setattr(multipliers, "_abs_power_mean",
                        lambda *args: taken.append(("closed",)) or [1.0])
    monkeypatch.setattr(multipliers, "_zonal_abs_power_means",
                        lambda n, rows, *args: [taken.append(("series", row.size - 1)) or 1.0
                                                for row in rows])
    try:
        multipliers._growth_integrals(n, m, family, [s])
    except AccuracyError as err:
        taken.append(("refused", str(err)))
    assert len(taken) == 1
    return taken[0]


@pytest.mark.parametrize(
    "family,m,j,route",
    [
        # named families at integer m, beyond _CLOSED_TERMS series terms
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
    the family has one, for K + 1 > _CLOSED_TERMS terms or a search past the
    degree cap; else the series at the full search's K."""
    try:
        K = multipliers._series_degrees(n, m, family)(s)
    except AccuracyError as err:
        return ("closed",) if closed else ("refused", str(err))
    return ("closed",) if closed and K + 1 > _CLOSED_TERMS else ("series", K)


@pytest.mark.parametrize("family", ["ones", "powerlaw:0.5", "finite:300", "sequence"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_growth_route_is_the_full_search_rule(monkeypatch, n, family):
    # the pick from a search stopped at _CLOSED_TERMS terms, at every ladder
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
    [value] = multipliers._growth_integrals(3, 2.0, family, [1.0 - 2.0**-14])
    assert value == pytest.approx(6090064325234.604, rel=1e-7)  # test_growth_reference
    assert max(windows) <= _CLOSED_TERMS


def test_series_route_past_the_degree_cap_refuses():
    # a fractional m has no closed form, so j = 14 still refuses
    with pytest.raises(AccuracyError, match="degree cap"):
        multipliers._growth_integrals(3, 1.5, multiplier_family("ones"), [1.0 - 2.0**-14])


# float.hex of I(s) at rtol 1e-7 as computed radius by radius before the
# growth curve batched its radii, at ten short radii below the ladder and
# the ladder depths up to jmax: (n, m, family, jmax) -> bits; series of at
# most 65 terms take the exact q = 1 route, within 2.6e-15 of mpmath where
# the adaptive core was up to 1.2e-8 off.  ``ones`` and
# ``powerlaw:0.5`` at m = 2 take the closed route past their short series,
# ``powerlaw:0.75`` at m = 1.5 and ``finite:300`` sum series of more than
# _AHEAD_TERMS terms with lookahead
_PINNED_GROWTH_BITS = {
    (3, 2.0, 'ones', 14): [
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.c9796f63e3842p+2',
        '0x1.4fb827a415a38p+3', '0x1.0bd58dc7bbd54p+4', '0x1.b0d0fcdda8420p+4',
        '0x1.5d89af6abbe4ap+5', '0x1.1a0389af49a57p+6', '0x1.c770ccdc6892ap+6',
        '0x1.2b6598dedf7f3p+8', '0x1.8f86439c60e83p+9', '0x1.0e7a40b7ea66ap+11',
        '0x1.73f21c59da797p+12', '0x1.02eef0263152dp+14', '0x1.6a85876ea2c36p+15',
        '0x1.fd37427d5438ep+16', '0x1.666401be5f9f2p+18', '0x1.f93175b6057ecp+19',
        '0x1.64694d4dd1422p+21', '0x1.f73bd0bb76dc3p+22', '0x1.6370186623d6dp+24',
        '0x1.f643aad5228c4p+25', '0x1.62f4600a08ab9p+27', '0x1.f5c82ff4fd5d5p+28',
        '0x1.62b6b7b49d33cp+30', '0x1.f58a963b30010p+31', '0x1.6297efec58e3dp+33',
        '0x1.f56bd202e681bp+34', '0x1.62888f109e805p+36', '0x1.f55c72068f144p+37',
        '0x1.6280df61f5d94p+39', '0x1.f554c28ff85ecp+40', '0x1.627d07bac0d63p+42',
    ],
    (5, 2.0, 'ones', 14): [
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b3c624991fbbp+4',
        '0x1.657a4df4c3089p+4', '0x1.ec089d644603dp+4', '0x1.71e15d336f784p+5',
        '0x1.1ee4004b72490p+6', '0x1.c22b3e098fd2ap+6', '0x1.634f44ef2e47dp+7',
        '0x1.c19e0816f1937p+8', '0x1.22d882203d2b7p+10', '0x1.806d2f9c74870p+11',
        '0x1.03de169215f6dp+13', '0x1.653bfb5a19ae2p+14', '0x1.ef9fd39965767p+15',
        '0x1.59dbf63f4d6cep+17', '0x1.e4a1a7ada8aa5p+18', '0x1.547a35151cda1p+20',
        '0x1.df5236bb165b6p+21', '0x1.51d8615398ca0p+23', '0x1.dcb44538b667dp+24',
        '0x1.508ab6397fdb9p+26', '0x1.db677d34cdeedp+27', '0x1.4fe4a04ead49cp+29',
        '0x1.dac19d685cc2bp+30', '0x1.4f91c3460c10ep+32', '0x1.da6ecd913a0fap+33',
        '0x1.4f685ffdcae9bp+35', '0x1.da456d8e77d6dp+36', '0x1.4f53b120e49b7p+38',
        '0x1.da30bf81c80c2p+39', '0x1.4f495a6353ed9p+41', '0x1.da2668f74f99fp+42',
    ],
    (3, 2.0, 'powerlaw:0.5', 14): [
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a94ab8e8a34a4p+2', '0x1.086b8941c4866p+3', '0x1.731ba71ef20e1p+3',
        '0x1.0edb7f9aad8b4p+4', '0x1.9016e77920a6ep+4', '0x1.288a1fa597a90p+5',
        '0x1.477c47bc650e3p+6', '0x1.6cfd5d8fe4af7p+7', '0x1.9baaf6c969285p+8',
        '0x1.d5e71cacb36a6p+9', '0x1.0efa3cd24219ap+11', '0x1.3b1ce40196ccfp+12',
        '0x1.70bba0556ceafp+13', '0x1.b1dd7780f8827p+14', '0x1.004bcc72ee12ap+16',
        '0x1.2f75a8b9ed0e7p+17', '0x1.67cbf5647a038p+18', '0x1.aafbea4a6343cp+19',
        '0x1.fb08f632155afp+20', '0x1.2d2d6a1eb1636p+22', '0x1.65e7bdcf00c36p+23',
        '0x1.a968784cfe694p+24', '0x1.f9b7b89f28155p+25', '0x1.2ca02d0388c89p+27',
        '0x1.6571484672f3bp+28', '0x1.a9050803e80b5p+29', '0x1.f96433aaacf92p+30',
        '0x1.2c7d169ec1c92p+32', '0x1.6553cb24b93e5p+33', '0x1.a8ec3e5cd1378p+34',
    ],
    (5, 2.0, 'powerlaw:0.5', 14): [
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3b00000000001p+4',
        '0x1.3b00000000001p+4', '0x1.3b00000000001p+4', '0x1.3f0a6e5db2135p+4',
        '0x1.9646360acea25p+4', '0x1.1f56456104e6ap+5', '0x1.a3d2ee91ef5d4p+5',
        '0x1.ca63278545865p+6', '0x1.f8bb466d2dee5p+7', '0x1.18a175eca6e25p+9',
        '0x1.3bfd116f07d59p+10', '0x1.683d8494377cep+11', '0x1.9f18c84f95d95p+12',
        '0x1.e261a9e18004dp+13', '0x1.1a529149b6edcp+15', '0x1.4c5a56d1cf8d4p+16',
        '0x1.8884e0f84e998p+17', '0x1.d08fc68a5e5cdp+18', '0x1.134f4afebb288p+20',
        '0x1.46a26a52355edp+21', '0x1.83cbd9098a3eep+22', '0x1.cca270034a0c5p+23',
        '0x1.11ab9f50fcb6cp+25', '0x1.454329808c912p+26', '0x1.82a5640e7a110p+27',
        '0x1.cbab56e28ceaap+28', '0x1.1143dfcf48dd0p+30', '0x1.44ec00b1d70a0p+31',
        '0x1.825c25546d145p+32', '0x1.cb6dc66509b92p+33', '0x1.1129ff5943d89p+35',
    ],
    (3, 1.5, 'powerlaw:0.75', 8): [
        '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2',
        '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2',
        '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2',
        '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2',
        '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2', '0x1.45f306dc9c882p+2',
        '0x1.7a82a2f30b984p+2', '0x1.e08a355db1986p+2', '0x1.3b837477c9a4dp+3',
        '0x1.18b37a1fd20bfp+4', '0x1.f71ba4b6370efp+4', '0x1.c2c005333db82p+5',
        '0x1.9430a22eabb5ep+6', '0x1.6b54a6cee1dc2p+7', '0x1.47a8d398573f3p+8',
        '0x1.2878539dc93d5p+9', '0x1.0d0d6f4b8a71fp+10', '0x1.e99121a81005ep+10',
        '0x1.be4d0637d8d2ep+11', '0x1.977d7a8d0471ep+12', '0x1.747db8d305c41p+13',
    ],
    (3, 2.0, 'finite:300', 8): [
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.a400000000002p+2',
        '0x1.a400000000002p+2', '0x1.a400000000002p+2', '0x1.c9796f640b982p+2',
        '0x1.4fb827a413317p+3', '0x1.0bd58dc7c5e02p+4', '0x1.b0d0fcddb11f0p+4',
        '0x1.5d89af6abac3ap+5', '0x1.1a0389af4789cp+6', '0x1.c770ccdc66a4ep+6',
        '0x1.2b6598dedf03bp+8', '0x1.8f86439cc707fp+9', '0x1.0e7a40bccecddp+11',
        '0x1.73f2795ae564ap+12', '0x1.0795d2841de02p+14', '0x1.0cb977170b0c1p+16',
        '0x1.07b151d7f81d1p+19', '0x1.a30ff8d87dbd4p+21', '0x1.98db73efbecf0p+23',
        '0x1.0cc461a56a2e6p+25', '0x1.0a3d98a1cbd77p+26', '0x1.afa20f7a011a3p+26',
    ],
}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="bit patterns were taken with numpy 2.4.6 and scipy 1.17.1",
)
@pytest.mark.parametrize("case", sorted(_PINNED_GROWTH_BITS))
def test_growth_integrals_keep_the_pinned_bits(case):
    n, m, family, jmax = case
    radii = [0.015 * i for i in range(1, 11)] + [1.0 - 2.0**-j for j in _LADDER_J if j <= jmax]
    values = multipliers._growth_integrals(n, m, multiplier_family(family), radii, 1e-7)
    assert [float(v).hex() for v in values] == _PINNED_GROWTH_BITS[case]


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


@pytest.mark.parametrize("levels", [[-1, 3, 4, 5], [3, 4, math.nan], [0, 3, 4]])
def test_condition2_grid_refuses_levels_outside_the_open_ladder(levels):
    # 1 - rho = 2^-j needs a finite j > 0, as condition2_integral needs
    # rho in (0, 1)
    with pytest.raises(DomainError, match="finite and positive"):
        condition2_sup("ones", params_for(), j_levels=levels)


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
    """Record (family key, s) of every growth integral computed: each
    radius handed to ``_growth_integrals``."""
    seen = []
    inner = multipliers._growth_integrals

    def counted(n, m, family, radii, rtol=1e-7):
        seen.extend((family.key, s) for s in radii)
        return inner(n, m, family, radii, rtol)

    monkeypatch.setattr(multipliers, "_growth_integrals", counted)
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
    radius, each a fill of one, in the order ``at`` asks for them."""
    curve = multipliers._GrowthCurve(n, m, family, 1e-7)
    fill = curve._fill
    curve._fill = lambda radii: [fill([s])[0] for s in np.asarray(radii).tolist()]
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
    # the exact route's batch size is lowered so the radii below the ladder
    # fill more than one batch
    batches = []
    for name in ("_means_in_one_loop", "_exact_abs_means"):
        real = getattr(_zonalseries, name)

        def counted(dim, batch, *args, real=real, name=name):
            batches.append((name, len(batch)))
            return real(dim, batch, *args)

        monkeypatch.setattr(_zonalseries, name, counted)
    monkeypatch.setattr(_zonalseries, "_EXACT_CHUNK", 16)
    curve = multipliers._GrowthCurve(3, 2.0, multiplier_family("ones"), 1e-7)
    curve.at(_fill_radii(8), 8)
    # the short ladder nodes, then the radii below the ladder in chunks
    limit = {"_means_in_one_loop": _PROFILE_CHUNK, "_exact_abs_means": 16}
    assert all(size <= limit[name] for name, size in batches)
    assert ("_exact_abs_means", 16) in batches
    assert len(batches) >= 3


# ---------------------------------------------------------------------------
# the log-log ladder spline
# ---------------------------------------------------------------------------

_SCIPY_BUILD = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="bit equality with scipy was checked with numpy 2.4.6 and scipy 1.17.1",
)


def _assert_scipy_spline_bits(x, y, at):
    from scipy.interpolate import CubicSpline

    reference = CubicSpline(x, y)
    table = multipliers._not_a_knot_spline(x, y)
    assert table[0].tobytes() == x[:-1].tobytes()
    assert table[1:].tobytes() == reference.c[::-1].tobytes()
    assert multipliers._spline_values(table, at).tobytes() == reference(at).tobytes()


@_SCIPY_BUILD
@pytest.mark.parametrize("family", ["ones", "powerlaw:0.5"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_ladder_spline_has_cubicspline_bits(n, family):
    # every ladder ``at`` builds for J = 2..14, read at a probe's radii
    curve = multipliers._GrowthCurve(n, 2.0, multiplier_family(family), 1e-7)
    for J in range(2, 15):
        s = radial_rule(-0.5, 96).nodes * (1.0 - 2.0**-J)
        values = curve.at(s, J)
        s_low, xi, ladder, table = curve._ladders[J]
        _assert_scipy_spline_bits(xi, np.log(ladder), -np.log1p(-s))
        high = s >= s_low
        spline = multipliers._spline_values(table, -np.log1p(-s[high]))
        assert values[high].tobytes() == np.exp(spline).tobytes()


def _pivots(lower, diag, upper):
    """The pivots of tridiagonal elimination without row interchange."""
    pivots = [diag[0]]
    for i in range(len(diag) - 1):
        pivots.append(diag[i + 1] - lower[i] / pivots[i] * upper[i])
    return pivots


def test_ladder_systems_need_no_row_interchange(monkeypatch):
    # the slope system of every ladder ``at`` builds, for depths J = 0.25
    # to 30 by twentieths: the first step is a tie, |diag[0]| = |lower[0]|,
    # which dgtsv takes without an interchange, and every later pivot
    # dominates its row
    systems, solve = [], multipliers._tridiagonal_solve

    def recorded(lower, diag, upper, rhs):
        systems.append((lower[:], diag[:], upper[:]))
        return solve(lower, diag, upper, rhs)

    monkeypatch.setattr(multipliers, "_tridiagonal_solve", recorded)
    curve = multipliers._GrowthCurve(3, 2.0, multiplier_family("ones"), 1e-7)
    monkeypatch.setattr(curve, "_fill", lambda radii: [1.0 + float(s) for s in radii])
    depths = np.round(np.arange(0.25, 30.0 + 1e-9, 0.05), 2)
    for J in depths:
        curve.at(0.9, float(J))
    assert len(systems) == depths.size
    for lower, diag, upper in systems:
        assert abs(diag[0]) == abs(lower[0])
        pivots = _pivots(lower, diag, upper)
        assert all(abs(p) > abs(low) for p, low in zip(pivots[1:], lower[1:]))


@_SCIPY_BUILD
def test_tridiagonal_solve_has_lapack_bits_without_row_swaps():
    # random systems whose elimination needs no row interchange, a tie at
    # the first step in half of them, as on a ladder
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(7)
    kept = 0
    for trial in range(600):
        n = int(rng.integers(3, 30))
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag, rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0), rng.standard_normal(n)
        if trial % 2:
            diag[0] = lower[0]
        if any(abs(p) < abs(low) for p, low in zip(_pivots(lower, diag, upper), lower)):
            continue
        kept += 1
        banded = np.zeros((3, n))
        banded[0, 1:], banded[1], banded[2, :-1] = upper, diag, lower
        expected = solve_banded((1, 1), banded, rhs)
        lists = (a.tolist() for a in (lower, diag, upper, rhs))
        assert np.array(multipliers._tridiagonal_solve(*lists)).tobytes() == expected.tobytes()
    assert kept >= 100


def test_sequence_family_padding_is_zero():
    fam = _family_from_values(np.array([1.0, 2.0]))
    assert fam.values(4).tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
