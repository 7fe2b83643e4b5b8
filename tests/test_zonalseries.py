import math
import warnings

import numpy as np
import pytest

import scipy
from scipy.special import eval_chebyt, eval_gegenbauer

from ballharm import _zonalseries, multipliers, sph_dim
from ballharm._zonalseries import (
    _AHEAD_PANELS,
    _PROFILE_CHUNK,
    _abs_power_mean,
    _exact_abs_means,
    _means_in_one_loop,
    _series_sum,
    _zonal_abs_power_means,
    zonal_abs_power_mean,
    zonal_series_values,
)
from ballharm.cli import main
from ballharm.errors import AccuracyError
from ballharm.multipliers import multiplier_family
from ballharm.specfun import _sph_dim_array


def _zonal_reference(n, k, t):
    """Z_k(t) from scipy's polynomials, independent of the package's
    recurrence: d_k C_k^lam(t) / C_k^lam(1) for n >= 3, 2 T_k(t) for n = 2."""
    if k == 0:
        return np.ones_like(t)
    if n == 2:
        return 2.0 * eval_chebyt(k, t)
    lam = (n - 2) / 2.0
    return sph_dim(n, k) * eval_gegenbauer(k, lam, t) / eval_gegenbauer(k, lam, 1.0)


def test_series_matches_zonal_sum():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5):
        coeffs = rng.standard_normal(9)
        ts = np.linspace(-1, 1, 17)
        direct = sum(coeffs[k] * _zonal_reference(n, k, ts) for k in range(9))
        fast = zonal_series_values(n, coeffs, ts)
        assert np.allclose(fast, direct, rtol=1e-12, atol=1e-12)


def test_abs_mean_of_poisson_is_one():
    # the Poisson kernel is positive with spherical mean 1, at any depth
    for n in (2, 3, 4):
        for s in (0.5, 0.9, 0.99, 0.999):
            K = int(60 / (1 - s)) + 50
            coeffs = s ** np.arange(K + 1, dtype=float)
            val = zonal_abs_power_mean(n, coeffs, 1.0, rtol=1e-9)
            assert val == pytest.approx(1.0, rel=1e-8)


def test_abs_power_mean_q2_matches_parseval():
    rng = np.random.default_rng(44)
    for n in (2, 3):
        coeffs = rng.standard_normal(7)
        val = zonal_abs_power_mean(n, coeffs, 2.0, rtol=1e-11)
        exact = float((coeffs**2 * _sph_dim_array(n, 6)).sum())
        assert val == pytest.approx(exact, rel=1e-9)


def test_abs_mean_zero_series():
    assert zonal_abs_power_mean(3, np.zeros(5), 1.0) == 0.0


def test_abs_mean_constant():
    assert zonal_abs_power_mean(3, np.array([2.5]), 1.0) == pytest.approx(2.5, rel=1e-12)


def test_abs_mean_kinked_integrand():
    # a single degree-1 term: integral of |Z_1| has an interior kink
    for n, expected in ((2, 2.0 * 2.0 / math.pi), (3, 3.0 * 0.5)):
        # n=2: (1/2pi) int |2 cos| = 4/pi * 1/2pi... direct: 2*(2/pi)
        val = zonal_abs_power_mean(n, np.array([0.0, 1.0]), 1.0, rtol=1e-10)
        assert val == pytest.approx(expected, rel=1e-9)


def test_series_values_scalar_input():
    out = zonal_series_values(3, np.array([1.0, 1.0]), 0.5)
    assert isinstance(out, float)
    assert out == pytest.approx(1.0 + 3.0 * 0.5, rel=1e-14)


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="bit patterns were taken with numpy 2.4.6 and scipy 1.17.1",
)
def test_abs_power_mean_bits_pinned():
    # the exact doubles of the integral, so a refactor of the series or the
    # adaptive loop that reorders any sum shows here
    rng = np.random.default_rng(2024)
    cases = [
        (2, rng.standard_normal(9), 0.5, "0x1.ca461cb41377ap+0"),
        (3, 0.9 ** np.arange(120.0), 1.0, "0x1.0000000000001p+0"),
        (5, rng.standard_normal(12) * 0.8 ** np.arange(12.0), 2.0, "0x1.3b289d9d2068ap+6"),
        (3, rng.standard_normal(33), 0.5, "0x1.310bc0094a811p+2"),
        (2, 0.99 ** np.arange(900.0), 1.0, "0x1.ffffffffffef0p-1"),
        (5, rng.standard_normal(64) * 0.95 ** np.arange(64.0), 1.0, "0x1.4b2c0573e2242p+6"),
    ]
    for n, coeffs, power, bits in cases:
        if _zonalseries._route(coeffs.size, power) == "exact":
            # q = 1 rows of 64 and 120 terms take the exact route, so the
            # core is called directly to keep its bits pinned
            value = _means_in_one_loop(n, [coeffs], power, 1e-9, 0)[0]
        else:
            value = zonal_abs_power_mean(n, coeffs, power, rtol=1e-9)
        assert float(value).hex() == bits
    # the j = 8 growth series of ``ones`` (n = 3, m = 2), K = 12,569, which
    # ``_growth_integrals`` integrates by the closed-form kernel instead
    value = zonal_abs_power_mean(3, _growth_series(3, 2.0, 8), 1.0, rtol=1e-7)
    assert float(value).hex() == "0x1.637018505085dp+24"


def _core(dim, G, delta, power, rtol, ahead=0):
    # the adaptive core as a batch of one integrand G of theta
    return _abs_power_mean(dim, lambda theta, owner: G(theta), [delta], power, rtol, ahead)[0]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("j", [10, 20])
def test_core_integrates_closed_form_poisson_in_theta(n, j):
    # P(s, theta) = (1 - s^2) / ((1 - s)^2 + 4 s sin^2(theta/2))^(n/2) has
    # spherical mean 1; at 1 - s = 2^-20 the series would need far more
    # terms than the degree cap allows
    d = 2.0**-j
    s = 1.0 - d

    def poisson(theta):
        return d * (2.0 - d) / (d * d + 4.0 * s * np.sin(theta / 2.0) ** 2) ** (n / 2.0)

    assert _core(n, poisson, 0.25 * d, 1.0, 1e-13) == pytest.approx(1.0, rel=1e-12)


def test_abs_mean_non_finite_series_raises():
    # +-1e308 times d_k overflows: no panel can converge, so the first
    # round of the core refuses instead of bisecting until memory runs out
    # (at q = 1 the exact route takes this row, so the core is called
    # directly)
    row = np.array([1e308, -1e308, 1e308, -1e308])
    with pytest.warns(RuntimeWarning) as caught, pytest.raises(AccuracyError, match="non-finite"):
        _means_in_one_loop(3, [row], 1.0, 1e-8, 0)
    messages = {str(w.message) for w in caught}
    assert "overflow encountered in multiply" in messages
    assert "invalid value encountered in add" in messages


def test_series_sum_matches_allocating_loop():
    # the recurrence as a fresh-array loop, each element's operations in the
    # same order, so the buffer rotation must give the same bits
    def reference(w, lam, t):
        u_prev, u = np.ones_like(t), t.copy()
        acc = w[0] * u_prev
        if w.size > 1:
            acc += w[1] * u
        for k in range(2, w.size):
            a = 2.0 * (k + lam - 1.0) / (k + 2.0 * lam - 1.0)
            b = (k - 1.0) / (k + 2.0 * lam - 1.0)
            u_prev, u = u, t * u * a - b * u_prev
            acc += w[k] * u
        return acc

    rng = np.random.default_rng(7)
    t = rng.uniform(-1.0, 1.0, 101)
    for lam in (0.0, 0.5, 1.5):
        for K in (0, 1, 2, 7, 300):
            w = rng.standard_normal(K + 1)
            assert _series_sum(w, lam, t).tobytes() == reference(w, lam, t).tobytes()


def _growth_series(n, m, j):
    """The zonal coefficients of the ``ones`` growth series at s = 1 - 2^-j,
    truncated where the series route of I(s) truncates it."""
    family, s = multiplier_family("ones"), 1.0 - 2.0**-j
    K = multipliers._series_degrees(n, m, family)(s)
    return multipliers._growth_series(n, m, family, s, K)


def _outcome(f, *args):
    # the exact double, or the exact message of the refusal
    try:
        return float(f(*args)).hex()
    except AccuracyError as err:
        return str(err)


# (n, j, m, power): every combination at j = 2 and 6 but one, which takes
# about 100 s a side to reach the panel budget; a few deep ones
_LOOKAHEAD_GRID = [
    (n, j, m, q)
    for j in (2, 6)
    for n in (2, 3, 5)
    for m in (1.5, 2.0, 3.0)
    for q in (0.5, 1.0, 2.0)
    if (n, j, m, q) != (5, 6, 3.0, 0.5)
] + [(2, 10, 3.0, 2.0), (3, 10, 1.5, 1.0), (5, 10, 1.5, 2.0), (2, 12, 1.5, 1.0)]


@pytest.mark.parametrize("n,j,m,q", _LOOKAHEAD_GRID)
def test_lookahead_keeps_growth_integral_bits(n, j, m, q):
    # panels evaluated ahead carry the bits the round that takes them would
    # have computed; forced on below the series-length gate as well, and
    # on the core for the q = 1 rows the exact route takes
    zcoeffs = _growth_series(n, m, j)
    mean = lambda ahead: _means_in_one_loop(n, [zcoeffs], q, 1e-7, ahead)[0]
    assert _outcome(mean, _AHEAD_PANELS) == _outcome(mean, 0)


def _traced(G):
    # G, and a list that records for each call whether it met a NaN
    calls = []

    def traced(theta):
        values = G(theta)
        calls.append(bool(np.isnan(values).any()))
        return values

    return traced, calls


@pytest.mark.parametrize(
    "G",
    [
        lambda th: (th - 0.9) * (th - 1.1),  # two zeros in one first-round panel
        lambda th: np.cos(3.0 * th),  # three zeros
        lambda th: 1.0 + np.abs(th - 1.2345),  # failing panels that never change sign
        # a spike at the zero: the deep panels carry the integral, so a
        # wrong last bit in one of them shows in the sum
        lambda th: (th - 1.003) * (1.0 + 1e12 * np.exp(-(((th - 1.003) / 1e-5) ** 2))),
    ],
)
def test_lookahead_keeps_adversarial_bits(G):
    (g_plain, plain), (g_ahead, ahead) = _traced(G), _traced(G)
    expected = _core(3, g_plain, 0.01, 1.0, 1e-10)
    value = _core(3, g_ahead, 0.01, 1.0, 1e-10, _AHEAD_PANELS)
    assert float(value).hex() == float(expected).hex()
    assert len(ahead) <= len(plain)


def test_lookahead_raises_non_finite_in_the_same_round():
    # a NaN strip next to the zero of |G|^0.5: the lookahead meets it long
    # before the round that takes the panel, which raises as without it
    G = lambda th: np.where(np.abs(th - 1.004) < 1e-5, np.nan, th - 1.003)
    (g_plain, plain), (g_ahead, ahead) = _traced(G), _traced(G)
    with pytest.raises(AccuracyError, match="non-finite") as expected:
        _core(3, g_plain, 0.01, 0.5, 1e-12)
    with pytest.raises(AccuracyError, match="non-finite") as raised:
        _core(3, g_ahead, 0.01, 0.5, 1e-12, _AHEAD_PANELS)
    assert str(raised.value) == str(expected.value)
    # without lookahead only the raising round met the NaN
    assert plain.index(True) == len(plain) - 1 > ahead.index(True)


def test_deep_growth_integral_makes_few_series_calls(monkeypatch):
    # the j = 10 growth series of ``ones``, K = 54,908: one call for the
    # first round, one for the rest (nine calls, one per round, without
    # lookahead)
    zcoeffs = _growth_series(3, 2.0, 10)
    sizes = []

    def counted(w, lam, t, cols=None):
        sizes.append(t.size)
        return _series_sum(w, lam, t, cols)

    monkeypatch.setattr(_zonalseries, "_series_sum", counted)
    zonal_abs_power_mean(3, zcoeffs, 1.0, 1e-7)
    assert len(sizes) <= 3
    assert max(sizes) <= 48 * _AHEAD_PANELS


def test_unsettled_integrand_exceeds_the_panel_budget():
    # values at a scale of 1e-12 rad never settle; the panel count doubles
    # each round until the budget refuses, with the round's two estimates
    with pytest.raises(AccuracyError, match="budget") as raised:
        _core(3, lambda th: np.sin(1e12 * th), 0.1, 1.0, 1e-8)
    assert math.isfinite(raised.value.coarse) and math.isfinite(raised.value.fine)


def test_batch_raises_the_error_of_the_lowest_failing_integrand():
    # integrand 1 meets a NaN strip in a late round, integrand 2 is NaN in
    # round one: the batch finishes integrand 0, drops integrand 3 and
    # raises what integrand 1 raises on its own, as a loop over them would
    strip = lambda th: np.where(np.abs(th - 1.004) < 1e-5, np.nan, th - 1.003)
    parts = [np.cos, strip, lambda th: np.full_like(th, np.nan), np.sin]

    def G(theta, owner):
        values = np.empty_like(theta)
        for i, part in enumerate(parts):
            values[owner == i] = part(theta[owner == i])
        return values

    with pytest.raises(AccuracyError, match="non-finite") as alone:
        _core(3, strip, 0.01, 0.5, 1e-12)
    with pytest.raises(AccuracyError, match="non-finite") as batch:
        _abs_power_mean(3, G, [0.01] * 4, 0.5, 1e-12)
    assert str(batch.value) == str(alone.value)


def test_batch_values_equal_batches_of_one():
    parts = [np.cos, lambda th: th - 1.003, lambda th: np.exp(-th) * np.sin(5.0 * th)]
    deltas = [0.01, 0.2, 0.05]

    def G(theta, owner):
        values = np.empty_like(theta)
        for i, part in enumerate(parts):
            values[owner == i] = part(theta[owner == i])
        return values

    alone = [_core(3, part, d, 0.5, 1e-12) for part, d in zip(parts, deltas)]
    batch = _abs_power_mean(3, G, deltas, 0.5, 1e-12)
    assert [float(v).hex() for v in batch] == [float(v).hex() for v in alone]


def _ragged_rows():
    """Rows of 1, 255, 256 and 300 terms, an all-zero row, and a run of
    short rows longer than one adaptive loop takes."""
    rng = np.random.default_rng(11)
    sizes = [1, 255, 256, 300, 40, 300, 1] + [8 + i for i in range(_PROFILE_CHUNK + 3)]
    rows = [rng.standard_normal(K) * 0.97 ** np.arange(K) for K in sizes]
    rows.insert(4, np.zeros(20))
    return rows


def test_ragged_rows_equal_the_row_by_row_loop():
    rows = _ragged_rows()
    expected = [float(zonal_abs_power_mean(3, row, 1.0, 1e-9)).hex() for row in rows]
    assert [float(v).hex() for v in _zonal_abs_power_means(3, rows, 1.0, 1e-9)] == expected


def _refusal(f, *args):
    with np.errstate(all="ignore"), pytest.raises(AccuracyError) as err:
        f(*args)
    return str(err.value), repr(err.value.coarse), repr(err.value.fine)


def test_ragged_rows_raise_the_error_of_the_lowest_failing_row():
    # a short row whose |G|^2 overflows, then a long row of NaN: the batch
    # raises what the short one raises alone
    overflow = np.array([0.5, 0.5e308])
    nan = np.concatenate([[1.0, np.nan], np.zeros(299)])
    rows = _ragged_rows()
    rows[5:5] = [overflow]
    rows[9:9] = [nan]
    expected = _refusal(zonal_abs_power_mean, 3, overflow, 2.0, 1e-9)
    assert expected != _refusal(zonal_abs_power_mean, 3, nan, 2.0, 1e-9)
    assert _refusal(_zonal_abs_power_means, 3, rows, 2.0, 1e-9) == expected


# the exact route: q = 1 rows of at most _EXACT_TERMS terms


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="bit patterns were taken with numpy 2.4.6 and scipy 1.17.1",
)
def test_exact_route_bits_pinned():
    # the dim-5, 64-term row of test_abs_power_mean_bits_pinned; a 30-digit
    # mpmath value is 82.7929895537257 (tests/test_mean_reference.py's
    # method), which the core's 0x1.4b2c0573e2242p+6 misses by 4.2e-11
    rng = np.random.default_rng(2024)
    for size in (9, 12, 33):
        rng.standard_normal(size)
    coeffs = rng.standard_normal(64) * 0.95 ** np.arange(64.0)
    assert float(zonal_abs_power_mean(5, coeffs, 1.0, rtol=1e-9)).hex() == "0x1.4b2c05741d492p+6"


def _from_weights(n, w):
    """The zonal coefficients of G = sum_k w[k] u_k."""
    w = np.asarray(w, dtype=float)
    return w / _sph_dim_array(n, w.size - 1)


def _square(n, t0):
    # (t - t0)^2 in the u_k basis: u_2 = a t^2 - b by the recurrence
    lam = (n - 2) / 2.0
    a, b = 2.0 * (1.0 + lam) / (1.0 + 2.0 * lam), 1.0 / (1.0 + 2.0 * lam)
    return _from_weights(n, [t0 * t0 + b / a, -2.0 * t0, 1.0 / a])


def _edge_cases():
    # (name, n, zonal coefficients, exact mean of |G|); under the normalized
    # measure E[t] = 0 and E[t^2] = 1/n, and t is uniform on [-1, 1] at n = 3
    for n in (2, 3, 4, 5):
        lam = (n - 2) / 2.0
        a, b = 2.0 * (1.0 + lam) / (1.0 + 2.0 * lam), 1.0 / (1.0 + 2.0 * lam)
        yield f"K=0 n={n}", n, np.array([-1.25]), 1.25
        yield f"all-zero n={n}", n, np.zeros(7), 0.0
        yield f"double root n={n}", n, _square(n, 0.3), 1.0 / n + 0.09
        yield f"double root at the pole n={n}", n, _square(n, 1.0), 1.0 / n + 1.0
        yield f"root at t = 1 n={n}", n, _from_weights(n, [1.0, -1.0]), 1.0
        yield f"root at t = -1 n={n}", n, _from_weights(n, [1.0, 1.0]), 1.0
        yield f"roots at t = +-1 n={n}", n, _from_weights(n, [b / a - 1.0, 0.0, 1.0 / a]), 1.0 - 1.0 / n
    # n = 3: (t - 1)(t + 1/2) changes sign at -1/2 and meets 0 at t = 1,
    # E|.| = 19/48; so does its mirror image
    yield "root at t = 1 and inside", 3, _from_weights(3, [1.0 / 3.0 - 0.5, -0.5, 2.0 / 3.0]), 19.0 / 48.0
    yield "root at t = -1 and inside", 3, _from_weights(3, [1.0 / 3.0 - 0.5, 0.5, 2.0 / 3.0]), 19.0 / 48.0
    # n = 3: E|p + q t| = |p| if |p| >= |q|, else (p^2 + q^2) / (2 |q|)
    yield "K=1, a root", 3, np.array([1.0, 1.0]), 10.0 / 6.0
    yield "K=1, no root", 3, np.array([2.0, 0.5]), 2.0
    yield "w_0 = 0", 3, np.array([0.0, 1.0]), 1.5
    yield "leading 1e-300", 3, np.array([1.0, 0.5, 1e-300]), 3.25 / 3.0
    yield "leading 1e-300 alone", 3, np.array([0.0, 0.0, 1e-300]), 1e-300 * 5.0 * 2.0 / (3.0 * 3.0**0.5)
    # n = 2 (lam = 0): G = 2 cos(theta) and G = 2 cos(2 theta) have mean 4/pi
    yield "n=2 degree 1", 2, np.array([0.0, 1.0]), 4.0 / math.pi
    yield "n=2 degree 2", 2, np.array([0.0, 0.0, 1.0]), 4.0 / math.pi


@pytest.mark.parametrize(
    "n,coeffs,exact", [pytest.param(n, coeffs, exact, id=name) for name, n, coeffs, exact in _edge_cases()]
)
def test_exact_route_edge_cases(n, coeffs, exact):
    value = zonal_abs_power_mean(n, coeffs, 1.0)
    assert value == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert _exact_abs_means(n, [coeffs], 1e-8) == [value]


def test_short_q1_rows_never_reach_the_core(monkeypatch):
    # every size that is sampled whole, then sizes in pieces up to
    # _EXACT_TERMS = 512
    rng = np.random.default_rng(5)
    sizes = [*range(1, 67), *range(80, _zonalseries._EXACT_TERMS, 23), _zonalseries._EXACT_TERMS]
    rows = [rng.standard_normal(size) for size in sizes]

    def core(*args, **kwargs):
        raise AssertionError("the adaptive core was called")

    monkeypatch.setattr(_zonalseries, "_abs_power_mean", core)
    for n in (2, 3, 5):
        _zonal_abs_power_means(n, rows, 1.0, 1e-8)
        with pytest.raises(AssertionError, match="core"):
            zonal_abs_power_mean(n, rng.standard_normal(_zonalseries._EXACT_TERMS + 1), 1.0)
        with pytest.raises(AssertionError, match="core"):
            zonal_abs_power_mean(n, rows[3], 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_batch_values_equal_batches_of_one(n):
    # ragged sizes, whole rows and rows in pieces, radii down to 1e-3
    # (chopped degrees), an all-zero row, w_0 = 0, and more rows than one
    # exact batch takes
    rng = np.random.default_rng(100 + n)
    rows = []
    for _ in range(_zonalseries._EXACT_CHUNK + 40):
        size = int(rng.integers(1, _zonalseries._EXACT_TERMS + 1))
        r = float(rng.choice([1e-3, 0.1, 0.5, 0.9, 0.99]))
        rows.append(rng.standard_normal(size) * r ** np.arange(size, dtype=float))
    rows[7], rows[8][0] = np.zeros(12), 0.0
    alone = [float(zonal_abs_power_mean(n, row, 1.0)).hex() for row in rows]
    assert [float(v).hex() for v in _zonal_abs_power_means(n, rows, 1.0, 1e-8)] == alone


def test_exact_route_raises_for_the_lowest_non_finite_row():
    # ``overflow`` has finite weights but overflows at its Chebyshev points,
    # ``nan`` has a NaN weight: the batch raises what ``overflow`` raises
    overflow = np.array([1e308, 2e307, 2e307])
    nan = np.array([1.0, np.nan])
    rows = [np.ones(3), np.array([0.5, -1.0]), overflow, np.ones(9), nan, overflow]
    expected = _refusal(zonal_abs_power_mean, 3, overflow, 1.0, 1e-9)
    assert "non-finite" in expected[0]
    assert not np.isfinite([float(expected[1]), float(expected[2])]).any()
    assert expected != _refusal(zonal_abs_power_mean, 3, nan, 1.0, 1e-9)
    assert _refusal(_zonal_abs_power_means, 3, rows, 1.0, 1e-9) == expected
    assert _refusal(_zonal_abs_power_means, 3, rows[3:], 1.0, 1e-9) != expected


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pieces_agree_with_the_whole_row(monkeypatch, n):
    # rows of 66 to 512 terms at radii from decaying to not at all; the
    # Poisson row of 280 terms at a radius with its tail's sign changes
    rng = np.random.default_rng(600 + n)
    rows = [
        rng.standard_normal(size) * r ** np.arange(size, dtype=float)
        for size, r in ((66, 1.0), (129, 0.99), (200, 0.5), (257, 1.0), (400, 0.99), (512, 1.0))
    ]
    rows.append(0.99 ** np.arange(280.0))
    pieces = np.array(_exact_abs_means(n, rows, 1e-8))
    # every row of up to 513 terms sampled whole, one colleague matrix each
    monkeypatch.setattr(_zonalseries, "_PIECE_DEGREE", 256)
    assert np.abs(pieces / _exact_abs_means(n, rows, 1e-8) - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "row",
    [
        np.array([1e308, 2e307, 2e307]),  # the samples overflow
        np.array([1e308, -1e308, 1e308, -1e308]),  # so do the weights a_k d_k
        np.concatenate([[1e308, 2e307, 2e307], np.ones(200)]),  # a row in pieces
    ],
)
def test_exact_route_is_silent_on_overflow(row):
    # no numpy warning, and the non-finite check still refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="non-finite"):
            _zonal_abs_power_means(3, [row], 1.0, 1e-9)


def test_long_rows_raise_for_the_lowest_non_finite_row():
    # rows in pieces: one whose samples overflow, one with a NaN weight;
    # the batch raises what the first raises alone
    overflow = np.concatenate([[1e308, 2e307, 2e307], np.ones(200)])
    nan = np.concatenate([[1.0, np.nan], np.ones(300)])
    rows = [np.ones(300), 0.9 ** np.arange(100.0), overflow, np.ones(9), nan, overflow]
    expected = _refusal(zonal_abs_power_mean, 3, overflow, 1.0, 1e-9)
    assert "non-finite" in expected[0]
    assert expected != _refusal(zonal_abs_power_mean, 3, nan, 1.0, 1e-9)
    assert _refusal(_zonal_abs_power_means, 3, rows, 1.0, 1e-9) == expected


def test_poisson_norm_at_q1_never_reaches_the_core(monkeypatch, tmp_path):
    # the 280-term Poisson file: each radius of both refinement levels takes
    # the exact route, and the norm still refuses for the radial rule
    calls = []

    def core(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the adaptive core was called")

    path = tmp_path / "poisson.json"
    assert main(["kernel", "--dim", "3", "--out", str(path)]) == 0
    monkeypatch.setattr(_zonalseries, "_abs_power_mean", core)
    assert main(["norm", "--input", str(path), "--p", "1", "--q", "1", "--alpha", "0.5"]) == 3
    assert calls == []
