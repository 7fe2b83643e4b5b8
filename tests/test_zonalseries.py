import math

import numpy as np
import pytest

from scipy.special import eval_chebyt, eval_gegenbauer

from ballharm import sph_dim
from ballharm._zonalseries import (
    _HAVE_NUMBA,
    _series_sum_numpy,
    zonal_abs_power_mean,
    zonal_series_values,
)
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


@pytest.mark.skipif(not _HAVE_NUMBA, reason="numba not installed")
def test_numba_and_numpy_paths_agree():
    from ballharm._zonalseries import _series_sum_kernel

    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        lam = (n - 2) / 2.0
        w = rng.standard_normal(4000) * 0.9 ** np.arange(4000)
        t = np.ascontiguousarray(np.cos(np.linspace(0, math.pi, 40)))
        a = _series_sum_kernel(w, lam, t)
        b = _series_sum_numpy(w, lam, t)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-13)


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
