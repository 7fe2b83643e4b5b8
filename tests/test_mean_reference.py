"""The q = 1 sphere mean M_1 = int |G| dsigma of seeded zonal series against
references that share no code with the package, computed with mpmath alone.

G(theta) = sum_k a_k Z_k(cos theta), with Z_k = (k + lam)/lam C_k^lam from
the Gegenbauer three-term recurrence (2 cos(k theta) on the circle), at 30
digits.  Its zeros in theta come from ``mpmath.findroot`` between the sign
changes on a scan grid of 16 (K + 1) + 64 points, and |G| sin^(n-2) is
integrated by ``mpmath.quad`` between them, times c_n.

The cases are two rows that the adaptive 16/32-point core misses (a K = 64
row at r = 0.99, 1.9e-7 off at rtol 1e-10, and a K = 8 row of the
random-polynomial probe, 1.7e-7 off at rtol 1e-8), and a grid over
n = 2..5 and K = 0, 1, 4, 8, 16, 64 of standard normal coefficients times
0.9^k.  The values are pinned, so the suite needs no mpmath; the
``regenerates`` test recomputes each where mpmath is installed, and
``python tests/test_mean_reference.py`` prints them all.
"""

import numpy as np
import pytest

from ballharm.quadrature import _zonal_power_profile

# (n, seed, K, r) -> M_1 of default_rng(seed).standard_normal(K + 1) * r^k
REFERENCES = {
    (3, 8, 64, 0.99): 39.779050856569306,
    (3, 11, 8, 0.6699468774474743): 1.8249966956185986,
    (2, 200, 0, 0.9): 0.31428722912918317,
    (2, 201, 1, 0.9): 1.9289571893320223,
    (2, 204, 4, 0.9): 2.5312837783664026,
    (2, 208, 8, 0.9): 2.44251471980901,
    (2, 216, 16, 0.9): 3.187931568304476,
    (2, 264, 64, 0.9): 2.241530794279827,
    (3, 300, 0, 0.9): 0.28405850400758176,
    (3, 301, 1, 0.9): 2.197896490463561,
    (3, 304, 4, 0.9): 1.2297632155621596,
    (3, 308, 8, 0.9): 2.7514409469602032,
    (3, 316, 16, 0.9): 5.481729419827762,
    (3, 364, 64, 0.9): 5.5484610030310355,
    (4, 400, 0, 0.9): 0.8741783842808492,
    (4, 401, 1, 0.9): 0.8473351346499155,
    (4, 404, 4, 0.9): 2.665915773795954,
    (4, 408, 8, 0.9): 9.053503892557789,
    (4, 416, 16, 0.9): 5.848209319330983,
    (4, 464, 64, 0.9): 13.708811294151939,
    (5, 500, 0, 0.9): 0.69793517686496,
    (5, 501, 1, 0.9): 1.1215729694501655,
    (5, 504, 4, 0.9): 3.9988761844364595,
    (5, 508, 8, 0.9): 6.765413334286198,
    (5, 516, 16, 0.9): 18.65785911634495,
    (5, 564, 64, 0.9): 25.675018748954702,
}
CASES = list(REFERENCES)


def _coeffs(seed, K):
    return np.random.default_rng(seed).standard_normal(K + 1)


def _row(seed, K, r):
    # the row as ``_zonal_power_profile`` forms it at radius r
    return _coeffs(seed, K) * r ** np.arange(K + 1.0)


def mpmath_abs_mean(n, coeffs, dps=30):
    """M_1 of the zonal series with these coefficients, in mpmath alone."""
    import mpmath as mp

    with mp.workdps(dps):
        lam = mp.mpf(n - 2) / 2
        a = [mp.mpf(float(c)) * ((k + lam) / lam if n > 2 else (2 if k else 1)) for k, c in enumerate(coeffs)]

        def G(theta):
            if n == 2:
                return mp.fsum(ak * mp.cos(k * theta) for k, ak in enumerate(a))
            t = mp.cos(theta)
            total, c_prev, c = a[0], mp.mpf(1), 2 * lam * t
            for k in range(1, len(a)):
                total += a[k] * c
                c_prev, c = c, (2 * (k + lam) * t * c - (k + 2 * lam - 1) * c_prev) / (k + 1)
            return total

        grid = 16 * len(a) + 64
        scan = [mp.pi * i / grid for i in range(grid + 1)]
        values = [G(x) for x in scan]
        zeros = [
            mp.findroot(G, (x0, x1), solver="anderson", verify=False)
            for x0, x1, g0, g1 in zip(scan, scan[1:], values, values[1:])
            if g0 * g1 < 0
        ]
        cn = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
        breaks = sorted(set([mp.mpf(0), mp.pi] + zeros))
        integral = mp.quad(lambda th: abs(G(th)) * mp.sin(th) ** (n - 2), breaks, method="gauss-legendre")
        return float(cn * integral)


@pytest.mark.parametrize("n,seed,K,r", CASES)
def test_exact_mean_meets_reference(n, seed, K, r):
    # the adaptive core was 1.9e-7 and 1.7e-7 off the first two
    [value] = _zonal_power_profile(n, _coeffs(seed, K), 1.0, [r])
    assert value == pytest.approx(REFERENCES[n, seed, K, r], rel=1e-12)


@pytest.mark.parametrize("n,seed,K,r", CASES)
def test_mean_reference_regenerates(n, seed, K, r):
    pytest.importorskip("mpmath")
    assert mpmath_abs_mean(n, _row(seed, K, r)) == pytest.approx(REFERENCES[n, seed, K, r], rel=1e-15)


if __name__ == "__main__":
    for case in CASES:
        n, seed, K, r = case
        print(f"    {case}: {mpmath_abs_mean(n, _row(seed, K, r))!r},")
