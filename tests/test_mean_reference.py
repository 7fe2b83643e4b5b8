"""The q = 1 sphere mean M_1 = int |G| dsigma of seeded zonal series against
references that share no code with the package, computed with mpmath.

G(theta) = sum_k a_k Z_k(cos theta), with Z_k = (k + lam)/lam C_k^lam from
the Gegenbauer three-term recurrence (2 cos(k theta) on the circle), at 30
digits.  Its zeros in theta come from ``mpmath.findroot`` between the sign
changes on a scan grid of 16 (K + 1) + 64 points, scanned in double
precision, and |G| sin^(n-2) is integrated by ``mpmath.quad`` between
them and every 64th scan point, times c_n.

The cases are two rows that the adaptive 16/32-point core misses (a K = 64
row at r = 0.99, 1.9e-7 off at rtol 1e-10, and a K = 8 row of the
random-polynomial probe, 1.7e-7 off at rtol 1e-8), a grid over n = 2..5
and K = 0, 1, 4, 8, 16, 64, 99, 255, 511 of standard normal coefficients
times 0.9^k, and the 280-term Poisson row of ``ballharm kernel --dim 3``
at two radii.  The values are pinned, so the suite needs no mpmath; the
``regenerates`` tests recompute them where mpmath is installed (of the
rows of 256 and 512 terms, one of 256), and
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
    # rows of 100, 256 and 512 terms, found in pieces
    (2, 2099, 99, 0.9): 2.3564661458507077,
    (3, 3099, 99, 0.9): 5.259482069109683,
    (4, 4099, 99, 0.9): 13.273435168297645,
    (5, 5099, 99, 0.9): 21.7198590864,
    (2, 2255, 255, 0.9): 2.2678301606758775,
    (3, 3255, 255, 0.9): 5.179582592813988,
    (4, 4255, 255, 0.9): 11.61754595223253,
    (5, 5255, 255, 0.9): 32.28664107577426,
    (2, 2511, 511, 0.9): 2.3031723165925175,
    (3, 3511, 511, 0.9): 6.928314455562016,
    (4, 4511, 511, 0.9): 11.123169022072517,
    (5, 5511, 511, 0.9): 27.168265379626703,
}
CASES = list(REFERENCES)

# r -> M_1 of the 280-term Poisson file of ``ballharm kernel --dim 3``
# (every coefficient 1) at radius r: positive at r = 0.5, and with 75 sign
# changes of its truncated tail at this node of radial_rule(0.694, 48)
POISSON_REFERENCES = {
    0.5: 1.0,
    0.9733986102006471: 1.00021703092766,
}
POISSON_CASES = list(POISSON_REFERENCES)


def _coeffs(seed, K):
    return np.random.default_rng(seed).standard_normal(K + 1)


def _row(seed, K, r):
    # the row as ``_zonal_power_profile`` forms it at radius r
    return _coeffs(seed, K) * r ** np.arange(K + 1.0)


def _scan_values(n, coeffs, theta):
    """G at the angles ``theta`` in double precision, by the same
    recurrence (cos(k theta) on the circle)."""
    lam = (n - 2) / 2.0
    if n == 2:
        return sum(c * (2.0 if k else 1.0) * np.cos(k * theta) for k, c in enumerate(coeffs))
    t = np.cos(theta)
    total, c_prev, c = coeffs[0] * np.ones_like(t), np.ones_like(t), 2.0 * lam * t
    for k in range(1, len(coeffs)):
        total += coeffs[k] * (k + lam) / lam * c
        c_prev, c = c, (2.0 * (k + lam) * t * c - (k + 2.0 * lam - 1.0) * c_prev) / (k + 1.0)
    return total


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

        # the scan only brackets the zeros, so it runs in double precision
        grid = 16 * len(a) + 64
        scan = [mp.pi * i / grid for i in range(grid + 1)]
        values = _scan_values(n, coeffs, np.pi * np.arange(grid + 1) / grid)
        zeros = [
            mp.findroot(G, (x0, x1), solver="anderson", verify=False)
            for x0, x1, g0, g1 in zip(scan, scan[1:], values, values[1:])
            if g0 * g1 < 0
        ]
        cn = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
        # every 64th scan point too, so no piece holds more than a few
        # oscillations of a long row
        breaks = sorted(set([mp.mpf(0), mp.pi] + zeros + scan[::64]))
        integral = mp.quad(lambda th: abs(G(th)) * mp.sin(th) ** (n - 2), breaks, method="gauss-legendre")
        return float(cn * integral)


@pytest.mark.parametrize("n,seed,K,r", CASES)
def test_exact_mean_meets_reference(n, seed, K, r):
    # the adaptive core was 1.9e-7 and 1.7e-7 off the first two
    [value] = _zonal_power_profile(n, _coeffs(seed, K), 1.0, [r])
    assert value == pytest.approx(REFERENCES[n, seed, K, r], rel=1e-12)


# a row of 256 terms takes about 12 s in mpmath and one of 512 about 40 s,
# so of those only one 256-term row is regenerated with the others;
# ``python tests/test_mean_reference.py`` prints them all
REGENERATED = [case for case in CASES if case[2] <= 99] + [(3, 3255, 255, 0.9)]


@pytest.mark.parametrize("n,seed,K,r", REGENERATED)
def test_mean_reference_regenerates(n, seed, K, r):
    pytest.importorskip("mpmath")
    assert mpmath_abs_mean(n, _row(seed, K, r)) == pytest.approx(REFERENCES[n, seed, K, r], rel=1e-15)


@pytest.mark.parametrize("r", POISSON_CASES)
def test_poisson_mean_meets_reference(r):
    # the lookahead core was 3.7e-12 off at the second radius
    [value] = _zonal_power_profile(3, np.ones(280), 1.0, [r])
    assert value == pytest.approx(POISSON_REFERENCES[r], rel=1e-12)


@pytest.mark.parametrize("r", POISSON_CASES)
def test_poisson_reference_regenerates(r):
    pytest.importorskip("mpmath")
    value = mpmath_abs_mean(3, r ** np.arange(280.0))
    assert value == pytest.approx(POISSON_REFERENCES[r], rel=1e-15)


if __name__ == "__main__":
    for case in CASES:
        n, seed, K, r = case
        print(f"    {case}: {mpmath_abs_mean(n, _row(seed, K, r))!r},")
    for r in POISSON_CASES:
        print(f"    {r!r}: {mpmath_abs_mean(3, r ** np.arange(280.0))!r},")
