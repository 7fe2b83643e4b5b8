"""Scalar special functions for spherical-harmonic series on the unit ball.

Everything here reduces to log-Gamma arithmetic and the normalized
ultraspherical three-term recurrence, which lives in ``_zonalseries``
(its ``_series_sum``):

* ``log_gamma`` / ``gamma_ratio``  -- Gamma ratios evaluated in log space so
  that quantities like Gamma(k + n/2 + m + 1) / Gamma(k + n/2) stay finite
  far beyond the direct-overflow point near 171.
* ``gegenbauer``                   -- ultraspherical polynomials C_k^lam(t),
  the normalized recurrence times C_k^lam(1), at any degree.
* ``sph_dim``                      -- dimension d_k of the degree-k spherical
  harmonics on the unit sphere in R^n.
* ``zonal``                        -- the degree-k zonal harmonic through its
  dependence on the cosine of the angle, normalized so that the value at
  cosine 1 equals d_k (the addition-theorem normalization for a basis that
  is orthonormal under normalized surface measure).
* ``lambda_coeff``                 -- the coefficient ratio
  Gamma(k + n/2 + m + 1) / (Gamma(k + n/2) Gamma(m + 1)) of the fractional
  radial derivative of order m + 1.
* ``_gauss_jacobi``                -- the one source of Gauss-Jacobi nodes
  and weights, cached, for every radial, polar and panel rule.

All functions are pure and accept either scalars or numpy arrays in their
"mathematical" argument; scalars in, scalars out.
"""

import functools

import numpy as np
# roots_jacobi imports scipy.linalg on its first call (for eig_banded);
# importing it here keeps that cost out of the first request
import scipy.linalg  # noqa: F401
from scipy.special import binom, gammaln, roots_jacobi

from .errors import DomainError

__all__ = [
    "log_gamma",
    "gamma_ratio",
    "gegenbauer",
    "sph_dim",
    "zonal",
    "lambda_coeff",
]


def log_gamma(x):
    """Natural log of Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_gamma requires positive arguments")
    out = gammaln(x)
    return float(out) if out.ndim == 0 else out


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) via exp(log_gamma(a) - log_gamma(b)), a, b > 0."""
    out = np.exp(log_gamma(a) - log_gamma(b))
    return float(out) if np.ndim(out) == 0 else out


def gegenbauer(k, lam, t):
    """Ultraspherical polynomial C_k^lam(t).

    The normalized recurrence of ``_zonalseries`` gives
    u_k = C_k^lam(t) / C_k^lam(1), which is rescaled by
    C_k^lam(1) = Gamma(k + 2*lam) / (Gamma(2*lam) k!) = binom(k + 2*lam - 1, k).

    Requires lam > -1/2, lam != 0 (the degenerate lam = 0 limit is handled
    by `zonal` for dimension 2) and |t| <= 1.
    """
    from ._zonalseries import _series_sum

    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if lam <= -0.5 or lam == 0.0:
        raise DomainError(f"lambda must be > -1/2 and nonzero, got {lam}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise DomainError("gegenbauer requires |t| <= 1")
    w = np.zeros(k + 1)
    w[k] = binom(k + 2.0 * lam - 1.0, k)
    out = _series_sum(w, lam, np.atleast_1d(t)).reshape(t.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=256)
def _gauss_jacobi(N, a, b):
    """N-point Gauss rule for int_-1^1 phi(x) (1-x)^a (1+x)^b dx.

    Returns read-only (nodes, weights); rules are rebuilt many times with
    the same (N, a, b) by the settle-by-doubling loops, so they are cached.
    """
    x, w = roots_jacobi(N, a, b)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def sph_dim(n, k):
    """Dimension of the space of spherical harmonics of degree k on the
    unit sphere in R^n: d_0 = 1, d_k = C(n+k-1, k) - C(n+k-3, k-2)."""
    if n < 2:
        raise DomainError(f"dim must be >= 2, got {n}")
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if k == 0:
        return 1
    import math

    if k == 1:
        return n
    return math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2)


def _sph_dim_array(n, kmax):
    """d_k for k = 0..kmax as a float vector, via stable product formulas."""
    k = np.arange(kmax + 1, dtype=float)

    def homog(kk):
        # C(n + kk - 1, n - 1) = prod_{i=1..n-1} (kk + i)/i
        out = np.ones_like(kk)
        for i in range(1, n):
            out = out * (kk + i) / i
        return out

    d = homog(k) - np.where(k >= 2, homog(k - 2.0), 0.0)
    d[0] = 1.0
    return d


def zonal(n, k, t):
    """Zonal harmonic of degree k on the sphere in R^n at cosine t.

    Normalized so that the value at t = 1 is d_k = sph_dim(n, k); this is
    the normalization under which the zonal harmonic is the sum
    sum_j y_j(x') y_j(y') over an orthonormal basis (normalized surface
    measure) of the degree-k space.  For n >= 3 this equals
    d_k * C_k^lam(t) / C_k^lam(1) with lam = (n-2)/2; for n = 2 it is
    1 for k = 0 and 2 cos(k arccos t) otherwise.  Evaluated as the
    one-term series of ``zonal_series_values``.
    """
    from ._zonalseries import zonal_series_values

    if n < 2:
        raise DomainError(f"dim must be >= 2, got {n}")
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise DomainError("zonal requires |t| <= 1")
    onehot = np.zeros(k + 1)
    onehot[k] = 1.0
    out = zonal_series_values(n, onehot, np.ravel(t))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def lambda_coeff(n, k, m):
    """Coefficient gamma_k of the order-(m+1) fractional radial derivative:
    Gamma(k + n/2 + m + 1) / (Gamma(k + n/2) Gamma(m + 1)), m > -1.

    Evaluated in log space; positive and strictly increasing in k.
    """
    if n < 2:
        raise DomainError(f"dim must be >= 2, got {n}")
    if m <= -1.0:
        raise DomainError(f"order must be > -1, got {m}")
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise DomainError("degree must be >= 0")
    out = np.exp(_log_lambda_coeff(n, k, m))
    return float(out) if out.ndim == 0 else out


def _log_lambda_coeff(n, k, m):
    k = np.asarray(k, dtype=float)
    return gammaln(k + n / 2.0 + m + 1.0) - gammaln(k + n / 2.0) - gammaln(m + 1.0)
