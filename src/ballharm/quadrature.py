"""Weighted radial quadrature, spherical quadrature, and mixed norms.

Radial rules are Gauss-Jacobi rules for integrals of the form
int_0^1 (1-r)^s phi(r) dr with s > -1, so that the near-boundary
integrable singularities appearing in the weighted norms (exponent in
(-1, 0)) are part of the weight, never sampled by the integrand.

Spherical rules integrate under NORMALIZED surface measure (total mass 1).
For n = 2 the rule is uniform in the angle; for n >= 3 it is a product of
Gauss rules in the polar cosines (weight (1-t^2)^((d-2)/2) on each level)
and a uniform azimuth.  A rule of resolution R integrates spherical
polynomials of degree <= R exactly.

The mixed norm of A^{p,q}_alpha composes them:

    ( int_0^1 M_q(f, r)^p  w(r) r^(n-1) dr )^(1/p)

with w(r) = (1-r^2)^alpha under the defining convention and
w(r) = (1-r)^(alpha*p - 1) under the convention used by the multiplier
theorem machinery.  Every norm is computed at two refinement levels;
disagreement beyond tolerance raises AccuracyError instead of returning a
silently wrong number.

One mean profile, int |f(r x')|^q dx' at each radius of a radial rule,
serves both expansion kinds: zonal expansions reduce it to an adaptive
one-dimensional integral, and full expansions sample f at the sphere-rule
nodes through one basis build for all the radii.  The mixed norms, the
direct p-norm and the lemma checks all take their means from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .expansion import _radial_values, evaluate
from .specfun import _gauss_jacobi
from ._zonalseries import _zonal_abs_power_means

__all__ = [
    "QuadratureRule",
    "SpaceParams",
    "radial_rule",
    "sphere_rule",
    "zonal_sphere_integral",
    "mean_norm",
    "mixed_norm",
]

# relative tolerance of the two-level check on every mixed norm
NORM_RTOL = 1e-8


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, positive weights and a domain tag.

    Radial rules: nodes are radii in (0, 1), domain_tag = ("radial", s);
    the weights sum to 1/(s+1).  Spherical rules: nodes are unit vectors,
    domain_tag = ("sphere", n); the weights sum to 1.
    """

    nodes: object
    weights: object
    domain_tag: tuple

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if np.any(weights <= 0):
            raise DomainError("quadrature weights must be positive")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def radial_rule(s, N):
    """N-point Gauss-Jacobi rule for int_0^1 (1-r)^s phi(r) dr, s > -1.

    Exact for polynomials phi of degree <= 2N - 1.
    """
    if s <= -1.0:
        raise DomainError(f"weight exponent must be > -1, got {s}")
    if N < 1:
        raise DomainError(f"rule size must be >= 1, got {N}")
    x, w = _gauss_jacobi(N, s, 0.0)
    r = 0.5 * (x + 1.0)
    weights = w * 2.0 ** (-(s + 1.0))
    return QuadratureRule(r, weights, ("radial", float(s)))


def _levels_agree(coarse, fine, rtol):
    """True when two refinement levels agree to relative tolerance rtol."""
    return abs(fine - coarse) <= rtol * max(abs(fine), 1e-300)


def _settle_by_doubling(level, start_N, rtol, levels, what):
    """level(N) for N = start_N, 2 start_N, ... until two consecutive values
    agree to rtol; after ``levels`` values, AccuracyError carrying the last
    two."""
    coarse = fine = None
    N = start_N
    for _ in range(levels):
        coarse, fine = fine, level(N)
        if coarse is not None and _levels_agree(coarse, fine, rtol):
            return fine
        N *= 2
    raise AccuracyError(f"{what} did not settle", coarse, fine, rtol)


def sphere_rule(n, resolution):
    """Product quadrature on the unit sphere in R^n, normalized measure.

    Exact for spherical polynomials of degree <= resolution.  Supported
    for 2 <= n <= 6 (node count grows as resolution^(n-1)).
    """
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    if not 2 <= n <= 6:
        raise DomainError(f"sphere rules are built for 2 <= n <= 6, got {n}")
    if n == 2:
        M = resolution + 1
        theta = 2.0 * math.pi * np.arange(M) / M
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(M, 1.0 / M)
        return QuadratureRule(nodes, weights, ("sphere", 2))
    # polar cosine t: x = (sqrt(1-t^2) * y, t) with y on the sphere in R^(n-1)
    npolar = (resolution + 2) // 2
    t, wt = _gauss_jacobi(npolar, (n - 3) / 2.0, (n - 3) / 2.0)
    sub = sphere_rule(n - 1, resolution)
    sint = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    nodes = np.concatenate(
        [
            sint[:, None, None] * sub.nodes[None, :, :],
            np.broadcast_to(t[:, None, None], (t.size, sub.nodes.shape[0], 1)),
        ],
        axis=2,
    ).reshape(-1, n)
    weights = (wt[:, None] * sub.weights[None, :]).reshape(-1)
    weights = weights / weights.sum()
    return QuadratureRule(nodes, weights, ("sphere", n))


def zonal_sphere_integral(n, phi, resolution):
    """Integral over the sphere of phi(<x', e>) under normalized measure.

    Reduces by rotation invariance to a one-dimensional Gauss integral in
    the cosine, c_n int_-1^1 phi(t) (1-t^2)^((n-3)/2) dt, with c_n fixed
    so that phi == 1 integrates to 1 (for n = 2 this is the angular mean).
    """
    if n < 2:
        raise DomainError(f"dim must be >= 2, got {n}")
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    t, w = _gauss_jacobi(resolution, (n - 3) / 2.0, (n - 3) / 2.0)
    vals = np.asarray(phi(t), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand returned non-finite values")
    return float((w * vals).sum() / w.sum())


@dataclass(frozen=True)
class SpaceParams:
    """Mixed-norm space parameters (p, q, alpha) plus a weight convention.

    convention = "definition": radial weight (1 - r^2)^alpha r^(n-1) dr,
    needing alpha > -1.  convention = "theorem": (1 - r)^(alpha*p - 1)
    r^(n-1) dr, needing alpha * p > 0, the weighting under which the
    multiplier criterion is formulated.
    """

    p: float
    q: float
    alpha: float
    convention: str = "definition"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p, self.q, self.alpha))):
            raise DomainError(
                f"p, q and alpha must be finite, got p={self.p}, q={self.q}, alpha={self.alpha}"
            )
        if self.p <= 0 or self.q <= 0:
            raise DomainError(f"p and q must be positive, got p={self.p}, q={self.q}")
        if self.convention == "definition":
            if self.alpha <= -1.0:
                raise DomainError(f"alpha must be > -1, got {self.alpha}")
        elif self.convention == "theorem":
            if self.alpha * self.p <= 0.0:
                raise DomainError(
                    f"theorem convention needs alpha*p > 0, got {self.alpha * self.p}"
                )
        else:
            raise DomainError(f"convention must be 'definition' or 'theorem', got {self.convention!r}")

    @property
    def radial_weight_exponent(self):
        """Exponent s of the Jacobi factor (1-r)^s absorbed by the rule."""
        if self.convention == "definition":
            return self.alpha
        return self.alpha * self.p - 1.0

    def radial_extra_factor(self, r):
        """Residual smooth factor of the weight beyond (1-r)^s, without r^(n-1)."""
        if self.convention == "definition":
            return (1.0 + r) ** self.alpha
        return np.ones_like(np.asarray(r, dtype=float))


def _zonal_power_profile(dim, coeffs, q, radii, rtol=1e-10):
    """int |f(r x')|^q dx' at each radius r, for the zonal series f with the
    given coefficients, by the adaptive one-dimensional reduction; the
    radii are batched as ``_zonalseries`` sets out."""
    k = np.arange(len(coeffs), dtype=float)
    return np.array(_zonal_abs_power_means(dim, (coeffs * r**k for r in radii), q, rtol))


def _power_profile(f, q, radii, rule):
    """int |f(r x')|^q dx' at each radius r: the adaptive zonal reduction
    for a zonal f, the sphere rule for a full f (rule is unused for zonal)."""
    if f.kind == "zonal":
        return _zonal_power_profile(f.dim, f.coeffs, q, radii)
    values = _radial_values(f, radii, rule.nodes)
    return np.array([(rule.weights * np.abs(v) ** q).sum() for v in values])


def _q_roots(profile, q):
    """M_q from the profile int |f(r x')|^q dx'.  The root is taken in
    scalar arithmetic: numpy's vector power rounds differently."""
    return np.array([v ** (1.0 / q) for v in profile.tolist()])


def _q_means(f, q, radii, rule):
    """M_q(f, r) at each radius."""
    return _q_roots(_power_profile(f, q, radii, rule), q)


def _sphere_rule_for(f, resolution):
    """The sphere rule a full expansion's profile needs; None for zonal f."""
    return sphere_rule(f.dim, resolution) if f.kind == "full" else None


def mean_norm(f, q, r, rule):
    """Spherical q-mean M_q(f, r) = ( int |f(r x')|^q dx' )^(1/q).

    q = inf takes the maximum over the rule nodes.  Zonal expansions with
    finite q are reduced to an adaptively integrated one-dimensional
    integral (the rule still supplies the nodes for q = inf); full
    expansions are integrated with the supplied rule.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if rule.domain_tag != ("sphere", f.dim):
        raise DomainError(
            f"rule domain {rule.domain_tag} does not match an expansion in dim {f.dim}"
        )
    if q == math.inf:
        vals = np.abs(evaluate(f, r, rule.nodes))
        return float(vals.max())
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    return float(_q_means(f, q, [r], rule)[0])


def _default_sphere_res(f):
    """Sphere resolution of a mixed norm when none is given."""
    return max(2 * f.max_degree + 2, 8)


def _mixed_norm_levels(f, params, radial_N, sphere_res):
    """(coarse, fine, fine profile): the mixed-norm values at consecutive
    refinement levels, ( int_0^1 M_q(f, r)^p w(r) r^(n-1) dr )^(1/p) on
    each, and the fine level's ``_power_profile``, which is the direct
    p-norm's at the same level when p = q."""

    def level(N, res):
        rule = radial_rule(params.radial_weight_exponent, N)
        r = rule.nodes
        profile = _power_profile(f, params.q, r, _sphere_rule_for(f, res))
        means = _q_roots(profile, params.q)
        integrand = means**params.p * params.radial_extra_factor(r) * r ** (f.dim - 1)
        return float((rule.weights * integrand).sum()) ** (1.0 / params.p), profile

    coarse, _ = level(radial_N, sphere_res)
    return (coarse, *level(2 * radial_N, 2 * sphere_res))


def _direct_pnorm(f, params, radial_N, res, inners=None):
    """Direct double-integral norm of the weighted p-space (p = q).
    ``inners`` is the ``_power_profile`` at this level's radial nodes when
    the caller has it already."""
    rule = radial_rule(params.radial_weight_exponent, radial_N)
    if inners is None:
        inners = _power_profile(f, params.p, rule.nodes, _sphere_rule_for(f, res))
    total = 0.0
    for r, w, inner in zip(rule.nodes, rule.weights, inners):
        total += w * inner * float(params.radial_extra_factor(r)) * r ** (f.dim - 1)
    return total ** (1.0 / params.p)


def _checked_norm_levels(coarse, fine, rtol=NORM_RTOL):
    """The fine mixed-norm level, once it agrees with the coarse one."""
    if not _levels_agree(coarse, fine, rtol):
        raise AccuracyError("mixed norm refinement disagreement", coarse, fine, rtol)
    return fine


def mixed_norm(f, params, radial_N=48, sphere_res=None, accuracy_rtol=NORM_RTOL):
    """Mixed norm of the expansion under the given space parameters.

    Computed at two refinement levels (doubling both the radial rule and
    the spherical resolution); if the levels disagree by more than
    accuracy_rtol relatively, an AccuracyError carrying both values is
    raised.  For p = q this agrees with the direct double-integral norm of
    the weighted p-space by construction of the quadrature.
    """
    if radial_N < 1:
        raise DomainError(f"radial_N must be >= 1, got {radial_N}")
    if sphere_res is None:
        sphere_res = _default_sphere_res(f)
    coarse, fine, _ = _mixed_norm_levels(f, params, radial_N, sphere_res)
    return _checked_norm_levels(coarse, fine, accuracy_rtol)
