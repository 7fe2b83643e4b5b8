"""Coefficient representation of harmonic functions on the unit ball.

A harmonic function on the ball is stored through the coefficients of its
spherical-harmonic expansion f(r x') = sum_k r^k sum_j c_k^(j) y_j^(k)(x').
Two kinds are supported:

* ``zonal`` -- rotation-invariant about a pole: one coefficient per degree,
  f(r x') = sum_k r^k c_k Z_k(<pole, x'>).  Works in any dimension n >= 2.
* ``full``  -- one coefficient per basis function, available for n in
  {2, 3} where explicit real orthonormal bases are implemented.

The bases are orthonormal under NORMALIZED surface measure.  For n = 2 the
degree-k block is (sqrt(2) cos k*theta, sqrt(2) sin k*theta); for n = 3 it
consists of the real spherical harmonics ordered by azimuthal index
-k, ..., k and scaled by sqrt(4*pi) relative to the unit-measure-on-4pi
convention, built for all degrees at once by the fully normalized
associated-Legendre recurrence.  Under this normalization the degree-k
addition sum equals d_k = sph_dim(n, k) and the Poisson kernel has the
closed form (1 - r^2)/|x - y'|^n with no area factor.

Operators: pointwise evaluation, coefficientwise convolution, multiplier
application, the fractional radial derivative of order m + 1, the Poisson
kernel, the Bergman-type kernel of order m (coefficients 2 gamma_k), and a
guaranteed truncation-degree bound for both kernels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import reports
from .errors import (
    DomainError,
    IncompatibleExpansionError,
    UnsupportedBasisError,
)
from .specfun import _log_lambda_coeff, _sph_dim_array, lambda_coeff, sph_dim
from ._zonalseries import zonal_series_values

__all__ = [
    "DEGREE_CAP",
    "HarmonicExpansion",
    "MultiplierSequence",
    "KernelSpec",
    "basis_value",
    "evaluate",
    "convolve",
    "apply_multiplier",
    "frac_derivative",
    "poisson",
    "q_kernel",
    "tail_degree",
    "save_expansion",
    "load_expansion",
    "save_multiplier",
    "load_multiplier",
]

# Construction cap on expansion degree.  Keeps r^k, gamma_k and the basis
# evaluations comfortably inside double precision on the radial grids used
# by the norm and kernel routines; series needed beyond this cap (deep
# boundary asymptotics) are handled by the multiplier engine on plain
# coefficient arrays, not through this type.
DEGREE_CAP = 2048


def _frozen_floats(values, what):
    """A read-only float copy of values."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must hold numbers only") from None
    arr.flags.writeable = False
    return arr


def _as_unit_vector(pole, dim, what="pole"):
    pole = _frozen_floats(pole, what)
    if pole.shape != (dim,):
        raise DomainError(f"{what} must be a vector of length {dim}")
    norm = float(np.linalg.norm(pole))
    if not abs(norm - 1.0) <= 1e-12:  # also rejects a NaN pole
        raise DomainError(f"{what} must be a unit vector, |{what}| = {norm!r}")
    return pole


_SEQUENCE = (list, tuple, np.ndarray)


def _validate_blocks(dim, kind, coeffs):
    """Coerce coefficients to the canonical layout and check block lengths."""
    if kind == "zonal":
        if not isinstance(coeffs, _SEQUENCE):
            raise DomainError("zonal coefficients must be a nonempty flat sequence")
        arr = _frozen_floats(coeffs, "zonal coefficients")
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("zonal coefficients must be a nonempty flat sequence")
        if not np.all(np.isfinite(arr)):
            raise DomainError("zonal coefficients must be finite")
        return arr
    if kind == "full":
        if dim not in (2, 3):
            raise UnsupportedBasisError(
                f"full expansions require dim in {{2, 3}}, got {dim}"
            )
        if not isinstance(coeffs, _SEQUENCE):
            raise DomainError("full coefficients must be a sequence of blocks")
        blocks = []
        for k, block in enumerate(coeffs):
            if not isinstance(block, _SEQUENCE):
                raise DomainError(f"block {k} must be a sequence of d_{k} coefficients")
            arr = _frozen_floats(block, f"block {k}")
            d_k = sph_dim(dim, k)
            if arr.shape != (d_k,):
                raise DomainError(
                    f"block {k} has length {arr.size}, expected d_{k} = {d_k}"
                )
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"block {k} has non-finite coefficients")
            blocks.append(arr)
        if not blocks:
            raise DomainError("full coefficients must contain at least block 0")
        return tuple(blocks)
    raise DomainError(f"kind must be 'zonal' or 'full', got {kind!r}")


@dataclass(frozen=True)
class HarmonicExpansion:
    """Truncated spherical-harmonic expansion of a harmonic function."""

    dim: int
    kind: str
    coeffs: object
    pole: object = None

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")
        object.__setattr__(self, "coeffs", _validate_blocks(self.dim, self.kind, self.coeffs))
        if self.kind == "zonal":
            if self.pole is None:
                raise DomainError("zonal expansions require a pole")
            object.__setattr__(self, "pole", _as_unit_vector(self.pole, self.dim))
        elif self.pole is not None:
            raise DomainError("full expansions carry no pole")
        if self.max_degree > DEGREE_CAP:
            raise DomainError(
                f"max degree {self.max_degree} exceeds the construction cap {DEGREE_CAP}"
            )

    @property
    def max_degree(self):
        if self.kind == "zonal":
            return self.coeffs.size - 1
        return len(self.coeffs) - 1

    def scaled(self, factors):
        """New expansion with block k multiplied by factors[k]."""
        factors = np.asarray(factors, dtype=float)
        if self.kind == "zonal":
            return HarmonicExpansion(self.dim, "zonal", self.coeffs * factors, self.pole)
        blocks = [b * factors[k] for k, b in enumerate(self.coeffs)]
        return HarmonicExpansion(self.dim, "full", blocks)


@dataclass(frozen=True)
class MultiplierSequence:
    """Candidate coefficient multiplier, in the same block layout."""

    dim: int
    kind: str
    values: object

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")
        object.__setattr__(self, "values", _validate_blocks(self.dim, self.kind, self.values))
        if self.max_degree > DEGREE_CAP:
            raise DomainError(
                f"max degree {self.max_degree} exceeds the construction cap {DEGREE_CAP}"
            )

    @property
    def max_degree(self):
        if self.kind == "zonal":
            return self.values.size - 1
        return len(self.values) - 1

    @classmethod
    def ones(cls, dim, max_degree, kind="zonal"):
        if kind == "zonal":
            return cls(dim, "zonal", np.ones(max_degree + 1))
        return cls(dim, "full", [np.ones(sph_dim(dim, k)) for k in range(max_degree + 1)])


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of a zonal reproducing kernel expansion."""

    dim: int
    pole: object
    max_degree: int
    order: float = field(default=0.0)

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")
        if self.order <= -1.0:
            raise DomainError(f"kernel order must be > -1, got {self.order}")
        if not 0 <= self.max_degree <= DEGREE_CAP:
            raise DomainError(
                f"max_degree must lie in [0, {DEGREE_CAP}], got {self.max_degree}"
            )
        object.__setattr__(self, "pole", _as_unit_vector(self.pole, self.dim))


# ---------------------------------------------------------------------------
# orthonormal bases for n = 2, 3
# ---------------------------------------------------------------------------


def _basis_matrix(dim, max_degree, points):
    """Values of the orthonormal basis at unit vectors, shape (M, sum_k d_k).

    points: array of shape (M, dim).  Block k fills the d_k columns from
    sum_(i<k) d_i on (k^2 for n = 3), ordered as in ``basis_value``.

    For n = 3 the block is sqrt(2 - delta_m0) Pbar_k^m(cos theta) times
    sin(m phi) (index -m) or cos(m phi) (index m), where Pbar_k^m =
    sqrt((2k+1)(k-m)!/(k+m)!) P_k^m carries the Condon-Shortley sign.  It is
    built one order m at a time by the fully normalized recurrence
    (Holmes & Featherstone, J. Geodesy 76, 2002):

        Pbar_m^m     = -sqrt((2m+1)/(2m)) sin(theta) Pbar_(m-1)^(m-1),
        Pbar_(m+1)^m = sqrt(2m+3) cos(theta) Pbar_m^m,
        Pbar_k^m     = a_km cos(theta) Pbar_(k-1)^m - b_km Pbar_(k-2)^m.

    The sectoral seeds fall like sin(theta)^m, so the recurrence carries a
    factor 2^900 (exact in binary) that keeps them normal up to DEGREE_CAP
    and is divided out as each column is written.  The n = 3 matrix is the
    transpose of a buffer filled one contiguous row per column: strided
    column writes into a row-major matrix cost more than the recurrence.
    """
    points = np.asarray(points, dtype=float)
    M = points.shape[0]
    if dim == 2:
        theta = np.arctan2(points[:, 1], points[:, 0])
        out = np.empty((M, 2 * max_degree + 1))
        out[:, 0] = 1.0
        for k in range(1, max_degree + 1):
            out[:, 2 * k - 1] = math.sqrt(2.0) * np.cos(k * theta)
            out[:, 2 * k] = math.sqrt(2.0) * np.sin(k * theta)
        return out
    if dim != 3:
        raise UnsupportedBasisError(f"explicit bases exist only for dim 2 and 3, got {dim}")
    cos_theta = np.clip(points[:, 2], -1.0, 1.0)
    sin_theta = np.hypot(points[:, 0], points[:, 1])
    phi = np.arctan2(points[:, 1], points[:, 0])
    scale = 2.0**900
    out = np.empty(((max_degree + 1) ** 2, M))
    sectoral = np.full(M, scale)
    for m in range(max_degree + 1):
        if m:
            sectoral = -math.sqrt((2 * m + 1) / (2 * m)) * sin_theta * sectoral
            cos_m = (math.sqrt(2.0) / scale) * np.cos(m * phi)
            sin_m = (math.sqrt(2.0) / scale) * np.sin(m * phi)
        prev, cur = None, sectoral
        for k in range(m, max_degree + 1):
            if k == m + 1:
                prev, cur = cur, math.sqrt(2 * m + 3) * cos_theta * cur
            elif k > m + 1:
                a = math.sqrt((2 * k - 1) * (2 * k + 1) / ((k - m) * (k + m)))
                b = math.sqrt(
                    (2 * k + 1) * (k + m - 1) * (k - m - 1) / ((k - m) * (k + m) * (2 * k - 3))
                )
                prev, cur = cur, a * cos_theta * cur - b * prev
            zonal = k * k + k
            if m:
                np.multiply(cur, cos_m, out=out[zonal + m])
                np.multiply(cur, sin_m, out=out[zonal - m])
            else:
                np.multiply(cur, 1.0 / scale, out=out[zonal])
    return out.T


def _basis_blocks(dim, max_degree, point):
    """The basis blocks of degrees 0..max_degree at one unit vector, as
    views of one ``_basis_matrix`` row."""
    row = _basis_matrix(dim, max_degree, np.asarray(point, dtype=float).reshape(1, -1))[0]
    ends = np.cumsum([sph_dim(dim, k) for k in range(max_degree + 1)])
    return np.split(row, ends[:-1])


def basis_value(n, k, j, point):
    """Value of the j-th (1-based) orthonormal spherical harmonic of
    degree k at a unit vector, n in {2, 3}.

    Ordering: n = 2 -> (sqrt(2) cos k*theta, sqrt(2) sin k*theta) with the
    constant 1 at k = 0; n = 3 -> real spherical harmonics by azimuthal
    index -k..k (sine branch, zonal, cosine branch).
    """
    d_k = sph_dim(n, k)
    if not 1 <= j <= d_k:
        raise IndexError(f"j = {j} outside block range [1, {d_k}] at degree {k}")
    point = np.asarray(point, dtype=float).reshape(1, -1)
    if point.shape[1] != n:
        raise DomainError(f"point must have {n} components")
    if abs(np.linalg.norm(point) - 1.0) > 1e-8:
        raise DomainError("point must be a unit vector")
    return float(_basis_blocks(n, k, point)[k][j - 1])


def _per_entry(blocks, per_degree):
    """per_degree[k] repeated over the entries of block k."""
    return np.repeat(per_degree, [b.size for b in blocks])


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _radial_values(f, radii, points):
    """f(r x') at the unit vectors ``points`` (M, dim), one array per radius.

    A full expansion's basis at the points is built once; each radius is
    then one matrix-vector product.
    """
    k = np.arange(f.max_degree + 1, dtype=float)
    if f.kind == "zonal":
        t = points @ f.pole
        return [zonal_series_values(f.dim, f.coeffs * r**k, t) for r in radii]
    basis = _basis_matrix(f.dim, f.max_degree, points)
    coeffs = np.concatenate(f.coeffs)
    return [basis @ (coeffs * _per_entry(f.coeffs, r**k)) for r in radii]


def evaluate(f, r, direction):
    """Evaluate the expansion at radius r in [0, 1) and unit direction(s).

    direction may be a single vector of length dim or an array (M, dim);
    the return matches (scalar or length-M array).
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    direction = np.asarray(direction, dtype=float)
    scalar = direction.ndim == 1
    pts = np.atleast_2d(direction)
    if pts.shape[1] != f.dim:
        raise DomainError(f"direction must have {f.dim} components")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise DomainError("directions must be unit vectors")
    out = _radial_values(f, [r], pts)[0]
    return float(out[0]) if scalar else out


def _check_compatible(f, g, what):
    if f.dim != g.dim:
        raise IncompatibleExpansionError(f"{what}: dimension mismatch {f.dim} != {g.dim}")
    if f.kind != g.kind:
        raise IncompatibleExpansionError(f"{what}: kind mismatch {f.kind} != {g.kind}")
    fp = getattr(f, "pole", None)
    gp = getattr(g, "pole", None)
    if fp is not None and gp is not None and not np.allclose(fp, gp, atol=1e-12):
        raise IncompatibleExpansionError(f"{what}: pole mismatch")


def convolve(f, g):
    """Coefficientwise (Hadamard) product of two expansions.

    Same dim, kind and (for zonal) pole are required; the result is
    truncated to the smaller degree.
    """
    _check_compatible(f, g, "convolve")
    K = min(f.max_degree, g.max_degree)
    if f.kind == "zonal":
        return HarmonicExpansion(f.dim, "zonal", f.coeffs[: K + 1] * g.coeffs[: K + 1], f.pole)
    blocks = [f.coeffs[k] * g.coeffs[k] for k in range(K + 1)]
    return HarmonicExpansion(f.dim, "full", blocks)


def apply_multiplier(c, f):
    """Apply a coefficient multiplier to an expansion.

    A zonal multiplier applied to a full expansion broadcasts c_k across
    the degree-k block.  The result is truncated to the smaller degree.
    """
    if c.dim != f.dim:
        raise IncompatibleExpansionError(
            f"apply_multiplier: dimension mismatch {c.dim} != {f.dim}"
        )
    if c.kind == "full" and f.kind == "zonal":
        raise IncompatibleExpansionError(
            "a full multiplier cannot act on a zonal expansion"
        )
    K = min(c.max_degree, f.max_degree)
    if f.kind == "zonal":
        return HarmonicExpansion(f.dim, "zonal", c.values[: K + 1] * f.coeffs[: K + 1], f.pole)
    blocks = [f.coeffs[k] * c.values[k] for k in range(K + 1)]
    return HarmonicExpansion(f.dim, "full", blocks)


def frac_derivative(f, m):
    """Fractional radial derivative of order m + 1: block k is multiplied
    by gamma_k = Gamma(k + n/2 + m + 1)/(Gamma(k + n/2) Gamma(m + 1))."""
    if m <= -1.0:
        raise DomainError(f"order must be > -1, got {m}")
    k = np.arange(f.max_degree + 1)
    return f.scaled(lambda_coeff(f.dim, k, m))


def poisson(spec):
    """Poisson kernel as a zonal expansion: all coefficients 1.

    Truncates the closed form (1 - r^2)/|r x' - pole|^n; the order field
    of the spec is ignored.
    """
    return HarmonicExpansion(
        spec.dim, "zonal", np.ones(spec.max_degree + 1), spec.pole
    )


def q_kernel(spec):
    """Bergman-type kernel of order m: zonal coefficients 2 gamma_k(n, m).

    Equals the order-(m+1) fractional derivative of the Poisson kernel
    scaled by 2.
    """
    k = np.arange(spec.max_degree + 1)
    coeffs = 2.0 * lambda_coeff(spec.dim, k, spec.order)
    return HarmonicExpansion(spec.dim, "zonal", coeffs, spec.pole)


def _kernel_log_terms(kind, n, m, kmax, r):
    """log of coeff_k * d_k * r^k for the named kernel families, 0 < r < 1."""
    k = np.arange(kmax + 1, dtype=float)
    logs = np.log(_sph_dim_array(n, kmax)) + k * math.log(r)
    if kind == "q_kernel":
        logs = logs + math.log(2.0) + _log_lambda_coeff(n, k, m)
    elif kind != "poisson":
        raise DomainError(f"unknown kernel kind {kind!r}")
    return logs


def _truncation_degree(log_terms, n, r, growth, log_tol, relative, cap):
    """First K whose geometric bound on the terms after K is below
    exp(log_tol), or below that fraction of the peak term when relative;
    None once the search has passed the degree cap.

    log_terms(kmax) gives the log term sizes for k = 0..kmax.  The ratio
    r (1 + growth/(k + 1 + n/2)) (1 + (n - 1)/(k + 1)) dominates every
    later term ratio, so once it is safely below 1 the tail is at most the
    first omitted term over (1 - ratio).  Past that point the terms fall,
    so the peak is already inside the window at the first hit and K does
    not depend on the starting window.
    """
    kmax = 64
    while True:
        logs = log_terms(kmax)
        k = np.arange(kmax, dtype=float)  # candidate K values 0..kmax-1
        ratio = r * (1.0 + growth / (k + 1.0 + n / 2.0)) * (1.0 + (n - 1.0) / (k + 1.0))
        usable = ratio < 1.0 - 0.25 * (1.0 - r)
        threshold = log_tol + logs.max() if relative else log_tol
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = usable & (logs[1:] - np.log1p(-np.where(usable, ratio, 0.5)) < threshold)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return int(hits[0])
        if kmax >= cap:
            return None
        kmax *= 2


def tail_degree(kind, n, r_max, tol, m=None):
    """Smallest K whose guaranteed tail bound is below tol.

    The bound is sum_{k>K} coeff_k d_k r_max^k < tol with |Z_k| <= d_k,
    estimated by the first omitted term times a geometric factor whose
    ratio dominates every later term ratio.  Evaluating the series to this
    K keeps the truncation error below tol everywhere in |x| <= r_max.

    kind is "poisson" or "q_kernel" (the latter requires the order m).
    """
    if not 0.0 < r_max < 1.0:
        raise DomainError(f"r_max must lie in (0, 1), got {r_max}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if kind == "q_kernel":
        if m is None or m <= -1.0:
            raise DomainError("q_kernel tail degree requires an order m > -1")
        growth = m + 1.0
    elif kind == "poisson":
        m, growth = 0.0, 0.0
    else:
        raise DomainError(f"unknown kernel kind {kind!r}")
    K = _truncation_degree(
        lambda kmax: _kernel_log_terms(kind, n, m, kmax, r_max),
        n, r_max, growth, math.log(tol), relative=False, cap=4_000_000,
    )
    if K is None:
        raise DomainError(
            f"tail bound cannot reach tol={tol:g} at r_max={r_max:g} within supported degrees"
        )
    return K


# ---------------------------------------------------------------------------
# coefficient file format
# ---------------------------------------------------------------------------


def _coeff_payload(dim, kind, coeffs, pole):
    payload = {"dim": dim, "kind": kind}
    if pole is not None:
        payload["pole"] = [float(v) for v in pole]
    if kind == "zonal":
        payload["coeffs"] = [float(v) for v in coeffs]
    else:
        payload["coeffs"] = [[float(v) for v in block] for block in coeffs]
    return payload


def save_expansion(f, path):
    """Write an expansion to a coefficient file (17-digit decimal floats,
    bit-exact on reload)."""
    reports.dump_to(path, _coeff_payload(f.dim, f.kind, f.coeffs, f.pole))


def _require_fields(payload, what):
    """Check the fields every coefficient file has; return its integer dim."""
    if not isinstance(payload, dict):
        raise DomainError(f"{what} file must hold a JSON object")
    for key in ("dim", "kind", "coeffs"):
        if key not in payload:
            raise DomainError(f"{what} file is missing the field {key!r}")
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise DomainError(f"{what} file field 'dim' must be an integer, got {dim!r}")
    return dim


def load_expansion(path):
    payload = reports.load_from(path)
    return expansion_from_payload(payload)


def expansion_from_payload(payload):
    dim = _require_fields(payload, "coefficient")
    kind = payload["kind"]
    pole = payload.get("pole")
    if kind == "zonal" and pole is None:
        raise DomainError("coefficient file with kind 'zonal' is missing the field 'pole'")
    return HarmonicExpansion(dim, kind, payload["coeffs"], pole)


def save_multiplier(c, path):
    """Write a multiplier sequence; same schema as expansions, no pole."""
    reports.dump_to(path, _coeff_payload(c.dim, c.kind, c.values, None))


def load_multiplier(path):
    payload = reports.load_from(path)
    dim = _require_fields(payload, "multiplier")
    return MultiplierSequence(dim, payload["kind"], payload["coeffs"])
