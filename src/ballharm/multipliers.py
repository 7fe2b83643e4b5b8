"""Numerical certification of coefficient multipliers between weighted
harmonic mixed-norm spaces with spherical exponent one.

For a candidate zonal multiplier {c_k} and parameters (p, alpha, beta, m)
the membership criterion is the boundedness, as rho -> 1, of

    Phi(rho) = (1 - rho)^(m + 1 - alpha + beta) * I(rho),
    I(rho)   = integral over the sphere of
               | sum_k gamma_k c_k rho^k Z_k(<x', y'>) | dx',

where gamma_k is the fractional-derivative coefficient (the integrand is
the order-(m+1) radial derivative of the multiplier's convolution with the
Poisson kernel).  For zonal sequences I(rho) is direction independent.

Two independent procedures are provided and cross-checked:

* ``condition2_sup``     evaluates I on a geometric radius grid, fits the
  growth exponent of log I against log(1/(1-rho)), and declares the
  criterion bounded when the fitted exponent of Phi stays below a small
  threshold and the deepest Phi values are non-increasing.
* ``probe_operator_norm`` lower-bounds the operator norm directly with a
  family of probe functions (Bergman-kernel probes pushed toward the
  boundary, or random polynomials of growing degree) and fits the growth
  of the norm ratios.

``equivalence_verdict`` renders PASS when the two verdicts agree.

Both read one growth function per (n, m, family, rtol), kept for the life
of the process (``_growth_curve``): each I(s) is computed once, at s itself.
``condition2_sup`` reads those values at its grid radii; the qm-kernel
probe reads a log-log not-a-knot cubic spline through them
(``_not_a_knot_spline``), built once per ladder depth, and reads its
radii below the ladder at s itself.

The curve computes the I(s) it lacks in one ``_growth_integrals`` call,
which picks one of two routes per radius from the input alone.  The named
families ``ones`` and ``powerlaw:t`` at integer m >= 0 have a closed-form
kernel, which ``_growth_kernel`` returns for this route and for lemma 1:
Taylor ("jet") arithmetic on the m+1-th derivative of the Poisson kernel
for ``ones``, and for ``powerlaw:t`` a mixture of those kernels at s e^-u
under a graded u-rule.  It costs the same at any depth, so it takes
every I(s) whose series would need more than ``_CLOSED_TERMS`` terms, grid
levels j = 11..14 past the series' degree cap among them, one adaptive
loop per radius.  All else sums the truncated zonal series, batched as
``_zonalseries`` sets out.

Boundedness decisions use fixed documented thresholds: the criterion slope
threshold 0.02 with a 1% non-increase test on the last three Phi values,
and the probe slope threshold 0.05.  Exponent fits use the deepest
max(4, half) grid points, where the asymptotic regime is settled.  All
probes and grids are deterministic given the seed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, UsageError
from .expansion import (
    HarmonicExpansion,
    MultiplierSequence,
    _as_unit_vector,
    _basis_matrix,
    _per_entry,
    _truncation_degree,
)
from .quadrature import _settle_by_doubling, _zonal_power_profile, radial_rule, sphere_rule
from .specfun import _gauss_jacobi, _log_lambda_coeff, _sph_dim_array
from ._zonalseries import _abs_power_mean, _zonal_abs_power_means, zonal_series_values

__all__ = [
    "TheoremParams",
    "Condition2Report",
    "ProbeReport",
    "CheckReport",
    "multiplier_family",
    "ZonalFamily",
    "condition2_integral",
    "condition2_sup",
    "probe_operator_norm",
    "equivalence_verdict",
]

# decision thresholds (documented contract of the verdicts)
PHI_SLOPE_BOUNDED = 0.02
PHI_TAIL_RATIO = 1.01
PROBE_SLOPE_UNBOUNDED = 0.05

_SERIES_DEGREE_CAP = 500_000
# growth series of more terms than this take the closed-form kernel where
# the family has one; a power of two, as a ``_series_degrees`` cap must be
_CLOSED_TERMS = 256
# first mesh panel of a closed-form growth integral, in units of 1 - s,
# and the share of rtol its adaptive loop asks for: the kernel is cheap,
# and at rtol itself the kinks of |G| at its zeros leave errors up to
# rtol/4, above the series route's at some radii
_CLOSED_MESH = 0.25
_CLOSED_RTOL = 0.01

# seed of every seeded probe, lemma suite and selftest unless one is given
DEFAULT_SEED = 1789


@dataclass(frozen=True)
class TheoremParams:
    """Hypothesis window of the multiplier criterion.

    Requires 0 < p <= 1, alpha in (0, 1), beta > 0, and
    m > max(alpha - 1, 1/p - 1); dim >= 2.
    """

    p: float
    alpha: float
    beta: float
    m: float
    dim: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p, self.alpha, self.beta, self.m))):
            raise DomainError(
                f"p, alpha, beta and m must be finite, got p={self.p}, "
                f"alpha={self.alpha}, beta={self.beta}, m={self.m}"
            )
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"requires 0 < p <= 1, got p = {self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"requires alpha in (0, 1), got alpha = {self.alpha}")
        if self.beta <= 0.0:
            raise DomainError(f"requires beta > 0, got beta = {self.beta}")
        floor = max(self.alpha - 1.0, 1.0 / self.p - 1.0)
        if self.m <= floor:
            raise DomainError(
                f"requires m > max(alpha - 1, 1/p - 1) = {floor}, got m = {self.m}"
            )
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")

    @property
    def phi_weight_exponent(self):
        return self.m + 1.0 - self.alpha + self.beta


# ---------------------------------------------------------------------------
# multiplier families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZonalFamily:
    """A zonal coefficient sequence c_k available at every degree.

    ``finite_degree`` marks sequences that vanish beyond a degree; for
    infinite families |c_k| is assumed non-increasing (true of the named
    families), which the truncation bound relies on.
    """

    name: str
    key: tuple
    finite_degree: object = None
    _fn: object = field(default=None, repr=False, compare=False)

    def values(self, kmax):
        k = np.arange(kmax + 1, dtype=float)
        vals = self._fn(k)
        return np.asarray(vals, dtype=float)


def _family_ones():
    return ZonalFamily("ones", ("ones",), None, lambda k: np.ones_like(k))


def _family_from_values(values, name="sequence"):
    values = np.asarray(values, dtype=float)
    key = ("seq",) + tuple(float(v) for v in values)
    Kf = values.size - 1

    def fn(k):
        k_int = k.astype(int)
        return np.where(k_int <= Kf, values[np.minimum(k_int, Kf)], 0.0)

    return ZonalFamily(name, key, Kf, fn)


def multiplier_family(spec):
    """Parse a named family: ``ones``, ``powerlaw:t``, or ``finite:K``."""
    if spec == "ones":
        return _family_ones()
    if spec.startswith("powerlaw:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad power-law exponent in {spec!r}") from None
        if not (math.isfinite(t) and t >= 0):
            raise DomainError(f"power-law family requires a finite nonnegative exponent, got {t:g}")
        return ZonalFamily(f"powerlaw:{t:g}", ("powerlaw", t), None, lambda k: (k + 1.0) ** (-t))
    if spec.startswith("finite:"):
        try:
            K = int(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad cutoff degree in {spec!r}") from None
        if not 0 <= K <= _SERIES_DEGREE_CAP:
            raise DomainError(
                f"finite family requires a degree in 0..{_SERIES_DEGREE_CAP}, got {K}"
            )
        return ZonalFamily(f"finite:{K}", ("finite", K), K, lambda k: (k <= K).astype(float))
    raise DomainError(f"unknown multiplier family {spec!r}")


def _coerce_zonal_family(g):
    """Accept a family, family spec string, zonal multiplier, or zonal
    expansion, and return a ZonalFamily; full-kind inputs return None."""
    if isinstance(g, ZonalFamily):
        return g
    if isinstance(g, str):
        return multiplier_family(g)
    if isinstance(g, MultiplierSequence) and g.kind == "zonal":
        return _family_from_values(g.values, "multiplier")
    if isinstance(g, HarmonicExpansion) and g.kind == "zonal":
        return _family_from_values(g.coeffs, "expansion")
    return None


# ---------------------------------------------------------------------------
# the growth integral I(s) and its cached curve
# ---------------------------------------------------------------------------


def _series_degrees(n, m, family, rtol=1e-7, cap=_SERIES_DEGREE_CAP):
    """Truncation degree of the growth series of I(s) at tolerance rtol, as
    a function of s.

    The peak term exceeds the integral by roughly (1-s)^-(n-1), so the
    tail must stay below that fraction of rtol/10 of the peak term.  Tail
    bound: the omitted terms gamma_k |c_k| d_k s^k are dominated by a
    geometric sequence once s*(1 + (m+1)/(k + n/2))*(1 + (n-1)/(k+1)) < 1,
    using |c| non-increasing (or finite support).

    A ``cap`` below ``_SERIES_DEGREE_CAP``, a power of two, stops the
    search at its window of ``cap`` terms and returns None when K >= cap;
    a K it returns is the full search's, which tries the same windows
    first.  Past the degree cap itself the search raises AccuracyError.
    Its searches share each window's radius-independent log terms and add
    k log s as a lone search does, so each K is the lone search's.
    """
    windows = {}  # kmax -> (k, the log terms but k log s)

    def log_terms(kmax, log_s):
        if kmax not in windows:
            k = np.arange(kmax + 1, dtype=float)
            logs = _log_lambda_coeff(n, k, m)
            logs = logs + np.log(np.maximum(np.abs(family.values(kmax)), 1e-300))
            windows[kmax] = k, logs + np.log(_sph_dim_array(n, kmax))
        k, base = windows[kmax]
        return base + k * log_s

    def degree(s):
        if family.finite_degree is not None:
            return int(family.finite_degree)
        if s <= 0.0:
            return 0
        rel_tol = max(min(rtol, 1e-7) * 1e-1 * (1.0 - s) ** (n - 1), 1e-14)
        log_s = math.log(s)
        terms = lambda kmax: log_terms(kmax, log_s)
        K = _truncation_degree(terms, n, s, m + 1.0, math.log(rel_tol), relative=True, cap=cap)
        if K is None and cap >= _SERIES_DEGREE_CAP:
            raise AccuracyError(
                f"series truncation cannot reach rel_tol={rel_tol:g} at s={s:g} "
                f"within the degree cap {_SERIES_DEGREE_CAP}",
                float("nan"),
                float("nan"),
                rel_tol,
            )
        return K

    return degree


def _ones_kernel(n, m, s, d, sin2):
    """sum_k gamma_k s^k Z_k(cos theta) for c_k = 1 and integer m >= 0, at
    sin2 = sin^2(theta/2), with d = 1 - s given apart to keep its digits;
    s, d and sin2 broadcast.

    The sum is s^(1-n/2)/m! d^(m+1)/ds^(m+1) [s^(n/2+m) P(s, theta)] with
    the Poisson kernel P = (1 - s^2) D^(-n/2), D = d^2 + 4 s sin2.  Taylor
    ("jet") arithmetic to order M = m + 1 in h = r eta, r = sqrt(D), gives
    that derivative exactly: D(s + h) = D (1 - 2 x eta + eta^2) with
    x = (d - 2 sin2) / r in [-1, 1], whose binomial series in eta has the
    Gegenbauer polynomials C_i^(n/2)(x) for coefficients, summed by their
    three-term recurrence as F_i = C_i^(n/2)(x) (s/r)^i.  With
    b_i = binom(n/2 + m, i) from (s + h)^(n/2+m), the kernel is
    M r^-n sum_j F_j [(1 - s^2) b_(M-j) - s^2 (2 b_(M-1-j) + b_(M-2-j))].
    Every factor is O(1) but F, which carries the peak scale (s/r)^j.
    """
    M = int(m) + 1
    lam = n / 2.0
    r2 = d * d + 4.0 * s * sin2
    r = np.sqrt(r2)
    q = s / r
    xq = (d - 2.0 * sin2) / r * q
    qq = q * q
    # binom(n/2 + m, i) for i = 0..M, behind two zeros for b_(-1), b_(-2)
    b = [0.0, 0.0, 1.0]
    for i in range(1, M + 1):
        b.append(b[-1] * (lam + m - i + 1.0) / i)
    one_s2, s2 = d * (2.0 - d), s * s
    f_prev, f = 1.0, 2.0 * lam * xq
    acc = (one_s2 * b[M + 2] - s2 * (2.0 * b[M + 1] + b[M])) * f_prev
    for j in range(1, M + 1):
        if j > 1:
            f_prev, f = f, (2.0 * (j + lam - 1.0) * xq * f - (j + 2.0 * lam - 2.0) * qq * f_prev) / j
        i = M - j
        acc = acc + (one_s2 * b[i + 2] - s2 * (2.0 * b[i + 1] + b[i])) * f
    return M * acc / r2 ** lam


# the power-law u-rule: Gauss nodes per panel, the first panel's width in
# v and the growth and cap of the later widths (the cap narrows for t > 2),
# and the reach in u beyond 2t, where e^-u u^(t-1) / Gamma(t) leaves a
# tail below 1e-16 of gamma_0
_MIXTURE_NODES = 16
_MIXTURE_PANEL = (0.75, 1.5, 2.5)
_MIXTURE_U_CUT = 40.0
# theta x v values of a power-law kernel formed at once
_MIXTURE_CHUNK = 2**14


def _mixture_rule(t, d):
    """Nodes v and log weights of the rule for
    Gamma(t)^-1 int_0^inf u^(t-1) f(u) du = delta^t Gamma(t)^-1
    int_0^inf expm1(v)^(t-1) e^v f(delta expm1(v)) dv, without delta^t:
    a Gauss-Jacobi panel that carries v^(t-1) first, then Gauss-Legendre
    panels of growing width, up to where u = d expm1(v) passes the cut at
    the smallest scale delta = d.  Logs keep large t finite."""
    first, grow, widest = _MIXTURE_PANEL
    # u^(t-1) e^-u has width sqrt(t - 1) at u = t - 1: 1/sqrt(t - 1) in v
    widest /= math.sqrt(max(t - 1.0, 1.0))
    v_max = math.log1p((_MIXTURE_U_CUT + 2.0 * t) / d)
    edges = [0.0, first]
    while edges[-1] < v_max:
        edges.append(edges[-1] + min((edges[-1] - edges[-2]) * grow, widest))
    xj, wj = _gauss_jacobi(_MIXTURE_NODES, 0.0, t - 1.0)
    xl, wl = _gauss_jacobi(_MIXTURE_NODES, 0.0, 0.0)
    v = [0.5 * first * (1.0 + xj)]
    # the Jacobi weights carry v^(t-1): the integrand keeps (expm1(v)/v)^(t-1)
    log_w = [np.log(wj) + t * math.log(0.5 * first) + (t - 1.0) * np.log(np.expm1(v[0]) / v[0])]
    for a, b in zip(edges[1:-1], edges[2:]):
        v.append(a + 0.5 * (b - a) * (1.0 + xl))
        log_w.append(np.log(0.5 * (b - a) * wl) + (t - 1.0) * np.log(np.expm1(v[-1])))
    v = np.concatenate(v)
    return v, np.concatenate(log_w) + v - math.lgamma(t)


def _powerlaw_kernel(n, m, t, s, rule, theta):
    """sum_k gamma_k (k+1)^-t s^k Z_k(cos theta) for t > 0 and integer
    m >= 0: by (k+1)^-t = Gamma(t)^-1 int_0^inf u^(t-1) e^-(k+1)u du, a
    mixture of ``_ones_kernel`` at s e^-u.  That kernel varies in u on the
    scale delta = (1 - s) + 2 sin(theta/2), so u = delta expm1(v) makes the
    integrand smooth in v, integrated by ``rule``, the ``_mixture_rule`` of
    (t, 1 - s); theta x v values are formed ``_MIXTURE_CHUNK`` at a time."""
    d = 1.0 - s
    v, log_w = rule
    em = np.expm1(v)
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    out = np.empty_like(flat)
    step = max(_MIXTURE_CHUNK // v.size, 1)
    for start in range(0, flat.size, step):
        half = 0.5 * flat[start : start + step, None]
        delta = d + 2.0 * np.sin(half)
        u = delta * em
        # 1 - s e^-u, to the digits of d
        kern = _ones_kernel(n, m, s * np.exp(-u), d - s * np.expm1(-u), np.sin(half) ** 2)
        weights = np.exp(log_w + t * np.log(delta) - u)
        out[start : start + step] = (weights * kern).sum(axis=1)
    return out.reshape(theta.shape)


def _has_closed_kernel(m, family):
    """Whether the growth kernel has a closed form: ``ones`` and
    ``powerlaw:t`` at integer m >= 0."""
    return float(m).is_integer() and m >= 0 and family.key[0] in ("ones", "powerlaw")


def _growth_kernel(n, m, family, s):
    """G(theta) = sum_k gamma_k c_k s^k Z_k(cos theta), as a function of
    theta: in closed form where ``_has_closed_kernel``, else the series
    truncated where its tail falls below 1e-14 of the peak term, the
    floor of ``_series_degrees``, which rtol = 0 asks for."""
    if not _has_closed_kernel(m, family):
        series = _growth_series(n, m, family, s, _series_degrees(n, m, family, 0.0)(s))
        return lambda theta: zonal_series_values(n, series, np.cos(theta))
    t = family.key[1] if family.key[0] == "powerlaw" else 0.0
    if t == 0.0:
        d = 1.0 - s
        return lambda theta: _ones_kernel(n, int(m), s, d, np.sin(0.5 * theta) ** 2)
    rule = _mixture_rule(t, 1.0 - s)
    return lambda theta: _powerlaw_kernel(n, int(m), t, s, rule, theta)


def _growth_series(n, m, family, s, K):
    """The zonal coefficients gamma_k c_k s^k, k = 0..K, of I(s)."""
    k = np.arange(K + 1, dtype=float)
    return np.exp(_log_lambda_coeff(n, k, m) + k * math.log(s)) * family.values(K)


def _growth_integrals(n, m, family, radii, rtol=1e-7):
    """I(s), the normalized sphere integral of |sum_k gamma_k c_k s^k Z_k|,
    at each of ``radii``, with the bits of each radius alone; the first
    failing radius raises.  One degree search per radius picks its route:
    ``ones`` and ``powerlaw:t`` at integer m >= 0 take the closed-form
    kernel wherever the series would need more than ``_CLOSED_TERMS``
    terms, where their search stops; all else sums the series truncated
    at the full search's degree.  Consecutive series-route radii go to
    ``_zonal_abs_power_means`` as rows; each closed-route radius takes an
    adaptive loop of its own, at ``_CLOSED_RTOL`` times rtol.
    """
    c0 = float(family.values(0)[0])
    gamma0 = math.exp(_log_lambda_coeff(n, np.array(0.0), m))
    closed = _has_closed_kernel(m, family)
    degree = _series_degrees(n, m, family, rtol, _CLOSED_TERMS if closed else _SERIES_DEGREE_CAP)
    # (route, s, K) per radius, up to a radius whose degree search refuses
    routes, refusal = [], None
    for s in radii:
        try:
            K = 0 if s == 0.0 else degree(s)
        except AccuracyError as err:
            refusal = err
            break
        routes.append(("zero" if s == 0.0 else "closed" if K is None else "series", s, K))
    out = []
    for route, run in itertools.groupby(routes, key=lambda r: r[0]):
        run = [(s, K) for _, s, K in run]
        if route == "zero":
            out += [abs(c0) * gamma0] * len(run)
        elif route == "closed":
            # the peak of G has angular width about 1 - s
            for s, _ in run:
                G, delta = _growth_kernel(n, m, family, s), _CLOSED_MESH * (1.0 - s)
                out += _abs_power_mean(n, lambda theta, _: G(theta), [delta], 1.0, _CLOSED_RTOL * rtol)
        else:
            rows = (_growth_series(n, m, family, s, K) for s, K in run)
            out += _zonal_abs_power_means(n, rows, 1.0, rtol)
    if refusal is not None:
        raise refusal
    return out


def _tridiagonal_solve(lower, diag, upper, rhs):
    """Solution of the tridiagonal system with sub-, main and
    super-diagonals ``lower``, ``diag``, ``upper`` and right side ``rhs``
    (lists of floats, overwritten), which must need no row interchange:
    LAPACK dgtsv's elimination and back substitution for one right side,
    in its operation order, so the bits are its bits."""
    n = len(diag)
    for i in range(n - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] = diag[i + 1] - fact * upper[i]
        rhs[i + 1] = rhs[i + 1] - fact * rhs[i]
        lower[i] = 0.0
    rhs[n - 1] = rhs[n - 1] / diag[n - 1]
    rhs[n - 2] = (rhs[n - 2] - upper[n - 2] * rhs[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1] - lower[i] * rhs[i + 2]) / diag[i]
    return rhs


def _not_a_knot_spline(x, y):
    """The not-a-knot cubic spline through (x, y), for at least 4 strictly
    increasing knots x (de Boor, A Practical Guide to Splines, ch. IV), as
    a (5, len(x) - 1) table: column i holds the left knot x_i and the
    coefficients of the cubic on [x_i, x_i+1] in powers of h = x - x_i,
    constant term first.

    The knot slopes solve the tridiagonal system with scipy's
    ``CubicSpline`` rows, end rows and Hermite coefficients, in its
    operation order, so the coefficients are its bits.  A ladder's system
    needs no row interchange: |diag[0]| = |lower[0]| = dx[1] is a tie,
    which dgtsv takes without one, and every later pivot dominates."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = x.size
    lower, diag, upper, rhs = np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_n-2
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.array(_tridiagonal_solve(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([x[:-1], y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx])


def _spline_values(table, at):
    """The ``_not_a_knot_spline`` table's piecewise cubic at the points
    ``at``, extrapolating the end cubics.  The terms are summed in scipy's
    ``PPoly`` order, c0 + c1 h, then + c2 h^2, then + c3 (h^2 h), so the
    values are its bits."""
    i = table[0, 1:].searchsorted(at, "right")
    x0, c0, c1, c2, c3 = table.take(i, axis=1)
    h = at - x0
    h2 = h * h
    out = c1 * h
    out += c0
    c2 *= h2
    out += c2
    h2 *= h
    h2 *= c3
    out += h2
    return out


class _GrowthCurve:
    """I(s) for one (n, m, family, rtol), each computed once, at s itself.
    ``at`` reads the not-a-knot cubic spline of log I against
    -log(1 - s) through the ladder 1 - s = 2^-j (j = 0.25..1.75 by
    quarters, then 2..J by halves), built once per depth J, or the linear
    interpolant when some ladder value is not positive; it reads radii
    below the ladder at s itself."""

    def __init__(self, n, m, family, rtol):
        self.n, self.m, self.family, self.rtol = n, m, family, rtol
        self._exact = {}
        self._ladders = {}

    def _fill(self, radii):
        """I(s) at each of ``radii``, computing the ones not yet cached in
        one ``_growth_integrals`` call."""
        radii = np.asarray(radii, dtype=float).tolist()
        missing = [s for s in dict.fromkeys(radii) if s not in self._exact]
        if missing:
            values = _growth_integrals(self.n, self.m, self.family, missing, self.rtol)
            self._exact.update(zip(missing, values))
        return [self._exact[s] for s in radii]

    def at(self, s, j_deepest):
        """I(s), interpolated through the ladder up to depth j_deepest."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if j_deepest not in self._ladders:
            js = np.concatenate(
                [np.arange(0.25, 2.0, 0.25), np.arange(2.0, j_deepest + 1e-9, 0.5)]
            )
            s_nodes = 1.0 - 2.0 ** (-js)
            # a new depth's nodes and the radii below the ladder share one fill
            values = self._fill(np.concatenate([s_nodes, s[s < s_nodes[0]]]))
            xi = -np.log1p(-s_nodes)
            ladder = np.array(values[: s_nodes.size])
            # log-log spline unless some value is not positive
            table = _not_a_knot_spline(xi, np.log(ladder)) if np.all(ladder > 0.0) else None
            self._ladders[j_deepest] = (s_nodes[0], xi, ladder, table)
        s_low, xi, ladder, table = self._ladders[j_deepest]
        low = s < s_low
        out = np.empty_like(s)
        out[low] = self._fill(s[low])
        if np.any(~low):
            x = -np.log1p(-s[~low])
            if table is None:
                out[~low] = np.interp(x, xi, ladder)
            else:
                out[~low] = np.exp(_spline_values(table, x))
        return out


# one curve per (n, m, family, rtol), for the life of the process
_CURVE_CACHE = {}


def _growth_curve(n, m, family, rtol=1e-7):
    key = (n, float(m), family.key, float(rtol))
    if key not in _CURVE_CACHE:
        _CURVE_CACHE[key] = _GrowthCurve(n, m, family, rtol)
    return _CURVE_CACHE[key]


# ---------------------------------------------------------------------------
# condition (2): the weighted growth criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition2Report:
    """Growth-criterion evaluation on a geometric radius grid."""

    params: TheoremParams
    rho_grid: tuple
    raw_integrals: tuple  # I(rho)
    values: tuple  # Phi(rho)
    fitted_exponent: float  # growth exponent of I against 1/(1-rho)
    phi_exponent: float
    sup_estimate: float
    verdict: str
    multiplier_name: str

    def to_payload(self):
        payload = {
            "rho_grid": list(self.rho_grid),
            "raw_integrals": list(self.raw_integrals),
            "values": list(self.values),
            "fitted_exponent": self.fitted_exponent,
            "phi_exponent": self.phi_exponent,
            "sup_estimate": self.sup_estimate,
            "verdict": self.verdict,
            "multiplier": self.multiplier_name,
            "thresholds": {
                "phi_slope_bounded": PHI_SLOPE_BOUNDED,
                "phi_tail_ratio": PHI_TAIL_RATIO,
            },
        }
        if self.multiplier_name == "full-multiplier":
            payload["direction_sup"] = "lower bound over a fixed direction design"
        return payload


def _fit_window(x, y):
    """Least-squares slope over the deepest max(4, half) points."""
    npts = len(x)
    if npts < 2:
        raise DomainError(f"a growth fit needs at least two points, got {npts}")
    w = min(max(4, npts // 2), npts)
    xs = np.asarray(x[-w:])
    ys = np.asarray(y[-w:])
    return float(np.polyfit(xs, ys, 1)[0])


def _direction_design(dim, count):
    """Deterministic quasi-uniform unit vectors (Fibonacci-type for n=3)."""
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        i = np.arange(count, dtype=float) + 0.5
        z = 1.0 - 2.0 * i / count
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        s = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    raise DomainError("direction designs exist for dim 2 and 3 only")


def _full_condition2_integrals(g, params, rhos, directions, resolution=None):
    """I(rho, y') for a full-kind multiplier by spherical quadrature, one row
    per rho and one column per direction.  The bases at the rule's nodes
    and at all the directions are built once per call."""
    blocks = g.values if isinstance(g, MultiplierSequence) else g.coeffs
    K = len(blocks) - 1
    if resolution is None:
        # |F| has kinks along the zero set of a degree-K polynomial, so the
        # product rule converges like resolution^-2; size it generously
        resolution = max(8 * K + 64, 128)
    rule = sphere_rule(params.dim, resolution)
    node_basis = _basis_matrix(params.dim, K, rule.nodes)
    coeffs = np.concatenate(blocks)
    # c_k^(j) y_j^(k)(y') for each direction y'
    weighted = [coeffs * row for row in _basis_matrix(params.dim, K, directions)]
    k = np.arange(K + 1, dtype=float)
    log_lam = _log_lambda_coeff(params.dim, k, params.m)
    out = np.empty((len(rhos), len(weighted)))
    for i, rho in enumerate(rhos):
        gam = _per_entry(blocks, np.exp(log_lam + k * math.log(rho)))
        for j, cy in enumerate(weighted):
            out[i, j] = (rule.weights * np.abs(node_basis @ (cy * gam))).sum()
    return out


def condition2_integral(g, params, rho, direction=None, resolution=None, rtol=1e-7):
    """The inner integral I(rho, y') of the growth criterion.

    For zonal multipliers the value is direction independent and computed
    by the adaptive one-dimensional reduction; for full-kind multipliers
    it is a spherical quadrature at the given direction (default: last
    coordinate axis).
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    fam = _coerce_zonal_family(g)
    if fam is not None:
        return _growth_curve(params.dim, params.m, fam, rtol)._fill([rho])[0]
    if params.dim not in (2, 3):
        raise DomainError("full-kind multipliers are supported for dim 2 and 3")
    if direction is None:
        direction = np.eye(params.dim)[-1]
    direction = _as_unit_vector(direction, params.dim, "direction")
    return float(_full_condition2_integrals(g, params, [rho], [direction], resolution)[0, 0])


def condition2_sup(g, params, j_levels=None, rtol=1e-7, direction_count=None):
    """Evaluate Phi on the grid 1 - rho = 2^-j and render a verdict.

    bounded  <=>  fitted exponent of Phi <= 0.02 and the last three Phi
    values are non-increasing within 1%.  For full-kind multipliers the
    integral is the maximum over a fixed direction design (a lower bound
    for the true direction supremum).
    """
    if j_levels is None:
        j_levels = list(range(3, 11))
    j_levels = [float(j) for j in j_levels]
    if len(j_levels) < 2:
        raise DomainError(f"the growth fit needs at least two grid levels, got {j_levels}")
    if not all(math.isfinite(j) and j > 0.0 for j in j_levels):
        raise DomainError(f"grid levels must be finite and positive, got {j_levels}")
    if any(b <= a for a, b in zip(j_levels, j_levels[1:])):
        raise DomainError("grid levels must increase strictly")
    if j_levels[-1] > 14:
        raise DomainError("grid levels beyond j = 14 exceed double-precision comfort")
    rhos = [1.0 - 2.0 ** (-j) for j in j_levels]

    fam = _coerce_zonal_family(g)
    if fam is not None:
        name = fam.name
        raw = _growth_curve(params.dim, params.m, fam, rtol)._fill(rhos)
    else:
        name = "full-multiplier"
        count = direction_count or (128 if params.dim == 2 else 64)
        design = _direction_design(params.dim, count)
        raw = [float(v) for v in _full_condition2_integrals(g, params, rhos, design).max(axis=1)]

    e = params.phi_weight_exponent
    phi = [(1.0 - r) ** e * v for r, v in zip(rhos, raw)]
    positive = all(v > 0.0 for v in raw)
    if positive:
        x = [j * math.log(2.0) for j in j_levels]
        fitted = _fit_window(x, [math.log(v) for v in raw])
    else:
        fitted = 0.0
    phi_exp = fitted - e
    tail_ok = all(
        phi[i + 1] <= phi[i] * PHI_TAIL_RATIO for i in range(max(len(phi) - 3, 0), len(phi) - 1)
    )
    verdict = "bounded" if (phi_exp <= PHI_SLOPE_BOUNDED and tail_ok) else "unbounded"
    return Condition2Report(
        params=params,
        rho_grid=tuple(rhos),
        raw_integrals=tuple(raw),
        values=tuple(phi),
        fitted_exponent=fitted,
        phi_exponent=phi_exp,
        sup_estimate=max(phi) if phi else 0.0,
        verdict=verdict,
        multiplier_name=name,
    )


# ---------------------------------------------------------------------------
# condition (1): probe lower bounds for the operator norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Operator-norm lower bounds from a probe family."""

    params: TheoremParams
    probe_family: str
    sizes: tuple  # boundary radii or polynomial degrees
    norm_ratios: tuple
    growth_fit: float
    verdict: str
    seed: int
    multiplier_name: str

    def to_payload(self):
        return {
            "probe_family": self.probe_family,
            "sizes": list(self.sizes),
            "norm_ratios": list(self.norm_ratios),
            "growth_fit": self.growth_fit,
            "verdict": self.verdict,
            "seed": self.seed,
            "multiplier": self.multiplier_name,
            "thresholds": {"probe_slope_unbounded": PROBE_SLOPE_UNBOUNDED},
        }


def _radial_power_norm(profile, p, weight_exp, n, start_N=96, rtol=1e-6):
    """( int_0^1 profile(r)^p (1-r)^weight_exp r^(n-1) dr )^(1/p).

    profile is vector-valued over radii.  Doubles the Jacobi rule, five
    levels from start_N, until two consecutive levels agree.
    """

    def level(N):
        rule = radial_rule(weight_exp, N)
        r = rule.nodes
        return float((rule.weights * profile(r) ** p * r ** (n - 1)).sum()) ** (1.0 / p)

    return _settle_by_doubling(level, start_N, rtol, 5, "probe norm quadrature")


def probe_operator_norm(c, params, family="qm_kernels", sizes=None, seed=DEFAULT_SEED):
    """Lower-bound the multiplier operator norm with probe functions.

    qm_kernels: probes are Bergman kernels of order m anchored at boundary
    radii (the sizes); the reported ratios are the weighted-norm ratios
    of multiplied probe to probe, computed under the theorem weighting
    with spherical exponent one.  random_polynomials: probes are seeded
    random zonal polynomials of the given degrees; each size reports the
    maximum ratio over the sample.

    Ratios are lower bounds for the operator norm.  The verdict is
    unbounded when the fitted growth of the ratios exceeds 0.05.
    """
    if sizes is None or len(sizes) == 0:
        if sizes is not None:
            raise UsageError("sizes must be a nonempty sequence")
        sizes = (
            [1.0 - 2.0 ** (-j) for j in range(3, 10)]
            if family == "qm_kernels"
            else [8, 16, 32, 64]
        )
    fam = _coerce_zonal_family(c)
    if fam is None:
        raise UsageError("probe families are implemented for zonal multipliers")
    n, m, p = params.dim, params.m, params.p
    num_exp = params.beta * p - 1.0
    den_exp = params.alpha * p - 1.0

    if family == "qm_kernels":
        radii = [float(s) for s in sizes]
        if any(not 0.0 < s < 1.0 for s in radii):
            raise DomainError("qm_kernels sizes are boundary radii in (0, 1)")
        j_deep = max(-math.log2(1.0 - s) for s in radii)
        num_curve = _growth_curve(n, m, fam)
        den_curve = _growth_curve(n, m, _family_ones())
        ratios = []
        for s in radii:
            # probe f = Q_m at |y| = s: M_1(c f, r) = 2 I_c(r s)
            num = _radial_power_norm(lambda r: 2.0 * num_curve.at(r * s, j_deep), p, num_exp, n)
            den = _radial_power_norm(lambda r: 2.0 * den_curve.at(r * s, j_deep), p, den_exp, n)
            ratios.append(num / den)
        x = [-math.log(1.0 - s) for s in radii]
    elif family == "random_polynomials":
        degrees = [int(K) for K in sizes]
        if any(K < 0 for K in degrees):
            raise DomainError("random_polynomials sizes are polynomial degrees")
        rng = np.random.default_rng(seed)
        ratios = []
        for K in degrees:
            best = 0.0
            cvals = fam.values(K)
            for _ in range(12):
                coeffs = rng.standard_normal(K + 1)
                den = _radial_power_norm(
                    lambda r: _zonal_power_profile(n, coeffs, 1.0, r, 1e-8), p, den_exp, n
                )
                num = _radial_power_norm(
                    lambda r: _zonal_power_profile(n, coeffs * cvals, 1.0, r, 1e-8),
                    p,
                    num_exp,
                    n,
                )
                best = max(best, num / den)
            ratios.append(best)
        x = [math.log(K + 1.0) for K in degrees]
    else:
        raise UsageError(f"unknown probe family {family!r}")

    if all(v == 0.0 for v in ratios):
        fit = 0.0
    else:
        fit = _fit_window(x, [math.log(max(v, 1e-300)) for v in ratios])
    verdict = "unbounded" if fit > PROBE_SLOPE_UNBOUNDED else "bounded"
    return ProbeReport(
        params=params,
        probe_family=family,
        sizes=tuple(float(s) for s in sizes),
        norm_ratios=tuple(ratios),
        growth_fit=fit,
        verdict=verdict,
        seed=seed,
        multiplier_name=fam.name,
    )


# ---------------------------------------------------------------------------
# the equivalence verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Agreement verdict between the growth criterion and the probes."""

    name: str
    verdict: str  # PASS / FAIL / INCONCLUSIVE
    measured: dict
    tolerances: dict

    def to_payload(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "measured": self.measured,
            "tolerances": self.tolerances,
        }


def equivalence_verdict(cond2, probe):
    """PASS when both procedures agree, FAIL on disagreement,
    INCONCLUSIVE when either report is inconclusive."""
    if cond2.params != probe.params:
        raise UsageError("reports were computed for different parameters")
    if cond2.multiplier_name != probe.multiplier_name:
        raise UsageError(
            f"reports describe different multipliers: "
            f"{cond2.multiplier_name!r} vs {probe.multiplier_name!r}"
        )
    if "inconclusive" in (cond2.verdict, probe.verdict):
        verdict = "INCONCLUSIVE"
    elif cond2.verdict == probe.verdict:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return CheckReport(
        name="multiplier-equivalence",
        verdict=verdict,
        measured={
            "condition2_verdict": cond2.verdict,
            "condition2_phi_exponent": cond2.phi_exponent,
            "condition2_fitted_exponent": cond2.fitted_exponent,
            "probe_verdict": probe.verdict,
            "probe_growth_fit": probe.growth_fit,
            "multiplier": cond2.multiplier_name,
        },
        tolerances={
            "phi_slope_bounded": PHI_SLOPE_BOUNDED,
            "phi_tail_ratio": PHI_TAIL_RATIO,
            "probe_slope_unbounded": PROBE_SLOPE_UNBOUNDED,
        },
    )
