"""Fast evaluation and integration of zonal harmonic series.

A zonal series is G(t) = sum_k a_k Z_k(t) where Z_k is the degree-k zonal
harmonic (normalized so Z_k(1) = d_k) and t is the cosine of the angle to
the pole.  Writing Z_k = d_k u_k with u_k the Gegenbauer polynomial scaled
to u_k(1) = 1 keeps every recurrence intermediate in [-1, 1], so series
with tens of thousands of terms evaluate stably.

The other primitive here is the normalized surface integral of |G|^q.
Kernel-type integrands (Poisson and its fractional derivatives) concentrate
in a peak of angular width ~(1 - s) at theta = 0 with an algebraically
decaying, finitely-oscillating tail, so a geometrically graded panel mesh
refined toward theta = 0 plus adaptive bisection of the few panels
containing sign changes resolves the integrand at any depth actually
reachable in double precision.  ``_abs_power_mean`` integrates any such
integrand of theta; ``zonal_abs_power_mean`` feeds it the series.

A long series costs mostly per call: the recurrence pays interpreter
overhead for each of its K terms, so a call on 2,300 points costs only
about twice one on 250.  A deep integral, though, bisects for 8-10 rounds
with only 2-6 new panels each, at the kinks of |G| where G changes sign.
For a series of more than ``_AHEAD_TERMS`` terms the core therefore looks
ahead: the call that evaluates the halves of a failing panel also
evaluates the panels later rounds will bisect toward its estimated zero,
so a deep growth integral calls the recurrence twice instead of about
nine times, with the same bits.
"""

import math

import numpy as np
from scipy.special import gammaln

from .errors import AccuracyError, DomainError
from .specfun import _gauss_jacobi, _sph_dim_array

_HAVE_NUMBA = False  # read by the benchmark's run metadata
_MAX_ROUNDS = 48  # bisection rounds of ``_abs_power_mean`` before it gives up
_MAX_PANELS = 2**15  # live panels of one round before ``_abs_power_mean`` gives up
_AHEAD_PANELS = 48  # panels a lookahead G call fills up to
_AHEAD_TERMS = 256  # series with more terms than this look ahead


def _series_sum(w, lam, t):
    """sum_k w[k] u_k(t) with u_k the Gegenbauer polynomial of index lam
    scaled to u_k(1) = 1 (Chebyshev T_k for lam = 0)."""
    K = w.size - 1
    u_prev = np.ones_like(t)
    acc = w[0] * u_prev
    if K == 0:
        return acc
    u = t.copy()
    acc += w[1] * u
    # u_k = a_k t u_{k-1} - b_k u_{k-2}, in three rotating buffers
    nxt = np.empty_like(t)
    term = np.empty_like(t)
    for k in range(2, K + 1):
        a = 2.0 * (k + lam - 1.0) / (k + 2.0 * lam - 1.0)
        b = (k - 1.0) / (k + 2.0 * lam - 1.0)
        np.multiply(t, u, out=nxt)
        nxt *= a
        np.multiply(u_prev, b, out=term)
        nxt -= term
        np.multiply(nxt, w[k], out=term)
        acc += term
        u_prev, u, nxt = u, nxt, u_prev
    return acc


def zonal_series_values(dim, zcoeffs, t):
    """Evaluate G(t) = sum_k zcoeffs[k] * Z_k(t) at the cosines ``t``."""
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    zcoeffs = np.ascontiguousarray(zcoeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.ascontiguousarray(np.atleast_1d(t))
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise DomainError("cosines must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    w = zcoeffs * _sph_dim_array(dim, zcoeffs.size - 1)
    lam = (dim - 2) / 2.0
    out = _series_sum(w, lam, t)
    return float(out[0]) if scalar else out


def sphere_density_constant(dim):
    """c_n with d(sigma) = c_n (sin theta)^(n-2) d(theta), sigma normalized."""
    return math.exp(gammaln(dim / 2.0) - 0.5 * math.log(math.pi) - gammaln((dim - 1) / 2.0))


def _zero_estimates(theta, g):
    """Per row of the node angles ``theta`` and signed values ``g``, the
    zero that linear interpolation puts between the two nodes of the
    steepest sign change; NaN in a row without one."""
    g0, g1 = g[:, :-1], g[:, 1:]
    cross = np.signbit(g0) != np.signbit(g1)
    with np.errstate(all="ignore"):
        j = np.where(cross, np.abs(g1 - g0), -1.0).argmax(axis=1)[:, None]
        t0, t1 = np.take_along_axis(theta, j, 1), np.take_along_axis(theta, j + 1, 1)
        v0, v1 = np.take_along_axis(g0, j, 1), np.take_along_axis(g1, j, 1)
        zero = (t0 + (t1 - t0) * (v0 / (v0 - v1)))[:, 0]
    return np.where(cross.any(axis=1), zero, np.nan)


def _zero_chains(lo, mid, hi, zero, levels):
    """The panels bisection asks for below the halves of each parent
    [lo, hi], split at ``mid``, while the panel holding ``zero`` keeps
    failing: both halves of that panel, ``levels`` levels deep, each
    midpoint computed as the bisection loop computes it."""
    out_a, out_b = [lo[:0]], [hi[:0]]
    for _ in range(levels):
        left = zero < mid
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        mid = 0.5 * (lo + hi)
        out_a += [lo, mid]
        out_b += [mid, hi]
    return np.concatenate(out_a), np.concatenate(out_b)


def _abs_power_mean(dim, G, delta, power, rtol, ahead=0):
    """Normalized surface integral of |G|^power for a zonal integrand G.

    ``G`` maps an array of polar angles theta to the integrand's values;
    theta, not cos(theta), because inside a peak of width 1 - s a kernel
    written through 1 - 2 s t + s^2 = (1 - s)^2 + 4 s sin^2(theta/2) keeps
    full accuracy where 1 - cos(theta) cancels.  The mesh is [0, delta],
    then doubling panels up to pi, bisected until the 16- and 32-point
    Gauss values agree; non-finite 32-point values, or a round that would
    hold more than ``_MAX_PANELS`` panels, raise AccuracyError.

    With ``ahead`` > 0, for a G whose cost is mostly per call, a round that
    must call G fills the call up to ``ahead`` panels with the panels later
    rounds will bisect toward the estimated zero (the kink of |G|) of each
    parent whose values change sign; later rounds take them from a pending
    set and call G only for the panels it lacks.  A panel's values depend
    on its endpoints alone, so the result has the same bits either way.
    Deterministic: identical inputs give the same bits on a given build.
    """
    edges = [0.0, delta]
    while edges[-1] < math.pi:
        edges.append(min(edges[-1] * 2.0, math.pi))
    cn = sphere_density_constant(dim)
    x16, w16 = _gauss_jacobi(16, 0.0, 0.0)
    x32, w32 = _gauss_jacobi(32, 0.0, 0.0)

    def panel_integrals(a, b):
        # 16-pt and 32-pt Gauss values of |G|^q * density per panel, then
        # the 32-pt nodes and signed values of G
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        th16 = mid + half * x16[None, :]
        th32 = mid + half * x32[None, :]
        theta = np.concatenate([th16.ravel(), th32.ravel()])
        dens = cn * np.sin(theta) ** (dim - 2)
        g = G(theta)
        vals = np.abs(g) ** power * dens
        n16 = th16.size
        v16 = vals[:n16].reshape(th16.shape)
        v32 = vals[n16:].reshape(th32.shape)
        i16 = half[:, 0] * (v16 * w16[None, :]).sum(axis=1)
        i32 = half[:, 0] * (v32 * w32[None, :]).sum(axis=1)
        return i16, i32, th32, g[n16:].reshape(th32.shape)

    # (a, b) -> (i16, i32, zero estimate) of each panel evaluated ahead
    pending = {} if ahead > 0 else None

    def take(a, b, parent_zeros):
        # the round's values, from ``pending`` where a lookahead put them;
        # panels j and j + n of a round after the first halve parent j
        keys = list(zip(a.tolist(), b.tolist()))
        rows = [pending.pop(key, None) for key in keys]
        missing = np.array([row is None for row in rows])
        if missing.any():
            ea, eb = a[missing], b[missing]
            if parent_zeros is not None:
                # chains share what the call has left of ``ahead`` panels
                n = a.size // 2
                j = np.flatnonzero(missing[:n] & missing[n:] & np.isfinite(parent_zeros))
                levels = (ahead - ea.size) // (2 * j.size) if j.size else 0
                ca, cb = _zero_chains(a[j], b[j], b[j + n], parent_zeros[j], levels)
                ea, eb = np.concatenate([ea, ca]), np.concatenate([eb, cb])
            i16, i32, th32, g32 = panel_integrals(ea, eb)
            values = zip(i16.tolist(), i32.tolist(), _zero_estimates(th32, g32).tolist())
            pending.update(zip(zip(ea.tolist(), eb.tolist()), values))
            rows = [pending.pop(key) if row is None else row for key, row in zip(keys, rows)]
        i16, i32, zeros = (np.array(col) for col in zip(*rows))
        return i16, i32, zeros

    a = np.array(edges[:-1])
    b = np.array(edges[1:])
    zeros = None  # with lookahead: the round's estimated zeros, then its parents'
    accepted = []
    for _ in range(_MAX_ROUNDS):
        if pending is None:
            i16, i32 = panel_integrals(a, b)[:2]
        else:
            i16, i32, zeros = take(a, b, zeros)
        scale = math.fsum(accepted) + float(np.abs(i32).sum())
        # a non-finite value never converges, and its panels would double
        # every round; a region where only i16 is non-finite soon puts
        # 32-point nodes in it too
        if not math.isfinite(scale):
            raise AccuracyError(
                "adaptive zonal integral met non-finite values",
                float(i16.sum()),
                float(i32.sum()),
                rtol,
            )
        tol_each = rtol * max(scale, 1e-300) / max(2 * a.size, 1)
        ok = np.abs(i32 - i16) <= tol_each
        accepted.extend(i32[ok].tolist())
        if ok.all():
            return math.fsum(accepted)
        a_bad, b_bad = a[~ok], b[~ok]
        if 2 * a_bad.size > _MAX_PANELS:
            coarse = math.fsum(accepted)
            raise AccuracyError(
                f"adaptive zonal integral exceeded its budget of {_MAX_PANELS} panels",
                coarse + float(i16[~ok].sum()),
                coarse + float(i32[~ok].sum()),
                rtol,
            )
        if zeros is not None:
            zeros = zeros[~ok]
        mids = 0.5 * (a_bad + b_bad)
        a = np.concatenate([a_bad, mids])
        b = np.concatenate([mids, b_bad])
    coarse = math.fsum(accepted)
    i16, i32 = panel_integrals(a, b)[:2]
    raise AccuracyError(
        "adaptive zonal integral did not converge",
        coarse + float(i16.sum()),
        coarse + float(i32.sum()),
        rtol,
    )


def zonal_abs_power_mean(dim, zcoeffs, power=1.0, rtol=1e-8):
    """Normalized surface integral of |G|^power for a zonal series G, with
    the mesh graded toward the pole at the scale of the coefficient decay."""
    if power <= 0:
        raise DomainError(f"power must be positive, got {power}")
    zcoeffs = np.ascontiguousarray(zcoeffs, dtype=float)
    w = zcoeffs * _sph_dim_array(dim, zcoeffs.size - 1)
    wmax = np.max(np.abs(w))
    if wmax == 0.0:
        return 0.0
    # effective bandwidth sets the peak scale near theta = 0
    sig = np.nonzero(np.abs(w) >= 1e-7 * wmax)[0]
    k_eff = int(sig[-1]) if sig.size else 0
    delta = min(max(0.25 / (k_eff + 2.0), 1e-9), 0.2)
    lam = (dim - 2) / 2.0
    G = lambda theta: _series_sum(w, lam, np.ascontiguousarray(np.cos(theta)))
    # a long series costs mostly per call: look ahead to save calls
    ahead = _AHEAD_PANELS if w.size > _AHEAD_TERMS else 0
    return _abs_power_mean(dim, G, delta, power, rtol, ahead)
