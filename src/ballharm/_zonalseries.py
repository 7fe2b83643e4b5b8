"""Fast evaluation and integration of zonal harmonic series.

A zonal series is G(t) = sum_k a_k Z_k(t) where Z_k is the degree-k zonal
harmonic (normalized so Z_k(1) = d_k) and t is the cosine of the angle to
the pole.  Writing Z_k = d_k u_k with u_k the Gegenbauer polynomial scaled
to u_k(1) = 1 keeps every recurrence intermediate in [-1, 1], so series
with tens of thousands of terms evaluate stably.

The other primitive here is the normalized surface integral of |G|^q.
At q = 1 a series of up to 512 terms has an exact route,
``_exact_abs_means``: split [-1, 1] at the roots of G, found as
colleague-matrix eigenvalues, whole or piece by piece, and integrate
between them by the Gegenbauer primitive.  Every other integral takes the
adaptive core.  Kernel-type integrands (Poisson and its
fractional derivatives) concentrate in a peak of angular width ~(1 - s)
at theta = 0 with an algebraically decaying, finitely-oscillating tail,
so a geometrically graded panel mesh refined toward theta = 0 plus
adaptive bisection of the few panels containing sign changes resolves
the integrand at any depth actually reachable in double precision.
``_abs_power_mean`` integrates any such integrand of theta;
``zonal_abs_power_mean`` feeds it the series.

A series costs mostly per call: the recurrence pays interpreter overhead
for each of its K terms, so a call on 2,300 points costs only about twice
one on 250.  ``_zonal_abs_power_means``, the one place that decides which
series share a call, takes the coefficient rows of any batch (the radii
of a mean profile, the series-route radii of a growth curve) and keeps
the bits and the errors of the row-by-row loop.  Each row takes one of
three routes (``_route``):

* at q = 1, consecutive rows of at most ``_EXACT_TERMS`` = 512 terms go
  ``_EXACT_CHUNK`` per call to the exact route.  The 16/32 acceptance test
  of the core can pass at a kink of |G| while both values are wrong
  (1.9e-7 off at K = 64, rtol 1e-10); this route has no kinks to miss.  A
  row of at most 65 terms finds its roots whole, at O(K^3); a longer one
  in pieces of degree ``_PIECE_DEGREE``, at O(K^2).  Longer rows stay on
  the core: at dim 2, a lone growth row of 577 terms was faster there;
* other consecutive rows of at most ``_AHEAD_TERMS`` terms go
  ``_PROFILE_CHUNK`` per adaptive loop, zero-padded to the widest (a zero
  term adds +-0 to a row's sum); each round calls the recurrence once for
  the panels of every row, gathering each row's weights per panel;
* a longer row goes alone through ``zonal_abs_power_mean``, which looks
  ahead: the call that evaluates the halves of a failing panel also
  evaluates the panels later rounds will bisect toward its estimated
  zero, so a deep integral calls the recurrence about twice instead of
  once per round (8-10).  At q = 1 only rows of over 512 terms come here:
  ``finite:K`` multipliers, user sequences and growth series at fractional
  order; the named families' deep growth integrals take a closed-form
  kernel (``multipliers``).
"""

import functools
import itertools
import math

import numpy as np
from scipy.special import betainc, gammaln

from .errors import AccuracyError, DomainError
from .specfun import _gauss_jacobi, _sph_dim_array

_HAVE_NUMBA = False  # read by the benchmark's run metadata
_MAX_ROUNDS = 48  # bisection rounds of ``_abs_power_mean`` before it gives up
_MAX_PANELS = 2**15  # live panels of one round before ``_abs_power_mean`` gives up
_AHEAD_PANELS = 48  # panels a lookahead G call fills up to
_AHEAD_TERMS = 256  # series with more terms than this look ahead
_PROFILE_CHUNK = 32  # shorter rows integrated in one adaptive loop
_EXACT_TERMS = 512  # power-1 rows of at most this many terms take the exact route
_PIECE_DEGREE = 32  # degree of a longer exact row's pieces; 2x + 1 terms go whole
_EXACT_CHUNK = 64  # rows of one exact batch
_CHOP = 1e-15  # relative size below which trailing Chebyshev coefficients drop
_ROOT_IMAG = 1e-6  # largest |Im| of a colleague eigenvalue kept as a root


def _series_sum(w, lam, t, cols=None):
    """sum_k w[k] u_k(t) with u_k the Gegenbauer polynomial of index lam
    scaled to u_k(1) = 1 (Chebyshev T_k for lam = 0).  With ``cols``, w
    holds one series per column and column j of t sums the series in
    column cols[j] of w; each term's weights are gathered into one reused
    row, unless w holds a single series."""
    K = w.shape[0] - 1
    if cols is None:
        weight = w.__getitem__
    elif w.shape[1] == 1:
        weight = w[:, 0].__getitem__
    else:
        row = np.empty((1, len(cols)))
        weight = lambda k: np.take(w[k], cols, out=row[0], mode="clip")[None, :]
    u_prev = np.ones_like(t)
    acc = weight(0) * u_prev
    if K == 0:
        return acc
    u = t.copy()
    acc += weight(1) * u
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
        np.multiply(nxt, weight(k), out=term)
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


def _abs_power_mean(dim, G, deltas, power, rtol, ahead=0):
    """Normalized surface integrals of |G_i|^power for a batch of zonal
    integrands G_i, one per mesh scale in ``deltas``: a list of floats.

    ``G(theta, owner)`` takes the polar angles of a round's nodes, one row
    per panel, and the index owner[j] of the integrand that row j belongs
    to, and returns the integrands' values there; theta, not cos(theta),
    because inside a peak of width 1 - s a kernel written through
    1 - 2 s t + s^2 = (1 - s)^2 + 4 s sin^2(theta/2) keeps full accuracy
    where 1 - cos(theta) cancels.  Integrand i's mesh is [0, deltas[i]],
    then doubling panels up to pi, bisected until the 16- and 32-point
    Gauss values agree; non-finite 32-point values, or a round that would
    hold more than ``_MAX_PANELS`` panels, raise AccuracyError.

    A round calls G once, on the live panels of every integrand.  Each
    integrand keeps its own panels, tolerance and accepted values, so its
    result has the bits it has as a batch of one.  Errors come as a loop
    over the integrands would raise them: a failing integrand drops the
    ones after it, the ones before it run on, and the lowest failing index
    raises.

    With ``ahead`` > 0, for a batch of one whose G costs mostly per call, a
    round that must call G fills the call up to ``ahead`` panels with the
    panels later rounds will bisect toward the estimated zero (the kink of
    |G|) of each parent whose values change sign; later rounds take them
    from a pending set and call G only for the panels it lacks.  A panel's
    values depend on its endpoints alone, so the result has the same bits
    either way.  Deterministic: identical inputs give the same bits on a
    given build.
    """
    if ahead > 0 and len(deltas) != 1:
        raise ValueError("lookahead integrates a batch of one")
    cn = sphere_density_constant(dim)
    x16, w16 = _gauss_jacobi(16, 0.0, 0.0)
    x32, w32 = _gauss_jacobi(32, 0.0, 0.0)
    x48, n16 = np.concatenate([x16, x32]), x16.size

    def panel_integrals(a, b, owner):
        # 16-pt and 32-pt Gauss values of |G|^q * density per panel, then
        # the 32-pt nodes and signed values of G; row j of theta holds the
        # 16 then the 32 nodes of panel j, which is integrand owner[j]'s
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        theta = mid + half * x48[None, :]
        dens = cn * np.sin(theta) ** (dim - 2)
        g = G(theta, owner)
        vals = np.abs(g) ** power * dens
        i16 = half[:, 0] * (vals[:, :n16] * w16[None, :]).sum(axis=1)
        i32 = half[:, 0] * (vals[:, n16:] * w32[None, :]).sum(axis=1)
        return i16, i32, theta[:, n16:], g[:, n16:]

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
            i16, i32, th32, g32 = panel_integrals(ea, eb, np.zeros(ea.size, dtype=np.intp))
            values = zip(i16.tolist(), i32.tolist(), _zero_estimates(th32, g32).tolist())
            pending.update(zip(zip(ea.tolist(), eb.tolist()), values))
            rows = [pending.pop(key) if row is None else row for key, row in zip(keys, rows)]
        i16, i32, zeros = (np.array(col) for col in zip(*rows))
        return i16, i32, zeros

    # the round's panels [a, b): counts[j] of them for integrand ids[j], in
    # ascending order of the integrands
    meshes = []
    for delta in deltas:
        edges = [0.0, delta]
        while edges[-1] < math.pi:
            edges.append(min(edges[-1] * 2.0, math.pi))
        meshes.append(edges)
    a = np.array([x for edges in meshes for x in edges[:-1]])
    b = np.array([x for edges in meshes for x in edges[1:]])
    ids = list(range(len(meshes)))
    counts = [len(edges) - 1 for edges in meshes]
    accepted = [[] for _ in deltas]
    results = [None] * len(deltas)
    error = None  # the AccuracyError of the lowest failing integrand so far
    zeros = None  # with lookahead: the round's estimated zeros, then its parents'
    for _ in range(_MAX_ROUNDS):
        if pending is None:
            i16, i32 = panel_integrals(a, b, np.array(ids).repeat(counts))[:2]
        else:
            i16, i32, zeros = take(a, b, zeros)
        abs32 = np.abs(i32)
        tols = []
        start = 0
        for i, n in zip(ids, counts):
            scale = math.fsum(accepted[i]) + float(abs32[start : start + n].sum())
            # a non-finite value never converges, and its panels would double
            # every round; a region where only i16 is non-finite soon puts
            # 32-point nodes in it too
            if not math.isfinite(scale):
                error = AccuracyError(
                    "adaptive zonal integral met non-finite values",
                    float(i16[start : start + n].sum()),
                    float(i32[start : start + n].sum()),
                    rtol,
                )
                break
            tols.append(rtol * max(scale, 1e-300) / max(2 * n, 1))
            start += n
        # a failing integrand drops the ones after it
        ids, counts = ids[: len(tols)], counts[: len(tols)]
        ok = np.abs(i32[:start] - i16[:start]) <= np.array(tols).repeat(counts)
        ok_list, i32_list = ok.tolist(), i32.tolist()
        bad_counts = []
        start = 0
        for i, n in zip(ids, counts):
            mine = ok_list[start : start + n]
            accepted[i].extend(itertools.compress(i32_list[start : start + n], mine))
            n_bad = n - sum(mine)
            if n_bad == 0:
                results[i] = math.fsum(accepted[i])
            elif 2 * n_bad > _MAX_PANELS:
                coarse = math.fsum(accepted[i])
                bad = ~ok[start : start + n]
                error = AccuracyError(
                    f"adaptive zonal integral exceeded its budget of {_MAX_PANELS} panels",
                    coarse + float(i16[start : start + n][bad].sum()),
                    coarse + float(i32[start : start + n][bad].sum()),
                    rtol,
                )
                break
            bad_counts.append(n_bad)
            start += n
        bad = ~ok[:start]
        if zeros is not None:
            zeros = zeros[bad]
        a_bad, b_bad = a[:start][bad], b[:start][bad]
        mids = 0.5 * (a_bad + b_bad)
        a = np.concatenate([a_bad, mids])
        b = np.concatenate([mids, b_bad])
        ids = [i for i, n_bad in zip(ids, bad_counts) if n_bad]
        counts = [2 * n_bad for n_bad in bad_counts if n_bad]
        if len(ids) > 1:
            # each integrand's left halves, then its right halves
            parent = np.repeat(np.arange(len(ids)), [n // 2 for n in counts])
            order = np.argsort(np.concatenate([parent, parent]), kind="stable")
            a, b = a[order], b[order]
        if not ids:
            break
    else:
        n = counts[0]
        coarse = math.fsum(accepted[ids[0]])
        i16, i32 = panel_integrals(a[:n], b[:n], np.repeat(ids[:1], n))[:2]
        error = AccuracyError(
            "adaptive zonal integral did not converge",
            coarse + float(i16.sum()),
            coarse + float(i32.sum()),
            rtol,
        )
    if error is not None:
        raise error
    return results


@functools.cache
def _chebyshev_rule(N):
    """The N Chebyshev points x_j = cos(pi (j + 1/2) / N) and the DCT
    matrix D with c_m = sum_j G(x_j) D[j, m] the coefficients of the
    degree < N interpolant sum_m c_m T_m; read-only, as they are cached."""
    theta = math.pi * (np.arange(N) + 0.5) / N
    dct = (2.0 / N) * np.cos(np.outer(theta, np.arange(N)))
    dct[:, 0] *= 0.5
    x = np.cos(theta)
    x.flags.writeable = dct.flags.writeable = False
    return x, dct


def _sum_columns(a):
    """Each row's sum of the 2-D ``a``, left to right, so a row's bits do
    not depend on the rows beside it."""
    out = np.zeros(a.shape[0])
    for column in a.T:
        out += column
    return out


def _chebyshev_coefficients(samples):
    """The Chebyshev coefficients of each row of ``samples``, taken at the
    Chebyshev points of the row's size by a DCT in a fixed order."""
    dct = _chebyshev_rule(samples.shape[1])[1]
    coef = samples[:, :1] * dct[0]
    for j in range(1, samples.shape[1]):
        coef += samples[:, j : j + 1] * dct[j]
    return coef


def _colleague_roots(coef, floor):
    """The roots x in [-1, 1] of each row's sum_m coef[m] T_m(x), as the
    arrays (row index, x): trailing coefficients up to ``_CHOP`` of the
    row's largest or up to its ``floor`` dropped, then the eigenvalues of
    the colleague matrices, stacked by chopped degree up to 2 MB a stack,
    with |Im| at most ``_ROOT_IMAG`` and |Re| at most 1 + ``_ROOT_IMAG``,
    clipped to [-1, 1]: a root at the end of a piece is kept by one piece
    or both."""
    size_of = np.abs(coef)
    big = size_of > np.maximum(_CHOP * size_of.max(axis=1, keepdims=True), floor[:, None])
    degree = np.where(big.any(axis=1), coef.shape[1] - 1 - big[:, ::-1].argmax(axis=1), 0)
    which, roots = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for m in np.unique(degree[degree > 0]).tolist():
        of_degree = np.flatnonzero(degree == m)
        # stacks of at most 2 MB
        step = max(2**18 // (m * m), 1)
        for start in range(0, of_degree.size, step):
            mine = of_degree[start : start + step]
            c = coef[mine]
            # x T_j = (T_(j-1) + T_(j+1)) / 2, x T_0 = T_1, T_m by G = 0
            colleague = np.zeros((mine.size, m, m))
            j = np.arange(m - 1)
            colleague[:, j, j + 1] = colleague[:, j + 1, j] = 0.5
            if m > 1:
                colleague[:, 0, 1] = 1.0
            colleague[:, m - 1, :] -= (1.0 if m == 1 else 0.5) * c[:, :m] / c[:, m : m + 1]
            z = np.linalg.eigvals(colleague)
            real = (np.abs(z.imag) <= _ROOT_IMAG) & (np.abs(z.real) <= 1.0 + _ROOT_IMAG)
            which.append(np.broadcast_to(mine[:, None], z.shape)[real])
            roots.append(np.clip(z.real[real], -1.0, 1.0))
    return np.concatenate(which), np.concatenate(roots)


def _whole_roots(w, lam, rows, sizes, search, bad):
    """The roots of G for each row index i in ``rows`` (column i of the
    weights ``w``, of ``sizes[i]`` terms) where ``search[i]``, as the
    arrays (row index, t): each row sampled whole at its own K + 1
    Chebyshev points, one recurrence for them all.  A row with a
    non-finite sample goes into the dict ``bad`` with the first one."""
    x = np.concatenate([_chebyshev_rule(size)[0] for size in sizes[rows].tolist()])
    g = _series_sum(w[: sizes[rows].max()], lam, x[None, :], np.repeat(rows, sizes[rows]))[0]
    starts = np.cumsum(sizes[rows]) - sizes[rows]
    finite = np.logical_and.reduceat(np.isfinite(g), starts)
    for i, begin in zip(rows[~finite].tolist(), starts[~finite].tolist()):
        samples = g[begin : begin + sizes[i]]
        bad[i] = samples[~np.isfinite(samples)][0]
    which, roots = [], []
    for size in np.unique(sizes[rows]).tolist():
        mine = np.flatnonzero((sizes[rows] == size) & finite & search[rows])
        samples = g[starts[mine][:, None] + np.arange(size)]
        i, x = _colleague_roots(_chebyshev_coefficients(samples), np.zeros(mine.size))
        which.append(rows[mine][i])
        roots.append(x)
    return which, roots


def _piece_roots(w, lam, rows, sizes, floor, bad):
    """The roots of G for each row index i in ``rows`` (column i of the
    weights ``w``, of ``sizes[i]`` terms and noise ``floor[i]``), found
    piece by piece, as the arrays (row index, t).  A row with a non-finite
    sample goes into the dict ``bad`` with the first one, and drops out.

    A row of degree K starts as about K/16 pieces uniform in theta.  Each
    round samples every piece of every row at ``_PIECE_DEGREE`` + 1
    Chebyshev points of its t-interval by one recurrence, and takes the
    pieces' Chebyshev coefficients c_m.  A piece whose |c_0| exceeds the
    sum of the other |c_m|, with the trailing four counted twice for the
    degrees its points cannot see, keeps its sign.  A piece whose four
    trailing |c_m| are at most its row's floor goes to the colleague
    matrices; any other is bisected in theta for the next round.  Four
    bisections leave a piece about pi/K wide, where G is resolved far below
    rounding, so a piece still over the floor then is noise and goes to
    the colleague matrices as it is.
    """
    x_piece = _chebyshev_rule(_PIECE_DEGREE + 1)[0]
    count = (sizes[rows] + 14) // 16
    owner = np.repeat(rows, count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    width = np.repeat(math.pi / count, count)
    lo, hi = j * width, (j + 1) * width
    which, roots = [], []
    for depth in range(5):
        t_hi, t_lo = np.cos(lo), np.cos(hi)
        mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
        x = mid[:, None] + half[:, None] * x_piece
        g = _series_sum(w, lam, x.reshape(1, -1), np.repeat(owner, x_piece.size))[0].reshape(x.shape)
        finite = np.isfinite(g).all(axis=1)
        if not finite.all():
            for i in np.unique(owner[~finite]).tolist():
                samples = g[owner == i]
                bad[i] = samples[~np.isfinite(samples)][0]
            keep = ~np.isin(owner, owner[~finite])
            lo, hi, owner, mid, half, g = lo[keep], hi[keep], owner[keep], mid[keep], half[keep], g[keep]
        coef = _chebyshev_coefficients(g)
        size_of = np.abs(coef)
        trailing = size_of[:, -4:]
        rootless = size_of[:, 0] > _sum_columns(size_of[:, 1:]) + _sum_columns(trailing)
        resolved = (trailing.max(axis=1) <= floor[owner]) | (depth == 4)
        take = np.flatnonzero(~rootless & resolved)
        i, x = _colleague_roots(coef[take], floor[owner[take]])
        which.append(owner[take][i])
        roots.append(mid[take][i] + half[take][i] * x)
        split = ~rootless & ~resolved
        if not split.any():
            break
        centre = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], centre]), np.concatenate([centre, hi[split]])
        owner = np.concatenate([owner[split], owner[split]])
    return which, roots


def _exact_abs_means(dim, rows, rtol):
    """``zonal_abs_power_mean`` at power 1 of each 1-D row of at most
    ``_EXACT_TERMS`` terms, exact but for rounding: [-1, 1] split at the
    roots of G, each piece integrated by the Gegenbauer primitive.

    A row with |w_0| >= sum_k>=1 |w_k| (w_k = a_k d_k) has no sign change
    to find, since |u_k| <= 1, and takes no root search.  A row of at most
    2 ``_PIECE_DEGREE`` + 1 terms is sampled whole (``_whole_roots``, one
    recurrence zero-padded: a zero term adds +-0), its Chebyshev
    coefficients taken by the DCT, and trailing ones up to ``_CHOP`` of the
    largest dropped: below that they are rounding noise, and their sum
    bounds how far the dropped part moves G, so a root they would add lies
    where |G| is that small.  A longer row is split into pieces
    (``_piece_roots``), so that root finding costs O(K^2) rather than
    O(K^3) (Boyd, SIAM J. Numer. Anal. 40, 2002); the pieces' noise floor
    is 1e-13 sum_k |w_k|: on the 280-term Poisson row, the samples' own
    rounding leaves up to 1.4e-14 of it in the trailing coefficients
    however narrow the piece.  The roots are the eigenvalues of the
    colleague matrix (Boyd, SIAM Rev. 55, 2013); a split where G keeps its
    sign costs nothing, and a root a little off costs second order, since
    G vanishes there; only a missed pair of roots would matter.

    With dsigma = c_n (1 - t^2)^(lam - 1/2) dt and the derivative (DLMF
    18.9)

        d/dt[(1 - t^2)^(lam + 1/2) C_(k-1)^(lam+1)(t)]
            = -k (k + 2 lam) / (2 lam) (1 - t^2)^(lam - 1/2) C_k^lam(t),

    the integral of G dsigma over [-1, t] is, at lam = 0 (dim 2) too,

        H(t) = w_0 I_((1+t)/2)(lam + 1/2, lam + 1/2)
               - c_n (1 - t^2)^(lam + 1/2) / (2 lam + 1) sum_k>=1 w_k v_(k-1)(t)

    with v the index-(lam + 1) Gegenbauer polynomials scaled to v(1) = 1,
    so the mean is sum_i |H(t_(i+1)) - H(t_i)| over the split points.

    A row's value depends on that row alone: pieces and samples are
    elementwise, the DCT and the colleague matrices go by groups of equal
    size and degree, and every sum runs in a fixed order.  A row with
    non-finite samples or mean raises AccuracyError with its first
    non-finite sample, or else its mean, as both values (rtol is reported
    only); the lowest such row raises.  Overflow raises no numpy warning.
    """
    sizes = np.array([row.size for row in rows])
    n, N = sizes.size, int(sizes.max())
    lam = (dim - 2) / 2.0
    w = np.zeros((N, n))
    for col, row in zip(w.T, rows):
        col[: row.size] = row
    whole = sizes <= 2 * _PIECE_DEGREE + 1
    bad = {}  # row -> its first non-finite sample
    which, roots = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    with np.errstate(all="ignore"):
        w *= _sph_dim_array(dim, N - 1)[:, None]
        size_of = np.abs(w)
        rest = _sum_columns(size_of[1:].T)
        # |u_k| <= 1 on [-1, 1], so G keeps its sign where |w_0| bounds the rest
        search = size_of[0] < rest
        if whole.any():
            found = _whole_roots(w, lam, np.flatnonzero(whole), sizes, search, bad)
            which += found[0]
            roots += found[1]
        if (search & ~whole).any():
            floor = 1e-13 * (size_of[0] + rest)
            found = _piece_roots(w, lam, np.flatnonzero(search & ~whole), sizes, floor, bad)
            which += found[0]
            roots += found[1]
        # each row's split points: -1, its roots in ascending order, 1
        which, roots = np.concatenate(which), np.concatenate(roots)
        counts = np.bincount(which, minlength=n)
        ends = np.cumsum(counts + 2)
        begins = ends - counts - 2
        owner = np.repeat(np.arange(n), counts + 2)
        t = np.ones(owner.size)
        t[begins] = -1.0
        inner = np.ones(owner.size, dtype=bool)
        inner[begins] = inner[ends - 1] = False
        t[inner] = roots[np.lexsort((roots, which))]
        # H at every split point, by one recurrence of index lam + 1
        a = lam + 0.5
        v = _series_sum(w[1:] if N > 1 else np.zeros((1, n)), lam + 1.0, t[None, :], owner)[0]
        H = w[0, owner] * betainc(a, a, 0.5 * (1.0 + t)) - (
            sphere_density_constant(dim) / (2.0 * lam + 1.0)
        ) * ((1.0 - t) * (1.0 + t)) ** a * v
        # each row's |H(t_(i+1)) - H(t_i)|, in order, zero-padded to the widest
        step = np.ones(owner.size - 1, dtype=bool)
        step[ends[:-1] - 1] = False
        column = np.arange(owner.size) - np.repeat(begins, counts + 2)
        table = np.zeros((n, int(counts.max()) + 1))
        table[owner[:-1][step], column[:-1][step]] = np.abs(np.diff(H))[step]
        out = _sum_columns(table)
    failed = sorted(set(bad) | set(np.flatnonzero(~np.isfinite(out)).tolist()))
    if failed:
        # a row with non-finite samples skipped its roots: report a sample
        value = float(bad.get(failed[0], out[failed[0]]))
        raise AccuracyError("exact zonal integral met non-finite values", value, value, rtol)
    return out.tolist()


def _means_in_one_loop(dim, rows, power, rtol, ahead):
    """``zonal_abs_power_mean`` of each 1-D row in one adaptive loop, the
    rows zero-padded to the widest; a batch of one looks ahead with
    ``ahead`` > 0."""
    if power <= 0:
        raise DomainError(f"power must be positive, got {power}")
    w = np.zeros((len(rows), max(row.size for row in rows)))
    for padded, row in zip(w, rows):
        padded[: row.size] = row
    w *= _sph_dim_array(dim, w.shape[1] - 1)
    absw = np.abs(w)
    wmax = absw.max(axis=1)
    # effective bandwidth sets the peak scale near theta = 0
    sig = absw >= 1e-7 * wmax[:, None]
    k_eff = np.where(sig.any(axis=1), w.shape[1] - 1 - sig[:, ::-1].argmax(axis=1), 0)
    deltas = np.minimum(np.maximum(0.25 / (k_eff + 2.0), 1e-9), 0.2)
    # an all-zero row has mean 0 and stays out of the loop
    live = np.flatnonzero(wmax != 0.0)
    out = [0.0] * len(w)
    if live.size == 0:
        return out
    lam = (dim - 2) / 2.0
    # one panel per column, so each term's weights are one row
    wt = np.ascontiguousarray(w[live].T)
    G = lambda theta, owner: np.ascontiguousarray(
        _series_sum(wt, lam, np.ascontiguousarray(np.cos(theta).T), owner).T
    )
    values = _abs_power_mean(dim, G, deltas[live].tolist(), power, rtol, ahead)
    for i, value in zip(live.tolist(), values):
        out[i] = value
    return out


def _route(size, power):
    """How ``_zonal_abs_power_means`` integrates a row of ``size`` terms."""
    if power == 1 and size <= _EXACT_TERMS:
        return "exact"
    return "long" if size > _AHEAD_TERMS else "core"


def _zonal_abs_power_means(dim, rows, power, rtol):
    """``zonal_abs_power_mean`` of each 1-D array of zonal coefficients from
    ``rows``, batched as the module docstring sets out."""
    out = []
    for route, run in itertools.groupby(rows, key=lambda row: _route(row.size, power)):
        if route == "long":
            # by module global, so a wrapped ``zonal_abs_power_mean`` sees it
            out += [zonal_abs_power_mean(dim, row, power, rtol) for row in run]
        elif route == "exact":
            while chunk := list(itertools.islice(run, _EXACT_CHUNK)):
                out += _exact_abs_means(dim, chunk, rtol)
        else:
            while chunk := list(itertools.islice(run, _PROFILE_CHUNK)):
                out += _means_in_one_loop(dim, chunk, power, rtol, 0)
    return out


def zonal_abs_power_mean(dim, zcoeffs, power=1.0, rtol=1e-8):
    """Normalized surface integral of |G|^power for a zonal series G: exact
    at power 1 for at most ``_EXACT_TERMS`` = 512 terms (roots found whole
    up to 65 terms, else piece by piece), else adaptive, with the mesh
    graded toward the pole at the scale of the coefficient decay; a series
    of more than ``_AHEAD_TERMS`` terms looks ahead."""
    zcoeffs = np.ascontiguousarray(zcoeffs, dtype=float)
    if _route(zcoeffs.size, power) == "exact":
        return _exact_abs_means(dim, [zcoeffs], rtol)[0]
    ahead = _AHEAD_PANELS if zcoeffs.size > _AHEAD_TERMS else 0
    return _means_in_one_loop(dim, [zcoeffs], power, rtol, ahead)[0]
