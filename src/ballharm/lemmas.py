"""Verification harness for the kernel and norm estimates behind the
multiplier criterion.

Six checks, each producing a LemmaReport:

1. pointwise kernel bound      |Q_b(x,y)| <= C1 (1-r)^-b / |r rho x' - y'|^(n+[b])
                               + C2 / (1 - r rho)^(1+b), with the constants
                               fitted on a coarse grid and validated on a
                               finer one, plus the integrated consequence
                               that int |Q_b| grows no faster than
                               (1 - r rho)^-(1+b).  Q_b is twice the
                               growth kernel of ``ones`` at m = b.
2. weighted radial integral    int_0^1 (1-r)^a (1-r rho)^-L dr decays like
                               (1-rho)^(a - L + 1).
3. reproducing identity        sphere integral of (g * P_y')(r x') f(r x')
                               equals the coefficient pairing at radius r^2.
4. radial moment identity      int_0^1 (1-R^2)^m R^(2k+n-1) dR equals the
                               half Beta value in Gamma form.
5. mean-growth inequality      the q-th power of a weighted radial integral
                               of M_p(f, .) is dominated by the matching
                               integral of M_p^q (existence of the constant).
6. kernel-pairing identity     the boundary pairing equals twice the
                               weighted ball pairing against the
                               order-(m+1) derivative.

Identities (3, 4, 6) are checked to quadrature precision on seeded random
suites; estimates (1, 2, 5) are checked by constant/exponent fitting on
deterministic grids.  Default seed 1789, recorded in every report.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import AccuracyError, DomainError, UsageError
from .expansion import (
    DEGREE_CAP,
    HarmonicExpansion,
    _basis_blocks,
    _radial_values,
    frac_derivative,
    sph_dim,
)
from .multipliers import DEFAULT_SEED, _family_ones, _fit_window, _growth_curve, _growth_kernel
from .quadrature import _q_means, _settle_by_doubling, radial_rule, sphere_rule

__all__ = [
    "LemmaReport",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_lemma5",
    "check_lemma6",
]


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one numerical lemma check."""

    lemma_id: int
    parameter_grid: str
    measured: dict
    tolerance: float
    passed: bool

    def to_payload(self):
        return {
            "lemma_id": self.lemma_id,
            "parameter_grid": self.parameter_grid,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _random_full(n, degree, rng):
    blocks = [rng.standard_normal(sph_dim(n, k)) for k in range(degree + 1)]
    return HarmonicExpansion(n, "full", blocks)


def _worst_mismatch(n, mismatch, f, g, r, direction, tuples, degree, seed, r_max):
    """The relative mismatch of lemma 3 or 6, ``mismatch(deg)(f, g, y, r)``
    with rules sized for degree deg, at an explicit (f, g, r, direction),
    or its largest over a seeded suite of ``tuples`` random tuples of
    degree ``degree``, with r uniform in [0.2, r_max)."""
    if f is not None:
        if g is None or r is None or direction is None:
            raise UsageError("explicit mode needs f, g, r and direction together")
        return mismatch(max(f.max_degree, g.max_degree))(f, g, direction, r)
    rng = np.random.default_rng(seed)
    at = mismatch(degree)
    worst = 0.0
    for _ in range(tuples):
        ft = _random_full(n, degree, rng)
        gt = _random_full(n, degree, rng)
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        rt = rng.uniform(0.2, r_max)
        worst = max(worst, at(ft, gt, y, rt))
    return worst


def _sphere_pairing(u, v, radii, rule):
    """integral over the sphere of u(r x') v(r x') under the rule, at each
    radius; each expansion is sampled once for all the radii."""
    pairs = zip(_radial_values(u, radii, rule.nodes), _radial_values(v, radii, rule.nodes))
    return [float((rule.weights * uu * vv).sum()) for uu, vv in pairs]


def _poisson_convolution(g, direction):
    """g * P_{y'} as a full expansion: block k becomes c_k^(j) y_j^(k)(y')."""
    blocks = [c * y for c, y in zip(g.coeffs, _basis_blocks(g.dim, g.max_degree, direction))]
    return HarmonicExpansion(g.dim, "full", blocks)


# ---------------------------------------------------------------------------
# Lemma 1: pointwise kernel bound and its integrated consequence
# ---------------------------------------------------------------------------


def _nnls2(design, rhs):
    """argmin ||design @ c - rhs|| over c >= 0, for a design of two columns
    (Lawson & Hanson, Solving Least Squares Problems, ch. 23).  The optimum
    is the least-squares solution on its support: the unconstrained one
    when that is feasible, else the feasible one of the supports {1} and
    {2} with the least residual, else zero."""
    best, best_res = np.zeros(2), np.linalg.norm(rhs)
    for cols in ((0, 1), (0,), (1,)):
        coef = np.zeros(2)
        coef[list(cols)] = np.linalg.lstsq(design[:, cols], rhs, rcond=None)[0]
        if np.any(coef < 0.0):
            continue
        if len(cols) == 2:
            return coef
        res = np.linalg.norm(design @ coef - rhs)
        if res < best_res:
            best, best_res = coef, res
    return best


def check_lemma1(n, beta, grid=None, slack=1.05):
    """Fit (C1, C2) for the two-term kernel bound on a coarse grid, verify
    no violation beyond the slack factor on a 4x finer grid, and check that
    the integrated kernel grows no faster than (1 - r rho)^-(1+beta)."""
    if beta <= -1.0:
        raise DomainError(f"beta must be > -1, got {beta}")
    if grid is None:
        radii = np.array([0.15, 0.4, 0.65, 0.85, 0.95])
        cosines = np.cos(np.linspace(0.0, math.pi, 13))
    else:
        radii, cosines = (np.asarray(a, dtype=float) for a in grid)
    fine_radii = np.unique(np.concatenate([radii, (radii[1:] + radii[:-1]) / 2.0,
                                           1.0 - (1.0 - radii[-1]) / 2.0 * np.ones(1)]))
    fine_cos = np.cos(np.linspace(0.0, math.pi, 4 * (cosines.size - 1) + 1))

    ones = _family_ones()

    def assemble(rv, tv):
        # every bound term before any kernel: at large beta the terms
        # overflow, and the closed kernel takes beta + 1 steps per call
        r, s = np.repeat(rv, rv.size)[:, None], np.outer(rv, rv).reshape(-1, 1)
        dist = np.sqrt(np.maximum(1.0 - 2.0 * s * tv + s * s, 1e-30))
        with np.errstate(all="ignore"):
            t1 = ((1.0 - r) ** (-beta) / dist ** (n + math.floor(beta))).ravel()
            t2 = np.repeat((1.0 - s) ** (-(1.0 + beta)), tv.size)
        if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
            raise AccuracyError(f"lemma 1 bound terms are not finite at beta={beta:g}",
                                math.nan, math.nan, slack)
        # Q_beta is twice the growth kernel of ``ones`` at m = beta
        kernels = (_growth_kernel(n, beta, ones, si) for si in s.ravel())
        lhs = np.concatenate([2.0 * np.abs(G(np.arccos(tv))) for G in kernels])
        return lhs, t1, t2

    lhs, t1, t2 = assemble(radii, cosines)
    design = np.stack([t1, t2], axis=1)
    coef = _nnls2(design, lhs)
    c1, c2 = float(coef[0]), float(coef[1])
    # scale up so the coarse grid is dominated, then validate on the fine grid
    bound = c1 * t1 + c2 * t2
    scale = float(np.max(lhs / np.maximum(bound, 1e-300)))
    if scale > 1.0:
        c1, c2 = c1 * scale, c2 * scale
    lhs_f, t1_f, t2_f = assemble(fine_radii, fine_cos)
    margin = float(np.max(lhs_f / np.maximum(c1 * t1_f + c2 * t2_f, 1e-300)))

    # integrated consequence: growth exponent of int |Q_beta| in 1/(1 - s)
    js = np.arange(2.0, 8.5, 1.0)
    svals = 1.0 - 2.0 ** (-js)
    curve = _growth_curve(n, beta, ones, rtol=1e-8)
    ints = [2.0 * v for v in curve._fill(svals)]
    slope = float(np.polyfit(js * math.log(2.0), np.log(ints), 1)[0])

    passed = margin <= slack and slope <= 1.0 + beta + 0.1
    return LemmaReport(
        lemma_id=1,
        parameter_grid=(
            f"n={n}, beta={beta:g}, radii={[round(float(r), 4) for r in radii]}, "
            f"{cosines.size} cosines (fine grid 4x)"
        ),
        measured={
            "fitted_C1": c1,
            "fitted_C2": c2,
            "fine_grid_margin": margin,
            "integral_growth_exponent": slope,
            "integral_growth_limit": 1.0 + beta + 0.1,
        },
        tolerance=slack,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Lemma 2: weighted radial integral asymptotics
# ---------------------------------------------------------------------------


def check_lemma2(alpha, lam, rho_grid=None, slope_tol=0.05):
    """Fit the decay exponent of F(rho) = int_0^1 (1-r)^alpha (1-r rho)^-lam dr
    against the predicted alpha - lam + 1, and check the compensated values
    settle.  Requires lam > alpha + 1."""
    if alpha <= -1.0:
        raise DomainError(f"alpha must be > -1, got {alpha}")
    if lam <= alpha + 1.0:
        raise DomainError(
            f"the estimate requires lam > alpha + 1, got lam={lam}, alpha={alpha}"
        )
    if rho_grid is None:
        rho_grid = 1.0 - 2.0 ** (-np.arange(3.0, 12.5, 1.0))
    rho_grid = np.asarray(rho_grid, dtype=float)

    def F(rho):
        def level(N):
            rule = radial_rule(alpha, N)
            return math.fsum(rule.weights * (1.0 - rule.nodes * rho) ** (-lam))

        return _settle_by_doubling(level, 256, 1e-10, 6, "lemma 2 integral")

    vals = np.array([F(rho) for rho in rho_grid])
    eps = 1.0 - rho_grid
    # asymptotic rate: fit the deepest half of the grid, where the
    # O(eps^(lam - alpha - 1)) transient has decayed (same window rule as
    # the multiplier growth fits)
    slope = -_fit_window(list(-np.log(eps)), list(np.log(vals)))
    expected = alpha - lam + 1.0
    compensated = vals * eps ** (lam - alpha - 1.0)
    last = compensated[-3:]
    settled = float(np.max(last) / np.min(last) - 1.0)
    measured = {
        "fitted_slope": slope,
        "expected_slope": expected,
        "compensated_spread": settled,
        "F_at_grid": list(vals),
    }
    if alpha == 0.0 and lam == 2.0:
        closed = 1.0 / eps
        measured["closed_form_max_rel_err"] = float(np.max(np.abs(vals - closed) / closed))
    passed = abs(slope - expected) <= slope_tol and settled <= 0.02
    return LemmaReport(
        lemma_id=2,
        parameter_grid=f"alpha={alpha:g}, lam={lam:g}, 1-rho in [2^-12, 2^-3]",
        measured=measured,
        tolerance=slope_tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Lemma 3: reproducing identity for the Poisson convolution pairing
# ---------------------------------------------------------------------------


def _pairing_mismatch(n, f, g, y, r, rule):
    """Relative gap between the quadrature pairing and the coefficient sum."""
    gp = _poisson_convolution(g, y)
    left = _sphere_pairing(gp, f, [r], rule)[0]
    right = 0.0
    for k, yk in enumerate(_basis_blocks(n, min(f.max_degree, g.max_degree), y)):
        right += r ** (2 * k) * float((g.coeffs[k] * f.coeffs[k] * yk).sum())
    return abs(left - right) / max(abs(right), 1e-300)


def check_lemma3(n, f=None, g=None, r=None, direction=None, tuples=20,
                 degree=8, seed=DEFAULT_SEED, rel_tol=1e-8):
    """Quadrature of the boundary pairing against the coefficient sum.

    With explicit (f, g, r, direction) a single tuple is checked;
    otherwise a seeded random suite of the given size runs.
    """
    if n not in (2, 3):
        raise UsageError("explicit bases exist for n in {2, 3}")
    if degree > 12:
        raise UsageError("default sphere rules cover degrees up to 12 here")
    mismatch = lambda deg: functools.partial(_pairing_mismatch, n, rule=sphere_rule(n, 2 * deg + 4))
    worst = _worst_mismatch(n, mismatch, f, g, r, direction, tuples, degree, seed, 0.9)
    if f is not None:
        grid = f"n={n}, single explicit tuple, degrees ({f.max_degree}, {g.max_degree})"
    else:
        grid = f"n={n}, {tuples} seeded tuples, degree<={degree}, seed={seed}"
    return LemmaReport(
        lemma_id=3,
        parameter_grid=grid,
        measured={"max_rel_error": worst},
        tolerance=rel_tol,
        passed=worst <= rel_tol,
    )


# ---------------------------------------------------------------------------
# Lemma 4: radial moments of (1 - R^2)^m
# ---------------------------------------------------------------------------


def _capped_rule_size(N):
    """N, refused past DEGREE_CAP: the Gauss-Jacobi build grows like N^2."""
    if N > DEGREE_CAP:
        raise UsageError(f"a radial rule of {N} nodes exceeds the degree cap {DEGREE_CAP}")
    return N


def check_lemma4(n, m, k_max=40, rel_tol=1e-10):
    """Quadrature of int_0^1 (1-R^2)^m R^(2k+n-1) dR against the Gamma form
    (1/2) Gamma(m+1) Gamma(k+n/2) / Gamma(m+1+n/2+k) for k <= k_max."""
    if k_max > 60:
        raise UsageError("degree-exact rule sized for k_max <= 60")
    rule = radial_rule(0.0, _capped_rule_size(m + k_max + n + 2))
    R, w = rule.nodes, rule.weights
    worst = 0.0
    for k in range(k_max + 1):
        quad = float((w * (1.0 - R**2) ** m * R ** (2 * k + n - 1)).sum())
        exact = 0.5 * math.exp(
            gammaln(m + 1.0) + gammaln(k + n / 2.0) - gammaln(m + 1.0 + n / 2.0 + k)
        )
        worst = max(worst, abs(quad - exact) / exact)
    return LemmaReport(
        lemma_id=4,
        parameter_grid=f"n={n}, m={m}, k=0..{k_max}",
        measured={"max_rel_error": worst},
        tolerance=rel_tol,
        passed=worst <= rel_tol,
    )


# ---------------------------------------------------------------------------
# Lemma 5: mean-growth inequality under concave powers
# ---------------------------------------------------------------------------


def check_lemma5(
    p=2.0,
    q=0.5,
    beta=0.0,
    n=3,
    f=None,
    degree=8,
    seed=DEFAULT_SEED,
    x_levels=None,
    stability_tol=0.05,
):
    """Check that the constant relating the two weighted integrals of
    M_p(f, .) exists: the ratio stays finite and stable as the evaluation
    point approaches the boundary.

    f may be a zonal expansion; by default a seeded random one is drawn.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    if beta <= -1.0:
        raise DomainError(f"beta must be > -1, got {beta}")
    if x_levels is None:
        x_levels = np.arange(1.0, 9.5, 1.0)
    x_levels = np.asarray(x_levels, dtype=float)
    if f is not None:
        if f.kind != "zonal" or f.dim != n:
            raise UsageError("lemma 5 takes a zonal expansion in dimension n")
        degree = f.max_degree
    else:
        rng = np.random.default_rng(seed)
        f = HarmonicExpansion(n, "zonal", rng.standard_normal(degree + 1), np.eye(n)[-1])
    levels = {}

    def level_means(weight_exp, N):
        # M_p(f, .) at the nodes of one radial level, shared by every x
        if (weight_exp, N) not in levels:
            rule = radial_rule(weight_exp, N)
            levels[weight_exp, N] = rule, _q_means(f, p, rule.nodes, None)
        return levels[weight_exp, N]

    def lhs(x):
        def level(N):
            rule, means = level_means(beta, N)
            s = rule.nodes
            vals = means / (1.0 - x * s) ** (beta + 1.0) * s ** (n - 1)
            return float((rule.weights * vals).sum())

        return _settle_by_doubling(level, 64, 1e-9, 6, "lemma 5 lhs") ** q

    def rhs(x):
        def level(N):
            rule, means = level_means(beta * q + q - 1.0, N)
            s = rule.nodes
            vals = means**q / (1.0 - x * s) ** ((beta + 1.0) * q) * s ** (n - 1)
            return float((rule.weights * vals).sum())

        return _settle_by_doubling(level, 64, 1e-9, 6, "lemma 5 rhs")

    xs = 1.0 - 2.0 ** (-x_levels)
    ratios = np.array([lhs(x) / rhs(x) for x in xs])
    sups = [float(np.max(ratios[: len(ratios) - 2 + i])) for i in range(3)]
    spread = max(sups) / min(sups) - 1.0
    passed = bool(np.isfinite(ratios).all()) and spread <= stability_tol
    return LemmaReport(
        lemma_id=5,
        parameter_grid=(
            f"p={p:g}, q={q:g}, beta={beta:g}, n={n}, degree={degree}, "
            f"|x| = 1 - 2^-j for j in {[float(j) for j in x_levels]}, seed={seed}"
        ),
        measured={
            "sup_ratio": float(np.max(ratios)),
            "ratio_at_deepest": float(ratios[-1]),
            "deepening_spread": float(spread),
        },
        tolerance=stability_tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Lemma 6: boundary pairing equals the weighted ball pairing
# ---------------------------------------------------------------------------


def _ball_pairing_mismatch(n, m, f, g, y, r, rule, radial):
    R, wR = radial.nodes, radial.weights
    gp = _poisson_convolution(g, y)
    left = _sphere_pairing(gp, f, [r], rule)[0]
    inner = _sphere_pairing(frac_derivative(gp, m), f, r * R, rule)
    right = 2.0 * float((wR * inner * (1.0 - R**2) ** m * R ** (n - 1)).sum())
    return abs(left - right) / max(abs(left), 1e-300)


def check_lemma6(n, f=None, g=None, r=None, direction=None, m=2, tuples=20,
                 degree=6, seed=DEFAULT_SEED, rel_tol=1e-6):
    """Boundary pairing vs twice the (1-R^2)^m-weighted ball pairing with
    the order-(m+1) derivative.  Explicit (f, g, r, direction) checks a
    single tuple; otherwise a seeded random suite runs."""
    if n not in (2, 3):
        raise UsageError("explicit bases exist for n in {2, 3}")
    if degree > 10:
        raise UsageError("rules sized for degrees up to 10")
    if int(m) != m or m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    mismatch = lambda deg: functools.partial(
        _ball_pairing_mismatch, n, m, rule=sphere_rule(n, 2 * deg + 4),
        radial=radial_rule(0.0, _capped_rule_size(deg + m + n + 2)),
    )
    worst = _worst_mismatch(n, mismatch, f, g, r, direction, tuples, degree, seed, 0.85)
    if f is not None:
        grid = f"n={n}, m={m}, single explicit tuple"
    else:
        grid = f"n={n}, m={m}, {tuples} seeded tuples, degree<={degree}, seed={seed}"
    return LemmaReport(
        lemma_id=6,
        parameter_grid=grid,
        measured={"max_rel_error": worst},
        tolerance=rel_tol,
        passed=worst <= rel_tol,
    )
