"""Built-in acceptance suite: one callable per criterion, plus a runner.

Each criterion returns a dict with at least ``id``, ``name``, ``pass`` and
the measured values backing the verdict.  ``run_all`` executes them in
order and assembles a deterministic report (no timings inside the report;
they go to stderr), so two runs with the same seed produce byte-identical
output.

Fast mode shrinks grids and sample counts and doubles the tolerances of
the asymptotic (fitted) checks; identity checks keep their tolerances.
"""

import math
import os
import sys
import tempfile
import time

import numpy as np

from . import reports
from .cli import main as cli_main
from .expansion import HarmonicExpansion, KernelSpec, _basis_matrix, poisson, sph_dim, tail_degree
from .lemmas import (
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma6,
)
from .multipliers import (
    _CURVE_CACHE,
    DEFAULT_SEED,
    TheoremParams,
    condition2_sup,
    equivalence_verdict,
    probe_operator_norm,
)
from .quadrature import _q_means, sphere_rule
from ._zonalseries import zonal_series_values


def criterion_lemma4(fast=False, seed=DEFAULT_SEED):
    worst = 0.0
    k_max = 20 if fast else 40
    for n in (2, 3, 4, 5):
        for m in range(1, 6):
            rep = check_lemma4(n, m, k_max=k_max)
            worst = max(worst, rep.measured["max_rel_error"])
    return {
        "id": 1,
        "name": "lemma4-exactness",
        "pass": worst <= 1e-10,
        "max_rel_error": worst,
        "tolerance": 1e-10,
    }


def criterion_orthonormality(fast=False, seed=DEFAULT_SEED):
    deg = 10 if fast else 16
    worst = 0.0
    for n in (2, 3):
        rule = sphere_rule(n, 2 * deg + 2)
        B = _basis_matrix(n, deg, rule.nodes)
        gram = B.T @ (rule.weights[:, None] * B)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return {
        "id": 2,
        "name": "orthonormality",
        "pass": worst <= 1e-10,
        "max_gram_deviation": worst,
        "tolerance": 1e-10,
    }


def criterion_parseval(fast=False, seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    draws = 6 if fast else 20
    K = 16
    worst = 0.0
    for n in (2, 3):
        rule = sphere_rule(n, 2 * K + 2)
        for _ in range(draws):
            blocks = [rng.standard_normal(sph_dim(n, k)) for k in range(K + 1)]
            f = HarmonicExpansion(n, "full", blocks)
            radii = (0.3, 0.7, 0.95)
            for r, m2 in zip(radii, _q_means(f, 2.0, radii, rule).tolist()):
                m2sq = m2**2
                coeff = sum(
                    r ** (2 * k) * float((blocks[k] ** 2).sum()) for k in range(K + 1)
                )
                worst = max(worst, abs(m2sq - coeff) / coeff)
    return {
        "id": 3,
        "name": "parseval",
        "pass": worst <= 1e-9,
        "max_rel_error": worst,
        "tolerance": 1e-9,
    }


def criterion_poisson_closed_form(fast=False, seed=DEFAULT_SEED):
    worst = 0.0
    radii = np.array([0.1, 0.3, 0.5, 0.7, 0.85, 0.95])
    cosines = np.cos(np.linspace(0.0, math.pi, 9 if fast else 33))
    for n in (2, 3):
        K = tail_degree("poisson", n, 0.95, 1e-9)
        P = poisson(KernelSpec(n, np.eye(n)[0], K))
        for r in radii:
            series = zonal_series_values(n, P.coeffs * r ** np.arange(K + 1.0), cosines)
            closed = (1.0 - r * r) / (1.0 - 2.0 * r * cosines + r * r) ** (n / 2.0)
            worst = max(worst, float(np.max(np.abs(series - closed) / closed)))
    return {
        "id": 4,
        "name": "poisson-closed-form",
        "pass": worst <= 1e-8,
        "max_rel_error": worst,
        "tolerance": 1e-8,
    }


def criterion_pairing_identities(fast=False, seed=DEFAULT_SEED):
    tuples = 6 if fast else 20
    worst3 = 0.0
    worst6 = 0.0
    for n in (2, 3):
        worst3 = max(worst3, check_lemma3(n, tuples=tuples, seed=seed).measured["max_rel_error"])
        worst6 = max(worst6, check_lemma6(n, m=2, tuples=tuples, seed=seed).measured["max_rel_error"])
    ok = worst3 <= 1e-8 and worst6 <= 1e-6
    return {
        "id": 5,
        "name": "pairing-identities",
        "pass": ok,
        "lemma3_max_rel_error": worst3,
        "lemma3_tolerance": 1e-8,
        "lemma6_max_rel_error": worst6,
        "lemma6_tolerance": 1e-6,
    }


def criterion_lemma2_exponents(fast=False, seed=DEFAULT_SEED):
    tol = 0.1 if fast else 0.05
    cases = []
    ok = True
    for alpha, lam in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        rep = check_lemma2(alpha, lam, slope_tol=tol)
        entry = {
            "alpha": alpha,
            "lam": lam,
            "fitted_slope": rep.measured["fitted_slope"],
            "expected_slope": rep.measured["expected_slope"],
        }
        ok = ok and abs(rep.measured["fitted_slope"] - rep.measured["expected_slope"]) <= tol
        if "closed_form_max_rel_err" in rep.measured:
            entry["closed_form_max_rel_err"] = rep.measured["closed_form_max_rel_err"]
            ok = ok and rep.measured["closed_form_max_rel_err"] <= 1e-10
        cases.append(entry)
    return {
        "id": 6,
        "name": "lemma2-exponents",
        "pass": ok,
        "cases": cases,
        "slope_tolerance": tol,
    }


def criterion_lemma1_consequence(fast=False, seed=DEFAULT_SEED):
    slack = 0.2 if fast else 0.1
    cases = []
    ok = True
    for n in (2, 3):
        for beta in (1.0, 2.0):
            rep = check_lemma1(n, beta)
            slope = rep.measured["integral_growth_exponent"]
            good = slope <= 1.0 + beta + slack
            ok = ok and good and rep.passed
            cases.append(
                {
                    "n": n,
                    "beta": beta,
                    "integral_growth_exponent": slope,
                    "limit": 1.0 + beta + slack,
                    "pointwise_bound_margin": rep.measured["fine_grid_margin"],
                }
            )
    return {
        "id": 7,
        "name": "lemma1-consequence",
        "pass": ok,
        "cases": cases,
    }


def _theorem_cell(mult_spec, p, alpha, beta, m, dim, j_top, probe_levels, seed):
    params = TheoremParams(p=p, alpha=alpha, beta=beta, m=m, dim=dim)
    cond2 = condition2_sup(mult_spec, params, j_levels=list(range(3, j_top + 1)))
    probe = probe_operator_norm(
        mult_spec,
        params,
        family="qm_kernels",
        sizes=[1.0 - 2.0 ** (-j) for j in probe_levels],
        seed=seed,
    )
    return cond2, probe, equivalence_verdict(cond2, probe)


def criterion_theorem_identity(fast=False, seed=DEFAULT_SEED):
    """Every cell goes through the command-line entry point; its exit code
    is part of the criterion."""
    j_top = 8 if fast else 10
    exp_tol = 0.2 if fast else 0.1
    grid = (0.25, 0.5, 0.75)
    cells = []
    ok = True
    fitted_exponent = None
    for alpha in grid:
        for beta in grid:
            fd, tmp = tempfile.mkstemp(suffix=".json")
            os.close(fd)
            try:
                code = cli_main(
                    [
                        "mult-check",
                        "--dim", "3", "--p", "1", "--m", "2",
                        "--alpha", str(alpha), "--beta", str(beta),
                        "--multiplier", "ones",
                        "--rho-levels", str(j_top),
                        "--seed", str(seed),
                        "--out", tmp,
                    ]
                )
                rep = reports.load_from(tmp)
            finally:
                os.unlink(tmp)
            cond2 = rep["values"]["condition2"]
            probe = rep["values"]["probe"]
            fitted_exponent = cond2["fitted_exponent"]
            expected = "bounded" if beta >= alpha else "unbounded"
            cell_ok = (
                code == 0
                and cond2["verdict"] == expected
                and probe["verdict"] == expected
            )
            ok = ok and cell_ok
            cells.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "exit_code": code,
                    "condition2": cond2["verdict"],
                    "probe": probe["verdict"],
                    "equivalence": rep["verdicts"]["equivalence"],
                    "expected": expected,
                    "phi_exponent": cond2["phi_exponent"],
                    "probe_growth_fit": probe["growth_fit"],
                }
            )
    exp_ok = abs(fitted_exponent - 3.0) <= exp_tol
    ok = ok and exp_ok
    return {
        "id": 8,
        "name": "theorem-identity-multiplier",
        "pass": ok,
        "fitted_integral_exponent": fitted_exponent,
        "expected_integral_exponent": 3.0,
        "exponent_tolerance": exp_tol,
        "cells": cells,
    }


def criterion_theorem_powerlaw(fast=False, seed=DEFAULT_SEED):
    j_top = 8 if fast else 10
    probe_levels = range(3, 8) if fast else range(3, 10)
    m, n, p = 2.0, 3, 1.0
    t_values = (0.0, 0.5) if fast else (0.0, 0.25, 0.5, 1.0)
    deltas = (-0.25, 0.0) if fast else (-0.5, -0.25, 0.0, 0.25)
    cells = []
    ok = True
    for t in t_values:
        spec = "ones" if t == 0.0 else f"powerlaw:{t:g}"
        for delta in deltas:
            alpha = 0.75 if delta <= -0.5 else 0.5
            beta = alpha + delta
            cond2, probe, check = _theorem_cell(
                spec, p, alpha, beta, m, n, j_top, probe_levels, seed
            )
            cells.append(
                {
                    "multiplier": spec,
                    "alpha": alpha,
                    "beta": beta,
                    "condition2": cond2.verdict,
                    "probe": probe.verdict,
                    "equivalence": check.verdict,
                    "phi_exponent": cond2.phi_exponent,
                    "probe_growth_fit": probe.growth_fit,
                }
            )
            ok = ok and check.verdict == "PASS"
    return {
        "id": 9,
        "name": "theorem-powerlaw-multipliers",
        "pass": ok,
        "cells": cells,
    }


def criterion_determinism(fast=False, seed=DEFAULT_SEED):
    """Re-render a representative report twice from scratch, clearing the
    value caches in between so the whole numeric stack actually reruns."""
    params = TheoremParams(p=1.0, alpha=0.5, beta=0.25, m=2.0, dim=3)
    texts = []
    for _ in range(2):
        _CURVE_CACHE.clear()
        cond2 = condition2_sup("ones", params, j_levels=list(range(3, 8)))
        probe = probe_operator_norm(
            "ones", params, sizes=[1.0 - 2.0 ** (-j) for j in range(3, 7)], seed=seed
        )
        check = equivalence_verdict(cond2, probe)
        texts.append(
            reports.dumps(
                {
                    "condition2": cond2.to_payload(),
                    "probe": probe.to_payload(),
                    "equivalence": check.to_payload(),
                }
            )
        )
    _CURVE_CACHE.clear()
    same = texts[0] == texts[1]
    return {
        "id": 10,
        "name": "determinism",
        "pass": same,
        "byte_identical": same,
    }


CRITERIA = [
    criterion_lemma4,
    criterion_orthonormality,
    criterion_parseval,
    criterion_poisson_closed_form,
    criterion_pairing_identities,
    criterion_lemma2_exponents,
    criterion_lemma1_consequence,
    criterion_theorem_identity,
    criterion_theorem_powerlaw,
    criterion_determinism,
]


def run_all(fast=False, seed=DEFAULT_SEED, echo=print):
    """Run every criterion; returns (all_pass, report_dict)."""
    results = []
    all_pass = True
    for fn in CRITERIA:
        t0 = time.perf_counter()
        res = fn(fast=fast, seed=seed)
        dt = time.perf_counter() - t0
        all_pass = all_pass and res["pass"]
        results.append(res)
        status = "PASS" if res["pass"] else "FAIL"
        detail = {
            k: v
            for k, v in res.items()
            if k not in ("id", "name", "pass") and not isinstance(v, list)
        }
        brief = ", ".join(f"{k}={_short(v)}" for k, v in list(detail.items())[:3])
        echo(f"criterion {res['id']:02d} {res['name']}: {status}" + (f" ({brief})" if brief else ""))
        print(f"  [{res['name']}: {dt:.1f}s]", file=sys.stderr)
    report = reports.envelope(
        "selftest", {"fast": fast}, {"criteria": results}, {}, {"all_pass": all_pass}, seed
    )
    return all_pass, report


def _short(v):
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)
