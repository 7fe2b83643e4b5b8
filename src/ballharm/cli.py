"""Command-line front end.

Subcommands
-----------
norm        mixed norm of a coefficient file under chosen (p, q, alpha).
kernel      write a truncated Poisson / Bergman-kernel coefficient file,
            optionally evaluating it at a radius and cosine.
lemma       run one of the six estimate/identity checks.
mult-check  certify a coefficient multiplier: growth criterion, probe
            lower bounds, and the agreement verdict.
selftest    run the built-in acceptance suite.

Exit codes: 0 success / verdicts agree, 1 a lemma or selftest check
failed (its report is still written), 2 usage or validation failure,
3 accuracy failure (refinements disagree), 4 theorem disagreement,
5 inconclusive.  Reports are deterministic structured text; numbers carry
17 significant digits.  No command mutates its inputs.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import reports
from .errors import AccuracyError, BallharmError, DomainError, UsageError
from .expansion import (
    KernelSpec,
    load_expansion,
    load_multiplier,
    poisson,
    q_kernel,
    save_expansion,
    tail_degree,
)
from .lemmas import (
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
)
from .multipliers import (
    DEFAULT_SEED,
    TheoremParams,
    condition2_sup,
    equivalence_verdict,
    multiplier_family,
    probe_operator_norm,
)
from .quadrature import (
    NORM_RTOL,
    SpaceParams,
    _checked_norm_levels,
    _default_sphere_res,
    _direct_pnorm,
    _mixed_norm_levels,
)
from ._zonalseries import zonal_series_values

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ACCURACY = 3
EXIT_DISAGREE = 4
EXIT_INCONCLUSIVE = 5


def _emit(report, out_path):
    text = reports.dumps(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text):
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ballharm",
        description="harmonic mixed-norm spaces and coefficient multipliers on the unit ball",
        epilog=(
            "exit codes: 0 success / verdicts agree, 1 a lemma or selftest check failed "
            "(its report is still written), 2 usage or validation failure, 3 accuracy "
            "failure (refinements disagree), 4 theorem disagreement, 5 inconclusive"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="mixed norm of a coefficient file")
    p_norm.add_argument("--input", required=True, help="coefficient file")
    p_norm.add_argument("--p", type=float, default=1.0)
    p_norm.add_argument("--q", type=float, default=1.0)
    p_norm.add_argument("--alpha", type=float, default=0.0)
    p_norm.add_argument("--convention", choices=("definition", "theorem"), default="definition")
    p_norm.add_argument("--radial-N", type=int, default=48, dest="radial_N")
    p_norm.add_argument("--resolution", type=int, default=None)
    p_norm.add_argument("--out", default=None)

    p_ker = sub.add_parser("kernel", help="write a kernel coefficient file")
    p_ker.add_argument("--dim", type=int, default=3)
    p_ker.add_argument("--m", type=_finite_float, default=None,
                       help="kernel order; omitted means the Poisson kernel")
    p_ker.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    p_ker.add_argument("--r-max", type=_finite_float, default=0.9, dest="r_max")
    p_ker.add_argument("--tol", type=_finite_float, default=1e-9)
    p_ker.add_argument("--pole", default=None, help="comma-separated unit vector")
    p_ker.add_argument("--eval-r", type=_finite_float, default=None, dest="eval_r")
    p_ker.add_argument("--eval-t", type=_finite_float, default=None, dest="eval_t")
    p_ker.add_argument("--out", default=None, help="coefficient file to write")

    p_lem = sub.add_parser("lemma", help="run a lemma check")
    p_lem.add_argument("--id", type=int, required=True)
    p_lem.add_argument("--dim", type=int, default=3)
    p_lem.add_argument("--alpha", type=_finite_float, default=0.5)
    p_lem.add_argument("--beta", type=_finite_float, default=1.0)
    p_lem.add_argument("--lam", type=_finite_float, default=2.0)
    p_lem.add_argument("--m", type=_finite_float, default=2.0)
    p_lem.add_argument("--p", type=_finite_float, default=2.0)
    p_lem.add_argument("--q", type=_finite_float, default=0.5)
    p_lem.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_lem.add_argument("--fast", action="store_true")
    p_lem.add_argument("--out", default=None)

    p_mc = sub.add_parser("mult-check", help="certify a coefficient multiplier")
    p_mc.add_argument("--dim", type=int, default=3)
    p_mc.add_argument("--p", type=float, default=1.0)
    p_mc.add_argument("--alpha", type=float, required=True)
    p_mc.add_argument("--beta", type=float, required=True)
    p_mc.add_argument("--m", type=float, default=2.0)
    p_mc.add_argument("--multiplier", default="ones",
                      help="named family (ones, powerlaw:t, finite:K) or a file path")
    p_mc.add_argument("--rho-levels", type=int, default=10, dest="rho_levels",
                      help="deepest grid level J; the grid is 1-rho = 2^-j, j=3..J")
    p_mc.add_argument("--probe-family", choices=("qm_kernels", "random_polynomials"),
                      default="qm_kernels", dest="probe_family")
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_mc.add_argument("--fast", action="store_true")
    p_mc.add_argument("--out", default=None)

    p_st = sub.add_parser("selftest", help="run the acceptance suite")
    p_st.add_argument("--fast", action="store_true")
    p_st.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_st.add_argument("--out", default=None)

    return parser


# one parser per process: building it costs about a millisecond, and
# in-process callers such as ``selftest`` call ``main`` repeatedly
_parser = functools.cache(build_parser)


def cmd_norm(args):
    f = load_expansion(args.input)
    params = SpaceParams(p=args.p, q=args.q, alpha=args.alpha, convention=args.convention)
    res = args.resolution or _default_sphere_res(f)
    coarse, value, fine_profile = _mixed_norm_levels(f, params, args.radial_N, res)
    _checked_norm_levels(coarse, value)
    delta = abs(value - coarse) / max(abs(value), 1e-300)
    values = {
        "norm": value,
        "refinement_levels": [args.radial_N, 2 * args.radial_N],
        "level_delta": delta,
    }
    if args.p == args.q:
        direct = _direct_pnorm(f, params, args.radial_N * 2, res * 2, fine_profile)
        values["pq_direct_norm"] = direct
        values["pq_consistency"] = abs(value - direct) / max(abs(value), 1e-300)
    report = reports.envelope(
        "norm",
        {
            "input": args.input,
            "p": args.p,
            "q": args.q,
            "alpha": args.alpha,
            "convention": args.convention,
            "radial_N": args.radial_N,
            "resolution": res,
        },
        values,
        {"accuracy_rtol": NORM_RTOL},
        {"status": "ok"},
        DEFAULT_SEED,
    )
    print(f"norm = {value:.12g}  ({args.convention}, p={args.p:g}, q={args.q:g}, alpha={args.alpha:g})")
    _emit(report, args.out)
    return EXIT_OK


def cmd_kernel(args):
    if args.pole is None:
        pole = np.eye(args.dim)[0]
    else:
        pole = np.array([float(v) for v in args.pole.split(",")])
    if args.max_degree is not None:
        K = args.max_degree
    elif args.m is None:
        K = tail_degree("poisson", args.dim, args.r_max, args.tol)
    else:
        K = tail_degree("q_kernel", args.dim, args.r_max, args.tol, m=args.m)
    spec = KernelSpec(args.dim, pole, K, order=args.m if args.m is not None else 0.0)
    kernel = poisson(spec) if args.m is None else q_kernel(spec)
    kind = "poisson" if args.m is None else f"q_kernel(m={args.m:g})"
    values = {"kind": kind, "max_degree": K}
    if args.eval_r is not None:
        # the tail bound guarantees --tol only inside |x| <= r_max
        if args.max_degree is None and not 0.0 <= args.eval_r <= args.r_max:
            raise UsageError(f"--eval-r {args.eval_r} lies outside [0, r_max = {args.r_max:g}]")
        if not 0.0 <= args.eval_r < 1.0:
            raise UsageError(f"--eval-r {args.eval_r} lies outside [0, 1)")
        t = args.eval_t if args.eval_t is not None else 1.0
        rk = args.eval_r ** np.arange(K + 1, dtype=float)
        values["value"] = float(zonal_series_values(args.dim, kernel.coeffs * rk, t))
        values["eval_r"] = args.eval_r
        values["eval_t"] = t
    if args.out:
        save_expansion(kernel, args.out)
        values["written"] = args.out
    report = reports.envelope(
        "kernel",
        {"dim": args.dim, "m": args.m, "r_max": args.r_max, "tol": args.tol},
        values,
        {},
        {"status": "ok"},
        DEFAULT_SEED,
    )
    print(f"{kind}: dim={args.dim}, degree {K}" + (f", written to {args.out}" if args.out else ""))
    if not args.out:
        _emit(report, None)
    return EXIT_OK


def cmd_lemma(args):
    tuples = 8 if args.fast else 20
    if args.id == 1:
        rep = check_lemma1(args.dim, args.beta)
    elif args.id == 2:
        rep = check_lemma2(args.alpha, args.lam)
    elif args.id == 3:
        rep = check_lemma3(args.dim, tuples=tuples, seed=args.seed)
    elif args.id == 4:
        rep = check_lemma4(args.dim, int(args.m))
    elif args.id == 5:
        rep = check_lemma5(p=args.p, q=args.q, beta=args.beta, n=args.dim, seed=args.seed)
    elif args.id == 6:
        rep = check_lemma6(args.dim, m=int(args.m), tuples=tuples, seed=args.seed)
    else:
        raise UsageError(f"lemma id must lie in 1..6, got {args.id}")
    report = reports.envelope(
        "lemma",
        {"id": args.id, "dim": args.dim, "seed": args.seed, "fast": args.fast},
        rep.to_payload(),
        {"tolerance": rep.tolerance},
        {"pass": rep.passed},
        args.seed,
    )
    print(f"lemma {args.id}: {'PASS' if rep.passed else 'FAIL'}  [{rep.parameter_grid}]")
    _emit(report, args.out)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _load_multiplier_arg(spec, dim):
    try:
        return multiplier_family(spec)
    except DomainError:
        if not os.path.isfile(spec):
            raise
    mult = load_multiplier(spec)
    if mult.dim != dim:
        raise UsageError(
            f"multiplier file has dim {mult.dim}, expected {dim}"
        )
    return mult


def cmd_mult_check(args):
    params = TheoremParams(p=args.p, alpha=args.alpha, beta=args.beta, m=args.m, dim=args.dim)
    mult = _load_multiplier_arg(args.multiplier, args.dim)
    j_top = min(args.rho_levels, 8) if args.fast else args.rho_levels
    probe_top = max(j_top - 1, 5)
    cond2 = condition2_sup(mult, params, j_levels=list(range(3, j_top + 1)))
    probe = probe_operator_norm(
        mult,
        params,
        family=args.probe_family,
        sizes=(
            [1.0 - 2.0 ** (-j) for j in range(3, probe_top + 1)]
            if args.probe_family == "qm_kernels"
            else None
        ),
        seed=args.seed,
    )
    check = equivalence_verdict(cond2, probe)
    report = reports.envelope(
        "mult-check",
        {
            "dim": args.dim,
            "p": args.p,
            "alpha": args.alpha,
            "beta": args.beta,
            "m": args.m,
            "multiplier": args.multiplier,
            "rho_levels": j_top,
            "probe_family": args.probe_family,
            "fast": args.fast,
        },
        {
            "condition2": cond2.to_payload(),
            "probe": probe.to_payload(),
            "equivalence": check.to_payload(),
        },
        check.tolerances,
        {
            "condition2": cond2.verdict,
            "probe": probe.verdict,
            "equivalence": check.verdict,
        },
        args.seed,
    )
    print(
        f"mult-check {args.multiplier}: condition2={cond2.verdict}, "
        f"probe={probe.verdict} -> {check.verdict}"
    )
    _emit(report, args.out)
    if check.verdict == "PASS":
        return EXIT_OK
    if check.verdict == "FAIL":
        return EXIT_DISAGREE
    return EXIT_INCONCLUSIVE


def cmd_selftest(args):
    from .selftest import run_all

    ok, report = run_all(fast=args.fast, seed=args.seed)
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "norm": cmd_norm,
        "kernel": cmd_kernel,
        "lemma": cmd_lemma,
        "mult-check": cmd_mult_check,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (DomainError, UsageError, BallharmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
