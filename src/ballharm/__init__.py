"""Harmonic Bergman mixed-norm spaces on the unit ball of R^n.

Spherical-harmonic expansions and zonal kernels, weighted radial and
spherical quadrature for the mixed norms of A^{p,q}_alpha classes, a
numerical certification engine for coefficient multipliers between
A^{p,1}_alpha and A^{p,1}_beta, and a verification harness for the
supporting kernel and norm estimates.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    BallharmError,
    DomainError,
    IncompatibleExpansionError,
    UnsupportedBasisError,
    UsageError,
)
from .specfun import (
    gamma_ratio,
    gegenbauer,
    lambda_coeff,
    log_gamma,
    sph_dim,
    zonal,
)
from .expansion import (
    DEGREE_CAP,
    HarmonicExpansion,
    KernelSpec,
    MultiplierSequence,
    apply_multiplier,
    basis_value,
    convolve,
    evaluate,
    frac_derivative,
    load_expansion,
    load_multiplier,
    poisson,
    q_kernel,
    save_expansion,
    save_multiplier,
    tail_degree,
)
from .quadrature import (
    QuadratureRule,
    SpaceParams,
    mean_norm,
    mixed_norm,
    radial_rule,
    sphere_rule,
    zonal_sphere_integral,
)
from .multipliers import (
    CheckReport,
    Condition2Report,
    ProbeReport,
    TheoremParams,
    condition2_integral,
    condition2_sup,
    equivalence_verdict,
    multiplier_family,
    probe_operator_norm,
)
from .lemmas import (
    LemmaReport,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
)
