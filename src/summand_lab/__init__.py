"""Numerical verification of weak limits of triangular-array sums.

Exact characteristic-function algebra for infinitely decomposable laws,
accumulation measures and their limit exponents, Lindeberg-style criteria
with pass/fail verdicts, and reproducible Monte Carlo checks.
"""

from .accumulation import (
    AccumMeasure,
    DiscontinuityPointError,
    PreweakDistance,
    build_accum,
    preweak_distance,
)
from .arrays import (
    ArrayGenerator,
    ArraySpecError,
    BernoulliPoisson,
    ComponentDist,
    ExplicitArray,
    FiniteDiscrete,
    Gaussian,
    HypothesisReport,
    RowSpec,
    StandardizedIid,
    Uniform,
    hypothesis_check,
    row_statistics,
)
from .cf import (
    CauchyCF,
    CharFn,
    CharFnError,
    ConjugateCF,
    Degenerate,
    GammaCF,
    GaussianCF,
    KolmogorovCF,
    NoClosedFormRootError,
    PoissonTypeProduct,
    PoissonTypeTerm,
    PowerCF,
    ProductCF,
    TranslatedPoissonCF,
    eval_cf,
    pth_root,
)
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .criteria import (
    ComparisonRegimeError,
    NonCenteredRowError,
    TrendCheck,
    VerdictReport,
    comparison_residual,
    gaussian_verdict,
    general_verdict,
    lindeberg_gaussian,
    lindeberg_poisson,
    poisson_verdict,
)
from .exponent import (
    CurvatureCheck,
    MeshRefinementError,
    curvature_check,
    exponent_eval,
    limit_char_fn,
    poisson_product_approx,
)
from .montecarlo import (
    SimulationPlan,
    ecf_distance,
    ks_distance,
    run_simulation,
    sample_sums,
    sample_sums_chunked,
    std_normal_cdf,
    translated_poisson_cdf,
    tv_binomial_poisson,
)

__version__ = "0.1.0"
