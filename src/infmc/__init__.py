"""Importance sampling, population Monte Carlo, and sample-set inflation for
models with factorizing likelihoods."""

from .distributions import (
    Density,
    DiagGaussian,
    Dirichlet,
    Gamma,
    ScalarInverseWishart,
    StudentT,
    TupleDensity,
)
from .estimators import (
    DegenerateWeightsError,
    Estimate,
    SampleSet,
    TestFunction,
    combine,
    decomposition_residual,
    error_convexity_margin,
    evidence_estimate,
    resample,
    self_normalized_estimate,
    snis_variance_estimate,
    standard_estimate,
)
from .factorized import (
    FactorizedModel,
    FactorizedPoint,
    FactorizedProposal,
    InflationBudgetError,
    grouped_inflate,
    inflate,
    plain_factorized_sampler,
)
from .models import (
    DmmSpec,
    GaussianToy,
    SyntheticDataset,
    component_means_function,
    dmm_init_proposal,
    dmm_model,
    load_dataset,
    make_synthetic,
    save_dataset,
)
from .pmc import (
    DegenerateGenerationError,
    GaussianKernel,
    GammaKernel,
    Generation,
    PmcConfig,
    TupleKernel,
    VarianceKernel,
    pooled_estimate,
    run_pmc,
    trace_metrics,
)
from .experiments import (
    ExperimentConfig,
    MetricRow,
    MetricSeries,
    TheoremReport,
    emit,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)
from .rng import RandomSource

__version__ = "0.1.0"
