"""Recall estimation and confidence intervals for sampled retrieval audits.

Estimate the recall of a retrieval or classification from stratified random
samples of the retrieved and unretrieved segments, attach two-tailed
confidence intervals by any of nine methods, and evaluate interval coverage
quality by simulation over configurable scenarios.
"""

from .binomial import (
    BinomialSample,
    ProportionInterval,
    agresti_coull,
    clopper_pearson,
    coverage_curve,
    jeffreys,
    mean_coverage,
    wald,
    wilson,
)
from .core import (
    BiasResult,
    RealizationTruth,
    RecallProblem,
    SampleDesign,
    SamplingDistribution,
    SegmentData,
    StratumCounts,
    UndefinedEstimateError,
    YieldEstimate,
    estimate_recall,
    estimate_segment_yield,
    estimator_bias,
    exact_sampling_distribution,
    recall_variance,
)
from .distributions import (
    BetaBinomialParams,
    HypergeomParams,
    beta_binomial_pmf,
    binomial_pmf,
    chi_square_1df_quantile,
    hypergeom_pmf,
    hypergeom_successor_ratio,
    normal_quantile,
    sample_hypergeom,
)
from .evaluation import (
    CoverageReport,
    EvalConfig,
    closest_coverage_shares,
    coverage_rmse,
    design_width_curve,
    evaluate_coverage,
    width_vs_sample_size,
)
from .intervals import (
    METHODS,
    CountBatch,
    MonteCarloConfig,
    PriorSpec,
    RecallInterval,
    compute_interval,
    expected_information_gain,
    interval_bounds,
    koopman_interval,
    monte_carlo_interval,
    most_conservative_prior,
)
from .io import interval_record, load_problem_csv
from .scenarios import (
    ScenarioSpec,
    builtin_scenario,
    load_scenario_config,
    sample_realization,
)
from .streams import RandomStream

__version__ = "0.1.0"
