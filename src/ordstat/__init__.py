"""Order-statistic conditional laws and inspection planning for k-out-of-n
systems.

The library computes, for an iid sample of component lifetimes:

* joint and conditional CDFs of sample observations and the r-th order
  statistic (the failure time of an (n - r + 1)-out-of-n system),
* the exact, distribution-free pmf and mean of the number of sequential
  inspections needed to detect k failed components, in rational arithmetic,
* interval-censored mean residual life and mean past of a component given
  the system failed inside an inspection window,
* independent verification engines: exhaustive enumeration of failed-position
  sets and seeded Monte-Carlo simulation.

A command-line front end (``ordstat``) exposes every computation with CSV
and JSON output.
"""

__version__ = "0.1.0"

from .errors import (
    DensityUnsupportedError,
    DomainError,
    EnumerationSizeError,
    NullConditioningError,
    OrdstatError,
)
from .inspections import (
    InspectionPmf,
    Rational,
    expected_inspections,
    inspection_pmf,
    lambda_coeff,
)
from .joint import (
    EvalGrid,
    cond_cdf_between,
    cond_cdf_given_eq,
    cond_cdf_given_leq,
    eval_grid,
    joint_cdf_multi,
    joint_cdf_single,
    joint_pdf_multi,
    order_stat_cdf,
    pair_cond_joint_cdf,
    window_prob,
)
from .lifetimes import Empirical, Exponential, LifetimeModel, Uniform, Weibull, parse_model
from .mrl import (
    MrlSummary,
    cond_pdf_between,
    mean_past,
    mean_residual,
    mrl_summary,
)
from .oracle import (
    McEstimate,
    RngSeed,
    exhaustive_inspection_pmf,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
)
from .special import BetaParams, binom_tail, reg_inc_beta
from .system import SystemConfig, Window

__all__ = [
    "__version__",
    "OrdstatError",
    "DomainError",
    "NullConditioningError",
    "DensityUnsupportedError",
    "EnumerationSizeError",
    "BetaParams",
    "binom_tail",
    "reg_inc_beta",
    "LifetimeModel",
    "Exponential",
    "Weibull",
    "Uniform",
    "Empirical",
    "parse_model",
    "SystemConfig",
    "Window",
    "EvalGrid",
    "order_stat_cdf",
    "window_prob",
    "joint_cdf_single",
    "cond_cdf_given_leq",
    "cond_cdf_between",
    "cond_cdf_given_eq",
    "joint_cdf_multi",
    "joint_pdf_multi",
    "pair_cond_joint_cdf",
    "eval_grid",
    "Rational",
    "InspectionPmf",
    "lambda_coeff",
    "inspection_pmf",
    "expected_inspections",
    "MrlSummary",
    "cond_pdf_between",
    "mean_residual",
    "mean_past",
    "mrl_summary",
    "RngSeed",
    "McEstimate",
    "mc_event_prob",
    "mc_event_mean",
    "mc_inspection_pmf",
    "exhaustive_inspection_pmf",
]
