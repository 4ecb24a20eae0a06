"""Simulation toolkit for query-charged quantum entropy estimation.

Distributions are exact rational objects served through a counting oracle;
amplitude estimation is replaced by its closed-form outcome law, and every
quantum subroutine charges a query ledger, so estimator bias, variance,
success probability, and query scaling can be measured or enumerated
without any quantum hardware.
"""

from .distributions import (
    RationalDistribution,
    from_counts,
    from_json_dict,
    kl_divergence,
    load_distribution,
    min_entropy,
    power_sum,
    renyi_entropy,
    shannon_entropy,
    support_coverage,
)
from .oracle import DistributionOracle, QueryLedger, build_oracle
from .amplitude import estamp_prime_floor, grid_value
from .estimators import (
    EstimateReport,
    EstimatorConfig,
    annealing_schedule,
    prepare_kl,
    prepare_min_entropy,
    prepare_plugin,
    prepare_renyi,
    prepare_shannon,
    prepare_support_coverage,
    prepare_support_size,
)

__version__ = "0.1.0"

__all__ = [
    "DistributionOracle",
    "EstimateReport",
    "EstimatorConfig",
    "QueryLedger",
    "RationalDistribution",
    "annealing_schedule",
    "build_oracle",
    "estamp_prime_floor",
    "from_counts",
    "from_json_dict",
    "grid_value",
    "kl_divergence",
    "load_distribution",
    "min_entropy",
    "power_sum",
    "prepare_kl",
    "prepare_min_entropy",
    "prepare_plugin",
    "prepare_renyi",
    "prepare_shannon",
    "prepare_support_coverage",
    "prepare_support_size",
    "renyi_entropy",
    "shannon_entropy",
    "support_coverage",
    "__version__",
]
