"""Classify the right tail of a sample as Short, Medium, or Long.

The test multiplies the extreme spacing X_(n) - X_(n-1) by an estimated
exponential rate; under a medium tail the product is asymptotically Exp(1).
A blocked variant sums block statistics against gamma(k,1), Bryson's T*
offers a scale-invariant comparison, and a Monte Carlo engine reproduces
rejection-rate and quantile tables.
"""

from .base import (
    BlockTooSmallError,
    DatasetError,
    DegenerateSampleError,
    MaxNotAboveOneError,
    NonFiniteDrawError,
    TailClass,
)
from .blocking import (
    BlockedTestResult,
    Sample,
    TailTestResult,
    blocked_test,
    partition,
    recommend_blocks,
    shift_sample,
    tail_test,
)
from .bryson import (
    BrysonQuantileTable,
    BrysonResult,
    bryson_statistic,
    bryson_test,
    simulate_bryson_quantiles,
)
from .distributions import (
    DistributionSpec,
    format_spec,
    parse_spec,
    sample,
)
from .power import (
    SimulationPlan,
    SimulationReport,
    emit_table,
    parse_plan_file,
    run_plan,
)
from .rng import SeedSpec, erlang_tails, make_stream

__version__ = "0.1.0"

__all__ = [
    "BlockTooSmallError",
    "BlockedTestResult",
    "BrysonQuantileTable",
    "BrysonResult",
    "DatasetError",
    "DegenerateSampleError",
    "DistributionSpec",
    "MaxNotAboveOneError",
    "NonFiniteDrawError",
    "Sample",
    "SeedSpec",
    "SimulationPlan",
    "SimulationReport",
    "TailClass",
    "TailTestResult",
    "blocked_test",
    "bryson_statistic",
    "bryson_test",
    "emit_table",
    "erlang_tails",
    "format_spec",
    "make_stream",
    "parse_plan_file",
    "parse_spec",
    "partition",
    "recommend_blocks",
    "run_plan",
    "sample",
    "shift_sample",
    "simulate_bryson_quantiles",
    "tail_test",
]
