"""Classify the right tail of a sample as Short, Medium, or Long.

The test multiplies the extreme spacing X_(n) - X_(n-1) by an estimated
exponential rate; under a medium tail the product is asymptotically Exp(1).
A blocked variant sums block statistics against gamma(k,1), Bryson's T*
offers a scale-invariant comparison, and a Monte Carlo engine reproduces
rejection-rate and quantile tables.

Each public name is loaded on first use: `import tailtest` loads no submodule
(and not numpy), and reading `tailtest.tail_test` imports the module that
defines it. A submodule is an attribute of the package (`tailtest.power`) only
after `import tailtest.power`.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "base": ("BlockTooSmallError", "DatasetError", "DegenerateSampleError",
             "MaxNotAboveOneError", "NonFiniteDrawError", "TailClass"),
    "blocking": ("BlockedTestResult", "Sample", "TailTestResult", "blocked_test", "partition",
                 "recommend_blocks", "shift_sample", "tail_test"),
    "bryson": ("BrysonQuantileTable", "BrysonResult", "bryson_statistic", "bryson_test",
               "simulate_bryson_quantiles"),
    "distributions": ("DistributionSpec", "format_spec", "parse_spec", "sample"),
    "power": ("SimulationPlan", "SimulationReport", "emit_table", "parse_plan_file", "run_plan"),
    "rng": ("SeedSpec", "erlang_tails", "make_stream"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that defines a public name, and bind the name here for later reads."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return __all__
