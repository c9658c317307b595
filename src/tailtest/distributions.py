"""The distribution catalogue used by the simulations and the CLI.

Each family carries a sampler and whether its support is nonnegative. Specs
parse from strings of the form ``family:param[,param]`` (e.g. ``pareto:2``,
``weibull:0.5``, ``exp:100``, ``loggamma:0.5,1``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import SeedSpec, make_stream

_EULER = 0.5772156649015329  # Euler-Mascheroni constant
# values per chunk of replicates scored together: 128 KB of float64, cache-sized
_CHUNK_VALUES = 2**14


@dataclass(frozen=True)
class DistributionSpec:
    """One catalogue member: a family name and its (strictly positive) parameters."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        fam = _lookup(self.family)
        object.__setattr__(self, "family", fam.key)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != len(fam.param_names):
            names = ",".join(fam.param_names) or "none"
            raise ValueError(
                f"{fam.key} takes {len(fam.param_names)} parameter(s) ({names}), "
                f"got {len(params)}"
            )
        for name, p in zip(fam.param_names, params):
            if not math.isfinite(p) or p <= 0:
                raise ValueError(f"{fam.key}: {name} must be finite and > 0, got {p}")

    def __str__(self) -> str:
        return format_spec(self)


@dataclass(frozen=True)
class _Family:
    key: str
    aliases: tuple[str, ...]
    param_names: tuple[str, ...]
    sample: Callable[[np.random.Generator, int, tuple[float, ...]], np.ndarray]
    nonnegative: bool  # support lies in [0, inf)


_CATALOGUE = (
    _Family(
        "exp", ("exponential",), ("theta",),
        lambda g, n, p: g.standard_exponential(n) / p[0],
        nonnegative=True,
    ),
    _Family(
        "logistic", (), (),
        lambda g, n, p: g.logistic(0.0, 1.0, n),
        nonnegative=False,
    ),
    _Family(
        "gamma", (), ("shape",),
        lambda g, n, p: g.standard_gamma(p[0], n),
        nonnegative=True,
    ),
    _Family(
        "uniform", ("unif", "uniform01"), (),
        lambda g, n, p: g.random(n),
        nonnegative=True,
    ),
    _Family(
        "normal", ("norm",), (),
        lambda g, n, p: g.standard_normal(n),
        nonnegative=False,
    ),
    _Family(
        "lognormal", ("lnorm",), (),
        lambda g, n, p: np.exp(g.standard_normal(n)),
        nonnegative=True,
    ),
    _Family(
        "gumbel", ("extval", "extreme-value"), (),
        lambda g, n, p: _EULER - g.gumbel(0.0, 1.0, n),
        nonnegative=False,
    ),
    _Family(
        "cauchy", (), (),
        lambda g, n, p: g.standard_cauchy(n),
        nonnegative=False,
    ),
    _Family(
        "t", ("student", "studentt"), ("df",),
        lambda g, n, p: g.standard_t(p[0], n),
        nonnegative=False,
    ),
    _Family(
        "pareto", ("paretoshifted",), ("gamma",),
        lambda g, n, p: _pareto_sample(g, n, p),
        nonnegative=True,
    ),
    _Family(
        "weibull", (), ("gamma",),
        lambda g, n, p: (-np.log(g.random(n))) ** (1.0 / p[0]),  # inverse transform
        nonnegative=True,
    ),
    _Family(
        "loggamma", (), ("shape", "scale"),
        lambda g, n, p: np.exp(p[1] * g.standard_gamma(p[0], n)),
        nonnegative=True,
    ),
)

_BY_NAME = {}
for _fam in _CATALOGUE:
    _BY_NAME[_fam.key] = _fam
    for _alias in _fam.aliases:
        _BY_NAME[_alias] = _fam

FAMILIES = tuple(f.key for f in _CATALOGUE)


def _pareto_sample(g: np.random.Generator, n: int, p: tuple[float, ...]) -> np.ndarray:
    # inverse transform on F-bar(x) = 1/(1 + x^gamma)
    u = g.random(n)
    return (u / (1.0 - u)) ** (1.0 / p[0])


def _lookup(name: str) -> _Family:
    fam = _BY_NAME.get(str(name).strip().lower())
    if fam is None:
        raise ValueError(
            f"unknown distribution family {name!r}; valid families: "
            + ", ".join(FAMILIES)
        )
    return fam


def parse_spec(text: str) -> DistributionSpec:
    """Parse ``family:param[,param]`` into a DistributionSpec."""
    head, sep, rest = str(text).strip().partition(":")
    params: tuple[float, ...] = ()
    if sep and rest.strip():
        try:
            params = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError(f"could not parse parameters in {text!r}") from None
    return DistributionSpec(head, params)


def format_spec(spec: DistributionSpec) -> str:
    """``family:param[,param]``; a parameter prints as :g when that reads back as the
    same float, else as its repr, so that parse_spec(format_spec(s)) == s."""
    if not spec.params:
        return spec.family
    return spec.family + ":" + ",".join(
        f"{p:g}" if float(f"{p:g}") == p else repr(p) for p in spec.params)


def sample(
    spec: DistributionSpec,
    n: int,
    seed: SeedSpec | int | np.random.Generator,
) -> np.ndarray:
    """Draw n i.i.d. values from the spec'd law.

    `seed` may be a SeedSpec, a bare base seed, or an already-made stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    stream = seed if isinstance(seed, np.random.Generator) else make_stream(seed)
    return _lookup(spec.family).sample(stream, int(n), spec.params)


def replicate_chunks(spec: DistributionSpec, n: int, seed: int, reps: int):
    """(first, draws) per chunk for run_plan and Bryson's table: draws is a new C-contiguous
    (rows, n) array, rows = max(1, 2**14 // n) (fewer in the last chunk), and replicate
    first + i is drawn into row i. The one place replicate streams are made: one Philox bit
    generator per call is re-keyed to (seed, r) with counter 0 before replicate r's draw,
    bit-identical to make_stream(SeedSpec(seed, r)) at a tenth of the cost."""
    if n < 1:  # before n divides anything
        raise ValueError(f"n must be >= 1, got {n}")
    seed = SeedSpec(seed).base_seed  # a bad seed fails here, not at the first draw
    draw, n, params = _lookup(spec.family).sample, int(n), spec.params
    rows = max(1, _CHUNK_VALUES // n)

    def chunks():
        stream = np.random.Generator(np.random.Philox(0))
        for first in range(0, reps, rows):
            chunk = np.empty((min(rows, reps - first), n))
            for i in range(len(chunk)):
                # counter 0, empty buffer, no spare 32 bits: nothing of the last draw survives
                stream.bit_generator.state = {"bit_generator": "Philox", "state": {
                    "counter": [0] * 4, "key": [seed, first + i]}, "buffer": [0] * 4,
                    "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
                chunk[i] = draw(stream, n, params)
            yield first, chunk

    return chunks()


def nonnegative(spec: DistributionSpec) -> bool:
    """Whether the spec'd law puts all its mass on [0, inf)."""
    return _lookup(spec.family).nonnegative
