"""The distribution catalogue used by the simulations and the CLI.

Each family carries a raw fill, an in-place transform and whether its support is
nonnegative: a sample is the fill into a 1-D row and the transform over it, and a chunk
of replicates is one fill per row and one transform over the whole chunk. Specs
parse from strings of the form ``family:param[,param]`` (e.g. ``pareto:2``,
``weibull:0.5``, ``exp:100``, ``loggamma:0.5,1``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import check_integer, check_real, check_sequence, float_label
from .rng import SeedSpec, make_stream

_EULER = 0.5772156649015329  # Euler-Mascheroni constant
# values per chunk of replicates scored together: 128 KB of float64, cache-sized; but at
# least 8 replicates within 1 MB, so 8 share each kernel call's fixed cost at large n
_CHUNK_VALUES, _MIN_ROWS, _MAX_VALUES = 2**14, 8, 2**17


@dataclass(frozen=True)
class DistributionSpec:
    """One catalogue member: a family name and its (strictly positive) parameters."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        fam = _lookup(self.family)
        object.__setattr__(self, "family", fam.key)
        params = tuple(check_real("params", p) for p in check_sequence("params", self.params))
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


def _raw(x: np.ndarray, p: tuple[float, ...]) -> None:
    """The transform of a law whose fill draws it as it is."""


@dataclass(frozen=True)
class _Family:
    """A law as a raw fill plus a transform, together its one sampler. `fill(stream, row,
    params)` writes n raw variates into a 1-D row; `transform(values, params)` maps raw
    variates of any shape to the law in place, so a chunk of rows takes one call."""

    key: str
    aliases: tuple[str, ...]
    param_names: tuple[str, ...]
    nonnegative: bool  # support lies in [0, inf)
    fill: Callable[[np.random.Generator, np.ndarray, tuple[float, ...]], object]
    transform: Callable[[np.ndarray, tuple[float, ...]], object] = _raw


def _copied(draw):
    """The fill of a law numpy draws with no out=: its 1-D draw, copied into the row."""
    return lambda g, row, p: np.copyto(row, draw(g, row.size, p))


def _exp(x: np.ndarray, p: tuple[float, ...]) -> None:
    if p[0] != 1.0:  # x / 1.0 is x bit for bit, so exp:1 runs no pass
        np.divide(x, p[0], out=x)


def _pareto(x: np.ndarray, p: tuple[float, ...]) -> None:
    # inverse transform on F-bar(x) = 1/(1 + x^gamma); 1 - u is the one temporary
    x /= 1.0 - x
    x **= 1.0 / p[0]  # like **, **= keeps numpy's scalar-power fast paths (sqrt, square)


def _weibull(x: np.ndarray, p: tuple[float, ...]) -> None:
    np.negative(np.log(x, out=x), out=x)  # inverse transform: (-ln u)^(1/gamma)
    x **= 1.0 / p[0]


def _loggamma(x: np.ndarray, p: tuple[float, ...]) -> None:
    x *= p[1]
    np.exp(x, out=x)


_CATALOGUE = (
    _Family("exp", ("exponential",), ("theta",), nonnegative=True,
            fill=lambda g, row, p: g.standard_exponential(out=row),
            transform=_exp),
    _Family("logistic", (), (), nonnegative=False,
            fill=_copied(lambda g, n, p: g.logistic(0.0, 1.0, n))),
    _Family("gamma", (), ("shape",), nonnegative=True,
            fill=lambda g, row, p: g.standard_gamma(p[0], out=row)),
    _Family("uniform", ("unif", "uniform01"), (), nonnegative=True,
            fill=lambda g, row, p: g.random(out=row)),
    _Family("normal", ("norm",), (), nonnegative=False,
            fill=lambda g, row, p: g.standard_normal(out=row)),
    _Family("lognormal", ("lnorm",), (), nonnegative=True,
            fill=lambda g, row, p: g.standard_normal(out=row),
            transform=lambda x, p: np.exp(x, out=x)),
    _Family("gumbel", ("extval", "extreme-value"), (), nonnegative=False,
            fill=_copied(lambda g, n, p: g.gumbel(0.0, 1.0, n)),
            transform=lambda x, p: np.subtract(_EULER, x, out=x)),
    _Family("cauchy", (), (), nonnegative=False,
            fill=_copied(lambda g, n, p: g.standard_cauchy(n))),
    _Family("t", ("student", "studentt"), ("df",), nonnegative=False,
            fill=_copied(lambda g, n, p: g.standard_t(p[0], n))),
    _Family("pareto", ("paretoshifted",), ("gamma",), nonnegative=True,
            fill=lambda g, row, p: g.random(out=row), transform=_pareto),
    _Family("weibull", (), ("gamma",), nonnegative=True,
            fill=lambda g, row, p: g.random(out=row), transform=_weibull),
    _Family("loggamma", (), ("shape", "scale"), nonnegative=True,
            fill=lambda g, row, p: g.standard_gamma(p[0], out=row), transform=_loggamma),
)

_BY_NAME = {}
for _fam in _CATALOGUE:
    _BY_NAME[_fam.key] = _fam
    for _alias in _fam.aliases:
        _BY_NAME[_alias] = _fam

FAMILIES = tuple(f.key for f in _CATALOGUE)


def _lookup(name: str) -> _Family:
    fam = _BY_NAME.get(str(name).strip().lower())
    if fam is None:
        raise ValueError(f"unknown distribution family {name!r}; valid families: "
                         + ", ".join(FAMILIES))
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
    """``family:param[,param]``, each parameter a float_label, so that
    parse_spec(format_spec(s)) == s."""
    if not spec.params:
        return spec.family
    return spec.family + ":" + ",".join(map(float_label, spec.params))


def sample(spec: DistributionSpec, n: int,
           seed: SeedSpec | int | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. values from the spec'd law: the fill into one row, then the transform.
    `seed` may be a SeedSpec, a bare base seed, or an already-made stream."""
    n = check_integer("n", n, 1)
    stream = seed if isinstance(seed, np.random.Generator) else make_stream(seed)
    fam, values = _lookup(spec.family), np.empty(n)
    fam.fill(stream, values, spec.params)
    fam.transform(values, spec.params)
    return values


def chunk_rows(n: int) -> int:
    """Replicates of size n per chunk: 2**14 // n, but no fewer than min(8, 2**17 // n)
    and no fewer than one. So n <= 2048 keeps 2**14 // n (128 KB), n up to 16384 takes 8
    (320 KB at n = 5000) and a larger n as many as fit in 2**17 values (1 MB)."""
    return max(1, _CHUNK_VALUES // n, min(_MIN_ROWS, _MAX_VALUES // n))


def replicate_chunks(spec: DistributionSpec, n: int, seed: int, reps: int):
    """(first, draws) per chunk for run_plan and Bryson's table: draws is a new C-contiguous
    (rows, n) array, rows = chunk_rows(n) (fewer in the last chunk). Replicate first + i
    is filled raw into row i and the law's transform runs once over the chunk, so each row
    is sample() on stream (seed, first + i), bit for bit. The one place replicate streams are
    made: one Philox bit generator per call, re-keyed to (seed, r) with counter 0 before
    replicate r's fill, is bit-identical to make_stream(SeedSpec(seed, r)) and far cheaper."""
    n = check_integer("n", n, 1)  # before n divides anything
    seed = SeedSpec(seed).base_seed  # a bad seed or reps fails here, not at the first draw
    reps = check_integer("reps", reps, 0)
    fam, params = _lookup(spec.family), spec.params
    rows = chunk_rows(n)

    def chunks():
        stream = np.random.Generator(bitgen := np.random.Philox(0))
        # counter 0, empty buffer, no spare 32 bits: nothing of the last draw survives.
        # The setter copies the values, so one dict serves every replicate.
        state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [seed, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        key = state["state"]["key"]
        for first in range(0, reps, rows):
            chunk = np.empty((min(rows, reps - first), n))
            for r, row in enumerate(chunk, first):
                key[1] = r
                bitgen.state = state
                fam.fill(stream, row, params)
            fam.transform(chunk, params)
            yield first, chunk

    return chunks()


def nonnegative(spec: DistributionSpec) -> bool:
    """Whether the spec'd law puts all its mass on [0, inf)."""
    return _lookup(spec.family).nonnegative
