"""Shared vocabulary: tail classes, outcome codes, the three-way rule and the error types."""
from __future__ import annotations

import enum
import math
import numbers

import numpy as np


class TailClass(str, enum.Enum):
    """Three-way classification of a right tail.

    Medium means the residual-life ratio F-bar(t+x)/F-bar(x) settles at
    e^(-theta*t) for some theta > 0; Short and Long are the limits 0 and 1.
    """

    SHORT = "Short"
    MEDIUM = "Medium"
    LONG = "Long"

    def __str__(self) -> str:  # "Short", not "TailClass.SHORT"
        return self.value


def check_alpha(alpha: float) -> float:
    """The one-sided level as a float (check_real); it must lie in (0, 0.5)."""
    alpha = check_real("alpha", alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    return alpha


def check_integer(name: str, value, least: int | None = None) -> int:
    """value as an int; a float, even 100.0, or a bool is refused with an error naming it,
    and so, if `least` is given, is a value below it: "{name} must be >= {least}, got {value}"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a float; what is no real number, a str, bytes, None or a bool say, is refused
    with an error naming it, as check_integer refuses a float (float() reads text and bools)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_sequence(name: str, values) -> tuple:
    """values as a tuple; a str, bytes or a value that cannot be iterated, a number say, is
    refused with an error naming it (tuple() reads a str one character at a time)."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise ValueError(f"{name} must be a sequence, got {values!r}")
    return tuple(values)


def read_text(name: str, text: str, read, path=None):
    """read(text); a ValueError from it becomes "could not parse --name='text'" for an option
    (path None) or "{path}: could not parse name='text'" for a plan file's key."""
    try:
        return read(text)
    except ValueError:
        where, name = ("", "--" + name.replace("_", "-")) if path is None else (f"{path}: ", name)
        raise ValueError(f"{where}could not parse {name}={text!r}") from None


def listed(numbers) -> str:
    """The first ten of `numbers`, comma-separated, and how many more: "2, 4 (+3 more)"."""
    more = "" if len(numbers) <= 10 else f" (+{len(numbers) - 10} more)"
    return ", ".join(str(x) for x in numbers[:10]) + more


def text_lines(path) -> tuple[list[tuple[int, str]], int]:
    """The one reader of dataset and plan files: (number, stripped text) of each line but blank
    and # lines, and how many it skipped. UTF-8, less a byte-order mark on any line (utf-8-sig
    takes ~0.4 ms to load); an unreadable file raises ValueError("{path}: {reason}"), with an
    empty path written '' rather than left a bare colon."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path or repr(path)}: {exc}") from exc
    lines = []
    for lineno, line in enumerate(raw, start=1):
        line = line.lstrip("\ufeff").strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    return lines, len(raw) - len(lines)


def float_label(x: float) -> str:
    """x as :g when that reads back as the same float, else as its repr, so that no two
    floats share a label: "0.05", but "0.0123456789" where :g gives 0.0123457."""
    x = float(x)
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


# Outcome codes. blocking.spacing_rows gives a row SCORED when its T stands, else SHORT
# by the small-maximum rule or an error: all values EQUAL, maximum REFUSED or NONFINITE.
SCORED, SHORT, MEDIUM, LONG, EQUAL, REFUSED, NONFINITE = range(7)
_CLASS = np.array([SHORT, MEDIUM, LONG, MEDIUM])  # by the number of edges below, as in classify


def classify(stats, lower: float, upper: float):
    """SHORT below `lower`, LONG above `upper`, MEDIUM on or between them and for NaN:
    the code of a float, or an array of codes, for a finite `lower` <= `upper`. The one
    place a statistic meets its critical values, for the plain, blocked and Bryson tests
    (through decide) and for each replicate in run_plan. searchsorted counts the edges below a
    statistic: none below `lower`, one up to `upper`, two above it, three for NaN."""
    edges = np.array([math.nextafter(lower, -math.inf), upper, math.inf])
    return _CLASS[np.searchsorted(edges, stats)]


def decide(stat: float, lower: float, upper: float) -> TailClass:
    """The TailClass of classify's code for one statistic (SHORT to LONG, in its order)."""
    return list(TailClass)[classify(stat, lower, upper) - SHORT]


class MaxNotAboveOneError(ValueError):
    """Sample maximum <= 1, so ln X_(n) <= 0 and the statistic is undefined.

    The test needs the largest observation to exceed 1; rescale to different
    units or apply an explicit shift (the CLI exposes --shift) rather than
    relying on silent adjustment.
    """


class DegenerateSampleError(ValueError):
    """All sample values are equal; no spacing information exists."""


class NonFiniteDrawError(ValueError):
    """A simulated draw overflowed to inf (or is NaN), so no statistic exists."""


class BlockTooSmallError(ValueError):
    """Requested block count leaves blocks too small to test."""


class DatasetError(ValueError):
    """A dataset file could not be parsed into finite numbers."""
