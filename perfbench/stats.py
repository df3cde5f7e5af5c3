"""Percentiles that state their sample count and refuse thin tails.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise one slow outlier would *be* the number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the sample it came from."""

    pct: float
    value: float
    count: int
    beyond: int


def samples_beyond(count: int, pct: float) -> int:
    """Samples of ``count`` that lie above the ``pct``-th percentile."""
    return int(count * (100.0 - pct) / 100.0 + 1e-9)


def percentile(values: Sequence[float], pct: float) -> Percentile:
    """The ``pct``-th percentile (linear interpolation) of ``values``.

    Raises :class:`NotEnoughSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it (for the median that means fewer than 20).
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    count = len(values)
    beyond = samples_beyond(count, pct)
    if beyond < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{pct:g} of {count} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    value = float(np.percentile(np.asarray(values, dtype=np.float64), pct))
    return Percentile(pct=pct, value=value, count=count, beyond=beyond)


def median(values: Sequence[float]) -> float:
    """Plain median of a non-empty sample (no tail requirement)."""
    if len(values) == 0:
        raise NotEnoughSamples("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def windows(count: int, size: int) -> List[slice]:
    """Consecutive ``size``-sample windows over ``count`` samples; a
    trailing partial window is dropped."""
    if count < size:
        raise NotEnoughSamples(f"{count} samples fill no {size}-sample window")
    return [slice(i * size, (i + 1) * size) for i in range(count // size)]


def quiet(shares: Sequence[float]) -> List[int]:
    """Indices of the windows whose steal share is at or below the median
    one: the quieter half (never empty)."""
    cut = median(shares)
    return [index for index, share in enumerate(shares) if share <= cut]
