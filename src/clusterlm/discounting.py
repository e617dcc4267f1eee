"""Absolute-discounting primitives shared by the models and the criteria."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError

DEFAULT_B = 0.5
CLAMP_LO = 0.05
CLAMP_HI = 0.95


@dataclass(frozen=True)
class Discount:
    """Absolute-discount parameter, strictly inside (0, 1).

    The upper bound keeps log(N - 1 - B) defined for every count N >= 2.
    """

    b: float

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ConfigError(f"discount must be in (0, 1), got {self.b}")


def estimate_discount(histogram: Mapping[int, int]) -> Discount:
    """Estimate the discount from a count-of-counts histogram.

    Uses the standard ratio r1 / (r1 + 2*r2) over the numbers of events seen
    once and twice, clamped to [0.05, 0.95]; degenerate histograms fall back
    to 0.5.
    """
    r1 = histogram.get(1, 0)
    r2 = histogram.get(2, 0)
    denom = r1 + 2 * r2
    if denom == 0:
        return Discount(DEFAULT_B)
    return Discount(min(CLAMP_HI, max(CLAMP_LO, r1 / denom)))


def count_of_counts(counts) -> Counter:
    """Number of events seen exactly r times, for every r > 0, from an array
    of event counts."""
    values, freq = np.unique(counts, return_counts=True)
    return Counter({r: n for r, n in zip(values.tolist(), freq.tolist()) if r > 0})


def bigram_discount(forced: float | None, *tables) -> Discount:
    """``forced`` if set, else the discount estimated from the pooled bigram
    count-of-counts of the given count tables."""
    if forced is not None:
        return Discount(forced)
    return estimate_discount(
        count_of_counts(np.concatenate([table.cells()[2] for table in tables]))
    )


def discounted_distribution(
    counts: np.ndarray, discount: Discount, fallback: np.ndarray
) -> np.ndarray:
    """Absolute-discounted distribution over the ids of ``counts``.

    p(i) = max(count(i) - B, 0)/N + (B * n_plus / N) * fallback(i), where
    n_plus is the number of ids with positive count.  ``fallback`` must sum
    to 1; with no counts at all the fallback is returned unchanged.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return np.array(fallback, dtype=np.float64, copy=True)
    b = discount.b
    n_plus = int(np.count_nonzero(counts))
    p = np.maximum(counts - b, 0.0) / total
    p += (b * n_plus / total) * np.asarray(fallback, dtype=np.float64)
    return p
