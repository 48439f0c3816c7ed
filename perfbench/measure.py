"""The harness's own arithmetic: medians, percentiles and digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the report may quote, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is quoted only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest quotable percentile and its value, or None.

    A percentile is quotable when at least :data:`TAIL_SAMPLES` samples
    lie beyond its nearest-rank position.
    """
    best = None
    n = len(values)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_SAMPLES:
            best = (pct, percentile(values, pct))
    return best


def stats_digest(stats: Dict[str, float]) -> str:
    """SHA-256 over ``System.stats.as_dict()``, as ``repro.bench`` computes it."""
    payload = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class DigestBook:
    """Checks that every simulation's digest repeats exactly.

    The first digest recorded under a name is the reference; every later
    one must equal it.  Each mismatch is kept and counted as a failed
    operation.
    """

    def __init__(self) -> None:
        self.reference: Dict[str, str] = {}
        self.mismatches: List[str] = []

    def record(self, name: str, digest: str) -> bool:
        expected = self.reference.setdefault(name, digest)
        if digest == expected:
            return True
        self.mismatches.append(f"{name}: digest {digest} != {expected}")
        return False
