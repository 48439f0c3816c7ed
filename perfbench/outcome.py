"""What one benchmark run found, before it is printed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: One line per failed correctness check.
    problems: List[str] = field(default_factory=list)
    #: Things the report should show that are not failures.
    warnings: List[str] = field(default_factory=list)
    #: End-to-end metric name -> samples (the metric is their median).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: (layer, self seconds) rows of the traced run, "other" last.
    layer_table: List[Tuple[str, float]] = field(default_factory=list)
    #: What the layer table's seconds are (wall time, or summed process time).
    layer_basis: str = "traced wall time"
    #: scheme -> RunMetrics of the simulation workloads.
    simulated: Dict[str, object] = field(default_factory=dict)
    #: simulation or sweep -> stats / results digest.
    digests: Dict[str, str] = field(default_factory=dict)
