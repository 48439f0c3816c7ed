"""Per-file rule set: importing this package registers every AST rule."""

from repro.lint.rules import (
    config_liveness,
    determinism,
    hot_path,
    units,
)

__all__ = [
    "determinism",
    "config_liveness",
    "units",
    "hot_path",
]
