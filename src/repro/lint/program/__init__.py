"""Whole-program analysis layer for the repro linter (RL1xx rules).

Per-file facts (:mod:`~repro.lint.program.facts`, extracted by
:mod:`~repro.lint.program.extract`) are composed into a symbol table and
call graph (:mod:`~repro.lint.program.symbols`,
:mod:`~repro.lint.program.callgraph`), and closed under interprocedural
propagation (:mod:`~repro.lint.program.model`).  The RL1xx rules in
:mod:`~repro.lint.program.rules` interpret the resulting model.
"""

from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel, build_program_model

__all__ = [
    "ProgramModel",
    "ProgramRule",
    "build_program_model",
]
