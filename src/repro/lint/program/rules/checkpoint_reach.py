"""RL103 — checkpoint reachability proof.

Checkpoint/restore (``repro.snapshot``, docs/CHECKPOINTS.md) pickles the
entire live ``System`` graph.  What breaks a checkpoint is a class
quietly stashing a *process-local* object on ``self``: a lambda or
closure, the result of a closure-factory method, an open file, a
threading primitive, a live socket or an I/O selector.  Those failures
surface only when someone actually writes a checkpoint — often hours
into the very sweep the checkpoint was meant to protect.

This rule proves that every class **transitively reachable from
``System``** is snapshot-safe.  Reachability follows attribute
assignments (including keyed container stores), container population,
class-table dispatch, factory-method returns, type annotations, and
constructor arguments stored from ``__init__`` parameters; a declared
type (an annotation) also reaches every project subclass of it.  Unsafe
assignments in reachable classes are flagged with the attribute chain
that witnesses their reachability.  Classes that own their snapshot
encoding terminate the traversal: ``__getstate__``/``__reduce__``/
``__reduce_ex__``, a codec registered with
:func:`repro.snapshot.codec.register_codec`, or an ``enum`` class (its
members pickle by name).  A class with a ``snapshot_detach`` hook is
not flagged for its own assignments — the hook strips them around
every checkpoint write — but the traversal goes on through it, since
the rest of its state is pickled.  An unreachable class is never
pickled and is not checked.

When the program defines no root class the rule is silent — fixture
projects opt in by defining a ``System``.
"""

from __future__ import annotations

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel


@register_rule
class CheckpointReachRule(ProgramRule):
    """RL103: the object graph under ``System`` must checkpoint cleanly."""

    rule_id = "RL103"
    name = "program-checkpoint-reachability"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for symbol in sorted(model.reachable):
            if model.class_owns_encoding(symbol):
                continue
            cls = model.table.class_named(symbol)
            relpath = model.relpath_of(symbol)
            if cls is None or relpath is None:
                continue
            via = model.reachable[symbol]
            for unsafe in cls.unsafe:
                self.emit_at(
                    ctx, relpath, unsafe.line, unsafe.col,
                    f"{cls.name}.{unsafe.method} stores {unsafe.problem} on "
                    f"self, and {cls.name} is checkpoint-reachable "
                    f"({via}) — snapshotting System would fail or "
                    "silently capture stale state; move it off the instance, "
                    "rebuild it after restore, or define __getstate__",
                    severity=Severity.ERROR,
                )
