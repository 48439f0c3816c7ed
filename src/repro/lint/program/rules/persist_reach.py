"""RL105 — persist discipline: state files go through ``repro.persist``.

Every durable write — checkpoints, sweep manifests, result/cache files,
bench documents — goes through :mod:`repro.persist`, which supplies the
same-directory temp + fsync + ``os.replace`` atomicity, the embedded
checksum stamp that makes torn writes and bit-rot detectable, the typed
:class:`~repro.common.errors.PersistError` hierarchy, and the
storage-fault injection hook the chaos harness depends on.  A raw
``open(path, "w")`` / ``json.dump`` / ``pickle.dump`` /
``Path.write_text`` in the persistence-owning packages (``snapshot``,
``sweepd``, ``experiments``, plus ``bench.py``) silently opts the file
out of all four: it can tear under SIGKILL, ``repro fsck`` cannot verify
it, and the crash-consistency tests never exercise it.

The rule flags two shapes, using the raw-write facts recorded during
extraction (:func:`~repro.lint.program.extract.classify_raw_write`) and
the resolved call graph:

* a raw write **directly** in a persistence-scope file, anchored at the
  write;
* a write **laundered** through helpers outside the scope: every call
  edge whose caller lives in the scope and whose callee — directly or
  transitively through further out-of-scope helpers — performs a raw
  write.  The finding anchors at the *call site* in the scoped file
  (where the fix belongs, and where a pragma can be placed) and names
  the write it reaches as a witness.

Legitimate exceptions (an append-only journal, a hard-link fallback that
copies an already-stamped file) carry an explicit
``# repro-lint: disable=RL105`` pragma — the point is that bypassing the
discipline is visible and justified, not impossible.  ``repro.persist``
and ``repro.fsck`` themselves are exempt: their guts are the one place
raw ``open`` calls are supposed to live.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.facts import RawWrite
from repro.lint.program.model import ProgramModel
from repro.lint.program.symbols import SymbolId

#: Modules whose raw writes are the sanctioned implementation of the
#: discipline, not a bypass of it.
_EXEMPT_MODULES = frozenset({"repro.persist", "repro.fsck"})

_FIX_HINT = (
    "route it through repro.persist (write_json/atomic_write_bytes) so the "
    "file is atomic, checksummed, fault-injectable, and fsck-verifiable "
    "(docs/FAULTS.md)"
)


@register_rule
class PersistReachRule(ProgramRule):
    """RL105: raw state writes in, or reached from, the persistence scope."""

    rule_id = "RL105"
    name = "program-persist-reach"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        scope = {
            module
            for module, facts in model.table.modules.items()
            if facts.in_persistence_scope and module not in _EXEMPT_MODULES
        }
        writer_witness = self._transitive_writers(model, scope)
        emitted: Set[Tuple[str, int, int, SymbolId]] = set()
        for module in sorted(scope):
            facts = model.table.modules[module]
            direct = list(facts.raw_writes)
            for fn in facts.functions.values():
                direct.extend(fn.raw_writes)
            for write in sorted(direct, key=lambda w: (w.line, w.col)):
                self.emit_at(
                    ctx, facts.relpath, write.line, write.col,
                    f"raw {write.detail} bypasses the persistence layer — the "
                    f"write can tear under a crash and fsck cannot verify it; "
                    f"{_FIX_HINT}",
                )
            for qualname in sorted(facts.functions):
                symbol = f"{module}:{qualname}"
                for edge in model.graph.callees_of(symbol):
                    if edge.callee.partition(":")[0] in scope:
                        continue  # flagged at the write itself
                    witness = writer_witness.get(edge.callee)
                    if witness is None:
                        continue
                    key = (facts.relpath, edge.line, edge.col, edge.callee)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    writer_symbol, write = witness
                    where = model.relpath_of(writer_symbol) or writer_symbol.partition(":")[0]
                    self.emit_at(
                        ctx, facts.relpath, edge.line, edge.col,
                        f"{qualname} calls {edge.callee}, which reaches a raw "
                        f"{write.detail} at {where}:{write.line} — a state "
                        f"write laundered outside the persistence packages; "
                        f"route it through repro.persist (docs/FAULTS.md)",
                    )

    @staticmethod
    def _transitive_writers(
        model: ProgramModel, scope: Set[str]
    ) -> Dict[SymbolId, Tuple[SymbolId, RawWrite]]:
        """Out-of-scope function -> (writing symbol, RawWrite) witness.

        A function is a transitive writer when it, or any out-of-scope
        function it can reach through the call graph, records a raw
        write.  Scoped and exempt modules stop the propagation: their
        writes are flagged where they happen (or are the persistence
        layer's own business).
        """
        out: Dict[SymbolId, Tuple[SymbolId, RawWrite]] = {}
        eligible: List[SymbolId] = []
        for module, facts in model.table.modules.items():
            if module in scope or module in _EXEMPT_MODULES:
                continue
            for qualname, fn in facts.functions.items():
                symbol = f"{module}:{qualname}"
                eligible.append(symbol)
                if fn.raw_writes:
                    out[symbol] = (symbol, fn.raw_writes[0])
        # Propagate witnesses backwards over call edges until fixpoint.
        changed = True
        while changed:
            changed = False
            for symbol in eligible:
                if symbol in out:
                    continue
                for edge in model.graph.callees_of(symbol):
                    witness = out.get(edge.callee)
                    if witness is not None:
                        out[symbol] = witness
                        changed = True
                        break
        return out
