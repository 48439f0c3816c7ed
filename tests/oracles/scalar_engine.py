"""The scalar reference scheduler: a test-only oracle for the engine.

:func:`repro.sim.engine.run_to_targets` is the only production run loop.
Its equivalence contract is stated against the simplest possible
scheduler, which lives here: a heap keyed on ``(clock, core_id)`` pops
the core with the smallest local clock (equal clocks broken by core id),
that core fetches one op through its stream's ``peek_chunk``/``advance``
protocol and runs it through :meth:`repro.sim.cpu.Core.execute` — the
full per-op path, no inline fast paths — and the checkpointer is polled
after every step.

Install it with :func:`scalar_engine`, which swaps
``System._run_to_targets`` on the class for the duration of a ``with``
block.  It is never set on an instance: checkpoints pickle the system,
and the checkpoint unpickler only admits ``repro.*`` modules.
"""

from __future__ import annotations

import contextlib
import heapq
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.sim.cpu import MemoryOp
from repro.sim.system import System
from repro.workloads.chunks import CHUNK_OPS, OpChunk


def chunks_from_ops(
    ops: Iterator[MemoryOp], target: int = CHUNK_OPS
) -> Iterator[OpChunk]:
    """Batch a per-op iterator into :class:`OpChunk` s of *target* ops."""
    while True:
        batch = list(islice(ops, target))
        if not batch:
            return
        yield OpChunk(
            [op.vaddr for op in batch],
            [op.is_write for op in batch],
            [op.instructions_before for op in batch],
        )


class BareStream:
    """Chunk-protocol adapter over a bare op iterable (unit-test rigs).

    Mirrors :class:`repro.snapshot.stream.ReplayStream`'s
    ``peek_chunk``/``advance`` surface with no consumption counter (bare
    iterators are not checkpointable), so a rig can hand a core an
    explicit op list.
    """

    __slots__ = ("_chunks", "_chunk", "_pos")

    def __init__(self, ops: Iterable[MemoryOp]):
        self._chunks = chunks_from_ops(iter(ops))
        self._chunk: Optional[OpChunk] = None
        self._pos = 0

    def peek_chunk(self) -> Optional[Tuple[OpChunk, int]]:
        chunk = self._chunk
        if chunk is None:
            chunk = next(self._chunks, None)
            if chunk is None:
                return None
            self._chunk = chunk
            self._pos = 0
        return chunk, self._pos

    def advance(self, count: int) -> None:
        pos = self._pos + count
        if pos == self._chunk.length:
            self._chunk = None
            self._pos = 0
        else:
            self._pos = pos


def next_op(stream) -> Optional[MemoryOp]:
    """Fetch and consume *stream*'s next op (None when it is exhausted)."""
    peeked = stream.peek_chunk()
    if peeked is None:
        return None
    chunk, pos = peeked
    stream.advance(1)
    return chunk.op_at(pos)


def step(core) -> bool:
    """Run *core*'s next op on the full per-op path; False at stream end."""
    op = next_op(core.ops)
    if op is None:
        core.done = True
        return False
    core.execute(op)
    return True


def run_to_targets(system, targets: Sequence[int]) -> None:
    """Advance cores one op at a time in ``(clock, core_id)`` order.

    The heap is a pure function of (cores, targets): every live core
    below its target is in it, keyed by a unique ``(clock, core_id)``.
    A process restored from a mid-loop checkpoint therefore rebuilds the
    same heap and pops in exactly the order this one would have, which
    is why the checkpointer is polled at the one safe point per step:
    after the core stepped and was re-queued.
    """
    heap = [
        (core.clock, core.core_id, core)
        for core in system.cores
        if not core.done and core.ops_executed < targets[core.core_id]
    ]
    heapq.heapify(heap)
    ckpt = system.checkpointer
    steps = system.steps_total
    while heap:
        _, core_id, core = heapq.heappop(heap)
        step(core)
        steps += 1
        if not core.done and core.ops_executed < targets[core_id]:
            heapq.heappush(heap, (core.clock, core_id, core))
        if ckpt is not None:
            system.steps_total = steps
            ckpt.on_step(system)
    system.steps_total = steps


@contextlib.contextmanager
def scalar_engine() -> Iterator[None]:
    """Run every :class:`System` on the scalar oracle inside the block."""
    original = System._run_to_targets
    System._run_to_targets = run_to_targets
    try:
        yield
    finally:
        System._run_to_targets = original
