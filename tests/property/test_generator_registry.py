"""The generator registry: every archetype's two views are one sequence.

Simulations consume only the block view (``BLOCK_GENERATORS``, coalesced
into chunks by ``ReplayStream``); trace recording and the generator unit
tests consume the per-op view (``GENERATORS``).  These properties hold
the registry to that split: every per-op name has a block view, and the
per-op view of every name equals ``ops_from_blocks`` over its block view
— so a per-op generator that drifts from its block twin fails here, not
in a digest.
"""

import itertools

import pytest

import repro.workloads.extras  # noqa: F401 - registers gups/btree/scanjoin
import repro.workloads.trace  # noqa: F401 - registers the trace adapter
from repro.common.rng import DeterministicRng
from repro.sim.cpu import MemoryOp
from repro.workloads.chunks import ops_from_blocks
from repro.workloads.synthetic import BLOCK_GENERATORS, GENERATORS, HEAP_BASE
from repro.workloads.trace import write_trace

FOOTPRINT = 96
OPS = 2000
SEEDS = (0, 1, 7, 2**20)


def _params(name, tmp_path):
    if name != "trace":
        return {}
    # A short trace with reads, writes and varied work, so the loop
    # wraps several times inside the compared window.
    path = tmp_path / "registry.trace"
    write_trace(path, [
        MemoryOp(HEAP_BASE + 4096 * (k % 5) + 64 * k, k % 3 == 0, k % 7)
        for k in range(37)
    ])
    return {"path": str(path)}


def _flat(ops):
    return [(op.vaddr, op.is_write, op.instructions_before) for op in ops]


def test_every_per_op_generator_has_a_block_view():
    assert set(GENERATORS) <= set(BLOCK_GENERATORS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_per_op_view_equals_ops_from_blocks(name, seed, tmp_path):
    params = _params(name, tmp_path)
    per_op = GENERATORS[name](DeterministicRng(f"registry/{name}", seed), FOOTPRINT, **params)
    blocks = BLOCK_GENERATORS[name](
        DeterministicRng(f"registry/{name}", seed), FOOTPRINT, **params
    )
    assert _flat(itertools.islice(per_op, OPS)) == _flat(
        itertools.islice(ops_from_blocks(blocks), OPS)
    )
