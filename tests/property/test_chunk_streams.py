"""Property suite for the array-native stream layer.

Pins the contract the engine and the checkpointer both rely on:

* a :class:`ReplayStream` emits exactly the workload's per-op view
  (registry-wide per-generator equality lives in
  ``test_generator_registry.py``);
* :func:`chunks_from_blocks` is a pure coalescer — chunk columns are the
  concatenation of the block columns, block boundaries never split, and
  every chunk except the last reaches the target size;
* ``peek_chunk``/``advance`` hand out the same ops whatever the advance
  step pattern, and move one counter;
* a pickled stream restores at any ``consumed`` point — including
  mid-chunk — and the remaining sequence is bit-identical, also from the
  older 5- and 6-tuple checkpoint states.
"""

import itertools
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.workloads.base import unique_workload
from repro.workloads.chunks import (
    OpChunk,
    chunks_from_blocks,
    ops_from_blocks,
)
from repro.snapshot.stream import ReplayStream

from tests.oracles.scalar_engine import chunks_from_ops

# -- synthetic block streams (coalescer-level properties) ------------------

_blocks = st.lists(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2**20), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(0, 50), min_size=n, max_size=n),
        )
    ),
    max_size=30,
)

_targets = st.integers(1, 64)


def _columns(blocks):
    vaddrs, writes, instr = [], [], []
    for block_vaddrs, block_writes, block_instr in blocks:
        vaddrs += block_vaddrs
        writes += block_writes
        instr += block_instr
    return vaddrs, writes, instr


class TestChunkCoalescer:
    @given(blocks=_blocks, target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_chunks_concatenate_to_block_columns(self, blocks, target):
        chunks = list(chunks_from_blocks(iter(blocks), target))
        vaddrs, writes, instr = _columns(blocks)
        assert [v for c in chunks for v in c.vaddrs] == vaddrs
        assert [w for c in chunks for w in c.writes] == writes
        assert [i for c in chunks for i in c.instr] == instr

    @given(blocks=_blocks, target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_block_boundaries_never_split(self, blocks, target):
        """Every chunk edge is a block edge: chunk lengths are partial
        sums of block lengths, and all but the last chunk reach target."""
        chunks = list(chunks_from_blocks(iter(blocks), target))
        block_edges = set()
        total = 0
        for block_vaddrs, _, _ in blocks:
            total += len(block_vaddrs)
            block_edges.add(total)
        consumed = 0
        for index, chunk in enumerate(chunks):
            consumed += chunk.length
            assert consumed in block_edges, "chunk edge split a block"
            if index < len(chunks) - 1:
                assert chunk.length >= target

    @given(blocks=_blocks, target=_targets)
    @settings(max_examples=150, deadline=None)
    def test_perop_batching_equals_block_coalescing_op_sequence(
        self, blocks, target
    ):
        """The oracle's chunks_from_ops over the per-op view carries the
        same ops in the same order (chunk *edges* may differ; the sequence
        may not)."""
        from_blocks = list(chunks_from_blocks(iter(blocks), target))
        from_ops = list(chunks_from_ops(ops_from_blocks(iter(blocks)), target))
        flat_a = [
            (v, w, i)
            for c in from_blocks
            for v, w, i in zip(c.vaddrs, c.writes, c.instr)
        ]
        flat_b = [
            (v, w, i)
            for c in from_ops
            for v, w, i in zip(c.vaddrs, c.writes, c.instr)
        ]
        assert flat_a == flat_b

    @given(blocks=_blocks)
    @settings(max_examples=100, deadline=None)
    def test_op_view_matches_chunk_op_at(self, blocks):
        ops = list(ops_from_blocks(iter(blocks)))
        chunks = list(chunks_from_blocks(iter(blocks), 16))
        index = 0
        for chunk in chunks:
            for offset in range(chunk.length):
                materialized = chunk.op_at(offset)
                reference = ops[index]
                assert materialized.vaddr == reference.vaddr
                assert materialized.is_write == reference.is_write
                assert (
                    materialized.instructions_before
                    == reference.instructions_before
                )
                index += 1
        assert index == len(ops)


# -- ReplayStream consumption protocol ---------------------------------------

_GENERATORS = ("stream_sweep", "hot_cold", "pointer_chase", "random_mix")


def _workload(generator):
    return unique_workload("prop", "test", 1, 64, generator)


def _stream(generator, seed):
    return ReplayStream(_workload(generator), core_id=0, seed=seed, scale=1024)


def _take(stream, count, step=None):
    """Consume *count* ops through ``peek_chunk``/``advance``, at most
    *step* ops per advance (default: as many as the chunk holds)."""
    taken = []
    while len(taken) < count:
        peeked = stream.peek_chunk()
        assert peeked is not None, "synthetic streams are infinite"
        chunk, pos = peeked
        n = min(count - len(taken), chunk.length - pos, step or count)
        taken += zip(
            chunk.vaddrs[pos:pos + n], chunk.writes[pos:pos + n], chunk.instr[pos:pos + n]
        )
        stream.advance(n)
    return taken


class TestReplayStreamProtocol:
    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_emits_the_per_op_view(self, generator, seed, count):
        stream = _stream(generator, seed)
        per_op = _workload(generator).make_stream(0, seed, 1024)
        assert _take(stream, count) == [
            (op.vaddr, op.is_write, op.instructions_before)
            for op in itertools.islice(per_op, count)
        ]
        assert stream.consumed == count

    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        advances=st.lists(st.integers(1, 64), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_advance_patterns_hand_out_the_same_ops(
        self, generator, seed, advances
    ):
        """Multi-op advances see exactly the ops single-op advances hand
        out, whatever the step pattern."""
        reference = _stream(generator, seed)
        stream = _stream(generator, seed)
        for step in advances:
            chunk, pos = stream.peek_chunk()
            take = min(step, chunk.length - pos)
            window = [
                (chunk.vaddrs[pos + k], chunk.writes[pos + k], chunk.instr[pos + k])
                for k in range(take)
            ]
            stream.advance(take)
            assert window == _take(reference, take, step=1)
            # One single-op advance on the same stream object keeps the
            # two step sizes honest against each other.
            assert _take(stream, 1) == _take(reference, 1, step=1)
        assert stream.consumed == reference.consumed

    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        consumed=st.integers(0, 700),
        remaining=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip_resumes_mid_chunk(
        self, generator, seed, consumed, remaining
    ):
        """Restore at any consumption point — whole-chunk or interior —
        and the continuation is bit-identical."""
        reference = _stream(generator, seed)
        _take(reference, consumed)
        restored = pickle.loads(pickle.dumps(reference))
        assert restored.consumed == consumed
        assert _take(restored, remaining) == _take(reference, remaining)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_advance_rejects_cross_chunk_counts(self, seed):
        stream = _stream("stream_sweep", seed)
        chunk, pos = stream.peek_chunk()
        stream.advance(0)  # no-op by contract
        assert stream.consumed == 0
        try:
            stream.advance(chunk.length - pos + 1)
        except ValueError:
            pass
        else:
            raise AssertionError("advance past the buffered chunk must raise")
        assert stream.consumed == 0


class TestOlderCheckpointStates:
    """Checkpoints written before the stream modes were retired carry a
    5-tuple state (before chunked streams) or a 6-tuple ending in the
    mode ("chunked" or "perop").  Each must restore to the identical
    remaining op sequence."""

    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        consumed=st.integers(0, 1200),
        remaining=st.integers(1, 300),
    )
    @example(generator="stream_sweep", seed=3, consumed=300, remaining=300)
    @example(generator="hot_cold", seed=5, consumed=700, remaining=100)
    @settings(max_examples=40, deadline=None)
    def test_five_and_six_tuple_states_restore(
        self, generator, seed, consumed, remaining
    ):
        workload = _workload(generator)
        expected = _take(_stream(generator, seed), consumed + remaining)[consumed:]
        base = (workload, 0, seed, 1024, consumed)
        for state in (base, base + ("chunked",), base + ("perop",)):
            restored = ReplayStream.__new__(ReplayStream)
            restored.__setstate__(state)
            assert restored.consumed == consumed
            assert _take(restored, remaining) == expected, state[5:]
            assert restored.consumed == consumed + remaining


class TestOpChunkInvariants:
    @given(
        vaddrs=st.lists(st.integers(0, 2**30), max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_length_matches_columns(self, vaddrs):
        chunk = OpChunk(vaddrs, [False] * len(vaddrs), [0] * len(vaddrs))
        assert chunk.length == len(chunk) == len(vaddrs)
        if vaddrs:
            array = chunk.vaddr_array()
            assert array.tolist() == vaddrs
            assert chunk.vaddr_array() is array, "numpy view is cached"
