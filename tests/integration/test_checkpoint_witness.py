"""Every class a real checkpoint pickles is one RL103 proved reachable.

RL103 (``repro lint``) is the only static snapshot-safety check: it
flags unsafe state on classes reachable from ``System`` and trusts
everything else to never be pickled.  This test holds the traversal to
that promise dynamically.  It pickles quiesced systems of every scheme,
on workloads that populate swap buffers, MemPod pods and page tables,
through a recording :class:`~repro.snapshot.codec.SnapshotPickler` —
once as configured by default, and once with the full sanitizer and
fault injection on, as sweep fleet jobs run.  Every ``repro`` class the
pickler meets must be in the model's ``reachable`` closure.
"""

import io
from pathlib import Path

import pytest

from repro.common.config import CheckConfig
from repro.faults.profiles import resolve_profile
from repro.lint.program.model import build_program_model
from repro.sim.system import SCHEMES, build_system
from repro.snapshot.checkpoint import quiesced
from repro.snapshot.codec import PICKLE_PROTOCOL, SnapshotPickler
from repro.workloads import workload_by_name

REPO_ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ("lbmx4", "milcx4", "barnesx8")


class _RecordingPickler(SnapshotPickler):
    """Collects the type of every object handed to the reducer hook."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return super().reducer_override(obj)


def _pickled_repro_classes(**config):
    seen = set()
    for scheme in SCHEMES:
        for workload in WORKLOADS:
            system = build_system(
                scheme, workload_by_name(workload), scale=1024, seed=0, **config
            )
            system.run(1000, 1000)
            pickler = _RecordingPickler(io.BytesIO(), protocol=PICKLE_PROTOCOL)
            with quiesced(system):
                pickler.dump(system)
            seen |= pickler.types
    return {
        f"{cls.__module__}:{cls.__qualname__}"
        for cls in seen
        if cls.__module__.split(".")[0] == "repro"
    }


@pytest.fixture(scope="module")
def model():
    return build_program_model(REPO_ROOT, [])


def test_every_pickled_class_is_checkpoint_reachable(model):
    pickled = _pickled_repro_classes()
    # The workloads really populated the structures the traversal must reach.
    assert {
        "repro.mem.swap_buffer:_BufferEntry",
        "repro.baselines.mempod:_Pod",
        "repro.vm.page_table:_TableNode",
    } <= pickled
    missing = sorted(pickled - set(model.reachable))
    assert missing == [], f"pickled but not RL103-reachable: {missing}"


def test_sanitized_faulty_checkpoints_are_checkpoint_reachable(model):
    pickled = _pickled_repro_classes(
        check=CheckConfig(level="full"), faults=resolve_profile("storm")
    )
    # The sanitizer's checkers and oracle and the fault machinery really
    # travel inside the checkpoint.
    assert {
        "repro.check.manager:CheckManager",
        "repro.check.shadow:ShadowPageOracle",
        "repro.check.invariants:PrtBijectivityChecker",
        "repro.check.invariants:QuarantineChecker",
        "repro.faults.injector:FaultInjector",
        "repro.faults.recovery:FaultRecovery",
    } <= pickled
    missing = sorted(pickled - set(model.reachable))
    assert missing == [], f"pickled but not RL103-reachable: {missing}"
