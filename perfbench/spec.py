"""What the benchmark runs and what it measures: the single record of it.

``WORKLOADS`` holds each workload's input sizing and why it was chosen.
``LAYERS`` is the layer -> metric -> workload map: which public entry
points the traced run wraps for each layer, the per-layer metrics it
derives, the end-to-end metrics a change to the layer should move, the
workloads it should move them on, and the workloads where the layer's
numbers are predicted flat.  ``BENCHMARK.json`` at the repository root
names the same workloads and metrics (a test keeps the two in step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SCHEMES = ("pageseer", "pom", "mempod", "cameo", "noswap")
VARIANTS = ("default", "nocorr", "nobw", "nohints")

#: Report sizing: the ``ExperimentRunner`` defaults.
REPORT_SCALE = 512
REPORT_WARMUP_OPS = 26_000
REPORT_MEASURE_OPS = 10_000

#: Reduced sizing for the sweep matrix (40 simulations per pass).
MATRIX_WARMUP_OPS = 2_000
MATRIX_MEASURE_OPS = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "sim" drives build_system/System.run in-process; "matrix" drives
    #: the ``python -m repro sweep`` CLI in child processes.
    kind: str
    schemes: Tuple[str, ...]
    programs: Tuple[str, ...]
    variants: Tuple[str, ...] = ("default",)
    scale: int = REPORT_SCALE
    warmup_ops: int = REPORT_WARMUP_OPS
    measure_ops: int = REPORT_MEASURE_OPS

    @property
    def sizing(self) -> str:
        return (f"scale {self.scale}, {self.warmup_ops} warm-up + "
                f"{self.measure_ops} measured ops per core")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hotcold",
            why="milcx4 under all five schemes: the pure fast path (TLB misses "
                "on ~1% of ops); the only simulation workload that runs the "
                "pom/mempod/cameo controllers",
            kind="sim", schemes=SCHEMES, programs=("milcx4",),
        ),
        Workload(
            name="stream",
            why="lbmx4 under pageseer: three streamed arrays, 40% writes; nearly "
                "every new line misses the LLC, loading the ordered request "
                "path, device timing, write-backs and swaps",
            kind="sim", schemes=("pageseer",), programs=("lbmx4",),
        ),
        Workload(
            name="walk",
            why="barnesx8 under pageseer: a pointer chase on 8 cores that misses "
                "the TLB on about half of all ops, so page walk -> mmu_hint -> "
                "PTE fetch -> shared L3 is the hot path; few swaps",
            kind="sim", schemes=("pageseer",), programs=("barnesx8",),
        ),
        Workload(
            name="matrix",
            why="python -m repro sweep over 5 schemes x {milcx4, lbmx4} x 4 "
                "variants at reduced sizing, cold then warm cache: the executor, "
                "result cache, persistence and worker sanitizer",
            kind="matrix", schemes=SCHEMES, programs=("milcx4", "lbmx4"),
            variants=VARIANTS,
            warmup_ops=MATRIX_WARMUP_OPS, measure_ops=MATRIX_MEASURE_OPS,
        ),
    )
}

#: Where ``setup_s`` ends, per workload kind.
SETUP_BOUNDARY = {
    "sim": "fresh interpreter: import repro, then build_system for the "
           "workload's first scheme; ends before the first simulated op",
    "matrix": "fresh interpreter: import repro.cli, then construct the "
              "ExperimentRunner with the sweep's sizing; ends before the "
              "sweep dispatches its first simulation",
}

#: End-to-end metrics (host time): name -> (unit, better, definition).
END_TO_END = {
    "sim_ops_per_s": (
        "ops/s", "higher",
        "simulated memory ops across all cores per host second: over the "
        "measured windows, on warm caches and TLBs (sim); over every op the "
        "cold sweep simulates, warm-up included (matrix)"),
    "wall_s": (
        "s", "lower",
        "what the user waits for: the warm-up, measure and collect_metrics "
        "sequence of every scheme (sim); the cold sweep (matrix)"),
    "cached_s": (
        "s", "lower",
        "the same work again with warm caches: the sequence repeated in the "
        "same process, whose imports and memoized workload blocks are warm "
        "(sim; there is no result cache on this path); the sweep re-run "
        "against the warm result cache (matrix)"),
    "setup_s": ("s", "lower", "see SETUP_BOUNDARY"),
    "peak_rss_mb": (
        "MiB", "lower",
        "peak resident memory of the benchmark process (sim), or of it and "
        "its sweep children (matrix)"),
}


@dataclass(frozen=True)
class Layer:
    name: str
    #: Public entry points the traced run wraps, as ``module:Owner.attr``
    #: (``module:attr`` for a module-level function).
    hooks: Tuple[str, ...]
    metrics: Tuple[str, ...]
    should_move: str
    on: str
    flat_on: str


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "workloads",
        ("repro.snapshot.stream:ReplayStream.peek_chunk",
         "repro.snapshot.stream:ReplayStream.advance"),
        ("workloads.calls", "workloads.self_s"),
        "sim_ops_per_s", "hotcold", "walk",
    ),
    Layer(
        "sim",
        ("repro.sim.system:System.run", "repro.sim.system:System.run_ops",
         "repro.sim.system:System.resume_run", "repro.sim.cpu:Core.execute"),
        ("sim.self_s", "sim.escapes_per_kop"),
        "sim_ops_per_s", "hotcold", "-",
    ),
    Layer(
        "vm",
        ("repro.vm.mmu:Mmu.translate", "repro.vm.walker:PageWalker.walk"),
        ("vm.translate_calls", "vm.translate_self_s", "vm.walk_calls",
         "vm.walk_self_s", "vm.tlb_miss_per_kop", "vm.pte_llc_miss_ratio"),
        "sim_ops_per_s, wall_s", "walk", "hotcold, stream",
    ),
    Layer(
        "cache",
        ("repro.cache.hierarchy:CacheHierarchy.access",),
        ("cache.access_calls", "cache.access_self_s", "cache.llc_miss_per_kop"),
        "sim_ops_per_s", "walk, stream", "hotcold",
    ),
    Layer(
        "core",
        ("repro.core.hmc:PageSeerHmc.handle_request",
         "repro.core.hmc:PageSeerHmc.handle_pte_fetch",
         "repro.core.hmc:PageSeerHmc.mmu_hint",
         "repro.core.swap_driver:SwapDriver.request_swap"),
        ("core.request_calls", "core.request_self_s", "core.request_ns",
         "core.pte_fetch_calls", "core.pte_fetch_self_s", "core.hint_calls",
         "core.hint_self_s", "core.swap_calls", "core.swap_self_s",
         "core.swap_accept_ratio", "core.prefetch_accuracy", "core.remap_miss_ratio"),
        "sim_ops_per_s", "stream (requests, swaps), walk (hints, PTE fetch)",
        "hints on hotcold/stream; swaps on walk",
    ),
    Layer(
        "baselines",
        ("repro.baselines.pom:PomHmc.handle_request",
         "repro.baselines.mempod:MemPodHmc.handle_request",
         "repro.baselines.cameo:CameoHmc.handle_request"),
        ("baselines.request_calls", "baselines.request_self_s"),
        "wall_s", "hotcold, matrix", "stream, walk",
    ),
    Layer(
        "mem",
        ("repro.mem.device:MemoryDevice.access",
         "repro.mem.device:MemoryDevice.access_finish",
         "repro.mem.device:MemoryDevice.transfer_page"),
        ("mem.access_calls", "mem.access_self_s", "mem.transfer_calls",
         "mem.transfer_self_s", "mem.buffer_serviced"),
        "sim_ops_per_s", "stream", "hotcold",
    ),
    Layer(
        "experiments",
        # The sweep command itself and each forked worker are opened as
        # root spans of this layer by the traced CLI; result-cache reads
        # and writes are wrapped here.
        ("repro.experiments.runner:ExperimentRunner._load",
         "repro.experiments.runner:ExperimentRunner._store"),
        ("experiments.simulate_s", "experiments.cache_io_s", "experiments.overhead_s"),
        "wall_s, cached_s", "matrix", "all simulation workloads",
    ),
    Layer(
        "persist",
        ("repro.persist:write_json", "repro.persist:atomic_write_bytes",
         "repro.persist:read_json", "repro.persist:read_json_or_none",
         "repro.persist:verify_json_bytes"),
        ("persist.write_calls", "persist.write_s", "persist.read_calls", "persist.read_s"),
        "wall_s, cached_s", "matrix", "all simulation workloads",
    ),
    Layer(
        "check",
        ("repro.check.manager:CheckManager.attach",
         "repro.check.manager:CheckManager.run_invariants",
         "repro.check.manager:CheckManager.finalize",
         "repro.check.shadow:ShadowPageOracle.on_swap",
         "repro.check.shadow:ShadowPageOracle.verify_access",
         "repro.check.shadow:ShadowPageOracle.verify_full"),
        ("check.self_s",),
        "wall_s", "matrix", "all simulation workloads",
    ),
    Layer("trace", (), ("trace.overhead_ratio",), "-", "all", "-"),
)

#: Layers that own spans; time outside all of them is reported as "other".
SPAN_LAYERS = tuple(layer.name for layer in LAYERS if layer.hooks)
PER_LAYER = tuple(metric for layer in LAYERS for metric in layer.metrics)
