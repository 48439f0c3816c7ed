"""Per-layer metrics: install the layer table's spans, then derive the metrics."""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import spec
from perfbench.tracer import Tracer

NS = 1e-9


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`spec.LAYERS` (before ``build_system``)."""
    for layer in spec.LAYERS:
        for target in layer.hooks:
            tracer.patch(target, layer.name)


def record_system(tracer: Tracer, system, measure_ops: int, total_ops: int) -> None:
    """Add one finished simulation's stats and op counts to the counters.

    *measure_ops* and *total_ops* are per core: the measured window, and
    everything the system executed (warm-up included).
    """
    cores = len(system.cores)
    counts = dict(system.stats.as_dict())
    counts["ops/measured"] = measure_ops * cores
    counts["ops/total"] = total_ops * cores
    tracer.add_counters(counts)


def metric_unit(name: str) -> Tuple[str, str]:
    """``(unit, better)`` of a per-layer metric, from its name."""
    if name.endswith("calls"):
        return "count", "lower"
    if name.endswith("_ns"):
        return "ns", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_per_kop"):
        return "1/kop", "lower"
    if name in ("core.swap_accept_ratio", "core.prefetch_accuracy"):
        return "ratio", "higher"
    if name.endswith("_ratio"):
        return "ratio", "lower"
    if name == "mem.buffer_serviced":
        return "count", "higher"
    raise KeyError(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _View:
    """Sums over one merged tracer snapshot."""

    def __init__(self, data: Dict[str, Dict]) -> None:
        self.data = data

    def sum(self, table: str, layer: str, *paths: str) -> float:
        values = self.data[table]
        if paths:
            return float(sum(values.get(f"{layer}/{path}", 0) for path in paths))
        prefix = layer + "/"
        return float(sum(v for k, v in values.items() if k.startswith(prefix)))

    def calls(self, layer: str, *paths: str) -> float:
        return self.sum("calls", layer, *paths)

    def self_s(self, layer: str, *paths: str) -> float:
        return self.sum("self_ns", layer, *paths) * NS

    def incl_s(self, layer: str, *paths: str) -> float:
        return self.sum("incl_ns", layer, *paths) * NS

    def counter(self, *names: str) -> float:
        counters = self.data["counters"]
        return float(sum(counters.get(name, 0.0) for name in names))

    def counter_prefix(self, prefix: str) -> float:
        counters = self.data["counters"]
        return float(sum(v for k, v in counters.items() if k.startswith(prefix)))


def derive(data: Dict[str, Dict], overhead_ratio: float, executor: bool) -> Dict[str, float]:
    """Every per-layer metric from a merged snapshot.

    ``executor`` marks a snapshot taken through the sweep executor; the
    ``experiments`` metrics are 0 elsewhere, where that layer never runs.
    Counts are simulated events summed over every simulation traced;
    ``*_per_kop`` divides by measured ops (``sim.escapes_per_kop`` by all
    ops executed, since escapes are counted over warm-up too).
    """
    v = _View(data)
    measured = v.counter("ops/measured")
    total = v.counter("ops/total")
    request_calls = v.calls("core", "PageSeerHmc.handle_request")
    request_self = v.self_s("core", "PageSeerHmc.handle_request")
    simulate = v.incl_s("sim", "System.run", "System.resume_run") if executor else 0.0
    # Keys in spec.PER_LAYER order (a test holds the two equal).
    return {
        "workloads.calls": v.calls("workloads"),
        "workloads.self_s": v.self_s("workloads"),
        "sim.self_s": v.self_s("sim"),
        "sim.escapes_per_kop": 1000 * _ratio(v.calls("sim", "Core.execute"), total),
        "vm.translate_calls": v.calls("vm", "Mmu.translate"),
        "vm.translate_self_s": v.self_s("vm", "Mmu.translate"),
        "vm.walk_calls": v.calls("vm", "PageWalker.walk"),
        "vm.walk_self_s": v.self_s("vm", "PageWalker.walk"),
        "vm.tlb_miss_per_kop": 1000 * _ratio(v.counter("tlb/misses"), measured),
        "vm.pte_llc_miss_ratio": _ratio(v.counter("walk/pte_llc_misses"),
                                        v.counter("walk/pte_requests")),
        "cache.access_calls": v.calls("cache"),
        "cache.access_self_s": v.self_s("cache"),
        "cache.llc_miss_per_kop": 1000 * _ratio(v.counter("cache/llc_misses"), measured),
        "core.request_calls": request_calls,
        "core.request_self_s": request_self,
        "core.request_ns": 1e9 * _ratio(request_self, request_calls),
        "core.pte_fetch_calls": v.calls("core", "PageSeerHmc.handle_pte_fetch"),
        "core.pte_fetch_self_s": v.self_s("core", "PageSeerHmc.handle_pte_fetch"),
        "core.hint_calls": v.calls("core", "PageSeerHmc.mmu_hint"),
        "core.hint_self_s": v.self_s("core", "PageSeerHmc.mmu_hint"),
        "core.swap_calls": v.calls("core", "SwapDriver.request_swap"),
        "core.swap_self_s": v.self_s("core", "SwapDriver.request_swap"),
        "core.swap_accept_ratio": _ratio(v.counter("swap_driver/swaps"),
                                         v.counter_prefix("swap_driver/requests_")),
        "core.prefetch_accuracy": _ratio(
            v.counter("hmc/prefetch_swaps_accurate"),
            v.counter("hmc/prefetch_swaps_accurate", "hmc/prefetch_swaps_inaccurate")),
        "core.remap_miss_ratio": _ratio(v.counter("hmc/remap_misses"),
                                        v.counter_prefix("hmc/requests_")),
        "baselines.request_calls": v.calls("baselines"),
        "baselines.request_self_s": v.self_s("baselines"),
        "mem.access_calls": v.calls("mem", "MemoryDevice.access",
                                    "MemoryDevice.access_finish"),
        "mem.access_self_s": v.self_s("mem", "MemoryDevice.access",
                                      "MemoryDevice.access_finish"),
        "mem.transfer_calls": v.calls("mem", "MemoryDevice.transfer_page"),
        "mem.transfer_self_s": v.self_s("mem", "MemoryDevice.transfer_page"),
        "mem.buffer_serviced": v.counter("hmc/serviced_buffer"),
        "experiments.simulate_s": simulate,
        "experiments.cache_io_s": v.incl_s("experiments", "ExperimentRunner._load",
                                           "ExperimentRunner._store"),
        "experiments.overhead_s": v.self_s("experiments"),
        "persist.write_calls": v.calls("persist", "atomic_write_bytes"),
        "persist.write_s": v.self_s("persist", "write_json", "atomic_write_bytes"),
        "persist.read_calls": v.calls("persist", "verify_json_bytes"),
        "persist.read_s": v.self_s("persist", "read_json", "read_json_or_none",
                                   "verify_json_bytes"),
        "check.self_s": v.self_s("check"),
        "trace.overhead_ratio": overhead_ratio,
    }


def self_time_table(data: Dict[str, Dict], traced_s: float) -> List[Tuple[str, float]]:
    """Self seconds per layer, plus "other": the traced time no span covers.

    By construction the rows add up to *traced_s*.
    """
    v = _View(data)
    rows = [(layer, v.self_s(layer)) for layer in spec.SPAN_LAYERS]
    rows.append(("other", traced_s - sum(seconds for _, seconds in rows)))
    return rows
