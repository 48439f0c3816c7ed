"""Span tracing from outside the program: wrap public entry points, sum self time.

A :class:`Tracer` replaces functions on their classes (or modules) with
wrappers that time each call.  A span's self time is its duration minus
the durations of the spans that ran inside it, so the self times of all
spans in a region add up to the time those spans cover, and the rest of
the region's wall time is "other".  Spans are kept as in-memory sums per
key (``<layer>/<Owner.attr>``) and written out when a process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Free-form counts recorded beside the spans (simulated stats).
        self.counters: Dict[str, float] = {}
        #: Child time of each open span; entry 0 is the region root.
        self._stack: List[int] = [0]
        self._region_start = clock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Entry points named in a layer table that this program lacks.
        self.missing: List[str] = []

    # -- spans ------------------------------------------------------------
    def _register(self, key: str) -> None:
        for table in (self.self_ns, self.incl_ns, self.calls):
            table.setdefault(key, 0)

    def wrap(self, fn: Callable, key: str) -> Callable:
        """Return *fn* wrapped so that every call is a span under *key*."""
        self._register(key)
        clock = self.clock
        stack = self._stack
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[key] += duration - stack.pop()
                stack[-1] += duration
                incl_ns[key] += duration
                calls[key] += 1

        return functools.update_wrapper(traced, fn)

    def begin_region(self) -> None:
        """Start a traced region: zero every sum, open an empty root."""
        for table in (self.self_ns, self.incl_ns, self.calls):
            for key in table:
                table[key] = 0
        self.counters.clear()
        del self._stack[:]
        self._stack.append(0)
        self._region_start = self.clock()

    def end_region(self) -> Tuple[int, int]:
        """Close the region: ``(wall_ns, covered_ns)`` — covered by spans."""
        return self.clock() - self._region_start, self._stack[0]

    def add_counters(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- installing -------------------------------------------------------
    def patch(self, target: str, layer: str) -> None:
        """Wrap ``module:Owner.attr`` (or ``module:function``) in place.

        The wrapper goes on the class, so handles bound after this call
        (bound methods hoisted at construction) also run through it.  A
        module-level function is also rebound wherever a loaded module of
        the same package imported it by name.
        """
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.missing.append(target)
            return
        wrapped = self.wrap(original, f"{layer}/{path}")
        holders = [owner]
        if not owner_name:
            package = module_name.split(".")[0] + "."
            holders += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith(package) and mod is not module
            ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapped)
                    self._patches.append((holder, name, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    # -- across processes -------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def follow_forks(self, out_dir: Path, root_key: str) -> None:
        """Trace every ``multiprocessing`` child forked from now on.

        Each child starts from zeroed sums with one root span *root_key*
        that lasts its whole life, and writes its snapshot (plus its
        lifetime) to ``out_dir/<pid>.json`` as it exits.
        """
        self._register(root_key)
        multiprocessing.util.register_after_fork(
            self, lambda tracer: tracer._start_child(Path(out_dir), root_key)
        )

    def _start_child(self, out_dir: Path, root_key: str) -> None:
        self.begin_region()
        multiprocessing.util.Finalize(
            None, self._finish_child, args=(out_dir, root_key), exitpriority=100
        )

    def _finish_child(self, out_dir: Path, root_key: str) -> None:
        wall, covered = self.end_region()
        self.self_ns[root_key] += wall - covered
        self.incl_ns[root_key] += wall
        self.calls[root_key] += 1
        record = self.snapshot()
        record["lifetime_ns"] = wall
        (out_dir / f"{os.getpid()}.json").write_text(json.dumps(record))


def merge(snapshots) -> Dict[str, Dict]:
    """Sum tracer snapshots key by key."""
    total: Dict[str, Dict] = {"self_ns": {}, "incl_ns": {}, "calls": {}, "counters": {}}
    for snap in snapshots:
        for table, values in total.items():
            for key, value in snap.get(table, {}).items():
                values[key] = values.get(key, 0) + value
    return total
