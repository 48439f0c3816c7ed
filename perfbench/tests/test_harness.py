"""The benchmark harness's own arithmetic and checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers, matrix, measure, simrun, spec
from perfbench.outcome import Outcome
from perfbench.tracer import Tracer, merge

ROOT = Path(__file__).resolve().parents[2]


# -- medians and percentiles -----------------------------------------------

def test_median_odd_and_even():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        measure.percentile(values, 0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(list(range(1, 20))) is None
    assert measure.tail_percentile(list(range(1, 21))) == (50.0, 10.0)
    assert measure.tail_percentile(list(range(1, 101))) == (90.0, 90.0)
    assert measure.tail_percentile(list(range(1, 1001))) == (99.0, 990.0)


# -- self time ---------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = _Clock()
    tracer = Tracer(clock)

    def tick(n):
        clock.now += n

    inner = tracer.wrap(lambda: tick(5), "c/inner")

    def _middle():
        tick(2)
        inner()
        tick(3)

    middle = tracer.wrap(_middle, "b/middle")

    def _outer():
        tick(1)
        middle()
        middle()
        tick(4)

    outer = tracer.wrap(_outer, "a/outer")
    tracer.begin_region()
    tick(7)  # outside every span
    outer()
    wall, covered = tracer.end_region()

    assert tracer.calls == {"c/inner": 2, "b/middle": 2, "a/outer": 1}
    assert tracer.self_ns == {"c/inner": 10, "b/middle": 10, "a/outer": 5}
    assert tracer.incl_ns == {"c/inner": 10, "b/middle": 20, "a/outer": 25}
    assert (wall, covered) == (32, 25)
    assert sum(tracer.self_ns.values()) == covered


def test_span_closes_when_the_call_raises():
    clock = _Clock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 3
        raise RuntimeError("boom")

    outer = tracer.wrap(lambda: wrapped_boom(), "a/outer")
    wrapped_boom = tracer.wrap(boom, "b/boom")
    tracer.begin_region()
    with pytest.raises(RuntimeError):
        outer()
    assert tracer.self_ns == {"b/boom": 3, "a/outer": 0}
    assert tracer.end_region() == (3, 3)


def test_layer_table_accounts_for_the_traced_time():
    data = {
        "self_ns": {"sim/System.run": 4_000_000_000, "core/x": 1_000_000_000},
        "incl_ns": {}, "calls": {}, "counters": {},
    }
    rows = dict(layers.self_time_table(data, 6.0))
    assert rows["sim"] == 4.0 and rows["core"] == 1.0
    assert rows["other"] == pytest.approx(1.0)
    assert sum(rows.values()) == pytest.approx(6.0)
    assert list(rows)[-1] == "other"


def test_patch_wraps_class_and_from_imported_functions():
    package = types.ModuleType("fakepkg")
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    class Widget:
        def poke(self):
            return "poked"

    def helper():
        return 42

    home.Widget, home.helper = Widget, helper
    user.helper = helper  # as ``from fakepkg.home import helper`` binds it
    sys.modules.update({"fakepkg": package, "fakepkg.home": home, "fakepkg.user": user})
    original = Widget.__dict__["poke"]
    try:
        tracer = Tracer()
        tracer.patch("fakepkg.home:Widget.poke", "toy")
        tracer.patch("fakepkg.home:helper", "toy")
        tracer.patch("fakepkg.home:Widget.absent", "toy")
        bound = Widget().poke  # a handle bound after patching
        assert bound() == "poked" and user.helper() == 42 and home.helper() == 42
        assert tracer.calls == {"toy/Widget.poke": 1, "toy/helper": 2}
        assert tracer.missing == ["fakepkg.home:Widget.absent"]
        tracer.restore()
        assert Widget.__dict__["poke"] is original
        assert user.helper is helper and home.helper is helper
    finally:
        for name in ("fakepkg", "fakepkg.home", "fakepkg.user"):
            sys.modules.pop(name, None)


def test_merge_sums_snapshots():
    a = {"self_ns": {"x/f": 1}, "calls": {"x/f": 2}, "counters": {"k": 1.5}}
    b = {"self_ns": {"x/f": 3, "y/g": 4}, "incl_ns": {"y/g": 4}, "lifetime_ns": 9}
    total = merge([a, b])
    assert total["self_ns"] == {"x/f": 4, "y/g": 4}
    assert total["calls"] == {"x/f": 2}
    assert total["counters"] == {"k": 1.5}


# -- correctness checks -----------------------------------------------------

def test_digest_book_flags_an_induced_mismatch():
    book = measure.DigestBook()
    assert book.record("pageseer", "aaaa")
    assert book.record("pageseer", "aaaa")
    assert not book.record("pageseer", "aaab")
    assert book.record("pom", "bbbb")
    assert book.mismatches == ["pageseer: digest aaab != aaaa"]


def test_a_mismatching_repeat_counts_as_a_failed_operation():
    outcome, book = Outcome(), measure.DigestBook()
    simrun._check(outcome, book, simrun.Rep(digests={"pageseer": "d1", "pom": "d2"}))
    simrun._check(outcome, book, simrun.Rep(digests={"pageseer": "d1", "pom": "XX"}))
    assert (outcome.attempted, outcome.failed) == (4, 1)


def test_stats_digest_matches_the_programs_own():
    from repro import bench, build_system, workload_by_name

    system = build_system("pageseer", workload_by_name("milcx4"), scale=1024, seed=3)
    system.run(300, 300)
    assert measure.stats_digest(system.stats.as_dict()) == bench.stats_digest(system)


def _fake_sweep(tmp_path, lines):
    script = tmp_path / "fake_sweep.py"
    script.write_text("print(%r)\n" % "\n".join(lines))
    return [sys.executable, str(script)]


def test_sweep_output_is_checked(tmp_path):
    good = _fake_sweep(tmp_path, ["sweep complete: 40 result(s) (x)",
                                  "results digest: abc123"])
    assert matrix.run_sweep(good, {}, 40).problem == ""
    assert matrix.run_sweep(good, {}, 40).digest == "abc123"
    assert "39 of 40" in matrix.run_sweep(
        _fake_sweep(tmp_path, ["sweep complete: 39 result(s)", "results digest: abc"]),
        {}, 40).problem
    assert matrix.run_sweep(_fake_sweep(tmp_path, ["nothing"]), {}, 40).problem


# -- the record in BENCHMARK.json -------------------------------------------

def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for entry in doc["workloads"]:
        assert entry["why"] == spec.WORKLOADS[entry["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == {
        name: (unit, better) for name, (unit, better, _) in spec.END_TO_END.items()}
    assert [m["name"] for m in doc["per_layer"]] == list(spec.PER_LAYER)
    for metric in doc["per_layer"]:
        assert (metric["unit"], metric["better"]) == layers.metric_unit(metric["name"])


def test_derive_reports_every_per_layer_metric_in_order():
    empty = {"self_ns": {}, "incl_ns": {}, "calls": {}, "counters": {}}
    assert tuple(layers.derive(empty, 1.0, executor=True)) == spec.PER_LAYER
