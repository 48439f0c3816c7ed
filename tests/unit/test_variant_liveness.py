"""Every PageSeer variant knob must change what PageSeer does.

A variant whose configuration differs from ``default`` under PageSeer
(its cache key differs) must change the stats digest of at least one
quick workload.  A knob that never binds turns a figure into a copy of
the default column while every gate built on it still passes.
"""

import pytest

from repro.bench import stats_digest
from repro.check.golden import GOLDEN_SIZING
from repro.experiments import ablation_partial, dram_capacity, sensitivity  # noqa: F401
from repro.experiments.jobcore import cache_key
from repro.experiments.runner import VARIANTS
from repro.sim.system import build_system
from repro.workloads import workload_by_name

WORKLOADS = ("milcx4", "lbmx4")
SIZING = (
    GOLDEN_SIZING["scale"], GOLDEN_SIZING["measure_ops"],
    GOLDEN_SIZING["warmup_ops"], GOLDEN_SIZING["seed"], "off",
)

#: Variants known to be inert, and why.  ``strict`` makes the fix that
#: brings one to life fail here until its entry is removed.
INERT = {
    "nobw": "Figure 11's heuristic compares the cumulative DRAM share "
            "(~70%) against 95%, so it never declines a swap",
    "sens_swap_engines_6": "no swap is declined for busy engines at the "
                           "default 3, so a limit of 6 never binds",
}


def _live_variants():
    default = cache_key(("pageseer", WORKLOADS[0], "default"), SIZING, None)
    return [
        variant for variant in sorted(VARIANTS)
        if cache_key(("pageseer", WORKLOADS[0], variant), SIZING, None) != default
    ]


def _digest(workload, variant):
    system = build_system(
        "pageseer", workload_by_name(workload),
        scale=GOLDEN_SIZING["scale"], seed=GOLDEN_SIZING["seed"],
        config_mutator=VARIANTS[variant],
    )
    system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    return stats_digest(system)


@pytest.fixture(scope="module")
def default_digests():
    return {workload: _digest(workload, "default") for workload in WORKLOADS}


@pytest.mark.parametrize("variant", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=INERT[name]))
    if name in INERT else name
    for name in _live_variants()
])
def test_variant_changes_pageseer_behaviour(variant, default_digests):
    assert any(
        _digest(workload, variant) != default_digests[workload]
        for workload in WORKLOADS
    ), f"{variant} simulates the default run on {WORKLOADS}"


def test_inert_entries_are_registered_variants():
    assert set(INERT) <= set(_live_variants())
