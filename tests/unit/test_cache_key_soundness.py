"""The result-cache key digests the configuration a job simulates.

Requests whose keys are equal share one cache entry and one sweep job,
so an equal key must mean an equal run.  Two properties carry that:

* every registered variant, under every scheme, that keys equal to
  another simulates the identical run (equal stats digests);
* each controller's ``config_sections`` names every scheme section it
  reads: changing every field of the other sections leaves the run
  unchanged.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.bench import stats_digest
from repro.check.golden import GOLDEN_SIZING
from repro.experiments import ablation_partial, dram_capacity, sensitivity  # noqa: F401
from repro.experiments.jobcore import cache_key
from repro.experiments.runner import VARIANTS
from repro.sim.system import (
    SCHEME_SECTIONS,
    SCHEMES,
    build_system,
    effective_config,
    system_config,
)
from repro.workloads import workload_by_name

WORKLOAD = "lbmx4"
SIZING = (
    GOLDEN_SIZING["scale"], GOLDEN_SIZING["measure_ops"],
    GOLDEN_SIZING["warmup_ops"], GOLDEN_SIZING["seed"], "off",
)


def _digest(scheme, mutator=None):
    system = build_system(
        scheme, workload_by_name(WORKLOAD),
        scale=GOLDEN_SIZING["scale"], seed=GOLDEN_SIZING["seed"],
        config_mutator=mutator,
    )
    system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    return stats_digest(system)


def _perturbed(section):
    """A copy of *section* with every field changed."""
    changes = {}
    for field in dataclasses.fields(section):
        value = getattr(section, field.name)
        if isinstance(value, bool):
            changes[field.name] = not value
        elif isinstance(value, int):
            changes[field.name] = value * 2 + 1
        elif isinstance(value, float):
            changes[field.name] = value / 2
        else:
            raise AssertionError(f"no perturbation for {field.name}={value!r}")
    return dataclasses.replace(section, **changes)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_equal_keys_simulate_equal_runs(scheme):
    groups = defaultdict(list)
    for variant in sorted(VARIANTS):
        groups[cache_key((scheme, WORKLOAD, variant), SIZING, None)].append(variant)
    shared = [names for names in groups.values() if len(names) > 1]
    # Every scheme has aliases: Table II's own sensitivity points and
    # dramcap_x1 are the default configuration.
    assert shared
    for names in shared:
        digests = {name: _digest(scheme, VARIANTS[name]) for name in names}
        assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_unread_scheme_sections_do_not_change_the_run(scheme):
    unread = [
        name for name in SCHEME_SECTIONS
        if name not in SCHEMES[scheme].config_sections
    ]

    def mutate(config):
        return dataclasses.replace(config, **{
            name: _perturbed(getattr(config, name)) for name in unread
        })

    base = system_config(
        workload_by_name(WORKLOAD), scale=GOLDEN_SIZING["scale"],
        seed=GOLDEN_SIZING["seed"],
    )
    changed = mutate(base)
    for name in unread:
        for field in dataclasses.fields(getattr(base, name)):
            assert getattr(getattr(changed, name), field.name) != \
                getattr(getattr(base, name), field.name)
    assert effective_config(scheme, changed) == effective_config(scheme, base)
    assert _digest(scheme, mutate) == _digest(scheme)


def test_declared_sections_are_scheme_sections():
    for cls in SCHEMES.values():
        assert set(cls.config_sections) <= set(SCHEME_SECTIONS)
