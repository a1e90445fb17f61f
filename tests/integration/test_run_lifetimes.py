"""Cycle oracle: a finished run is freed by reference counting alone.

Every path that builds a simulated deployment — the experiment runner, the
fuzz harness and the explorer — closes it before returning.  Here each path
runs with the cyclic collector disabled, its result is dropped, and
``gc.collect()`` must then find nothing: a run that left a reference cycle
behind would be freed only by a full collection, so a process that runs
many of them (a benchmark, a sweep, an exploration) would hold the garbage
of the last few.
"""

from dataclasses import replace
import gc

import pytest

from repro.experiments.config import (
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from repro.experiments.runner import run_experiment
from repro.fuzz.explore import enumerate_shapes, execute
from repro.fuzz.harness import run_scenario
from repro.fuzz.profiles import PROFILES, apply_profile
from repro.fuzz.workload import generate_scenario


@pytest.fixture
def assert_freed(refcount_only):
    def check(run) -> None:
        run()  # first-use imports are not the run's garbage
        gc.collect()
        run()  # its result is dropped at once
        assert gc.collect() == 0

    return check


@pytest.mark.parametrize(
    "make_config", [flexcast_config, distributed_config, hierarchical_config]
)
@pytest.mark.parametrize("record_deliveries", [False, True])
def test_run_experiment(assert_freed, make_config, record_deliveries):
    config = make_config(
        num_clients=6, duration_ms=400.0, seed=3, record_deliveries=record_deliveries
    )
    assert_freed(lambda: run_experiment(config))


def _scenarios():
    """Every profile as it comes, and each bare one also replicated (the
    crash profiles are replicated by definition)."""
    for profile in PROFILES:
        scenario = apply_profile(generate_scenario(4, profile), profile)
        if scenario.replication_factor == 1:
            yield pytest.param(scenario, id=f"{profile}-bare")
            scenario = replace(scenario, replication_factor=3, client_retries=4)
        yield pytest.param(scenario, id=f"{profile}-replicated")


@pytest.mark.parametrize("scenario", list(_scenarios()))
def test_run_scenario(assert_freed, scenario):
    assert_freed(lambda: run_scenario(scenario))


def test_run_scenario_through_the_batching_client(assert_freed):
    scenario = apply_profile(
        generate_scenario(4, "cluster-crash-restart"), "cluster-crash-restart"
    )
    assert_freed(lambda: run_scenario(scenario, use_batching_client=True))


@pytest.mark.parametrize(
    "case", list(enumerate_shapes(3, 3)), ids=lambda case: case.label()
)
def test_explore_execute(assert_freed, case):
    assert_freed(lambda: execute(case))
