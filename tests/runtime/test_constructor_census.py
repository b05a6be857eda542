"""The runtime's constructor surface is a reviewed list.

Every keyword below is one some workload, example or benchmark passes;
adding one means editing this file, which is the point.  Removed keywords
(comparator forks, never-set knobs, the fleet's deleted defragmentation
and live-array migration) must fail loudly, by name, rather than be
swallowed.
"""

import inspect

import pytest

from repro.runtime import FleetScheduler, LPFleetPlacer, LPWeights, \
    ServingGateway, TrainingArrayEngine

FLEET = ("devices", "placer", "metrics", "max_width", "precision",
         "default_workload", "admission", "store",
         "checkpoint_every", "recovery", "execution", "clock", "placement")
ENGINE = ("policy", "batcher", "metrics", "queue", "device", "array_ids",
          "store", "checkpoint_every", "recovery", "execution", "clock",
          "precision", "default_workload")
GATEWAY = ("tenants", "fleet", "max_pending", "clock", "fleet_kwargs")

REMOVED = [
    (FleetScheduler, "elastic", False),
    (FleetScheduler, "persist_on_evict", False),
    (FleetScheduler, "checkpoint_incremental", False),
    (FleetScheduler, "quarantine_cycles", 2),
    (FleetScheduler, "resolve_every", 2),
    (FleetScheduler, "batcher", None),
    (FleetScheduler, "queue", None),
    (FleetScheduler, "defrag", None),
    (FleetScheduler, "migration_budget", 4),
    (LPFleetPlacer, "migration_min_gain_s", 0.0),
    (LPWeights, "migration", 0.0),
    (TrainingArrayEngine, "elastic", False),
    (TrainingArrayEngine, "persist_on_evict", False),
    (TrainingArrayEngine, "checkpoint_incremental", False),
    (TrainingArrayEngine, "pool", None),
]


def keywords(cls):
    return tuple(inspect.signature(cls.__init__).parameters)[1:]


@pytest.mark.parametrize("cls, expected", [
    (FleetScheduler, FLEET), (TrainingArrayEngine, ENGINE),
    (ServingGateway, GATEWAY)])
def test_constructor_keywords_are_the_reviewed_list(cls, expected):
    assert keywords(cls) == expected


@pytest.mark.parametrize("cls, keyword, value", REMOVED)
def test_removed_keyword_is_a_type_error_naming_it(cls, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        cls(**{keyword: value})


def test_gateway_forwards_a_removed_keyword_to_the_same_error():
    with pytest.raises(TypeError, match="elastic"):
        ServingGateway(elastic=False)
