"""The runtime's constructor surface is a reviewed list.

Every keyword below is one some workload, example or benchmark passes —
a scan of every call outside ``tests/`` checks it, less the few test
seams named in ``TEST_SEAMS``; adding one means editing this file, which
is the point.  Removed keywords (comparator forks, never-set knobs, the
fleet's deleted defragmentation and live-array migration, the wiring of
the fleet's deleted per-device engines, the gateway's admission hook and
the sim fleet's clock, which the fleet sets itself) must fail loudly, by
name, rather than be swallowed.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.hfta import split_fused
from repro.hfta.optim import split_optimizer
from repro.runtime import ArrayExecutor, Batcher, CheckpointStore, \
    FleetScheduler, JobQueue, LPFleetPlacer, LPWeights, RecoveryManager, \
    ServingGateway, TrainingArrayEngine

FLEET = ("devices", "placer", "metrics", "max_width", "precision",
         "default_workload", "store", "checkpoint_every", "recovery",
         "execution", "placement")
ENGINE = ("policy", "store", "checkpoint_every", "recovery")
GATEWAY = ("tenants", "fleet", "max_pending", "clock", "fleet_kwargs")

#: keywords only tests pass, each with why it stays
TEST_SEAMS = {
    (FleetScheduler, "placer"): "pins placement to test a device's work",
    (FleetScheduler, "metrics"): "shares one fold between two runtimes",
    (ServingGateway, "fleet"): "fronts a fleet a test built and armed",
    (ServingGateway, "clock"): "a manual clock drives buckets and SLOs",
}

#: where the runtime's callers live: workloads, examples, benchmarks,
#: tools and the runtime itself
CALLER_ROOTS = ("src", "examples", "benchmarks", "bench_e2e", "tools")
REPO = Path(__file__).resolve().parents[2]

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
    # the gateway installs itself; a sim fleet builds its own clock
    (FleetScheduler, "admission", None),
    (FleetScheduler, "clock", None),
    (LPFleetPlacer, "migration_min_gain_s", 0.0),
    (LPWeights, "migration", 0.0),
    (TrainingArrayEngine, "elastic", False),
    (TrainingArrayEngine, "persist_on_evict", False),
    (TrainingArrayEngine, "checkpoint_incremental", False),
    (TrainingArrayEngine, "pool", None),
    # a fleet drives one engine and re-points its backend itself
    (TrainingArrayEngine, "batcher", None),
    (TrainingArrayEngine, "metrics", None),
    (TrainingArrayEngine, "queue", None),
    (TrainingArrayEngine, "device", None),
    (TrainingArrayEngine, "array_ids", None),
    (TrainingArrayEngine, "execution", "sim"),
    (TrainingArrayEngine, "clock", None),
    (TrainingArrayEngine, "precision", "amp"),
    (TrainingArrayEngine, "default_workload", "pointnet_cls"),
    (Batcher, "tenant_isolation", True),
    (Batcher, "infusible_keys", ()),
    (JobQueue, "max_pending", 1),
]

#: keywords deleted from methods with the features they drove: the
#: checkpoint dirty-slot tracker's refs and force flag, rebuilding into a
#: prebuilt fleet, and the re-fusion splits' copy-everything switches
REMOVED_METHOD_KEYWORDS = [
    (CheckpointStore.save_slot, "objects"),
    (ArrayExecutor.checkpoint_now, "force"),
    (RecoveryManager.rebuild_fleet, "fleet"),
    (split_fused, "copy"),
    (split_optimizer, "copy_state"),
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


@pytest.mark.parametrize("method, keyword", REMOVED_METHOD_KEYWORDS)
def test_removed_method_keyword_is_gone(method, keyword):
    assert keyword not in inspect.signature(method).parameters


def passed_keywords():
    """``{class: keywords some call outside tests/ passes it}``.  What a
    ``ServingGateway(...)`` or ``rebuild_fleet(...)`` call passes beyond
    the callee's own parameters is forwarded to ``FleetScheduler``."""
    own = {"ServingGateway": set(GATEWAY),
           "rebuild_fleet": set(inspect.signature(
               RecoveryManager.rebuild_fleet).parameters)}
    passed = {FleetScheduler: set(), TrainingArrayEngine: set(),
              ServingGateway: set()}
    named = {cls.__name__: cls for cls in passed}
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                given = {kw.arg for kw in node.keywords if kw.arg}
                if name in named:
                    passed[named[name]] |= given
                if name in own:
                    passed[FleetScheduler] |= given - own[name]
    return passed


def test_every_reviewed_keyword_is_passed_outside_the_tests():
    passed = passed_keywords()
    unused = [(cls.__name__, keyword)
              for cls, expected in ((FleetScheduler, FLEET),
                                    (TrainingArrayEngine, ENGINE),
                                    (ServingGateway, GATEWAY))
              for keyword in expected
              if keyword != "fleet_kwargs" and keyword not in passed[cls]
              and (cls, keyword) not in TEST_SEAMS]
    assert unused == []
    # a seam some caller starts passing is no longer a test seam
    assert [(cls.__name__, keyword) for cls, keyword in TEST_SEAMS
            if keyword in passed[cls]] == []


def test_gateway_forwards_a_removed_keyword_to_the_same_error():
    with pytest.raises(TypeError, match="elastic"):
        ServingGateway(elastic=False)
