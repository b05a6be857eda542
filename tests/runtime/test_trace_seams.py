"""The tracer's patch points still exist and still carry the work.

``bench_e2e.tracing`` measures each layer by wrapping callables *where
their callers look them up* — the re-fusion primitives as attributes of
``repro.runtime.engine``, the lifecycle as ``ArrayExecutor`` methods.  A
refactor that imports a primitive somewhere else, or binds it at import
time, keeps every test green and silently zeroes ``hfta.split_s`` /
``merge_s`` / ``load_s`` / ``export_s`` in the layer table.  Likewise
``metrics.record_s`` / ``metrics.records`` count every ``RuntimeMetrics``
method named ``record_*`` — today the one fold, ``record_event`` — and
``checkpoint.wal_*`` count ``RecoveryManager._append``.  This guard reads
``bench_e2e`` and changes nothing in it.
"""

from collections import Counter

import numpy as np

from bench_e2e import tracing
from repro.runtime import engine as engine_module
from repro.runtime import (ArrayExecutor, CheckpointStore, RecoveryManager,
                           TrainingArrayEngine, TrainingJob)

from .conftest import SIM_CLASSES, SIM_FEATURES, build_sim_model


def test_every_patched_path_resolves_to_a_callable():
    def resolves(path):
        try:
            owner, attr = tracing._resolve(path)
            return callable(getattr(owner, attr))
        except (ImportError, AttributeError):
            return False

    assert [path for path in tracing.PATCHES if not resolves(path)] == []


def stream(seed, steps):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((4, SIM_FEATURES)).astype(np.float32),
                rng.integers(0, SIM_CLASSES, size=4)) for _ in range(steps)]
    return lambda step: batches[step]


def test_an_elastic_run_calls_the_primitives_through_engine_globals(
        monkeypatch, tmp_path):
    primitives = ("load_from_unfused", "export_to_unfused", "split_fused",
                  "merge_fused", "split_optimizer", "merge_optimizers",
                  "export_slot_state")
    calls = dict.fromkeys(primitives + ("prepare", "step_epoch", "admit"), 0)

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in primitives:
        monkeypatch.setattr(engine_module, name,
                            counting(name, getattr(engine_module, name)))
    for name in ("prepare", "step_epoch", "admit"):
        monkeypatch.setattr(ArrayExecutor, name,
                            counting(name, getattr(ArrayExecutor, name)))

    # evict -> admit -> drain: two jobs launch, the first stops after one
    # epoch, the third boards the freed slot, a store persists every exit
    engine = TrainingArrayEngine(store=CheckpointStore(tmp_path))
    ids = engine.submit_all([
        TrainingJob(name=f"seam{i}", build_model=build_sim_model,
                    data=stream(i, 6), steps=6, epoch_steps=2, seed=i,
                    stop=(lambda epochs, curve: True) if i == 0 else None)
        for i in range(3)])
    results = {r.job_id: r for r in engine.run_cycle(max_jobs=2)}
    assert sorted(results) == ids
    assert engine.metrics.jobs_evicted == 1
    assert engine.metrics.jobs_admitted == 1

    assert calls["load_from_unfused"] == 2      # the launch, the newcomer
    assert calls["split_fused"] == calls["split_optimizer"] == 2
    assert calls["merge_fused"] == calls["merge_optimizers"] == 1
    assert calls["export_to_unfused"] == 3
    assert calls["export_slot_state"] == 3
    assert (calls["prepare"], calls["admit"]) == (1, 1)
    assert calls["step_epoch"] >= 4


def test_the_tracer_sees_every_event_and_every_wal_line(tmp_path):
    store = CheckpointStore(tmp_path)
    recovery = RecoveryManager(store)
    engine = TrainingArrayEngine(store=store, checkpoint_every=1,
                                 recovery=recovery)
    engine.metrics.enable_event_log()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine.submit_all([
            TrainingJob(name=f"seam{i}", build_model=build_sim_model,
                        data=stream(i, 6), steps=6, epoch_steps=2, seed=i,
                        stop=(lambda epochs, curve: True) if i == 0
                        else None)
            for i in range(3)])
        engine.run_cycle(max_jobs=2)
    finally:
        tracer.uninstall()

    spans = Counter(span[1] for span in tracer.spans)
    kinds = {event.kind for event in engine.metrics.events}
    assert {"submit", "launch", "retire", "admit", "checkpoint"} <= kinds
    assert spans["metrics.record"] == len(engine.metrics.events)
    assert spans["checkpoint.wal_append"] == len(recovery.entries()) > 0
