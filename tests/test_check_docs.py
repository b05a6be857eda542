"""``tools/check_docs.py``'s member-reference check: a backticked
``Class.member`` of a ``repro.runtime`` class must name something the
class has — a method, a dataclass field or an attribute its code
assigns — so a doc that names a deleted member fails the docs gate."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_deleted_member_fails_and_live_members_pass(tmp_path,
                                                      monkeypatch):
    check_docs = load_check_docs()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Call `FleetScheduler.run_cycle()`, read `JobResult.checkpoint` "
        "(a field) and `DeviceWorker.sim_time` (assigned in `__init__`), "
        "`fleet.workers` (no class) and `FleetScheduler.stalled_workers"
        "(timeout)`.\n\n```\nFleetScheduler.heartbeats  # fenced: skipped\n"
        "```\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", [doc])
    failures = []
    assert check_docs.check_member_references(failures) == 4
    assert failures == ["doc.md: `FleetScheduler.stalled_workers` names "
                        "no attribute, method or field of "
                        "repro.runtime.FleetScheduler"]
