"""Snapshot + log-tail recovery: the durable system end to end."""

from __future__ import annotations

import dataclasses

import pytest

import repro.corpus.store as corpus_store
from repro.core.system import ELearningSystem, SystemConfig
from repro.durability.manager import RecoveryReport
from repro.durability.snapshot import SnapshotStore
from repro.state.mergeable import snapshots_equal
from repro.durability.wal import read_log

SCRIPT = (
    ("What is Stack?", "alice"),
    ("the cat sat on the mat", "bob"),
    ("a queue are a structure", "alice"),
    ("What is Queue?", "bob"),
    ("stack uses pop operation", "alice"),
    ("the stack is a queue", "bob"),
    ("What is Tree?", "alice"),
)


def run_script(system, script=SCRIPT):
    system.open_room("ds-101", topic="stacks")
    system.join("ds-101", "alice")
    system.join("ds-101", "bob")
    for text, user in script:
        system.say("ds-101", user, text)


def full_state(system):
    return (
        system.corpus.snapshot(),
        system.profiles.snapshot(),
        system.faq.snapshot(),
        {name: list(room.transcript) for name, room in system.server.rooms.items()},
        system.clock.now(),
        system.server.total_messages(),
        dataclasses.asdict(system.pipeline.combined_stats()),
    )


def canonical_state(tmp_path, config_kwargs=None, script=SCRIPT):
    """The uncrashed reference run (durable, same code path)."""
    kwargs = dict(config_kwargs or {})
    kwargs.setdefault("snapshot_every", 4)
    system = ELearningSystem.with_defaults(
        SystemConfig(data_dir=str(tmp_path / "canonical"), **kwargs)
    )
    run_script(system, script)
    if system.pending_supervision:
        system.drain()
    state = full_state(system)
    system.close()
    return state


class TestCleanRestart:
    def test_recover_equals_canonical_run(self, tmp_path):
        canonical = canonical_state(tmp_path)
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=4)
        )
        run_script(system)
        system.close()
        recovered, report = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(snapshot_every=4)
        )
        assert report.clean
        assert full_state(recovered) == canonical
        assert snapshots_equal(recovered.corpus, recovered.corpus)
        recovered.close()

    def test_recovered_system_keeps_journalling(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=4)
        )
        run_script(system)
        system.close()
        recovered, _ = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(snapshot_every=4)
        )
        before = recovered.server.total_messages()
        recovered.say("ds-101", "alice", "What is Graph?")
        recovered.close()
        # a second recovery sees the continued history
        again, report = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(snapshot_every=4)
        )
        assert report.clean
        assert again.server.total_messages() > before
        assert again.server.rooms["ds-101"].transcript[before].text == "What is Graph?"
        again.close()

    def test_double_recovery_is_idempotent(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=3)
        )
        run_script(system)
        system.close()
        first, _ = ELearningSystem.recover(str(tmp_path / "d"))
        state = full_state(first)
        first.close()
        second, report = ELearningSystem.recover(str(tmp_path / "d"))
        assert report.clean
        assert full_state(second) == state
        second.close()

    def test_periodic_snapshots_prune_to_keep_count(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=2)
        )
        run_script(system)
        system.close()
        store = SnapshotStore(tmp_path / "d")
        assert 1 <= len(store.existing()) <= 3

    def test_fresh_system_refuses_existing_data_dir(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"))
        )
        system.open_room("ds-101")
        system.close()
        with pytest.raises(ValueError, match="recover"):
            ELearningSystem.with_defaults(SystemConfig(data_dir=str(tmp_path / "d")))


class TestCloseFlushesPendingSupervision:
    """A clean shutdown must never lose enqueued supervision work."""

    @pytest.mark.parametrize("mode,shards", [("queued", 1), ("parallel", 2)])
    def test_close_drains_before_final_snapshot(self, tmp_path, mode, shards):
        canonical = canonical_state(
            tmp_path / mode, {"runtime_mode": mode, "shards": shards, "auto_drain": False}
        )
        system = ELearningSystem.with_defaults(
            SystemConfig(
                data_dir=str(tmp_path / mode / "d"),
                snapshot_every=4,
                runtime_mode=mode,
                shards=shards,
                auto_drain=False,
            )
        )
        run_script(system)
        assert system.pending_supervision > 0  # the latent-leak setup
        system.close()
        assert system.pending_supervision == 0
        recovered, report = ELearningSystem.recover(
            str(tmp_path / mode / "d"),
            SystemConfig(
                snapshot_every=4, runtime_mode=mode, shards=shards, auto_drain=False
            ),
        )
        assert report.clean
        assert recovered.corpus.snapshot() == canonical[0]
        assert recovered.profiles.snapshot() == canonical[1]
        assert recovered.faq.snapshot() == canonical[2]
        recovered.close()

    def test_close_is_idempotent(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"))
        )
        system.open_room("ds-101")
        system.close()
        system.close()
        snapshots = SnapshotStore(tmp_path / "d").existing()
        assert len(snapshots) == 1


class TestSnapshotOnlyRecovery:
    def test_snapshot_restore_never_tokenises(self, tmp_path, monkeypatch):
        """Corpus reload is columnar: zero tokenizer calls on recovery."""
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=None)
        )
        run_script(system)
        system.close()  # final snapshot covers the whole log: empty tail
        state = full_state(system)

        calls = []
        real = corpus_store.tokenize
        monkeypatch.setattr(
            corpus_store, "tokenize", lambda text: (calls.append(text) or real(text))
        )
        recovered, report = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(seed_corpus=False, snapshot_every=None)
        )
        assert report.events_replayed == 0  # everything came from the snapshot
        assert calls == []
        assert full_state(recovered) == state
        recovered.close()

    def test_corrupt_snapshot_falls_back_to_older_one(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=3)
        )
        run_script(system)
        state = full_state(system)
        system.close()
        newest = SnapshotStore(tmp_path / "d").existing()[-1]
        data = bytearray(newest.read_bytes())
        data[40] ^= 0xFF
        newest.write_bytes(bytes(data))
        recovered, report = ELearningSystem.recover(str(tmp_path / "d"))
        assert report.snapshots_quarantined == [newest.name]
        assert report.snapshot_path is not None  # an older snapshot served
        assert newest.with_name(newest.name + ".corrupt").exists()
        assert full_state(recovered) == state
        recovered.close()

    def test_replay_tail_regenerates_agent_replies(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=None)
        )
        run_script(system)
        transcript = list(system.server.rooms["ds-101"].transcript)
        agent_replies = [m for m in transcript if m.kind.value == "agent"]
        assert agent_replies  # the script provokes interventions
        state = full_state(system)
        system.runtime.close()  # abandon without close(): no snapshot at all
        recovered, report = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(snapshot_every=None)
        )
        assert report.snapshot_path is None
        assert full_state(recovered) == state
        replayed = list(recovered.server.rooms["ds-101"].transcript)
        assert [m for m in replayed if m.kind.value == "agent"] == agent_replies
        recovered.close()

    def test_report_counts_match_log(self, tmp_path):
        system = ELearningSystem.with_defaults(
            SystemConfig(data_dir=str(tmp_path / "d"), snapshot_every=None)
        )
        run_script(system)
        system.runtime.close()
        events = read_log(tmp_path / "d", RecoveryReport(data_dir="x"))
        # 1 room + 2 joins + 7 posts, no agent replies journalled
        assert len(events) == 10
        assert [e["type"] for e in events[:3]] == ["room", "join", "join"]
        assert all(e["type"] == "post" for e in events[3:])
        _recovered, report = ELearningSystem.recover(
            str(tmp_path / "d"), SystemConfig(snapshot_every=None)
        )
        assert report.events_total == 10
        assert report.events_replayed == 10
        _recovered.close()


class TestSnapshotStoreValidation:
    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            SnapshotStore(tmp_path, keep=0)

    def test_restore_rejects_foreign_document(self, tmp_path):
        from repro.durability.snapshot import restore_snapshot

        system = ELearningSystem.with_defaults(SystemConfig())
        with pytest.raises(ValueError, match="not a"):
            restore_snapshot(system, {"format": "someone-elses-format/9"})
        system.close()

    def test_latest_skips_non_json_payload(self, tmp_path):
        from repro.durability.wal import encode_frame

        store = SnapshotStore(tmp_path, keep=3)
        bogus = tmp_path / "snapshot-000001.json"
        bogus.write_bytes(encode_frame(b"\xff\xfenot json at all"))
        report = RecoveryReport(data_dir=str(tmp_path))
        assert store.load_latest(report) is None
        assert bogus.with_suffix(".json.corrupt").exists()
