"""The health registry, structured shed events and the CLI surfaces.

Covers ``system.health()`` / :func:`build_health` (ok and each degraded
trigger), the structured backpressure shed events (satellite: shedding
must be attributable, not a bare counter), and the two CLI additions:
``python -m repro health`` and ``recover --json``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.system import ELearningSystem, SystemConfig
from repro.resilience import RuntimeFaultPlan

ROOM = "ds-101"


def build_system(**kwargs) -> ELearningSystem:
    system = ELearningSystem.with_defaults(SystemConfig(**kwargs))
    system.open_room(ROOM, topic="stacks")
    system.join(ROOM, "alice")
    return system


class TestHealthReport:
    def test_fresh_system_is_ok(self):
        system = build_system()
        health = system.health()
        assert health.status == "ok"
        assert health.components["quarantine"] == {"items": 0}
        assert health.components["runtime"]["pending"] == 0
        assert health.components["runtime"]["deferred"] == 0
        assert health.counters["quarantined"] == 0

    def test_breakers_are_labelled_with_their_agents(self):
        health = build_system().health()
        assert health.components["breaker:parser"]["guards"] == "Learning_Angel"
        assert health.components["breaker:semantic"]["guards"] == "Semantic_Agent"
        assert health.components["breaker:qa"]["guards"] == "QA_System"
        for stage in ("parser", "semantic", "qa"):
            assert health.components[f"breaker:{stage}"]["state"] == "closed"

    def test_quarantined_item_degrades(self):
        system = build_system(
            runtime_faults=RuntimeFaultPlan(fail_at=1, fail_times=3)
        )
        system.say(ROOM, "alice", "The stack is full.")
        health = system.health()
        assert health.status == "degraded"
        assert health.components["quarantine"] == {"items": 1}
        assert health.counters["quarantined"] == 1
        assert health.counters["retries"] == 2
        assert health.counters["backoff_virtual"] > 0

    def test_open_breaker_and_deferred_ledger_degrade(self):
        system = build_system(runtime_faults=RuntimeFaultPlan(permanent=("parser",)))
        for text in ("The stack is full.", "The queue is empty.",
                     "We push an element onto the stack."):
            system.say(ROOM, "alice", text)
        health = system.health()
        assert health.status == "degraded"
        assert health.components["breaker:parser"]["state"] in ("open", "half_open")
        assert health.components["breaker:semantic"]["state"] == "closed"
        assert health.components["runtime"]["deferred"] == len(
            system.resilience.deferred
        )
        assert health.components["runtime"]["deferred"] > 0

    def test_durability_component_present_on_durable_systems(self, tmp_path):
        system = build_system(data_dir=str(tmp_path / "d"))
        system.say(ROOM, "alice", "The stack is full.")
        health = system.health()
        assert health.components["durability"]["events"] > 0
        assert health.components["durability"]["closed"] is False
        system.close()

    def test_summary_renders_every_component(self):
        system = build_system()
        text = system.health().summary()
        assert text.startswith("status: ok")
        for component in ("breaker:parser", "runtime:", "quarantine:"):
            assert component in text
        assert "counters:" in text

    def test_to_dict_round_trips_through_json(self):
        payload = json.dumps(build_system().health().to_dict())
        decoded = json.loads(payload)
        assert decoded["status"] == "ok"
        assert set(decoded) == {"status", "components", "counters"}


class TestStructuredShedEvents:
    """Satellite: shedding must say *what* was dropped, not just count."""

    def sheddy_system(self) -> ELearningSystem:
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="parallel", shards=1, max_pending=1)
        )
        system.open_room(ROOM, topic="stacks")
        system.join(ROOM, "alice")
        for text in ("The stack is full.", "The queue is empty.",
                     "The tree is tall."):
            system.say(ROOM, "alice", text)
        return system

    def test_shed_events_identify_room_seq_and_reason(self):
        system = self.sheddy_system()
        events = system.runtime.shed_events()
        assert len(events) == system.supervision_shed > 0
        for event in events:
            assert event.room == ROOM
            assert event.reason == "backpressure"
        # oldest pending is shed first, so seqs are the earliest posts
        assert [event.seq for event in events] == sorted(e.seq for e in events)

    def test_shed_events_reach_the_health_registry(self):
        system = self.sheddy_system()
        health = system.health()
        assert health.status == "degraded"
        rows = health.components["runtime"]["shed_events"]
        assert rows == [event.to_dict() for event in system.runtime.shed_events()]
        assert {"shard", "room", "seq", "reason"} <= set(rows[0])


class TestHealthCommand:
    def durable_dir(self, tmp_path, faults=None) -> str:
        data_dir = str(tmp_path / "state")
        system = build_system(data_dir=data_dir, runtime_faults=faults)
        system.say(ROOM, "alice", "The stack is full.")
        system.say(ROOM, "alice", "What is a stack?")
        system.close()
        return data_dir

    def test_health_ok_exits_zero(self, tmp_path, capsys):
        data_dir = self.durable_dir(tmp_path)
        assert main(["health", data_dir]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "recovery: clean" in out

    def test_health_degraded_exits_nonzero(self, tmp_path, capsys):
        faults = RuntimeFaultPlan(fail_at=1, fail_times=3)
        data_dir = self.durable_dir(tmp_path, faults=faults)
        assert main(["health", data_dir]) == 1
        assert "quarantine: items=1" in capsys.readouterr().out

    def test_health_json(self, tmp_path, capsys):
        data_dir = self.durable_dir(tmp_path)
        assert main(["health", "--json", data_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["status"] == "ok"
        assert payload["recovery"]["clean"] is True

    def test_health_leaves_the_directory_recoverable(self, tmp_path, capsys):
        data_dir = self.durable_dir(tmp_path)
        assert main(["health", data_dir]) == 0
        capsys.readouterr()
        assert main(["health", data_dir]) == 0  # inspect-only: no compaction damage


class TestRecoverJson:
    """Satellite: ``recover --json`` for scripting, exit code unchanged."""

    def test_json_report_and_state(self, tmp_path, capsys):
        data_dir = str(tmp_path / "state")
        system = build_system(data_dir=data_dir)
        system.say(ROOM, "alice", "What is a stack?")
        system.close()
        assert main(["recover", "--json", data_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["clean"] is True
        assert payload["state"]["rooms"] == 1
        assert payload["state"]["questions"] == 1
        assert payload["state"]["quarantined"] == 0

    def test_exit_code_matches_plain_mode(self, tmp_path, capsys):
        data_dir = str(tmp_path / "state")
        system = build_system(data_dir=data_dir)
        system.say(ROOM, "alice", "The stack is full.")
        system.close()
        assert main(["recover", "--json", data_dir]) == 0
        capsys.readouterr()
        assert main(["recover", data_dir]) == 0
