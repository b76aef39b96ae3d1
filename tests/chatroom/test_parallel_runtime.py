"""The ``parallel`` runtime's scheduling, backpressure and lifecycle.

Merged-state parity with the serial replay lives in
``test_runtime_parity.py``; this suite pins what only the thread-pool
executor has to get right:

* results are deterministic across repeated runs and worker counts
  (thread scheduling must not leak into outcomes);
* posting defers supervision, replies flush in post order and plain
  observers run at the barrier;
* backpressure sheds oldest-first, counts what it shed, and surfaces the
  counts through the runtime;
* a crash in one shard's batch lets the sibling batches finish first;
* a :class:`DrainBudget` drains a deferred system from ``say()`` alone,
  and closing a system drains its backlog and releases the pool.
"""

from __future__ import annotations

import zlib

import pytest

from repro.chatroom import (
    ChatServer,
    DrainBudget,
    MessageKind,
    Role,
    SupervisionRuntime,
    SupervisionStats,
    shard_of,
)
from repro.core.system import ELearningSystem, SystemConfig

from test_runtime_parity import ROOMS, full_state, run_workload, scripted_messages


def parallel_config(workers: int) -> SystemConfig:
    return SystemConfig(runtime_mode="parallel", shards=workers)


class TestDeterminism:
    def test_worker_count_does_not_change_merged_state(self):
        reference = full_state(run_workload(parallel_config(1), 7))
        for workers in (2, 5):
            parallel = full_state(run_workload(parallel_config(workers), 7))
            assert parallel == reference, f"workers={workers}"

    def test_deterministic_across_runs(self):
        first = full_state(run_workload(parallel_config(4), 9))
        second = full_state(run_workload(parallel_config(4), 9))
        assert first == second


class TestParallelScheduling:
    def test_posting_defers_supervision(self):
        system = ELearningSystem.with_defaults(parallel_config(2))
        system.open_room("r", topic="t")
        system.join("r", "kid")
        message = system.say("r", "kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        assert system.stats.messages == 0
        assert system.agent_replies_to(message) == []
        assert system.drain() == 1
        assert system.pending_supervision == 0
        assert system.stats.messages == 1
        assert system.agent_replies_to(message) != []
        assert system.drain() == 0

    def test_replies_flush_in_post_order(self):
        system = ELearningSystem.with_defaults(parallel_config(3))
        for room in ROOMS[:3]:
            system.open_room(room, topic="t")
            system.join(room, "kid")
        posted = [
            system.say(room, "kid", "stack the holds data quickly the.")
            for room in ROOMS[:3]
        ]
        system.drain()
        # Every user message got replies, and across rooms/shards the
        # replies were posted in the originating messages' seq order:
        # sorting all agent messages by their own seq must yield
        # non-decreasing reply_to targets.
        replies = sorted(
            (
                message
                for room in ROOMS[:3]
                for message in system.server.get_room(room).transcript
                if message.kind == MessageKind.AGENT
            ),
            key=lambda message: message.seq,
        )
        targets = [message.reply_to for message in replies]
        assert len({m.reply_to for m in replies}) == len(posted)  # all replied-to
        assert targets == sorted(targets)

    def test_stats_merge_equals_worker_sum(self):
        system = run_workload(parallel_config(3), 5)
        per_worker = system.pipeline.worker_stats()
        assert len(per_worker) == 4  # the prototype (idle) + 3 shard forks
        assert per_worker[0] == SupervisionStats()
        assert system.stats == SupervisionStats.total(per_worker)
        system.close()

    def test_rooms_route_to_fixed_shards(self):
        for room in ROOMS:
            expected = shard_of(room, 3)
            assert 0 <= expected < 3
            # Stable across calls and processes (CRC-32, not hash()).
            assert shard_of(room, 3) == expected
        assert [shard_of(room, 3) for room in ROOMS] == [
            zlib.crc32(room.encode("utf-8")) % 3 for room in ROOMS
        ]

    def test_worker_loads_cover_every_user_message(self):
        system = run_workload(parallel_config(4), 6)
        user_messages = sum(
            1
            for room in ROOMS
            for message in system.server.get_room(room).transcript
            if message.kind == MessageKind.USER
        )
        assert sum(system.runtime.worker_loads()) == user_messages

    def test_plain_observers_dispatched_at_barrier_in_post_order(self):
        class Spy:
            def __init__(self):
                self.seqs = []

            def on_message(self, server, message):
                self.seqs.append(message.seq)

        runtime = SupervisionRuntime(mode="parallel", shards=3)
        server = ChatServer(runtime=runtime)
        spy = Spy()
        server.add_supervisor(spy)
        for room in ("a", "b", "c", "d"):
            server.create_room(room)
            server.join(room, "u")
        expected = [server.post(room, "u", "hello").seq for room in ("a", "b", "c", "d")]
        assert spy.seqs == []  # deferred until the drain barrier
        server.drain_supervision()
        assert spy.seqs == expected


class TestBackpressure:
    def test_bounded_queue_sheds_oldest_first(self):
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="queued", auto_drain=False, max_pending=2)
        )
        system.open_room("r", topic="t")
        system.join("r", "kid")
        texts = [f"What is a queue?", "What is a stack?", "We push an element onto the stack.",
                 "The stacks is full.", "I push the data into a tree."]
        for text in texts:
            system.say("r", "kid", text)
        assert system.pending_supervision == 2
        assert system.supervision_shed == 3
        system.drain()
        # Only the two *newest* messages were supervised.
        assert system.stats.messages == 2
        supervised = [r.text for r in system.corpus.records() if r.room == "r"]
        assert supervised == ["The stacks is full.", "I push the data into a tree."]

    def test_shed_counts_surface_per_shard_in_parallel_mode(self):
        config = SystemConfig(runtime_mode="parallel", shards=2, max_pending=3)
        system = ELearningSystem.with_defaults(config)
        system.open_room("r", topic="t")
        system.join("r", "kid")
        for _ in range(10):
            system.say("r", "kid", "What is a queue?")
        assert system.pending_supervision == 3
        assert system.supervision_shed == 7
        counts = system.runtime.shed_counts()
        assert sum(counts) == 7 and len(counts) == 2
        system.drain()
        assert system.stats.messages == 3
        assert system.supervision_shed == 7  # draining doesn't shed

    def test_unbounded_by_default(self):
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="queued", auto_drain=False)
        )
        system.open_room("r", topic="t")
        system.join("r", "kid")
        for _ in range(100):
            system.say("r", "kid", "What is a queue?")
        assert system.pending_supervision == 100
        assert system.supervision_shed == 0

    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            SupervisionRuntime(mode="queued", max_pending=0)


class TestRuntimeConstruction:
    def test_parallel_keeps_requested_worker_count(self):
        assert SupervisionRuntime(mode="parallel", shards=6).shards == 6
        assert SupervisionRuntime(mode="queued", shards=6).shards == 1

    def test_parallel_defaults_to_deferred_drain(self):
        assert SupervisionRuntime(mode="parallel", shards=2).auto_drain is False
        assert SupervisionRuntime(mode="queued").auto_drain is True

    def test_close_is_idempotent(self):
        runtime = SupervisionRuntime(mode="parallel", shards=2)
        runtime.close()
        runtime.close()

    def test_system_close_releases_parallel_pool(self):
        with ELearningSystem.with_defaults(parallel_config(2)) as system:
            system.open_room("r", topic="t")
            system.join("r", "kid")
            system.say("r", "kid", "We push an element onto the stack.")
            system.drain()
        assert system.runtime._executor is None  # pool shut down on exit


class TestFailureIsolation:
    """A simulated crash in one shard's batch aborts the cycle, but only
    after every sibling batch has finished: re-raising early would let a
    retried drain hand a replica to the pool while its old thread still
    writes it.  (The per-item failure contract both executors share is
    in ``test_drain_loop.py``.)"""

    def test_crash_lets_sibling_batches_finish_before_reraising(self):
        from repro.durability import SimulatedCrash

        from test_drain_loop import Recorder

        runtime = SupervisionRuntime(mode="parallel", shards=3)
        server = ChatServer(runtime=runtime)
        recorder = Recorder()
        server.add_supervisor(recorder)
        crashing, healthy = "a", next(
            room for room in "bcdefgh" if shard_of(room, 3) != shard_of("a", 3)
        )
        for room in (crashing, healthy):
            server.create_room(room)
            server.join(room, "u")
        for text in ("crash", "tail 1", "tail 2"):
            server.post(crashing, "u", text)
        for text in ("x", "y", "z"):
            server.post(healthy, "u", f"{healthy} {text}")
        try:
            with pytest.raises(SimulatedCrash):
                server.drain_supervision()
            # The sibling shard's whole batch ran; the crashed shard's
            # tail waits at the front of its queue.
            assert sorted(recorder.seen) == [f"{healthy} {t}" for t in ("x", "y", "z")]
            assert runtime.pending == 2
            assert server.drain_supervision() == 2
            assert recorder.seen[-2:] == ["tail 1", "tail 2"]
        finally:
            runtime.close()


class TestDrainBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            DrainBudget(max_pending_posts=0)
        with pytest.raises(ValueError):
            DrainBudget(max_interval=0.0)

    def test_due_triggers(self):
        budget = DrainBudget(max_pending_posts=3, max_interval=10.0)
        assert not budget.due(2, 9.0)
        assert budget.due(3, 0.0)   # post-count trigger
        assert budget.due(0, 10.0)  # interval trigger
        assert not DrainBudget().due(10_000, 10_000.0)  # no trigger armed

    @pytest.mark.parametrize(
        "budget",
        [DrainBudget(max_pending_posts=5), DrainBudget(max_interval=4.0)],
        ids=["post-count", "interval"],
    )
    def test_budget_reaches_explicit_drain_state_with_zero_drain_calls(
        self, budget
    ):
        """A deferred system with a budget converges to the same final
        snapshot as an explicit-drain run — without the caller ever
        calling drain() (close() flushes the final partial batch)."""
        reference = full_state(
            run_workload(SystemConfig(runtime_mode="queued", auto_drain=False), 5)
        )

        config = SystemConfig(runtime_mode="parallel", shards=2, drain_budget=budget)
        system = ELearningSystem.with_defaults(config)
        drains = {"n": 0}
        inner_drain = system.server.drain_supervision

        def counting_drain():
            drains["n"] += 1
            return inner_drain()

        system.server.drain_supervision = counting_drain
        for room in ROOMS:
            system.open_room(room, topic="t")
            system.join(room, f"{room}-kid")
            system.join(room, "prof", Role.TEACHER)
        for index, (room, user, text) in enumerate(scripted_messages()):
            system.say(room, user, text)
            if index % 11 == 0:
                system.say(room, "prof", "Good question.")
        assert drains["n"] > 0  # the budget fired mid-traffic on its own
        system.close()  # flushes the tail unconditionally
        assert system.supervision_backlog == 0
        state = full_state(system)
        for surface in ("corpus", "profiles", "faq", "stats"):
            assert state[surface] == reference[surface], surface

    def test_budget_ignored_by_auto_drain_modes(self):
        config = SystemConfig(
            runtime_mode="queued", drain_budget=DrainBudget(max_pending_posts=1)
        )
        system = ELearningSystem.with_defaults(config)
        system.open_room("r", topic="t")
        system.join("r", "kid")
        system.say("r", "kid", "What is a queue?")  # would recurse otherwise
        assert system.stats.messages == 1
        system.close()


class TestLifecycle:
    def test_system_close_drains_backlog_and_is_idempotent(self):
        system = ELearningSystem.with_defaults(parallel_config(2))
        system.open_room("r", topic="t")
        system.join("r", "kid")
        system.say("r", "kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        system.close()  # in-memory system: the backlog still drains
        assert system.supervision_backlog == 0
        assert system.stats.messages == 1
        assert system.runtime._executor is None  # pool threads released
        system.close()  # idempotent
