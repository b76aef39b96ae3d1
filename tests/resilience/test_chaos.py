"""Chaos harness: seeded faults at every pipeline crossing, zero loss.

The fault-tolerance analogue of the durability suite's crash sweep.
An unarmed :class:`RuntimeFaultPlan` first *counts* how many guarded
stage crossings (parser, semantic, qa, stores) a scripted workload
makes; the sweep then arms each crossing in turn and asserts:

* **transient** faults (one injected failure) are absorbed by a retry —
  the final state is **bit-identical** to the fault-free run's snapshot
  document, virtual backoff being the only trace;
* **poison** faults (the whole retry budget fails) dead-letter exactly
  one item; every message is still delivered, the processed/quarantined/
  deferred accounting is exact, and after the fault heals an operator
  ``redrive()`` converges the state to the fault-free run's;
* **permanent** stage outages trip the circuit breaker: delivery
  continues, analyses park on the deferred ledger, and the backfill on
  heal (probe → close → release) restores parity;
* seeded **rate** faults and injected **latency** obey the same
  invariants end to end, in the queued and parallel runtimes.

The tier-1 subset sweeps a spread of crossings; the full sweeps carry
``@pytest.mark.slow`` (satellite: chaos stays fast by default).
"""

from __future__ import annotations

import json

import pytest

from repro.chatroom import MessageKind
from repro.core.system import ELearningSystem, SystemConfig
from repro.durability.snapshot import build_snapshot
from repro.resilience import RuntimeFaultPlan

ROOM = "ds-101"
USERS = ("alice", "bob", "carol")

#: Every traffic kind the pipeline distinguishes: correct statements
#: (parser + semantic crossings), questions (qa crossings), a syntax
#: error, a semantic violation, a multi-sentence message and chitchat.
SCRIPT = (
    ("alice", "We push an element onto the stack."),
    ("bob", "What is a stack?"),
    ("carol", "The tree doesn't have pop method."),
    ("alice", "I push the data into a tree."),
    ("bob", "What is a queue?"),
    # Syntax error in a keyword domain (graph/vertex) no other message
    # touches: its corpus suggestion comes from the *seeded* records, so
    # it is the same whether the sentence is analysed at its turn or
    # redriven after later learner records landed (see TestPoisonFaults).
    ("carol", "graph the has vertex every the."),
    ("alice", "Thanks. What is Stack?"),
    ("bob", "The stack is full."),
)


def build_system(**kwargs) -> ELearningSystem:
    system = ELearningSystem.with_defaults(SystemConfig(**kwargs))
    system.open_room(ROOM, topic="data structures")
    for user in USERS:
        system.join(ROOM, user)
    return system


def run_script(system: ELearningSystem) -> ELearningSystem:
    for sender, text in SCRIPT:
        system.say(ROOM, sender, text)
    system.drain()
    return system


def bits_of(system: ELearningSystem) -> dict:
    """The full serialised state — the bit-identical comparison."""
    return build_snapshot(system, 0)


def canonical_state(system: ELearningSystem):
    """Order-independent final state for redrive/backfill parity.

    A redriven item commits *after* items that were posted later, so
    store insertion orders and agent-reply positions may legally differ
    from the fault-free run; everything else — delivered messages with
    their timestamps, the reply multiset, corpus rows, profiles, FAQ
    and the supervision counters — must converge exactly.
    """
    import dataclasses

    rooms = {}
    for name, room in system.server.rooms.items():
        users = sorted(
            (m.sender, m.text, m.timestamp)
            for m in room.transcript
            if m.kind is MessageKind.USER
        )
        replies = sorted(
            (m.sender, m.text)
            for m in room.transcript
            if m.kind is not MessageKind.USER
        )
        rooms[name] = (users, replies)
    corpus = sorted(
        json.dumps(
            {k: v for k, v in record.to_dict().items() if k != "record_id"},
            sort_keys=True,
        )
        for record in system.corpus.records()
    )
    profiles = sorted(
        (json.dumps(p.to_dict(), sort_keys=True) for p in system.profiles.all())
    )
    faq = sorted(
        json.dumps(pair.to_dict(), sort_keys=True) for pair in system.faq.pairs()
    )
    stats = dataclasses.asdict(system.pipeline.combined_stats())
    return (rooms, corpus, profiles, faq, stats)


def assert_delivery_intact(system: ELearningSystem) -> None:
    """Zero loss: every posted message is in the transcript, in order."""
    delivered = [
        (m.sender, m.text)
        for m in system.server.get_room(ROOM).transcript
        if m.kind is MessageKind.USER
    ]
    assert delivered == list(SCRIPT)


def assert_exact_accounting(system: ELearningSystem) -> None:
    """Processed + quarantined + deferred == posted, exactly."""
    resilience = system.resilience
    processed = system.stats.messages
    assert processed + len(resilience.quarantine) + len(resilience.deferred) == len(
        SCRIPT
    )


def heal_and_settle(system: ELearningSystem, plan: RuntimeFaultPlan) -> None:
    """Operator recovery: heal the fault, backfill, redrive the DLQ."""
    plan.heal()
    system.resilience.reset_breakers()
    system.drain()  # releases the deferred ledger
    system.redrive()  # re-runs dead-lettered items
    assert system.supervision_backlog == 0
    assert system.quarantined == 0


def spread(n: int, points: int = 6) -> list[int]:
    """Up to ``points`` crossings spread evenly over 1..n."""
    if n <= points:
        return list(range(1, n + 1))
    step = (n - 1) / (points - 1)
    return sorted({round(1 + i * step) for i in range(points)})


@pytest.fixture(scope="module")
def canonical():
    """The fault-free reference run (queued mode, the default)."""
    system = run_script(build_system())
    return {"bits": bits_of(system), "state": canonical_state(system)}


@pytest.fixture(scope="module")
def crossing_count(canonical):
    """Guarded crossings the workload makes, counted by an unarmed plan
    — which must not change semantics (same proof shape as the
    durability sweep's counting FaultClock)."""
    plan = RuntimeFaultPlan()
    system = run_script(build_system(runtime_faults=plan))
    assert bits_of(system) == canonical["bits"]
    assert system.resilience.counters.stage_failures == 0
    assert plan.count > len(SCRIPT)  # several crossings per message
    return plan.count


class TestTransientFaults:
    """One injected failure per crossing: a retry absorbs it in place."""

    def run_point(self, k: int, canonical) -> None:
        plan = RuntimeFaultPlan(fail_at=k, fail_times=1)
        system = run_script(build_system(runtime_faults=plan))
        assert plan.fired, f"crossing {k} never armed"
        counters = system.resilience.counters
        assert counters.retries >= 1
        assert counters.retry_successes >= 1
        assert counters.backoff_virtual > 0
        assert system.quarantined == 0
        assert not system.resilience.deferred
        assert bits_of(system) == canonical["bits"], f"crossing {k} diverged"

    def test_subset_of_crossings(self, canonical, crossing_count):
        for k in spread(crossing_count):
            self.run_point(k, canonical)

    @pytest.mark.slow
    def test_every_crossing(self, canonical, crossing_count):
        diverged = [
            k
            for k in range(1, crossing_count + 1)
            if not self._holds(k, canonical)
        ]
        assert diverged == []

    def _holds(self, k: int, canonical) -> bool:
        try:
            self.run_point(k, canonical)
        except AssertionError:
            return False
        return True


class TestPoisonFaults:
    """The whole retry budget fails: exactly one item dead-letters."""

    def run_point(self, k: int, canonical) -> None:
        plan = RuntimeFaultPlan(fail_at=k, fail_times=3)
        system = run_script(build_system(runtime_faults=plan))
        assert_delivery_intact(system)
        assert_exact_accounting(system)
        assert system.quarantined == 1
        row = system.resilience.quarantine.rows()[0]
        assert row.attempts == 3
        assert "InjectedFault" in row.error
        assert row.stage in ("parser", "semantic", "qa", "stores")
        heal_and_settle(system, plan)
        assert canonical_state(system) == canonical["state"], f"crossing {k}"
        assert system.stats.messages == len(SCRIPT)

    def test_subset_of_crossings(self, canonical, crossing_count):
        for k in spread(crossing_count):
            self.run_point(k, canonical)

    @pytest.mark.slow
    def test_every_crossing(self, canonical, crossing_count):
        for k in range(1, crossing_count + 1):
            self.run_point(k, canonical)


class TestPermanentOutage:
    """A hard-down stage trips its breaker; delivery never stops."""

    def test_defers_while_open_then_backfills_on_heal(self, canonical):
        # Cooldown far beyond the workload: the breaker stays open, so
        # every post after the trip parks on the deferred ledger.
        from repro.resilience import BreakerPolicy

        plan = RuntimeFaultPlan(permanent=("parser",))
        system = build_system(
            runtime_faults=plan,
            breaker=BreakerPolicy(cooldown=100),
        )
        run_script(system)
        resilience = system.resilience
        assert resilience.breakers["parser"].state == "open"
        assert_delivery_intact(system)  # degraded mode still delivers
        assert_exact_accounting(system)
        assert len(resilience.deferred) > 0
        assert system.quarantined > 0  # the items that tripped it
        assert system.health().status == "degraded"
        heal_and_settle(system, plan)
        assert canonical_state(system) == canonical["state"]
        assert resilience.counters.released >= 1
        assert resilience.counters.deferred_total >= 1

    def test_probe_closes_the_breaker_once_the_fault_clears(self, canonical):
        # Default policy: the fault heals mid-stream and the very next
        # half-open probe closes the breaker — the remaining messages
        # and the deferred backlog are supervised without any operator
        # action; only the dead-lettered items need a redrive.
        plan = RuntimeFaultPlan(permanent=("parser",))
        system = build_system(runtime_faults=plan)
        half = len(SCRIPT) // 2
        for sender, text in SCRIPT[:half]:
            system.say(ROOM, sender, text)
        breaker = system.resilience.breakers["parser"]
        assert breaker.opened_total >= 1
        plan.heal()
        for sender, text in SCRIPT[half:]:
            system.say(ROOM, sender, text)
        system.drain()
        assert breaker.state == "closed"
        assert not system.resilience.deferred  # backfilled by the probe cycle
        assert system.quarantined > 0
        system.redrive()
        assert canonical_state(system) == canonical["state"]


class TestSeededRateFaults:
    """Bernoulli faults at a few % of crossings, then heal to parity."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heals_to_parity(self, canonical, seed):
        plan = RuntimeFaultPlan(rate=0.05, seed=seed)
        system = run_script(build_system(runtime_faults=plan))
        assert_delivery_intact(system)
        assert_exact_accounting(system)
        heal_and_settle(system, plan)
        assert canonical_state(system) == canonical["state"], f"seed {seed}"

    def test_same_seed_fires_the_same_crossings(self):
        fired = []
        for _ in range(2):
            plan = RuntimeFaultPlan(rate=0.2, seed=9)
            run_script(build_system(runtime_faults=plan))
            fired.append(list(plan.fired))
        assert fired[0] == fired[1]
        assert fired[0]  # 20% over dozens of crossings must fire


class TestInjectedLatency:
    """Stalls cost virtual seconds only — never a divergent state."""

    def test_stalls_accumulate_without_changing_state(self, canonical):
        plan = RuntimeFaultPlan(latency=0.05, latency_rate=0.5, seed=5)
        system = run_script(build_system(runtime_faults=plan))
        assert system.resilience.counters.stall_virtual > 0
        assert bits_of(system) == canonical["bits"]


class TestShardedRuntime:
    """A two-shard parallel drain under the same chaos invariants."""

    def sharded_kwargs(self, plan=None) -> dict:
        return dict(runtime_mode="parallel", shards=2, runtime_faults=plan)

    def test_fault_free_matches_queued_canonical(self, canonical):
        system = run_script(build_system(**self.sharded_kwargs()))
        assert canonical_state(system) == canonical["state"]
        system.close()

    def test_poison_point_redrives_to_parity(self, canonical):
        probe = RuntimeFaultPlan()
        run_script(build_system(**self.sharded_kwargs(probe))).close()
        for k in spread(probe.count, points=3):
            plan = RuntimeFaultPlan(fail_at=k, fail_times=3)
            system = run_script(build_system(**self.sharded_kwargs(plan)))
            assert_delivery_intact(system)
            assert_exact_accounting(system)
            assert system.quarantined == 1
            heal_and_settle(system, plan)
            assert canonical_state(system) == canonical["state"], f"crossing {k}"
            system.close()


class TestParallelRuntime:
    """Thread-pool workers: transient chaos must stay bit-identical."""

    def parallel_kwargs(self, plan=None) -> dict:
        return dict(runtime_mode="parallel", shards=2, runtime_faults=plan)

    @pytest.fixture(scope="class")
    def parallel_canonical(self):
        system = run_script(build_system(**self.parallel_kwargs()))
        bits = bits_of(system)
        system.close()
        return bits

    def test_transient_subset_is_bit_identical(self, parallel_canonical):
        # Crossing attribution is nondeterministic across pool threads,
        # which is the point: wherever the fault lands, the retry must
        # absorb it in place.
        probe = RuntimeFaultPlan()
        probe_system = run_script(build_system(**self.parallel_kwargs(probe)))
        probe_system.close()
        for k in spread(probe.count, points=3):
            plan = RuntimeFaultPlan(fail_at=k, fail_times=1)
            system = run_script(build_system(**self.parallel_kwargs(plan)))
            assert system.quarantined == 0
            assert bits_of(system) == parallel_canonical, f"crossing {k}"
            system.close()

    def test_latency_chaos_is_harmless(self, parallel_canonical):
        plan = RuntimeFaultPlan(latency=0.02, latency_rate=0.5, seed=7)
        system = run_script(build_system(**self.parallel_kwargs(plan)))
        assert bits_of(system) == parallel_canonical
        system.close()
