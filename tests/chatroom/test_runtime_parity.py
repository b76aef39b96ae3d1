"""Runtime parity: every executor converges to the serial replay.

The reference is ``queued`` with ``auto_drain=False``: one worker on the
shared stores, drained on the caller's thread at a fixed cadence.  Each
executor runs the same seeded multi-room workload at the same drain
cadence and must reproduce the reference's

* corpus, profile and FAQ snapshots and supervision stats, bit for bit;
* transcripts — bit for bit, with two documented freedoms:

  - ``parallel`` analyses a drain cycle against the barrier snapshot, so
    a faulty sentence's *suggestion reply text* may quote a model
    sentence other than one recorded earlier in the same cycle (with
    single-post drains the transcripts are fully identical);
  - ``queued`` with auto-drain supervises inside ``post``, before the
    clock advances, so its agent replies carry the post's timestamp
    where the reference stamps them at the drain that follows.

The fast subset runs in tier 1; the full executor × cadence sweep is
``@pytest.mark.slow``.  The rest of the file pins the drain schedule
itself: deferral, idempotence, the post-time role snapshot, the
analysis record store's isolation and runtime construction.
"""

from __future__ import annotations

import pytest

from repro.chatroom import (
    RUNTIME_MODES,
    ChatServer,
    MessageKind,
    Role,
    SupervisionRuntime,
)
from repro.core.system import ELearningSystem, SystemConfig
from repro.ontology.domains import default_ontology
from repro.simulation import ErrorInjector, SentenceGenerator

ROOMS = ("algebra", "data-structures", "queues-101", "trees-201", "lists-5")


def scripted_messages(count: int = 8) -> list[tuple[str, str, str]]:
    """Deterministic (room, user, text) traffic with every kind mixed in:
    fan-out duplicates (the dedup path), questions, syntax errors,
    semantic violations, multi-sentence messages and seeded generator
    chatter."""
    messages: list[tuple[str, str, str]] = []
    fixed = [
        "We push an element onto the stack.",
        "What is a queue?",
        "The tree doesn't have pop method.",
        "I push the data into a tree.",
        "stack the holds data quickly the.",
        "Thanks. What is Stack?",
        "The stacks is full.",
    ]
    for text in fixed:
        for room in ROOMS:
            messages.append((room, f"{room}-kid", text))
    generator = SentenceGenerator(default_ontology(), seed=13)
    injector = ErrorInjector(seed=13)
    for index in range(count):
        room = ROOMS[index % len(ROOMS)]
        correct = generator.correct_statement().text
        messages.append((room, f"{room}-kid", correct))
        messages.append((room, f"{room}-kid", injector.inject_random(correct).text))
        messages.append((room, f"{room}-kid", generator.question().text))
        messages.append((room, f"{room}-kid", generator.chitchat().text))
    return messages


def run_workload(config: SystemConfig, drain_every: int | None) -> ELearningSystem:
    """Post the scripted traffic, with a teacher remark every 11th
    message, draining after every ``drain_every``-th post (teacher posts
    count) and once at the end."""
    system = ELearningSystem.with_defaults(config)
    for room in ROOMS:
        system.open_room(room, topic="t")
        system.join(room, f"{room}-kid")
        system.join(room, "prof", Role.TEACHER)
    posts = 0

    def say(room: str, user: str, text: str) -> None:
        nonlocal posts
        system.say(room, user, text)
        posts += 1
        if drain_every is not None and posts % drain_every == 0:
            system.drain()

    for index, (room, user, text) in enumerate(scripted_messages()):
        say(room, user, text)
        if index % 11 == 0:
            say(room, "prof", "Good question.")
    system.drain()
    return system


def full_state(system: ELearningSystem) -> dict:
    """Every durable surface, canonically ordered, bit-comparable."""
    return {
        "corpus": system.corpus.snapshot(),
        "profiles": system.profiles.snapshot(),
        "faq": system.faq.snapshot(),
        "stats": system.stats,
        "transcripts": {
            room: [
                (m.seq, m.sender, m.kind.value, m.text, m.timestamp, m.reply_to)
                for m in system.server.get_room(room).transcript
            ]
            for room in ROOMS
        },
    }


SUGGESTION_PREFIX = "A similar correct sentence: "


def assert_transcripts_match(got: dict, want: dict) -> None:
    """Transcripts must be bit-identical except suggestion reply text.

    Everything else — seqs, senders, kinds, timestamps, reply threading,
    every other reply text — must match exactly.
    """
    assert got.keys() == want.keys()
    for room in want:
        assert len(got[room]) == len(want[room]), room
        for mine, theirs in zip(got[room], want[room]):
            if mine == theirs:
                continue
            seq, sender, kind, text, timestamp, reply_to = mine
            assert (seq, sender, kind, timestamp, reply_to) == (
                theirs[0], theirs[1], theirs[2], theirs[4], theirs[5]
            ), (mine, theirs)
            assert text.startswith(SUGGESTION_PREFIX), (mine, theirs)
            assert theirs[3].startswith(SUGGESTION_PREFIX), (mine, theirs)


def without_reply_times(transcripts: dict) -> dict:
    """Transcripts with agent-reply timestamps blanked (see module docs)."""
    return {
        room: [
            row if row[2] == MessageKind.USER.value else (*row[:4], None, row[5])
            for row in rows
        ]
        for room, rows in transcripts.items()
    }


#: The executors under test: (system config, drains after every post).
EXECUTORS = {
    "queued-auto": (lambda: SystemConfig(runtime_mode="queued"), True),
    "parallel-1": (lambda: SystemConfig(runtime_mode="parallel", shards=1), False),
    "parallel-3": (lambda: SystemConfig(runtime_mode="parallel", shards=3), False),
}
CADENCES = (1, 2, 7, 16, None)
#: (executor, cadence) pairs that run in tier 1.
FAST = {
    ("queued-auto", 7),
    ("parallel-1", 7),
    ("parallel-3", 1),
    ("parallel-3", 7),
    ("parallel-3", None),
}
CASES = [
    pytest.param(
        executor,
        cadence,
        id=f"{executor}-every-{cadence}",
        marks=() if (executor, cadence) in FAST else pytest.mark.slow,
    )
    for executor in EXECUTORS
    for cadence in CADENCES
]


@pytest.fixture(scope="module")
def serial_replay():
    """Serial-replay reference states, one per drain cadence, built lazily."""
    states: dict = {}

    def reference(cadence: int | None) -> dict:
        if cadence not in states:
            config = SystemConfig(runtime_mode="queued", auto_drain=False)
            states[cadence] = full_state(run_workload(config, cadence))
        return states[cadence]

    return reference


@pytest.mark.parametrize("executor,cadence", CASES)
def test_executor_matches_serial_replay(serial_replay, executor, cadence):
    make_config, auto_drain = EXECUTORS[executor]
    system = run_workload(make_config(), cadence)
    assert system.pending_supervision == 0
    state = full_state(system)
    system.close()
    reference = serial_replay(cadence)
    for surface in ("corpus", "profiles", "faq", "stats"):
        assert state[surface] == reference[surface], surface
    if auto_drain:
        assert without_reply_times(state["transcripts"]) == without_reply_times(
            serial_replay(1)["transcripts"]
        )
    elif cadence == 1:
        assert state["transcripts"] == reference["transcripts"]
    else:
        assert_transcripts_match(state["transcripts"], reference["transcripts"])


class TestDeferredDrain:
    def build(self) -> ELearningSystem:
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="queued", auto_drain=False)
        )
        system.open_room(ROOMS[0], topic="t")
        system.join(ROOMS[0], f"{ROOMS[0]}-kid")
        system.join(ROOMS[0], "prof", Role.TEACHER)
        return system

    def test_post_defers_supervision(self):
        system = self.build()
        message = system.say(ROOMS[0], f"{ROOMS[0]}-kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        assert system.agent_replies_to(message) == []
        assert system.stats.messages == 0
        drained = system.drain()
        assert drained == 1
        assert system.pending_supervision == 0
        assert system.agent_replies_to(message) != []
        assert system.stats.messages == 1

    def test_drain_is_idempotent(self):
        system = self.build()
        system.say(ROOMS[0], f"{ROOMS[0]}-kid", "What is Stack?")
        assert system.drain() == 1
        assert system.drain() == 0

    def test_teacher_role_snapshotted_at_post_time(self):
        # The role travels with the work item: a teacher message posted
        # before a drain stays exempt even after the teacher leaves.
        system = self.build()
        system.say(ROOMS[0], "prof", "I push the data into a tree.")
        system.server.leave(ROOMS[0], "prof")
        system.drain()
        assert system.stats.messages == 0


class TestAnalysisRecordIsolation:
    def test_records_shared_within_pipeline_but_not_across(self):
        from repro.agents.learning_angel import LearningAngelAgent
        from repro.agents.semantic_agent import SemanticAgent
        from repro.chatroom.supervisor import SupervisionPipeline
        from repro.linkgrammar.lexicon import default_dictionary
        from repro.profiles.store import UserProfileStore
        from repro.qa.engine import QASystem

        def pipeline() -> SupervisionPipeline:
            ontology = default_ontology()
            return SupervisionPipeline(
                LearningAngelAgent(default_dictionary()),
                SemanticAgent(ontology),
                QASystem(ontology),
                UserProfileStore(),
            )

        first, second = pipeline(), pipeline()
        (fork_a, _), (fork_b, _) = first.fork_shard(), first.fork_shard()
        sentence = "We push an element onto the stack."
        a, _ = fork_a._analyze_sentence(sentence, None)
        # Forks of one pipeline share its record store and agents ->
        # they reuse each other's record...
        assert fork_b._analyze_sentence(sentence, None)[0] is a
        assert first._analyze_sentence(sentence, None)[0] is a
        # ...an unrelated pipeline (own agents, own store) never does.
        assert second._analyze_sentence(sentence, None)[0] is not a
        assert len(first.records) == 1 and len(second.records) == 1
        # Even sharing a store, another pipeline's agents miss: the key
        # carries their identities.
        second.records = first.records
        assert second._analyze_sentence(sentence, None)[0] is not a
        assert len(first.records) == 2


class TestRuntimeConstruction:
    def test_modes(self):
        assert RUNTIME_MODES == ("queued", "parallel")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SupervisionRuntime(mode="threads")

    def test_queued_runs_a_single_worker(self):
        assert SupervisionRuntime(mode="queued", shards=8).shards == 1
        assert SupervisionRuntime(mode="parallel", shards=8).shards == 8

    def test_plain_observers_see_user_messages_in_every_mode(self):
        class Spy:
            def __init__(self):
                self.texts = []

            def on_message(self, server, message):
                self.texts.append(message.text)

        for mode in RUNTIME_MODES:
            runtime = SupervisionRuntime(mode=mode)
            server = ChatServer(runtime=runtime)
            spy = Spy()
            server.add_supervisor(spy)
            server.create_room("r")
            server.join("r", "u")
            server.post("r", "u", "hello")
            server.post("r", "Agent", "reply", kind=MessageKind.AGENT)
            server.drain_supervision()
            assert spy.texts == ["hello"], mode
            runtime.close()
