"""The per-utterance analysis record: same output, less work.

:class:`~repro.chatroom.supervisor.AnalysisRecordStore` keeps one
record per distinct utterance (tokens, pattern, diagnosis, keywords,
repairs, semantic review, QA resolution), keyed on the agents, the
dictionary version, the ontology generation and the text.  Two checks:

* **Differential** — seeded classroom traffic with deliberate repeats
  and mid-trace dictionary and ontology edits runs once on the real
  pipeline and once on an oracle whose record store is emptied before
  every item.  Transcripts, stats, resilience counters and the corpus,
  profile and FAQ snapshots must be identical, under ``queued``
  (auto-drain, deferred drains, seeded transient faults) and
  ``parallel`` (2 shards, against its own oracle).  One seed per
  runtime runs in tier 1; the seed sweep is ``@pytest.mark.slow``.
* **Work counts** — a repeated sentence's later occurrences parse,
  tokenise, extract, review and resolve nothing; questions never reach
  the suggestion search or the repairer; a faulty statement searches on
  every occurrence but repairs once per text and dictionary version;
  edits force a recompute; the store stays within its bound.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.agents.learning_angel import LearningAngelAgent
from repro.agents.semantic_agent import SemanticAgent
from repro.chatroom.messages import Role
from repro.chatroom.supervisor import AnalysisRecordStore, SupervisionPipeline
from repro.core.system import ELearningSystem, SystemConfig
from repro.corpus.search import SuggestionSearch
from repro.linkgrammar import tokenizer as tokenizer_module
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.lexicon import default_dictionary
from repro.linkgrammar.lexicon.domain import build_domain_dictionary
from repro.linkgrammar.parser import Parser
from repro.linkgrammar.repair import SentenceRepairer
from repro.nlp.keywords import KeywordFilter
from repro.ontology.domains.data_structures import build_data_structure_ontology
from repro.ontology.model import Definition, Item, ItemKind, Ontology, RelationKind
from repro.qa.engine import QASystem
from repro.resilience.faults import RuntimeFaultPlan
from repro.simulation import ErrorInjector, SentenceGenerator

ROOMS = ("r0", "r1", "r2", "r3")

#: Sentences whose analysis the mid-trace edits change: "skiplist" is
#: an unknown word and no ontology term until the edits define it.
SKIPLIST = (
    "The skiplist has a push operation.",
    "We push the data onto the skiplist.",
    "What is a skiplist?",
    "Does the skiplist have the pop operation?",
    "skiplist the has push.",
    "The skiplist is a list.",
)


# ------------------------------------------------------------- traffic


def make_trace(seed: int, posts: int = 60) -> list[tuple]:
    """Seeded ``("post", room, user, text)`` ops, with one each of
    ``("define",)``, ``("add_item",)`` and ``("add_relation",)`` — the
    dictionary and ontology edits — spread over the trace.  About a
    third of the posts repeat an earlier utterance verbatim."""
    rng = random.Random(seed)
    generator = SentenceGenerator(build_data_structure_ontology(), seed=seed)
    injector = ErrorInjector(seed=seed)
    edits = {posts // 3: "define", posts // 2: "add_item", (2 * posts) // 3: "add_relation"}
    said: list[str] = []
    ops: list[tuple] = []
    for index in range(posts):
        if index in edits:
            ops.append((edits[index],))
        draw = rng.random()
        if said and draw < 0.35:
            text = rng.choice(said)
        elif draw < 0.45:
            text = rng.choice(SKIPLIST)
        elif draw < 0.60:
            text = generator.question().text
        elif draw < 0.75:
            text = injector.inject_random(generator.correct_statement().text).text
        elif draw < 0.85:
            text = generator.semantic_violation().text
        elif draw < 0.92:
            text = f"{generator.correct_statement().text} {generator.question().text}"
        else:
            text = generator.correct_statement().text
        said.append(text)
        room = rng.choice(ROOMS)
        ops.append(("post", room, f"{room}-kid{rng.randrange(2)}", text))
    return ops


def apply_edit(system: ELearningSystem, edit: str) -> None:
    if edit == "define":
        system.dictionary.define("skiplist", system.dictionary.lookup_exact("stack").formula)
    elif edit == "add_item":
        next_id = max(item.item_id for item in system.ontology.items()) + 1
        system.ontology.add_item(
            Item(
                next_id,
                "skiplist",
                ItemKind.CONCEPT,
                category="container",
                definition=Definition("A skiplist layers sorted linked lists."),
            )
        )
    else:
        system.ontology.add_relation("skiplist", RelationKind.IS_A, "list")
        system.ontology.add_relation("skiplist", RelationKind.HAS_OPERATION, "push")


class RecordlessPipeline(SupervisionPipeline):
    """The oracle: every item starts from an empty record store."""

    def on_item(self, server, item, memo=None):
        self.records = AnalysisRecordStore()
        super().on_item(server, item, memo)


def build_system(
    config: SystemConfig,
    oracle: bool,
    dictionary: Dictionary | None = None,
    ontology: Ontology | None = None,
) -> ELearningSystem:
    """A system over the given (or a private) dictionary and ontology."""
    system = ELearningSystem(
        dictionary or build_domain_dictionary(),
        ontology or build_data_structure_ontology(),
        config,
    )
    if oracle:
        # Retype the pipelines the runtime actually dispatches to: the
        # prototype in ``queued``, the shard forks in ``parallel``.  Each
        # then swaps in a private, empty store per item, so no item and
        # no worker ever sees another's record.
        for worker in system.runtime.workers:
            for supervisor in worker.supervisors:
                supervisor.__class__ = RecordlessPipeline
    return system


def state_of(system: ELearningSystem) -> dict:
    """Every durable surface plus the counters, directly comparable."""
    return {
        "corpus": system.corpus.snapshot(),
        "profiles": system.profiles.snapshot(),
        "faq": system.faq.snapshot(),
        "stats": system.stats,
        "resilience": system.resilience.counters,
        "transcripts": {
            room: [
                (m.seq, m.sender, m.kind.value, m.text, m.timestamp, m.reply_to)
                for m in system.server.get_room(room).transcript
            ]
            for room in ROOMS
        },
    }


def run_pair(make_config, ops: list[tuple], drain_every: int | None) -> tuple[dict, dict]:
    """Replay ``ops`` on a record system and its oracle, in lockstep.

    Both systems share one dictionary and one ontology, so every edit
    lands on both at the same point of the trace (and the dictionary's
    parse tables are built once); everything else — agents, keyword
    filters, record stores, corpora, runtimes — is their own.
    """
    dictionary, ontology = build_domain_dictionary(), build_data_structure_ontology()
    systems = [
        build_system(make_config(), oracle, dictionary, ontology) for oracle in (False, True)
    ]
    for system in systems:
        for room in ROOMS:
            system.open_room(room, topic="data structures")
            for kid in range(2):
                system.join(room, f"{room}-kid{kid}")
            system.join(room, "prof", Role.TEACHER)
    posts = 0
    for op in ops:
        if op[0] != "post":
            apply_edit(systems[0], op[0])
            continue
        _, room, user, text = op
        posts += 1
        for system in systems:
            system.say(room, user, text)
            if drain_every is not None and posts % drain_every == 0:
                system.drain()
    states = []
    for system in systems:
        system.drain()
        states.append(state_of(system))
        system.close()
    return states[0], states[1]


#: runtime -> (config factory, drain cadence; None = auto-drain only).
RUNTIMES = {
    "queued-auto": (lambda: SystemConfig(runtime_mode="queued"), None),
    "queued-deferred": (lambda: SystemConfig(runtime_mode="queued", auto_drain=False), 5),
    "queued-faults": (
        lambda: SystemConfig(
            runtime_mode="queued",
            auto_drain=False,
            runtime_faults=RuntimeFaultPlan(rate=0.03, seed="analysis-record"),
        ),
        4,
    ),
    "parallel-2": (lambda: SystemConfig(runtime_mode="parallel", shards=2), 5),
}
SEEDS = range(1, 4)
CASES = [
    pytest.param(
        runtime, seed, id=f"{runtime}-seed{seed}", marks=() if seed == 1 else pytest.mark.slow
    )
    for runtime in RUNTIMES
    for seed in SEEDS
]


@pytest.mark.parametrize("runtime,seed", CASES)
def test_record_matches_recordless_oracle(runtime, seed):
    make_config, drain_every = RUNTIMES[runtime]
    got, want = run_pair(make_config, make_trace(seed), drain_every)
    for surface in want:
        assert got[surface] == want[surface], surface
    assert repr(got) == repr(want)


def test_trace_exercises_the_edits_and_repeats():
    """The traffic the differential test relies on really has repeats,
    skiplist sentences on both sides of every edit, and questions."""
    ops = make_trace(1)
    kinds = [op[0] for op in ops]
    for edit in ("define", "add_item", "add_relation"):
        assert kinds.count(edit) == 1
    texts = [op[3] for op in ops if op[0] == "post"]
    assert len(set(texts)) < 0.8 * len(texts)
    first_edit, last_edit = kinds.index("define"), kinds.index("add_relation")
    before = {op[3] for op in ops[:first_edit] if op[0] == "post"}
    after = {op[3] for op in ops[last_edit:] if op[0] == "post"}
    assert before & set(SKIPLIST) and after & set(SKIPLIST)
    assert any(text.endswith("?") for text in texts)


# --------------------------------------------------------- work counts


class Counts:
    """Calls to each watched function, by name."""

    def __init__(self, monkeypatch) -> None:
        self.calls: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def _counting(self, label: str, original):
        self.calls[label] = 0

        def counting(*args, **kwargs):
            self.calls[label] += 1
            return original(*args, **kwargs)

        return counting

    def watch(self, owner, name: str) -> None:
        self._monkeypatch.setattr(owner, name, self._counting(name, getattr(owner, name)))

    def watch_tokenize(self) -> None:
        """``tokenize`` is imported by name: patch every binding."""
        original = tokenizer_module.tokenize
        counting = self._counting("tokenize", original)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "tokenize", None) is original
            ):
                self._monkeypatch.setattr(module, "tokenize", counting)

    def snapshot(self) -> dict[str, int]:
        return dict(self.calls)

    def since(self, before: dict[str, int]) -> dict[str, int]:
        return {name: self.calls[name] - before[name] for name in self.calls}


def one_room_system(dictionary: Dictionary) -> ELearningSystem:
    system = ELearningSystem(dictionary, build_data_structure_ontology())
    system.open_room("r", topic="data structures")
    system.join("r", "kid")
    return system


@pytest.fixture
def system():
    """Private ontology, the process-wide dictionary (never edited here)."""
    system = one_room_system(default_dictionary())
    yield system
    system.close()


@pytest.fixture
def edited_system():
    """Private ontology and dictionary, for the tests that edit both."""
    system = one_room_system(build_domain_dictionary())
    yield system
    system.close()


@pytest.fixture
def counts(monkeypatch):
    counts = Counts(monkeypatch)
    counts.watch(Parser, "parse")
    counts.watch_tokenize()
    counts.watch(KeywordFilter, "extract")
    counts.watch(SemanticAgent, "review")
    counts.watch(QASystem, "resolve")
    counts.watch(SuggestionSearch, "find")
    counts.watch(SentenceRepairer, "repair")
    counts.watch(LearningAngelAgent, "static_review")
    return counts


CORRECT = "We push an element onto the stack."
VIOLATION = "I push the data into a tree."
FAULTY = "The stacks is full."
QUESTION = "What is a queue?"
FAULTY_QUESTION = "What is stack the queue?"
ANALYSIS = ("parse", "tokenize", "extract", "review", "resolve", "static_review")


class TestRepeatsDoNoAnalysis:
    @pytest.mark.parametrize("text", [CORRECT, VIOLATION, FAULTY, QUESTION, FAULTY_QUESTION])
    def test_second_occurrence_runs_no_analysis(self, system, counts, text):
        system.say("r", "kid", text)
        assert counts.calls["static_review"] == 1
        # The counters are live: the first occurrence did the work.
        assert all(counts.calls[name] for name in ("parse", "tokenize", "extract"))
        before = counts.snapshot()
        system.say("r", "kid", text)
        system.say("r", "kid", text)
        spent = counts.since(before)
        assert {name: spent[name] for name in ANALYSIS} == dict.fromkeys(ANALYSIS, 0)
        assert system.stats.sentences == 3

    def test_repeat_across_rooms_and_drains(self, counts):
        system = ELearningSystem(
            build_domain_dictionary(),
            build_data_structure_ontology(),
            SystemConfig(runtime_mode="queued", auto_drain=False),
        )
        for room in ROOMS:
            system.open_room(room, topic="t")
            system.join(room, "kid")
        for drain in range(3):
            for room in ROOMS:
                system.say(room, "kid", CORRECT)
            system.drain()
        assert counts.calls["static_review"] == 1
        assert counts.calls["review"] == 1
        assert system.stats.sentences == 3 * len(ROOMS)


class TestQuestionsSkipSuggestionWork:
    @pytest.mark.parametrize("text", [QUESTION, FAULTY_QUESTION])
    def test_question_never_searches_or_repairs(self, system, counts, text):
        for _ in range(3):
            system.say("r", "kid", text)
        assert counts.calls["find"] == 0
        assert counts.calls["repair"] == 0
        assert counts.calls["resolve"] == 1
        assert system.stats.questions == 3

    def test_faulty_question_is_still_faulty(self, system):
        """Skipping repair changes no verdict: the question is recorded
        with its syntax issues, it is just never offered a correction."""
        assert not system.learning_angel.review(FAULTY_QUESTION).is_correct
        system.say("r", "kid", FAULTY_QUESTION)
        record = system.pipeline.records.get(
            system.pipeline._record_key(FAULTY_QUESTION)
        )
        assert record is not None and record.pattern.is_question
        assert not record.review.is_correct and record.review.repairs == ()


class TestFaultyStatements:
    def test_search_every_occurrence_repair_once_per_version(self, edited_system, counts):
        system = edited_system
        for _ in range(3):
            system.say("r", "kid", FAULTY)
        assert counts.calls["find"] == 3
        assert counts.calls["repair"] == 1
        system.dictionary.define("skiplist", system.dictionary.lookup_exact("stack").formula)
        for _ in range(2):
            system.say("r", "kid", FAULTY)
        assert counts.calls["find"] == 5
        assert counts.calls["repair"] == 2
        assert system.stats.syntax_errors == 5

    def test_suggestion_follows_the_growing_corpus(self):
        """The suggestion is never frozen into the record: a correct
        sentence posted between two occurrences can become the second
        occurrence's suggestion, exactly as without the record."""
        def replies(oracle: bool) -> list[str]:
            system = build_system(SystemConfig(seed_corpus=False), oracle)
            system.open_room("r", topic="t")
            system.join("r", "kid")
            system.say("r", "kid", FAULTY)
            system.say("r", "kid", "The stack is full.")
            system.say("r", "kid", FAULTY)
            texts = [m.text for m in system.server.get_room("r").transcript]
            system.close()
            return texts

        got = replies(oracle=False)
        assert got == replies(oracle=True)
        suggestions = [text for text in got if text.startswith("A similar correct sentence")]
        assert suggestions == ["A similar correct sentence: The stack is full."]


class TestEditsForceRecompute:
    def test_dictionary_version_bump(self, edited_system, counts):
        system = edited_system
        system.say("r", "kid", CORRECT)
        system.say("r", "kid", CORRECT)
        assert counts.calls["static_review"] == 1
        system.dictionary.define("skiplist", system.dictionary.lookup_exact("stack").formula)
        system.say("r", "kid", CORRECT)
        assert counts.calls["static_review"] == 2
        assert counts.calls["review"] == 2

    def test_ontology_generation_bump(self, system, counts):
        system.say("r", "kid", QUESTION)
        system.say("r", "kid", CORRECT)
        apply_edit(system, "add_item")
        system.say("r", "kid", QUESTION)
        system.say("r", "kid", CORRECT)
        assert counts.calls["static_review"] == 4
        assert counts.calls["review"] == 2
        assert counts.calls["resolve"] == 2

    def test_edit_changes_the_verdict(self, edited_system):
        system = edited_system
        system.say("r", "kid", "The skiplist has a push operation.")
        apply_edit(system, "define")
        apply_edit(system, "add_item")
        system.say("r", "kid", "The skiplist has a push operation.")
        apply_edit(system, "add_relation")
        system.say("r", "kid", "The skiplist has a push operation.")
        verdicts = [record.verdict.value for record in system.corpus.records()][-3:]
        assert verdicts[1] != verdicts[2]


class TestStoreBound:
    def test_default_bound_matches_the_shared_parse_cache(self, system):
        assert system.pipeline.records.max_entries == Dictionary.SHARED_CACHE_ENTRIES

    def test_store_never_exceeds_its_bound(self, system):
        store = system.pipeline.records = AnalysisRecordStore(max_entries=8)
        generator = SentenceGenerator(build_data_structure_ontology(), seed=5)
        for _ in range(30):
            system.say("r", "kid", generator.correct_statement().text)
            assert len(store) <= 8
        assert len(store) == 8

    def test_lru_keeps_the_hot_record(self):
        store = AnalysisRecordStore(max_entries=2)
        a, b, c = object(), object(), object()
        store.add("a", a)
        store.add("b", b)
        assert store.get("a") is a  # refresh "a"
        store.add("c", c)
        assert store.get("b") is None
        assert store.get("a") is a and store.get("c") is c

    def test_first_record_wins(self):
        store = AnalysisRecordStore()
        first, second = object(), object()
        assert store.add("k", first) is first
        assert store.add("k", second) is first


class TestStoreUnderThreads:
    def test_racing_builders_converge_and_respect_the_bound(self):
        """More threads than cores add and read overlapping keys with a
        tiny switch interval: every thread ends up holding the first
        record stored under a key, and the LRU never passes its bound."""
        store = AnalysisRecordStore(max_entries=16)
        keys = [f"k{index}" for index in range(12)]
        seen: dict[str, set[int]] = {key: set() for key in keys}
        oversize: list[int] = []
        lock = threading.Lock()

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(2000):
                key = rng.choice(keys)
                record = store.get(key) or store.add(key, object())
                with lock:
                    seen[key].add(id(record))
                if len(store) > store.max_entries:
                    oversize.append(len(store))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert oversize == []
        # 12 keys under a 16-entry bound: nothing is evicted, so every
        # key kept exactly one record for the whole run.
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(store) == len(keys)
