"""Deterministic performance harness for the supervision hot path.

``python -m repro bench`` (or ``make bench``) runs a fixed set of
workloads — cold parsing, cached parsing, the mixed-traffic supervision
loop, a seeded classroom session, suggestion search, raw post latency,
the multi-room batched-drain scale test, the parallel
(shard-replica) drain test, the corpus-scale retrieval test (10k vs
250k records, stopword-heavy queries), the durability recovery test
(WAL replay rate, snapshot-recover wall clock), the resilience test
(throughput under seeded fault rates, degraded-mode post latency while
a breaker is open) and the serving test (concurrent HTTP clients
against the live front door: posts per second, reply-latency
percentiles) — and writes the numbers to
``BENCH_parse.json`` so successive PRs can track the perf trajectory
of the parse engine and the supervision runtime.

The workloads are deterministic (fixed sentences, fixed seeds); only the
wall-clock readings vary by machine, so comparisons are meaningful within
one machine's report history.  Every metric is also exposed
programmatically via :func:`run_report` for tests and tooling.

None of this runs in the default pytest selection (tier-1 stays fast);
the pytest-benchmark suites under ``benchmarks/`` remain the
statistically careful counterpart.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path

# Fixed workload: the scalability benchmark's mixed traffic plus extra
# domain sentences exercising questions, negation, capability claims and
# semantic violations.
MIXED_MESSAGES = [
    "We push an element onto the stack.",
    "What is a queue?",
    "The tree doesn't have pop method.",
    "I push the data into a tree.",
]

PARSE_SENTENCES = MIXED_MESSAGES + [
    "A stack supports push.",
    "Push the data onto the stack.",
    "The queue has dequeue operation.",
    "A binary tree is a tree.",
]


def bench_cold_parse(repeats: int = 40) -> dict[str, float]:
    """Per-sentence parse latency with the sentence cache disabled."""
    from repro.linkgrammar import ParseOptions, Parser
    from repro.linkgrammar.lexicon import default_dictionary

    parser = Parser(default_dictionary(), ParseOptions(cache_size=0))
    for sentence in PARSE_SENTENCES:  # warm dictionary tables
        parser.parse(sentence)
    start = time.perf_counter()
    for _ in range(repeats):
        for sentence in PARSE_SENTENCES:
            parser.parse(sentence)
    elapsed = time.perf_counter() - start
    count = repeats * len(PARSE_SENTENCES)
    return {"ms_per_sentence": 1000.0 * elapsed / count, "sentences": count}


def bench_warm_parse(repeats: int = 400) -> dict[str, float]:
    """Per-sentence latency when the LRU sentence cache is hitting."""
    from repro.linkgrammar import ParseOptions, Parser
    from repro.linkgrammar.lexicon import default_dictionary

    parser = Parser(default_dictionary(), ParseOptions())
    for sentence in PARSE_SENTENCES:  # populate the cache
        parser.parse(sentence)
    start = time.perf_counter()
    for _ in range(repeats):
        for sentence in PARSE_SENTENCES:
            parser.parse(sentence)
    elapsed = time.perf_counter() - start
    count = repeats * len(PARSE_SENTENCES)
    info = parser.cache_info()
    hit_rate = info["hits"] / (info["hits"] + info["misses"])
    return {
        "ms_per_sentence": 1000.0 * elapsed / count,
        "sentences": count,
        "cache_hit_rate": hit_rate,
    }


def bench_supervision_throughput(messages: int = 400) -> dict[str, float]:
    """Supervised messages per second on the mixed-traffic loop.

    This mirrors ``benchmarks/test_scalability.py::
    test_supervision_throughput_baseline``: one room, one user, the
    four-message mix cycled, full supervision (syntax, semantics, QA,
    corpus recording) on every message.
    """
    from repro.core.system import ELearningSystem

    system = ELearningSystem.with_defaults()
    system.open_room("tput", topic="t")
    system.join("tput", "u")
    for i in range(8):  # warmup
        system.say("tput", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    start = time.perf_counter()
    for i in range(messages):
        system.say("tput", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    elapsed = time.perf_counter() - start
    return {"messages_per_sec": messages / elapsed, "messages": messages}


def bench_classroom(learners: int = 8, rounds: int = 2, seed: int = 21) -> dict[str, float]:
    """Wall-clock of a full seeded classroom session, system build included."""
    from repro.core.system import ELearningSystem
    from repro.simulation import ClassroomSession

    start = time.perf_counter()
    system = ELearningSystem.with_defaults()
    result = ClassroomSession(system, learners=learners, seed=seed).run(rounds=rounds)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "supervised": len(result.supervised),
        "learners": learners,
        "rounds": rounds,
    }


def bench_suggestion_search(queries: int = 300) -> dict[str, float]:
    """Suggestion-search queries per second against the seeded corpus."""
    from repro.core.system import ELearningSystem
    from repro.corpus.search import SuggestionSearch

    system = ELearningSystem.with_defaults()
    search = SuggestionSearch(system.corpus)
    query = "The tree doesn't have pop method."
    keywords = ["tree", "pop"]
    search.find(query, keywords=keywords)  # warmup
    start = time.perf_counter()
    for _ in range(queries):
        search.find(query, keywords=keywords)
    elapsed = time.perf_counter() - start
    return {
        "queries_per_sec": queries / elapsed,
        "corpus_records": len(system.corpus),
        "queries": queries,
    }


def bench_post_latency(messages: int = 2000) -> dict[str, float]:
    """Per-message cost of posting with supervision deferred.

    Runs the queued runtime with ``auto_drain=False``: ``post`` delivers
    the message and enqueues a work item, nothing else.  Compare
    ``ms_per_post`` against the synchronous pipeline's per-message cost
    (1000 / supervision_throughput) to see the agent work leave the
    user's send path; ``pending_after`` confirms the work was deferred,
    and the drain runs after the clock stops.
    """
    from repro.core.system import ELearningSystem, SystemConfig

    system = ELearningSystem.with_defaults(
        SystemConfig(runtime_mode="queued", auto_drain=False)
    )
    system.open_room("lat", topic="t")
    system.join("lat", "u")
    for i in range(8):  # warmup (room structures, tokenizer)
        system.say("lat", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    system.drain()
    # The timed loop lasts ~10 ms; a full collection of garbage left by
    # earlier workloads costs ~100 ms and would otherwise land in it
    # whenever the collector's thresholds happen to line up.
    gc.collect()
    start = time.perf_counter()
    for i in range(messages):
        system.say("lat", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    elapsed = time.perf_counter() - start
    pending = system.pending_supervision
    system.drain()
    return {
        "ms_per_post": 1000.0 * elapsed / messages,
        "messages": messages,
        "pending_after": pending,
    }


def _warm_rooms_system(config: "SystemConfig", rooms: int, messages: list[str]):
    """A system with ``rooms`` one-learner rooms and every message posted
    through every room once, drained per message, untimed.

    The warm-up makes timed runs measure steady state: the parse cache
    is shared process-wide (one lru_cached default dictionary), and a
    partial warm-up would bill the first system for cold parses and the
    repairer's candidate search while the second rides the warmed store.
    """
    from repro.core.system import ELearningSystem

    system = ELearningSystem.with_defaults(config)
    for index in range(rooms):
        system.open_room(f"room-{index}", topic="t")
        system.join(f"room-{index}", "u")
    for text in messages:
        for index in range(rooms):
            system.say(f"room-{index}", "u", text)
        system.drain()
    return system


def _round_robin_rate(system, rooms: int, rounds: int, messages: list[str]) -> float:
    """Messages/sec posting one message to every room per round and
    draining after each round (a no-op under auto-drain)."""
    start = time.perf_counter()
    for i in range(rounds):
        text = messages[i % len(messages)]
        for index in range(rooms):
            system.say(f"room-{index}", "u", text)
        system.drain()
    return rooms * rounds / (time.perf_counter() - start)


def bench_multi_room_scale(rooms: int = 16, rounds: int = 12) -> dict:
    """Batched-drain throughput vs per-post supervision, same load.

    The workload posts the mixed-traffic messages round-robin across
    ``rooms`` rooms — the template-heavy shape of a real class cohort —
    once through the default ``queued`` runtime (supervised after every
    post) and once through ``queued`` with ``auto_drain=False``,
    draining a deduplicated batch per round.  Both figures land in the
    report, plus the shared parse-cache counters (the cross-parser store
    the drain batches lean on).
    """
    from repro.core.system import SystemConfig

    sync_system = _warm_rooms_system(SystemConfig(), rooms, MIXED_MESSAGES)
    sync_rate = _round_robin_rate(sync_system, rooms, rounds, MIXED_MESSAGES)
    batched_system = _warm_rooms_system(
        SystemConfig(auto_drain=False), rooms, MIXED_MESSAGES
    )
    store = batched_system.dictionary.shared_cache_store()
    before = store.info()
    batched_rate = _round_robin_rate(batched_system, rooms, rounds, MIXED_MESSAGES)
    after = store.info()
    # hits/misses are deltas over the batched timed run (the store is
    # process-wide, so absolute counters would aggregate every prior
    # workload); entry counts are absolute.
    cache_info = {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "parse_entries": after["parse_entries"],
        "count_entries": after["count_entries"],
        "max_entries": after["max_entries"],
    }
    return {
        "rooms": rooms,
        "rounds": rounds,
        "messages": rooms * rounds,
        "sync_messages_per_sec": sync_rate,
        "batched_messages_per_sec": batched_rate,
        "batched_speedup_vs_sync": round(batched_rate / sync_rate, 2),
        "shared_cache": cache_info,
    }


#: Error-heavy classroom traffic for the parallel-drain workload: half
#: the templates are genuinely faulty (word salad, agreement errors,
#: semantic misuse), the shape of a novice cohort.  Faulty sentences are
#: the expensive ones — repair parsing plus a corpus-dependent
#: suggestion search — and the shared-store ``queued`` drain must re-run
#: them per room, which is exactly the cost the snapshot-isolated
#: ``parallel`` mode removes.
ERROR_HEAVY_MESSAGES = [
    "We push an element onto the stack.",
    "stack the holds data quickly the.",
    "What is a queue?",
    "The stacks is full.",
    "I push the data into a tree.",
    "tree the has node quickly the.",
    "the push stack data element.",
    "Does the stack have the pop operation?",
]


def bench_parallel_drain(rooms: int = 16, rounds: int = 12, workers: int = 4) -> dict:
    """Shard-replica (``parallel``) drain throughput vs the serial
    batched drain, same rooms, same error-heavy traffic.

    Both systems drain once per posted round: ``queued`` with
    ``auto_drain=False`` on one worker, ``parallel`` with ``workers``
    shards.  Both analyse each distinct sentence once (the pipeline's
    analysis record).  The ``queued`` drain writes the shared corpus, so
    a faulty sentence's suggestion search (which reads the live corpus)
    runs for every room it was posted to.  The ``parallel`` mode freezes
    each drain cycle against the barrier snapshot: its per-cycle memo
    legitimately shares those searches, and its workers run on a thread
    pool (real core parallelism on free-threaded builds).  The merged
    state is asserted equal to the serial drain by
    ``tests/chatroom/test_runtime_parity.py``; this workload prices the
    difference.  The traffic is eight templates repeated across rooms,
    the case the memo serves; on diverse traffic it does not pay
    (see docs/runtime.md).
    """
    from repro.core.system import SystemConfig

    batched_system = _warm_rooms_system(
        SystemConfig(auto_drain=False), rooms, ERROR_HEAVY_MESSAGES
    )
    batched_rate = _round_robin_rate(batched_system, rooms, rounds, ERROR_HEAVY_MESSAGES)
    config = SystemConfig(runtime_mode="parallel", shards=workers)
    with _warm_rooms_system(config, rooms, ERROR_HEAVY_MESSAGES) as parallel_system:
        parallel_rate = _round_robin_rate(
            parallel_system, rooms, rounds, ERROR_HEAVY_MESSAGES
        )
        worker_messages = parallel_system.runtime.worker_loads()
    return {
        "rooms": rooms,
        "rounds": rounds,
        "workers": workers,
        "messages": rooms * rounds,
        "batched_messages_per_sec": batched_rate,
        "parallel_messages_per_sec": parallel_rate,
        "parallel_speedup_vs_batched": round(parallel_rate / batched_rate, 2),
        "worker_messages": worker_messages,
    }


#: Stopword backbone of the synthetic corpus-scale workload: every
#: record carries half of these, so their document frequencies cross the
#: default ``IndexConfig.stopword_df_cap`` long before the small corpus
#: is fully built — exactly the "the"-style postings the tiered
#: retrieval must keep out of the union.
_SCALE_STOPWORDS = ("the", "a", "is", "of", "to", "in", "on", "it")


def _build_scale_corpus(records: int, seed: int = 11, store_factory=None):
    """A synthetic learner corpus of ``records`` analysed utterances.

    Each record mixes four stopwords (DF ~ records/2: far past the
    stopword cap at any realistic size) with four content words drawn
    from a vocabulary that grows with the corpus, so content-term
    document frequencies stay roughly *flat* across scales — the shape
    of real chat traffic, where new sessions keep minting new topical
    words while the function words repeat forever.  Tokens are passed
    pre-split to ``add`` so the build measures indexing, not the
    tokenizer.

    ``store_factory`` lets the memory workload build the *same* synthetic
    corpus into the pre-columnar reference layout for comparison.
    """
    from random import Random

    from repro.corpus.records import Correctness, CorpusRecord
    from repro.corpus.store import LearnerCorpus

    if store_factory is None:
        store_factory = LearnerCorpus
    rng = Random(seed)
    vocab = max(200, records // 25)  # keeps content DF ~constant across scales
    verdict_cycle = [Correctness.CORRECT] * 7 + [
        Correctness.SYNTAX_ERROR,
        Correctness.SEMANTIC_ERROR,
        Correctness.QUESTION,
    ]
    corpus = store_factory()
    for i in range(records):
        tokens = tuple(rng.sample(_SCALE_STOPWORDS, 4)) + tuple(
            f"w{rng.randrange(vocab)}" for _ in range(4)
        )
        corpus.add(
            CorpusRecord(
                record_id=corpus.next_id(),
                user=f"user{i % 200}",
                room="scale",
                text=" ".join(tokens),
                timestamp=float(i),
                pattern="simple",
                verdict=verdict_cycle[i % len(verdict_cycle)],
                keywords=[f"topic{rng.randrange(64)}"],
            ),
            tokens=tokens,
        )
    return corpus


def bench_corpus_scale(
    records_small: int = 10_000,
    records_large: int = 250_000,
    repeats: int = 8,
) -> dict:
    """Suggestion-search latency at two corpus sizes, stopword-heavy queries.

    The flat-retrieval claim of the ``CorpusIndex`` tiering (see
    docs/corpus.md): with delta-compacted postings, DF-capped stopword
    demotion and the budgeted fallback walk, an unconstrained suggestion
    search over a 250k-record corpus must stay within ~the same latency
    as over a 10k-record corpus — the pre-tier behaviour walked every
    "the" posting and degraded linearly.  Queries alternate between
    pure stopword-tier text (exercising the capped fallback + early
    cut) and stopword-heavy text with one rare content word (exercising
    the rare-first union that skips the capped tier).  Query content
    words are drawn from the vocabulary prefix both corpora share, so
    the two measurements run the identical query list.
    """
    from random import Random

    from repro.corpus.search import SuggestionSearch

    qrng = Random(29)
    queries: list[str] = []
    for i in range(16):
        words = qrng.sample(_SCALE_STOPWORDS, 5)
        if i % 2:
            words.append(f"w{qrng.randrange(200)}")
        queries.append(" ".join(words))

    def measure(records: int) -> tuple[float, dict]:
        corpus = _build_scale_corpus(records)
        search = SuggestionSearch(corpus)
        for query in queries:  # warm tokenizer + index dict internals
            search.find(query)
        start = time.perf_counter()
        for _ in range(repeats):
            for query in queries:
                search.find(query)
        elapsed = time.perf_counter() - start
        return 1000.0 * elapsed / (repeats * len(queries)), corpus.index.stats()

    ms_small, _ = measure(records_small)
    ms_large, stats_large = measure(records_large)
    return {
        "records_small": records_small,
        "records_large": records_large,
        "queries": repeats * len(queries),
        "ms_per_query_small": ms_small,
        "ms_per_query_large": ms_large,
        "latency_ratio_large_vs_small": round(ms_large / ms_small, 2),
        "capped_tokens_large": stats_large["capped_tokens"],
        "index_payload_bytes_large": stats_large["payload_bytes"],
    }


def bench_corpus_memory(
    records: int = 250_000,
    repeats: int = 8,
    segmented_records: int = 1_000_000,
    segment_records: int = 65_536,
) -> dict:
    """Columnar record storage vs object records vs the disk segment
    tier: bytes/record, resident set and suggestion-query latency.

    Builds the ``corpus_scale`` synthetic corpus three ways — into the
    columnar :class:`LearnerCorpus` (interned vocabularies, flat column
    arrays, compacted postings), into the pre-columnar
    :class:`~repro.corpus.reference.ReferenceCorpus` (one record object
    per utterance, ``frozenset`` caches, boxed-int posting lists), and
    at ``segmented_records`` (default 10^6, 4× the in-RAM sizes) into a
    :class:`~repro.corpus.segments.SegmentedCorpus` frozen to disk at
    the ``segment_records`` cadence — and prices the layouts:

    * **memory** — deep heap bytes per record of each in-RAM layout
      (the schema gate requires the columnar store to be ≥ 3× smaller
      than object records);
    * **latency** — ms/query of the streaming suggestion search over
      the columnar store vs the tuple-decoding reference search over
      the object store, identical stopword-heavy query list (the gate
      requires the streaming path within 1.2× of the reference);
    * **residency** — heap bytes per *frozen* record of the fully
      frozen segmented corpus (mmapped segment files are reclaimable
      page cache, not resident).  The schema gates require
      ``resident_ratio_vs_columnar`` ≤ 0.2 (a frozen record costs at
      most a fifth of its in-RAM columnar footprint),
      ``residency_growth_ratio`` < 1.0 (resident bytes net of the
      shared vocabularies — which any layout keeps on the heap — grow
      *sublinearly* in frozen records: a second segmented build at the
      in-RAM comparison size anchors the growth curve), and the
      cross-tier query latency within 1.5× of the in-RAM columnar
      search at a quarter the records.

    The object-record reference is built, measured and released first
    (it dwarfs everything else), then the columnar and segmented
    corpora are held together and their timed rounds *interleaved* —
    each columnar round is immediately followed by a segmented round —
    so the 1.5× latency gate compares medians taken under the same
    machine and heap state rather than minutes apart.
    """
    from random import Random

    from repro.corpus.reference import ReferenceCorpus, ReferenceSuggestionSearch
    from repro.corpus.search import SuggestionSearch
    from repro.corpus.segments import SegmentedCorpus

    qrng = Random(29)
    queries: list[str] = []
    for i in range(16):
        words = qrng.sample(_SCALE_STOPWORDS, 5)
        if i % 2:
            words.append(f"w{qrng.randrange(200)}")
        queries.append(" ".join(words))

    def timed_round(search) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            for query in queries:
                search.find(query)
        return time.perf_counter() - start

    def median_ms(rounds: list[float]) -> float:
        rounds = sorted(rounds)
        return 1000.0 * rounds[len(rounds) // 2] / (repeats * len(queries))

    def measure(build_search, corpus) -> float:
        # Median of 5 timed rounds: a single noisy round (CPU
        # frequency, co-tenant load) must not decide a latency gate.
        search = build_search(corpus)
        for query in queries:  # warm caches + dict internals
            search.find(query)
        return median_ms([timed_round(search) for _ in range(5)])

    reference = _build_scale_corpus(records, store_factory=ReferenceCorpus)
    reference_bytes = reference.memory_bytes()
    ms_reference = measure(ReferenceSuggestionSearch, reference)
    del reference

    def build_segmented(count: int) -> SegmentedCorpus:
        corpus = _build_scale_corpus(
            count,
            store_factory=lambda: SegmentedCorpus(
                segment_records=segment_records, auto_freeze=True
            ),
        )
        corpus.freeze()  # seal the tail: every record priced as frozen
        return corpus

    def tier_resident(stats: dict) -> int:
        # What the segment tier actually controls: columns, texts,
        # postings and caches.  The shared vocabularies stay on the
        # heap in *any* layout (a plain corpus fed the same records
        # holds the identical vocabularies), and this synthetic
        # workload grows its vocabulary linearly with the corpus by
        # construction — so the sublinearity gate measures residency
        # net of vocab, while the headline per-frozen-record figure
        # keeps vocab in.
        return stats["resident_bytes"] - stats["vocab_bytes"]

    # Anchor point for the sublinearity gate: the same segmented build
    # at the in-RAM comparison size.
    anchor = build_segmented(records)
    anchor_resident = tier_resident(anchor.memory_stats())
    anchor.close()

    # The columnar-vs-segmented latency gate compares two measurements,
    # so both corpora are alive at once and their rounds *interleave*:
    # each pair of rounds runs under the same machine and heap state
    # (resident cost of holding both: the 3-way memory gates above/below
    # prove the pair together is far smaller than the reference corpus
    # this function just released).
    columnar = _build_scale_corpus(records)
    columnar_bytes = columnar.memory_stats()["total_bytes"]
    segmented = build_segmented(segmented_records)
    seg_stats = segmented.memory_stats()
    columnar_search = SuggestionSearch(columnar)
    segmented_search = SuggestionSearch(segmented)
    for query in queries:  # warm both before the first timed pair
        columnar_search.find(query)
        segmented_search.find(query)
    columnar_rounds: list[float] = []
    segmented_rounds: list[float] = []
    for _ in range(5):
        columnar_rounds.append(timed_round(columnar_search))
        segmented_rounds.append(timed_round(segmented_search))
    ms_columnar = median_ms(columnar_rounds)
    ms_segmented = median_ms(segmented_rounds)
    del columnar
    segmented.close()
    frozen = seg_stats["frozen_records"]
    per_frozen = seg_stats["resident_bytes"] / frozen
    growth = (tier_resident(seg_stats) / anchor_resident) / (
        segmented_records / records
    )

    return {
        "records": records,
        "queries": repeats * len(queries),
        "bytes_per_record_columnar": round(columnar_bytes / records, 1),
        "bytes_per_record_objects": round(reference_bytes / records, 1),
        "memory_ratio_objects_vs_columnar": round(reference_bytes / columnar_bytes, 2),
        "ms_per_query_columnar": ms_columnar,
        "ms_per_query_reference": ms_reference,
        "latency_ratio_columnar_vs_reference": round(ms_columnar / ms_reference, 2),
        "records_segmented": segmented_records,
        "records_frozen": frozen,
        "segments": seg_stats["segments"],
        "segment_disk_bytes": seg_stats["disk_bytes"],
        "bytes_resident_per_frozen_record": round(per_frozen, 2),
        "resident_ratio_vs_columnar": round(per_frozen / (columnar_bytes / records), 4),
        "residency_growth_ratio": round(growth, 3),
        "ms_per_query_segmented": ms_segmented,
        "latency_ratio_segmented_vs_columnar": round(ms_segmented / ms_columnar, 2),
    }


def bench_recovery(messages: int = 240) -> dict:
    """Durability pricing: WAL replay rate and snapshot-recover latency.

    Runs the mixed-traffic loop through a durable system with periodic
    snapshots disabled and ``fsync="never"`` (the write-ahead cost is
    priced by comparing ``post_latency`` runs, not here), then abandons
    the process state without a final snapshot — the on-disk shape of a
    crash.  Two recoveries are timed:

    * **replay-only** — no snapshot exists, so recovery re-runs the full
      supervision pipeline over every journalled message
      (``replay_messages_per_sec`` is the disaster-case rebuild rate);
    * **snapshot + empty tail** — after the first recovery compacts into
      a snapshot, a second recovery restores columnar state directly
      (``snapshot_recover_seconds`` is the ordinary restart cost, and it
      must not scale with supervision work — the restore never
      re-tokenises).

    ``wal_bytes`` / ``snapshot_bytes`` track the durability footprint of
    the same workload in both representations.
    """
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.core.system import ELearningSystem, SystemConfig

    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-recovery-"))
    config = SystemConfig(snapshot_every=None, fsync="never")
    try:
        data_dir = workdir / "state"
        system = ELearningSystem.with_defaults(replace(config, data_dir=str(data_dir)))
        system.open_room("rec", topic="t")
        system.join("rec", "u")
        for i in range(messages):
            system.say("rec", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
        system.durability.close()  # sync the log, write NO snapshot:
        system.runtime.close()  # the on-disk shape of a crash
        wal_bytes = sum(p.stat().st_size for p in data_dir.glob("wal-*.log"))

        start = time.perf_counter()
        recovered, report = ELearningSystem.recover(str(data_dir), config)
        replay_seconds = time.perf_counter() - start
        events_replayed = report.events_replayed
        recovered.close()  # compact: the final snapshot now covers the log
        snapshot_bytes = max(
            p.stat().st_size for p in data_dir.glob("snapshot-*.json")
        )

        start = time.perf_counter()
        again, _ = ELearningSystem.recover(str(data_dir), config)
        snapshot_recover_seconds = time.perf_counter() - start
        again.runtime.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "messages": messages,
        "events_replayed": events_replayed,
        "replay_messages_per_sec": messages / replay_seconds,
        "snapshot_recover_seconds": snapshot_recover_seconds,
        "wal_bytes": wal_bytes,
        "snapshot_bytes": snapshot_bytes,
    }


def bench_resilience(messages: int = 240) -> dict:
    """Fault-tolerance pricing (docs/resilience.md).

    Three throughput runs of the mixed-traffic loop — fault-free, and
    with seeded faults injected into 1% / 5% of the guarded stage
    crossings (each absorbed by retries, occasionally a quarantine) —
    price what the retry/breaker machinery costs when things go wrong.
    A fourth run holds the parser stage hard-down behind a tripped
    breaker with an effectively infinite cooldown and measures the
    degraded-mode cost of a post: delivery plus a deferred-ledger
    append, no analysis — it must be far cheaper than a fault-free
    supervised message (``degraded_ms_per_post`` vs
    ``fault_free_ms_per_message``), or degraded mode would not be
    degrading gracefully.
    """
    from repro.core.system import ELearningSystem, SystemConfig
    from repro.resilience import BreakerPolicy, RuntimeFaultPlan

    def throughput(plan) -> float:
        system = ELearningSystem.with_defaults(SystemConfig(runtime_faults=plan))
        system.open_room("res", topic="t")
        system.join("res", "u")
        for i in range(8):  # warmup
            system.say("res", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
        start = time.perf_counter()
        for i in range(messages):
            system.say("res", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
        elapsed = time.perf_counter() - start
        return messages / elapsed

    fault_free = throughput(None)
    faulty_1pct = throughput(RuntimeFaultPlan(rate=0.01, seed=43))
    faulty_5pct = throughput(RuntimeFaultPlan(rate=0.05, seed=43))

    # Degraded mode: trip the parser breaker, then price a deferred post.
    plan = RuntimeFaultPlan(permanent=("parser",))
    system = ELearningSystem.with_defaults(
        SystemConfig(runtime_faults=plan, breaker=BreakerPolicy(cooldown=1_000_000_000))
    )
    system.open_room("res", topic="t")
    system.join("res", "u")
    for i in range(8):  # enough traffic to trip the breaker open
        system.say("res", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    assert system.resilience.breakers["parser"].state == "open"
    start = time.perf_counter()
    for i in range(messages):
        system.say("res", "u", MIXED_MESSAGES[i % len(MIXED_MESSAGES)])
    degraded_elapsed = time.perf_counter() - start

    return {
        "messages": messages,
        "fault_free_messages_per_sec": fault_free,
        "faulty_1pct_messages_per_sec": faulty_1pct,
        "faulty_5pct_messages_per_sec": faulty_5pct,
        "throughput_ratio_1pct": faulty_1pct / fault_free,
        "throughput_ratio_5pct": faulty_5pct / fault_free,
        "fault_free_ms_per_message": 1000.0 / fault_free,
        "degraded_ms_per_post": 1000.0 * degraded_elapsed / messages,
    }


#: Question traffic for the serving workload: every one of these draws a
#: QA reply (asserted by the schema gate via ``replies_observed``), so
#: reply latency is measurable on every post.
SERVING_QUESTIONS = [
    "What is a queue?",
    "What is Stack?",
    "Does the stack have the pop operation?",
    "What is a binary tree?",
]


def bench_serving(clients: int = 4, posts_per_client: int = 25) -> dict:
    """HTTP front-door throughput and reply latency under concurrency.

    Boots the real serving stack — ``ELearningSystem`` behind a
    :class:`~repro.serving.ChatGateway` and a live
    :class:`~repro.serving.ChatHTTPServer` on an ephemeral port — and
    drives it with ``clients`` concurrent threads, each on its own
    keep-alive connection posting questions to its own room.  Every post
    is followed by a seq-cursor transcript read that long-polls until
    the QA reply (``reply_to`` = the posted seq) is visible, so
    ``reply_p50_ms`` / ``reply_p95_ms`` price the full round trip the
    paper's learner experiences: HTTP admission, supervision, the
    agent's reply, and the indexed read back out.  ``posts_per_sec`` is
    aggregate across all clients, admission lock included.
    """
    import http.client
    import threading

    from repro.core.system import ELearningSystem
    from repro.serving import ChatGateway, ChatHTTPServer

    system = ELearningSystem.with_defaults()
    gateway = ChatGateway(system)
    httpd = ChatHTTPServer(gateway)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]

    def req(conn, method: str, path: str, body: dict | None = None) -> dict:
        conn.request(method, path, json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        payload = json.loads(response.read())
        if response.status >= 400:
            raise RuntimeError(f"{method} {path} -> {response.status}: {payload}")
        return payload

    barrier = threading.Barrier(clients + 1)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[Exception] = []

    def client(index: int) -> None:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            room, user = f"serve-{index}", f"learner-{index}"
            req(conn, "POST", "/rooms", {"name": room, "topic": "bench"})
            req(conn, "POST", f"/rooms/{room}/join", {"user": user})
            # Warm the parse caches outside the timed window.
            req(conn, "POST", f"/rooms/{room}/messages",
                {"user": user, "text": SERVING_QUESTIONS[0]})
            barrier.wait()
            for i in range(posts_per_client):
                text = SERVING_QUESTIONS[(index + i) % len(SERVING_QUESTIONS)]
                started = time.perf_counter()
                posted = req(conn, "POST", f"/rooms/{room}/messages",
                             {"user": user, "text": text})
                seq = posted["message"]["seq"]
                cursor = seq
                while True:
                    page = req(conn, "GET",
                               f"/rooms/{room}/transcript?since={cursor}&wait=10")
                    if any(m["kind"] == "agent" and m["reply_to"] == seq
                           for m in page["messages"]):
                        break
                    cursor = page["next"]
                latencies[index].append(1000.0 * (time.perf_counter() - started))
            conn.close()
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()  # all clients warmed: the timed window opens together
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    httpd.shutdown()
    httpd.server_close()
    system.close()
    if errors:
        raise errors[0]
    observed = sorted(ms for per_client in latencies for ms in per_client)
    messages = clients * posts_per_client

    def percentile(p: float) -> float:
        return observed[min(len(observed) - 1, int(p * len(observed)))]

    return {
        "clients": clients,
        "messages": messages,
        "posts_per_sec": messages / elapsed,
        "reply_p50_ms": percentile(0.50),
        "reply_p95_ms": percentile(0.95),
        "replies_observed": len(observed),
    }


def run_report(quick: bool = False) -> dict:
    """Run every workload and return the structured report."""
    scale = 0.1 if quick else 1.0

    def n(value: int) -> int:
        return max(1, int(value * scale))

    return {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {
            "cold_parse": bench_cold_parse(repeats=n(40)),
            "warm_parse": bench_warm_parse(repeats=n(400)),
            "supervision_throughput": bench_supervision_throughput(messages=n(400)),
            # Quick mode shrinks the session too; only the full run is
            # comparable against the pinned seed baseline.
            "classroom_session": bench_classroom(learners=4, rounds=1) if quick else bench_classroom(),
            "suggestion_search": bench_suggestion_search(queries=n(300)),
            "post_latency": bench_post_latency(messages=n(2000)),
            "multi_room_scale": bench_multi_room_scale(rounds=max(2, n(12))),
            "parallel_drain": bench_parallel_drain(rounds=max(2, n(12))),
            "corpus_scale": bench_corpus_scale(
                records_small=n(10_000), records_large=n(250_000)
            ),
            "corpus_memory": bench_corpus_memory(
                records=n(250_000), segmented_records=n(1_000_000)
            ),
            "recovery": bench_recovery(messages=n(240)),
            "resilience": bench_resilience(messages=n(240)),
            # Always >= 4 concurrent clients (the acceptance floor);
            # quick mode shrinks only the per-client post count.
            "serving": bench_serving(posts_per_client=max(2, n(25))),
        },
    }


#: Metric keys every workload must carry for the report to be comparable
#: across PRs (the ``repro-bench/1`` shape; extended, never replaced).
REQUIRED_WORKLOAD_METRICS: dict[str, tuple[str, ...]] = {
    "cold_parse": ("ms_per_sentence", "sentences"),
    "warm_parse": ("ms_per_sentence", "sentences", "cache_hit_rate"),
    "supervision_throughput": ("messages_per_sec", "messages"),
    "classroom_session": ("seconds", "supervised", "learners", "rounds"),
    "suggestion_search": ("queries_per_sec", "corpus_records", "queries"),
    "post_latency": ("ms_per_post", "messages", "pending_after"),
    "multi_room_scale": (
        "rooms",
        "messages",
        "sync_messages_per_sec",
        "batched_messages_per_sec",
        "batched_speedup_vs_sync",
        "shared_cache",
    ),
    "parallel_drain": (
        "rooms",
        "workers",
        "messages",
        "batched_messages_per_sec",
        "parallel_messages_per_sec",
        "parallel_speedup_vs_batched",
    ),
    "corpus_scale": (
        "records_small",
        "records_large",
        "queries",
        "ms_per_query_small",
        "ms_per_query_large",
        "latency_ratio_large_vs_small",
    ),
    "corpus_memory": (
        "records",
        "bytes_per_record_columnar",
        "bytes_per_record_objects",
        "memory_ratio_objects_vs_columnar",
        "ms_per_query_columnar",
        "ms_per_query_reference",
        "latency_ratio_columnar_vs_reference",
        "records_segmented",
        "records_frozen",
        "segments",
        "bytes_resident_per_frozen_record",
        "resident_ratio_vs_columnar",
        "residency_growth_ratio",
        "ms_per_query_segmented",
        "latency_ratio_segmented_vs_columnar",
    ),
    "recovery": (
        "messages",
        "events_replayed",
        "replay_messages_per_sec",
        "snapshot_recover_seconds",
        "wal_bytes",
        "snapshot_bytes",
    ),
    "resilience": (
        "messages",
        "fault_free_messages_per_sec",
        "faulty_1pct_messages_per_sec",
        "faulty_5pct_messages_per_sec",
        "throughput_ratio_1pct",
        "throughput_ratio_5pct",
        "fault_free_ms_per_message",
        "degraded_ms_per_post",
    ),
    "serving": (
        "clients",
        "messages",
        "posts_per_sec",
        "reply_p50_ms",
        "reply_p95_ms",
        "replies_observed",
    ),
}

#: Workloads the seed commit predates; a pinned baseline need not (and
#: cannot) carry them.
_POST_SEED_WORKLOADS = frozenset(
    {
        "post_latency",
        "multi_room_scale",
        "parallel_drain",
        "corpus_scale",
        "corpus_memory",
        "recovery",
        "resilience",
        "serving",
    }
)


def validate_report(report: dict) -> None:
    """Check a bench report against the ``repro-bench/1`` schema.

    Raises ``ValueError`` with every problem found, so a malformed
    ``BENCH_parse.json`` (dropped workload, renamed metric, clobbered
    baseline) fails fast in tier-1 instead of surfacing as an
    uncomparable report several PRs later.
    """
    problems: list[str] = []
    if report.get("schema") != "repro-bench/1":
        problems.append(f"schema is {report.get('schema')!r}, expected 'repro-bench/1'")
    for key in ("python", "machine"):
        if not isinstance(report.get(key), str):
            problems.append(f"missing or non-string {key!r}")
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        problems.append("missing 'workloads' mapping")
        workloads = {}
    for name, metrics in REQUIRED_WORKLOAD_METRICS.items():
        numbers = workloads.get(name)
        if not isinstance(numbers, dict):
            problems.append(f"workloads[{name!r}] missing")
            continue
        for metric in metrics:
            if metric not in numbers:
                problems.append(f"workloads[{name!r}] lacks metric {metric!r}")
    baseline = report.get("seed_baseline")
    if baseline is not None:
        if not isinstance(baseline, dict):
            problems.append("'seed_baseline' is not a mapping")
        else:
            for name, metrics in REQUIRED_WORKLOAD_METRICS.items():
                if name in _POST_SEED_WORKLOADS:
                    continue
                numbers = baseline.get(name)
                if not isinstance(numbers, dict):
                    problems.append(f"seed_baseline[{name!r}] missing")
                    continue
                for metric in metrics:
                    if metric not in numbers:
                        problems.append(f"seed_baseline[{name!r}] lacks metric {metric!r}")
    speedup = report.get("speedup")
    if speedup is not None and not all(
        isinstance(value, (int, float)) for value in speedup.values()
    ):
        problems.append("'speedup' carries non-numeric entries")
    if problems:
        raise ValueError("invalid repro-bench/1 report: " + "; ".join(problems))


def write_report(
    output: str | Path = "BENCH_parse.json",
    quick: bool = False,
    seed_baseline: dict | None = None,
) -> Path:
    """Run the harness and write ``BENCH_parse.json``.

    When the output file already exists and carries a ``seed_baseline``
    section, it is preserved so the before/after comparison survives
    re-runs; pass ``seed_baseline`` explicitly to (re)pin it.
    """
    target = Path(output)
    report = run_report(quick=quick)
    if seed_baseline is None and target.exists():
        try:
            previous = json.loads(target.read_text(encoding="utf-8"))
            seed_baseline = previous.get("seed_baseline")
        except (OSError, ValueError):
            seed_baseline = None
    if seed_baseline:
        report["seed_baseline"] = seed_baseline
        report["speedup"] = _speedups(seed_baseline, report["workloads"])
    validate_report(report)  # never write a malformed report
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def _speedups(baseline: dict, current: dict) -> dict[str, float]:
    """Per-workload speedup factors (>1 means faster than the baseline).

    Per-unit metrics (ms/sentence, messages/sec, queries/sec) compare
    across differing iteration counts; total wall-clock metrics only
    compare when the workload shape matches, so a ``--quick`` run's
    shrunken classroom session is not divided against the full-size
    seed baseline.
    """
    speedups: dict[str, float] = {}
    ratios = [
        ("cold_parse", "ms_per_sentence", True, ()),
        ("warm_parse", "ms_per_sentence", True, ()),
        ("supervision_throughput", "messages_per_sec", False, ()),
        ("classroom_session", "seconds", True, ("learners", "rounds")),
        ("suggestion_search", "queries_per_sec", False, ()),
    ]
    for workload, metric, lower_is_better, shape_keys in ratios:
        base_workload = baseline.get(workload, {})
        now_workload = current.get(workload, {})
        base = base_workload.get(metric)
        now = now_workload.get(metric)
        if not base or not now:
            continue
        if any(base_workload.get(key) != now_workload.get(key) for key in shape_keys):
            continue
        speedups[workload] = round(base / now if lower_is_better else now / base, 2)
    return speedups


def add_bench_arguments(parser) -> None:
    """Attach the harness's CLI flags (shared with ``repro bench``)."""
    parser.add_argument("--output", default="BENCH_parse.json")
    parser.add_argument("--quick", action="store_true", help="10%% iteration counts")


def run_from_args(args) -> int:
    """Execute the harness from parsed :func:`add_bench_arguments` flags."""
    target = write_report(output=args.output, quick=args.quick)
    report = json.loads(target.read_text(encoding="utf-8"))
    for name, numbers in sorted(report["workloads"].items()):
        metrics = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(numbers.items())
        )
        print(f"{name}: {metrics}")
    for name, factor in sorted(report.get("speedup", {}).items()):
        print(f"speedup[{name}]: {factor}x vs seed")
    print(f"wrote {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro bench", description=__doc__)
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
