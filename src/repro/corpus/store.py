"""The Learner Corpus store: append, query, persist.

A deliberately simple in-memory store with JSON-lines persistence — the
paper's corpus is a database of analysed utterances, and every consumer
(statistic analyzer, suggestion search, QA mining) works off these query
primitives.

Since PR 5 the store is **columnar**: records live in a
:class:`~repro.corpus.records.RecordStore` (flat machine arrays plus
interned :class:`~repro.corpus.records.Vocabulary` term tables) instead
of one Python object per record, and reads come back as lazy
:class:`~repro.corpus.records.RecordView` objects with the familiar
record attribute surface.  The vocabularies are shared with the owned
:class:`~repro.corpus.index.CorpusIndex`, so the verdict/keyword/token/
user postings — delta-encoded ``array('I')`` runs with per-term document
frequencies and a configurable stopword tier
(``IndexConfig(stopword_df_cap=...)``) — are keyed by the same 4-byte
term ids the columns store.  ``by_verdict``, ``with_keyword``,
``by_user`` and every suggestion-search candidate scan jump straight to
the matching records, and "the"-style terms stop dominating
unconstrained retrieval unions at the 10^5+ record scale (see
``docs/corpus.md``).

Records are snapshotted at :meth:`LearnerCorpus.add` time: the columns
and indexes read ``verdict``/``keywords``/``text`` once, on ingestion,
and the input :class:`CorpusRecord` is decomposed and discarded.  Views
are positional — like positions themselves, they must not be held
across a shard-merge barrier, which may rewrite the store tail.

The corpus is also a :class:`~repro.state.mergeable.MergeableStore`:
:meth:`LearnerCorpus.fork` hands a drain worker a :class:`CorpusReplica`
whose reads see the fork-point snapshot and whose appends are buffered
with their origin (global message seq, per-message sentence index);
:meth:`LearnerCorpus.merge` interleaves replica appends behind the fork
watermark in origin order — whatever order the replicas merge in — and
re-ingests them through the normal path, so the merged store's columns,
inverted postings and record ids are identical to those of a single
store fed the same records in origin order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator

from repro.linkgrammar.tokenizer import tokenize

from .index import CorpusIndex, IndexConfig
from .records import (
    VERDICT_FOR_CODE,
    Correctness,
    CorpusRecord,
    CorpusVocabularies,
    RecordStore,
    RecordView,
)

#: Format tag of the columnar corpus document ``save`` writes (one JSON
#: object: vocabularies + columns).  ``load`` also accepts the legacy
#: per-record JSONL shape and re-ingests it row by row.
CORPUS_COLUMNAR_FORMAT = "repro-corpus-columnar/1"


class LearnerCorpus:
    """Append-only columnar collection of corpus records.

    Args:
        index_config: knobs for the owned :class:`CorpusIndex`
            (postings layout and stopword-DF tiering); ``None`` uses
            the defaults.
    """

    def __init__(self, index_config: IndexConfig | None = None) -> None:
        self._vocabs = CorpusVocabularies()
        self._store = RecordStore(self._vocabs)
        self._index = CorpusIndex(index_config, vocabularies=self._vocabs)
        # Shard-merge bookkeeping: the position every record of the
        # current barrier interleaves behind, and the origin keys of the
        # records merged past it so far (aligned with the tail).
        self._merge_floor: int | None = None
        self._merge_keys: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[RecordView]:
        columns = self.columns
        return (columns.view(position) for position in range(len(columns)))

    # ------------------------------------------------------------- writing

    def next_id(self) -> int:
        return len(self)

    def add(
        self, record: CorpusRecord, tokens: tuple[str, ...] | None = None
    ) -> CorpusRecord:
        """Append a record (ids must be monotonic; use :meth:`next_id`).

        Tokenisation, keyword normalisation and vocabulary interning
        happen here, once, so every later similarity query is an id-run
        read.  Callers that already tokenised ``record.text`` (the
        supervision pipeline) pass ``tokens`` to skip the redundant
        tokenizer run.  Returns the (now decomposed) input record.
        """
        token_set = (
            frozenset(tokens) if tokens is not None else frozenset(tokenize(record.text).words)
        )
        return self._ingest(record, token_set)

    def _ingest(self, record: CorpusRecord, token_set: frozenset[str]) -> CorpusRecord:
        """Append one record with its precomputed token set and index it."""
        _position, token_ids, keyword_ids, user_id = self._store.append(record, token_set)
        self._index.append_ids(record.verdict, keyword_ids, token_ids, user_id)
        return record

    def _evict_tail(self, floor: int) -> None:
        """Drop every record at position >= ``floor`` from store + indexes.

        Positions are appended in add order, so within each postings list
        the evicted positions are exactly the trailing entries — eviction
        is O(tail), not O(index), delta encoding notwithstanding.
        """
        while len(self._store) > floor:
            verdict, token_ids, keyword_ids, user_id = self._store.pop_last()
            self._index.pop_ids(verdict, keyword_ids, token_ids, user_id)

    # ------------------------------------------------------------- queries

    def records(self) -> list[RecordView]:
        columns = self.columns
        return [columns.view(position) for position in range(len(columns))]

    def filter(self, predicate: Callable[[RecordView], bool]) -> list[RecordView]:
        return [record for record in self if predicate(record)]

    def by_user(self, user: str) -> list[RecordView]:
        view = self.columns.view
        return [view(position) for position in self.index.iter_user_positions(user)]

    def by_verdict(self, verdict: Correctness) -> list[RecordView]:
        view = self.columns.view
        return [view(position) for position in self.index.iter_verdict_positions(verdict)]

    def correct_records(self) -> list[RecordView]:
        return self.by_verdict(Correctness.CORRECT)

    def with_keyword(self, keyword: str) -> list[RecordView]:
        view = self.columns.view
        return [
            view(position)
            for position in self.index.iter_keyword_positions(keyword.lower())
        ]

    def verdict_counts(self) -> dict[Correctness, int]:
        """Record count per verdict, straight off the index DFs — O(1) in
        corpus size, for the statistic analyzer's aggregate report."""
        return self.index.verdict_counts()

    # ----------------------------------------------------- columnar access

    @property
    def index(self) -> CorpusIndex:
        """The owned inverted-index subsystem (postings, DFs, tiers).

        Subclasses with more than one storage tier (the disk-segmented
        corpus in :mod:`repro.corpus.segments`) override this with a
        facade of the same query surface; every read in this class goes
        through the property so tier routing is transparent."""
        return self._index

    @property
    def columns(self) -> RecordStore:
        """The columnar record backing (read-only contract: consumers
        stream id runs and scalars; all writes go through the corpus).
        Overridden by tiered subclasses — see :attr:`index`."""
        return self._store

    def record_at(self, position: int) -> RecordView:
        """The (lazy view of the) record at ``position`` (add order)."""
        return self.columns.view(position)

    def text_at(self, position: int) -> str:
        """The raw sentence at ``position`` — one list read, no view."""
        return self.columns.text_at(position)

    def is_correct(self, position: int) -> bool:
        """O(1) verdict test for the record at ``position`` — consumers
        filtering candidate positions use this instead of re-reading
        :meth:`record_at` per candidate."""
        return self.index.is_correct(position)

    def verdict_at(self, position: int) -> Correctness:
        """The verdict of the record at ``position``, off the index."""
        return self.index.verdict_at(position)

    def keyword_positions(self, keyword: str) -> tuple[int, ...]:
        """Positions of records tagged with ``keyword`` (add order)."""
        return self.index.keyword_positions(keyword.lower())

    def token_positions(self, token: str) -> tuple[int, ...]:
        """Positions of records whose text contains ``token`` (add order)."""
        return self.index.token_positions(token)

    def token_set(self, position: int) -> frozenset[str]:
        """The token set of the record at ``position``, decoded from the
        columnar id run (bounded memo cache for hot candidates)."""
        return self.columns.token_set(position)

    def keyword_set(self, position: int) -> frozenset[str]:
        """The lower-cased keyword set of the record at ``position``."""
        return self.columns.keyword_set(position)

    def correct_positions(self) -> Iterator[tuple[int, RecordView]]:
        """(position, record) pairs for known-correct records, add order.

        Positions index :meth:`token_set`/:meth:`keyword_set`, letting
        suggestion search scan candidates without touching the tokenizer.
        """
        view = self.columns.view
        for position in self.index.iter_verdict_positions(Correctness.CORRECT):
            yield position, view(position)

    # -------------------------------------------------- partition and merge

    def fork(self) -> "CorpusReplica":
        """A shard replica over the current state (reads = this snapshot,
        writes buffered until :meth:`merge`)."""
        return CorpusReplica(self)

    def merge(self, replica: "CorpusReplica") -> int:
        """Fold one replica's buffered records into the corpus.

        Replica records interleave *behind the fork watermark* in origin
        order — ``(message seq, per-message sentence index)``, captured
        at supervision time — so merging the replicas of one barrier in
        any order produces the same record order, ids, columns and
        inverted postings as a single store fed the records in global
        post order.  Records already merged this barrier (by sibling
        replicas) are materialised back out of the columns, re-sorted
        together with the new ones, and re-ingested; eviction and
        re-ingestion are O(barrier batch), not O(corpus).

        Returns the number of records merged from ``replica``.
        """
        floor = replica.base_len
        if floor > len(self):
            raise ValueError(
                f"replica forked at {floor} but corpus holds {len(self)} records"
            )
        if self._merge_floor != floor:
            # First replica of a new barrier: the tail (if any) belongs
            # to an older, already-finalised barrier.
            self._merge_floor = floor
            self._merge_keys = []
        columns = self.columns
        tail: list[tuple[tuple[int, int], CorpusRecord, frozenset[str]]] = [
            (
                key,
                columns.materialize(floor + offset),
                columns.token_set(floor + offset),
            )
            for offset, key in enumerate(self._merge_keys)
        ]
        merged = len(replica.pending)
        tail.extend(replica.pending)
        tail.sort(key=lambda entry: entry[0])
        self._evict_tail(floor)
        for _key, record, token_set in tail:
            record.record_id = len(self)
            self._ingest(record, token_set)
        self._merge_keys = [entry[0] for entry in tail]
        return merged

    def snapshot(self) -> tuple[dict, ...]:
        """Canonical comparable value: every record, in store order."""
        to_dict = self.columns.to_dict
        return tuple(to_dict(position) for position in range(len(self)))

    # --------------------------------------------------------- diagnostics

    def memory_stats(self) -> dict[str, int]:
        """Heap accounting across columns, vocabularies and postings —
        the ``corpus_memory`` bench workload's bytes/record source."""
        stats = self._store.memory_stats()
        stats["index_payload_bytes"] = self._index.stats()["payload_bytes"]
        stats["total_bytes"] += stats["index_payload_bytes"]
        return stats

    # --------------------------------------------------------- persistence

    def to_columnar(self) -> dict:
        """The whole corpus as one JSON-ready columnar document:
        vocabularies + columns, no per-record rows.  Restoring rebuilds
        the inverted index from the interned id runs, so neither the
        tokenizer nor the keyword normaliser runs again."""
        return {
            "format": CORPUS_COLUMNAR_FORMAT,
            "records": len(self._store),
            "vocabularies": self._vocabs.dump(),
            "columns": self._store.dump_columns(),
        }

    def validate_columnar(self, data: dict) -> None:
        """Check ``data`` is a document this corpus can restore, without
        mutating anything.  The segmented subclass extends this to
        open-and-verify every referenced segment file, which is what
        lets recovery quarantine a snapshot whose segments are gone."""
        if data.get("format") != CORPUS_COLUMNAR_FORMAT:
            if data.get("format") == "repro-corpus-segmented/1":
                raise ValueError(
                    "segmented corpus document: restore needs a SegmentedCorpus "
                    "(configure corpus_segment_records / --corpus-segment-records)"
                )
            raise ValueError(f"not a {CORPUS_COLUMNAR_FORMAT} document")

    def restore_columnar(self, data: dict) -> None:
        """Replace this corpus's contents from a columnar document.

        In place — consumers holding the corpus object (agents, the QA
        system, suggestion search) keep their reference.  The index is
        rebuilt positionally from the stored id runs: zero tokenizer
        calls, zero string hashing beyond vocabulary re-interning.
        """
        if data.get("format") != CORPUS_COLUMNAR_FORMAT:
            if data.get("format") == "repro-corpus-segmented/1":
                raise ValueError(
                    "segmented corpus document: restore needs a SegmentedCorpus "
                    "(configure corpus_segment_records / --corpus-segment-records)"
                )
            raise ValueError(f"not a {CORPUS_COLUMNAR_FORMAT} document")
        index_config = self._index.config
        vocabs = CorpusVocabularies()
        vocabs.restore(data["vocabularies"])
        store = RecordStore(vocabs)
        store.load_columns(data["columns"])
        index = CorpusIndex(index_config, vocabularies=vocabs)
        for position in range(len(store)):
            index.append_ids(
                VERDICT_FOR_CODE[store.verdict_code_at(position)],
                store.keyword_id_run(position),
                store.token_id_run(position),
                store.user_id_at(position),
            )
        self._vocabs = vocabs
        self._store = store
        self._index = index
        self._merge_floor = None
        self._merge_keys = []

    def save(self, path: str | Path) -> None:
        """Write the corpus as one columnar JSON document (arrays +
        vocabularies), so :meth:`load` restores without re-tokenising."""
        Path(path).write_text(
            json.dumps(self.to_columnar(), ensure_ascii=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(
        cls, path: str | Path, index_config: IndexConfig | None = None
    ) -> "LearnerCorpus":
        """Read a corpus written by :meth:`save` — the columnar document,
        or the legacy per-record JSONL shape (re-ingested row by row)."""
        corpus = cls(index_config)
        text = Path(path).read_text(encoding="utf-8").strip()
        if not text:
            return corpus
        first = json.loads(text.splitlines()[0])
        if isinstance(first, dict) and first.get("format") == CORPUS_COLUMNAR_FORMAT:
            corpus.restore_columnar(first)
            return corpus
        for line in text.splitlines():
            line = line.strip()
            if line:
                corpus.add(CorpusRecord.from_dict(json.loads(line)))
        return corpus


class CorpusReplica:
    """One worker's shard-local view of a :class:`LearnerCorpus`.

    Reads (suggestion-search queries, QA corpus fallback, statistics)
    delegate to the base store, which the runtime freezes for the length
    of a drain cycle — every worker of a barrier therefore analyses
    against the *same* snapshot, which is what makes batch-wide analysis
    memoisation sound.  Appends are buffered locally as plain
    :class:`CorpusRecord` rows, tagged with their origin ``(message seq,
    per-message sentence index)``, and only reach the base columns in
    :meth:`LearnerCorpus.merge`.  A replica is single-owner: exactly one
    worker writes it, and merge/rebase happen at the barrier with no
    workers running.
    """

    __slots__ = ("_base", "base_len", "_pending", "_origin_seq", "_origin_n")

    def __init__(self, base: LearnerCorpus) -> None:
        self._base = base
        self.base_len = len(base)
        self._pending: list[tuple[tuple[int, int], CorpusRecord, frozenset[str]]] = []
        self._origin_seq = 0
        self._origin_n = 0

    # ----------------------------------------------------- replica protocol

    @property
    def base(self) -> LearnerCorpus:
        return self._base

    @property
    def pending(self) -> list[tuple[tuple[int, int], CorpusRecord, frozenset[str]]]:
        """Buffered (origin, record, token set) appends, in write order."""
        return self._pending

    def begin_origin(self, seq: int) -> None:
        """Tag subsequent appends as originating from message ``seq``."""
        self._origin_seq = seq
        self._origin_n = 0

    def rebase(self) -> None:
        """Drop the local buffer and snapshot the (merged) base anew."""
        self._pending = []
        self.base_len = len(self._base)

    # -------------------------------------------------------------- writing

    def next_id(self) -> int:
        """Provisional id; the merge renumbers to the final position."""
        return self.base_len + len(self._pending)

    def add(
        self, record: CorpusRecord, tokens: tuple[str, ...] | None = None
    ) -> CorpusRecord:
        token_set = (
            frozenset(tokens) if tokens is not None else frozenset(tokenize(record.text).words)
        )
        self._pending.append(((self._origin_seq, self._origin_n), record, token_set))
        self._origin_n += 1
        return record

    # ------------------------------------------------------------- queries
    # All reads see the fork-point snapshot: the base store, which only
    # changes at merge barriers while no worker is draining.

    def __len__(self) -> int:
        return self.base_len + len(self._pending)

    def __iter__(self) -> Iterator[RecordView]:
        return iter(self._base)

    def __getattr__(self, name: str):
        # Query primitives (record_at, token_positions, correct_records,
        # columns, ...) delegate wholesale; writes are overridden above.
        # object.__getattribute__ keeps delegation out of the pickle
        # path: while unpickling, special-method probes arrive before
        # _base is restored and must raise, not recurse.
        try:
            base = object.__getattribute__(self, "_base")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(base, name)
