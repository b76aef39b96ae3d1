"""The FAQ database (paper sections 1, 3, 4.4).

Answered questions accumulate as QA pairs; the database keeps frequency
statistics so that "if sufficient number of QA pairs has been accumulated,
the FAQ system will make the statistic of the questions and answers and
then gets the most frequency Question and Answer pairs" — a learning tool
surfaced back to learners, and a cache consulted before recomputing
answers.

Questions are normalised (template kind + sorted ontology ids) so
paraphrases of the same question share one FAQ entry: "What is a stack?"
and "what is Stack" hit the same pair.

The database is a :class:`~repro.state.mergeable.MergeableStore`: a
drain worker's :class:`FAQReplica` buffers its question *bumps* locally
(overlaying its own shard's new pairs for lookups) and
:meth:`FAQDatabase.merge` folds them back at the barrier.  Counts and
``last_asked`` commute; the representative surface form / answer /
``first_asked`` of a pair born inside a barrier belong to the bump with
the smallest origin (global message seq), so merging replicas in any
order reproduces what a single database fed the questions in post order
would hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .templates import QuestionKind, TemplateMatch


def normalise_key(kind: QuestionKind, item_ids: tuple[int, ...]) -> str:
    """Canonical FAQ key for a classified question."""
    ids = ",".join(str(i) for i in sorted(set(item_ids)))
    return f"{kind.value}:{ids}"


@dataclass(slots=True)
class QAPair:
    """One accumulated question/answer pair.

    Attributes:
        key: normalised question key (kind + ontology ids).
        question: a representative surface form (first seen).
        answer: the answer text served.
        kind: template family.
        item_ids: ontology items the question binds.
        count: how many times the question has been asked.
        source: "ontology", "corpus", or "mined".
        first_asked / last_asked: simulated timestamps.
    """

    key: str
    question: str
    answer: str
    kind: QuestionKind
    item_ids: tuple[int, ...] = ()
    count: int = 0
    source: str = "ontology"
    first_asked: float = 0.0
    last_asked: float = 0.0

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "question": self.question,
            "answer": self.answer,
            "kind": self.kind.value,
            "item_ids": list(self.item_ids),
            "count": self.count,
            "source": self.source,
            "first_asked": self.first_asked,
            "last_asked": self.last_asked,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QAPair":
        return cls(
            key=data["key"],
            question=data["question"],
            answer=data["answer"],
            kind=QuestionKind(data["kind"]),
            item_ids=tuple(data.get("item_ids", ())),
            count=data.get("count", 0),
            source=data.get("source", "ontology"),
            first_asked=data.get("first_asked", 0.0),
            last_asked=data.get("last_asked", 0.0),
        )


class FAQDatabase:
    """Frequency-counted store of QA pairs."""

    def __init__(self) -> None:
        self._pairs: dict[str, QAPair] = {}
        # Origin (message seq) that created each merge-born pair; lets
        # later-merging replicas win the representative surface form when
        # they saw the question earlier in post order.  Never cleared:
        # seqs are globally monotonic, so stale entries can't win.
        self._merge_origins: dict[str, tuple[int, int]] = {}
        # Keys born in the current merge barrier (reset when replicas of
        # a new fork watermark start merging): the basis of the
        # cross-shard FAQ-hit correction merge() reports.
        self._merge_floor: int | None = None
        self._barrier_born: set[str] = set()

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, key: str) -> bool:
        return key in self._pairs

    # ------------------------------------------------------------- writing

    def record(
        self,
        match: TemplateMatch,
        question: str,
        answer: str,
        now: float = 0.0,
        source: str = "ontology",
        origin: tuple[int, int] | None = None,
    ) -> QAPair:
        """Fold one answered question into the database.

        ``origin`` — ``(message seq, sentence index)`` — orders askings
        that commit out of post order (deferred backfill, quarantine
        redrive): the smallest origin defines the representative surface
        form/answer/source, and ``first_asked``/``last_asked`` fold with
        min/max, so a late commit of an early asking converges on the
        pair an in-order run would hold.  Omitted (None) for in-order
        callers — every update below is then the plain sequential fold.
        """
        key = normalise_key(match.kind, tuple(k.item_id for k in match.all_keywords))
        pair = self._pairs.get(key)
        if pair is None:
            pair = QAPair(
                key=key,
                question=question,
                answer=answer,
                kind=match.kind,
                item_ids=tuple(sorted({k.item_id for k in match.all_keywords})),
                count=0,
                source=source,
                first_asked=now,
            )
            self._pairs[key] = pair
            if origin is not None:
                self._merge_origins[key] = origin
        else:
            prior = self._merge_origins.get(key)
            if origin is not None and prior is not None and origin < prior:
                pair.question = question
                pair.answer = answer
                pair.source = source
                self._merge_origins[key] = origin
            pair.first_asked = min(pair.first_asked, now)
        pair.count += 1
        pair.last_asked = max(pair.last_asked, now)
        return pair

    # ------------------------------------------------------------- queries

    def lookup(self, match: TemplateMatch) -> QAPair | None:
        """The cached pair for a classified question, if any."""
        key = normalise_key(match.kind, tuple(k.item_id for k in match.all_keywords))
        return self._pairs.get(key)

    def pairs(self) -> list[QAPair]:
        return sorted(self._pairs.values(), key=lambda p: (-p.count, p.key))

    def top(self, limit: int = 10) -> list[QAPair]:
        """The most frequent QA pairs — the paper's learner-facing FAQ."""
        return self.pairs()[:limit]

    def total_questions(self) -> int:
        return sum(pair.count for pair in self._pairs.values())

    # -------------------------------------------------- partition and merge

    def fork(self) -> "FAQReplica":
        """A shard replica: bumps recorded on it stay local until merge."""
        return FAQReplica(self)

    def merge(self, replica: "FAQReplica") -> int:
        """Fold one replica's buffered question bumps into the database.

        Returns the **FAQ-hit correction**: the number of askings this
        replica served as cache *misses* that are cache hits in global
        post order.  A question born inside a barrier is missed once per
        shard that asked it, but a sequential run misses it exactly once
        — so every merge after the first of a barrier-born key owes one
        hit.  The caller folds the correction into its ``faq_hits``
        counter, making the merged statistics identical to the
        sequential pipeline's on any drain schedule.
        """
        if self._merge_floor != replica.base_len:
            self._merge_floor = replica.base_len
            self._barrier_born = set()
        corrections = 0
        for key, bump in replica.pending.items():
            pair = self._pairs.get(key)
            if pair is not None and key in self._barrier_born:
                corrections += 1
            if pair is None:
                self._barrier_born.add(key)
                self._pairs[key] = QAPair(
                    key=key,
                    question=bump.question,
                    answer=bump.answer,
                    kind=bump.kind,
                    item_ids=bump.item_ids,
                    count=bump.count,
                    source=bump.source,
                    first_asked=bump.first_asked,
                    last_asked=bump.last_asked,
                )
                self._merge_origins[key] = bump.first_origin
            else:
                origin = self._merge_origins.get(key)
                if origin is not None and bump.first_origin < origin:
                    # This replica saw the (barrier-born) question first
                    # in post order: it defines the representative pair.
                    pair.question = bump.question
                    pair.answer = bump.answer
                    pair.source = bump.source
                    pair.first_asked = min(pair.first_asked, bump.first_asked)
                    self._merge_origins[key] = bump.first_origin
                pair.count += bump.count
                pair.last_asked = max(pair.last_asked, bump.last_asked)
        return corrections

    def snapshot(self) -> tuple[dict, ...]:
        """Canonical comparable value: every pair, frequency-ranked."""
        return tuple(pair.to_dict() for pair in self.pairs())

    def restore(self, pairs: list[dict]) -> None:
        """Replace the database's contents from ``to_dict`` rows
        (snapshot recovery) — in place, resetting merge bookkeeping
        (recovery happens at a barrier: no replicas are outstanding)."""
        self._pairs = {}
        self._merge_origins = {}
        self._merge_floor = None
        self._barrier_born = set()
        for data in pairs:
            pair = QAPair.from_dict(data)
            self._pairs[pair.key] = pair

    # --------------------------------------------------------- persistence

    def save(self, path: str | Path) -> None:
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for pair in self.pairs():
                handle.write(json.dumps(pair.to_dict(), ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FAQDatabase":
        database = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    pair = QAPair.from_dict(json.loads(line))
                    database._pairs[pair.key] = pair
        return database


@dataclass(slots=True)
class _FAQBump:
    """Aggregated question bumps for one FAQ key inside one replica."""

    first_origin: tuple[int, int]
    question: str
    answer: str
    kind: QuestionKind
    item_ids: tuple[int, ...]
    source: str
    first_asked: float
    last_asked: float
    count: int = 0


class FAQReplica:
    """One worker's shard-local view of a :class:`FAQDatabase`.

    Lookups see the fork-point snapshot *plus* this shard's own new
    pairs (a question asked twice in one shard's batch hits the cache
    the second time, like the sequential pipeline); records accumulate
    per-key :class:`_FAQBump` aggregates tagged with their origin.
    Single-owner: one worker writes, the barrier merges.
    """

    __slots__ = ("_base", "base_len", "_pending", "_local", "_origin_seq", "_origin_n")

    def __init__(self, base: FAQDatabase) -> None:
        self._base = base
        self.base_len = len(base)
        self._pending: dict[str, _FAQBump] = {}
        self._local: dict[str, QAPair] = {}
        self._origin_seq = 0
        self._origin_n = 0

    @property
    def base(self) -> FAQDatabase:
        return self._base

    @property
    def pending(self) -> dict[str, _FAQBump]:
        """Buffered per-key bump aggregates."""
        return self._pending

    def begin_origin(self, seq: int) -> None:
        self._origin_seq = seq
        self._origin_n = 0

    def rebase(self) -> None:
        self._pending = {}
        self._local = {}
        self.base_len = len(self._base)

    def __len__(self) -> int:
        return self.base_len + len(self._local)

    def __contains__(self, key: str) -> bool:
        return key in self._local or key in self._base

    def lookup(self, match: TemplateMatch) -> QAPair | None:
        key = normalise_key(match.kind, tuple(k.item_id for k in match.all_keywords))
        local = self._local.get(key)
        if local is not None:
            return local
        return self._base.lookup(match)

    def record(
        self,
        match: TemplateMatch,
        question: str,
        answer: str,
        now: float = 0.0,
        source: str = "ontology",
        origin: tuple[int, int] | None = None,
    ) -> QAPair:
        # ``origin`` is accepted for interface parity with the base
        # database and ignored: replica ordering is owned by
        # ``begin_origin`` (the runtime tags each item's writes), and
        # out-of-order commits never run against a replica — degraded
        # mode defers whole items before they reach a shard pipeline.
        key = normalise_key(match.kind, tuple(k.item_id for k in match.all_keywords))
        bump = self._pending.get(key)
        if bump is None:
            bump = _FAQBump(
                first_origin=(self._origin_seq, self._origin_n),
                question=question,
                answer=answer,
                kind=match.kind,
                item_ids=tuple(sorted({k.item_id for k in match.all_keywords})),
                source=source,
                first_asked=now,
                last_asked=now,
            )
            self._pending[key] = bump
        bump.count += 1
        bump.last_asked = now
        self._origin_n += 1
        pair = self._local.get(key)
        if pair is None:
            if key in self._base:
                # Base pairs are frozen during the cycle; the merged
                # count lands at the barrier.
                return self._base._pairs[key]
            pair = QAPair(
                key=key,
                question=question,
                answer=answer,
                kind=match.kind,
                item_ids=bump.item_ids,
                count=0,
                source=source,
                first_asked=now,
            )
            self._local[key] = pair
        pair.count += 1
        pair.last_asked = now
        return pair

    def __getattr__(self, name: str):
        # Reads (pairs, top, total_questions, ...) see the snapshot.
        # The explicit lookup keeps unpickling (which probes special
        # methods before _base is restored) from recursing.
        try:
            base = object.__getattribute__(self, "_base")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(base, name)
