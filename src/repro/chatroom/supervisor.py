"""The supervision pipeline: Figure 3's operation flow, wired.

Every user message is split into sentences and each sentence runs the
paper's flow: Learning_Angel (syntax) → pattern classification → either
the QA subsystem (questions) or the Semantic Agent (statements); analysed
sentences are recorded into the Learner Corpus and the User Profile
database, and agent replies are posted back into the room.

The pipeline consumes :class:`~repro.chatroom.shard.SupervisionItem`
work items (message + room resolved once at post time) and splits each
sentence's handling into a *plan* step (analysis, under the resilience
stage guards) and a *commit* step (stats, replies, recording).

**One analysis record per distinct utterance.**  Tokens, pattern,
grammar diagnosis, keywords, repairs, the semantic review of a correct
statement and the QA resolution of a question are pure functions of
(agents, ``Dictionary.version``, ``Ontology.generation``, text).  The
pipeline keeps them in an :class:`AnalysisRecordStore` — a bounded LRU
shared by every shard fork of one pipeline — so a repeated sentence is
analysed once, whichever room, drain or worker thread posts it.  Each
occurrence runs only the work that reads live state: a faulty
statement's suggestion search (the learner corpus grows between posts)
and the commit phase.  Questions never run the suggestion search or
repair: their replies never show either.

**Shard-local mode** (:meth:`SupervisionPipeline.fork_shard`): the
``parallel`` runtime hands every worker a pipeline twin bound to shard
replicas of the corpus, profile and FAQ stores (see :mod:`repro.state`),
with agent replies buffered in an outbox the runtime flushes in post
order at the drain barrier.  Because replica reads are frozen at the
barrier snapshot, a faulty sentence's suggestion is a pure function of
(sentence, snapshot) for the length of a cycle, and the runtime's
per-cycle memo shares it across rooms, shards and worker threads.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.agents.learning_angel import LearningAngelAgent
from repro.agents.reports import SemanticReview, SemanticVerdict, SyntaxReview
from repro.agents.semantic_agent import SemanticAgent
from repro.corpus.records import Correctness
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.tokenizer import TokenizedSentence, split_sentences, tokenize
from repro.nlp.patterns import PatternAnalysis, classify
from repro.profiles.store import UserProfileStore
from repro.qa.engine import QAResolution, QASystem

from .messages import ChatMessage, MessageKind, Role
from .server import ChatServer
from .shard import SupervisionItem

QA_AGENT_NAME = "QA_System"


@dataclass(slots=True)
class SupervisionStats:
    """Running counters kept by the pipeline (benchmarked in F3)."""

    messages: int = 0
    sentences: int = 0
    syntax_errors: int = 0
    semantic_violations: int = 0
    misconceptions: int = 0
    questions: int = 0
    questions_answered: int = 0
    faq_hits: int = 0
    agent_replies: int = 0
    corrections_suggested: int = 0

    def merge(self, other: "SupervisionStats") -> "SupervisionStats":
        """Add ``other``'s counters into this instance (returns self)."""
        for fld in dataclasses.fields(SupervisionStats):
            setattr(self, fld.name, getattr(self, fld.name) + getattr(other, fld.name))
        return self

    @classmethod
    def total(cls, parts: Iterable["SupervisionStats"]) -> "SupervisionStats":
        """A fresh stats object holding the sum of ``parts``."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined


@dataclass(slots=True)
class _AnalysisRecord:
    """Everything about one distinct utterance that its key determines.

    ``review`` is Learning_Angel's static review (diagnosis, keywords
    and, for statements, repairs); it never carries a suggestion, which
    reads the live corpus.  ``semantic`` (correct statements) and
    ``resolution`` (questions) are filled lazily, each under its own
    stage guard, by the first occurrence that needs them.  The fills are
    value-deterministic, so threads racing to fill one store equal
    values.
    """

    tokenized: TokenizedSentence
    pattern: PatternAnalysis
    review: SyntaxReview
    semantic: SemanticReview | None = None
    resolution: QAResolution | None = None


class AnalysisRecordStore:
    """A bounded, lock-guarded LRU of per-utterance analysis records.

    One store per prototype pipeline, shared by its shard forks, so the
    ``parallel`` runtime's worker threads share it the way they share
    the parse cache.  Keys carry the dictionary version and ontology
    generation, so an edit makes every older record unreachable; the
    LRU bound then ages them out.  :meth:`add` keeps the first record
    stored under a key, so racing builders converge on one record.
    """

    def __init__(self, max_entries: int = Dictionary.SHARED_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._records: OrderedDict[Hashable, _AnalysisRecord] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: Hashable) -> _AnalysisRecord | None:
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                self._records.move_to_end(key)
            return record

    def add(self, key: Hashable, record: _AnalysisRecord) -> _AnalysisRecord:
        """Store a fully built record; returns the one now under ``key``."""
        with self._lock:
            existing = self._records.get(key)
            if existing is not None:
                return existing
            self._records[key] = record
            if len(self._records) > self.max_entries:
                self._records.popitem(last=False)
            return record


@dataclass(slots=True)
class _SentencePlan:
    """One sentence's planned supervision: analysis done, nothing applied.

    ``on_item`` plans *every* sentence of a message before committing
    any of them.  All the fallible work — parsing, suggestion search,
    semantic review, QA resolution — happens during planning under the
    resilience stage guards; the commit phase only writes stores and
    posts replies.  An injected or real fault therefore always strikes
    before the item has any side effects, which is what makes retrying
    or redriving the item exactly-once.  ``review`` is the record's
    review plus this occurrence's suggestion.
    """

    record: _AnalysisRecord
    review: SyntaxReview


@dataclass(slots=True)
class ShardStores:
    """One worker's bundle of shard replicas plus its reply outbox.

    The runtime owns the barrier protocol: :meth:`merge` folds every
    replica into its base store (order-independent across workers),
    :meth:`take_replies` surfaces the buffered agent replies for the
    post-order flush, and :meth:`rebase` re-snapshots the replicas for
    the next cycle once *all* workers have merged.
    """

    corpus: object | None
    profiles: object
    faq: object
    outbox: list = field(default_factory=list)
    pipeline: "SupervisionPipeline | None" = None

    def begin(self, seq: int) -> None:
        """Tag subsequent writes with the originating message seq."""
        if self.corpus is not None:
            self.corpus.begin_origin(seq)
        self.profiles.begin_origin(seq)
        self.faq.begin_origin(seq)

    def merge(self) -> None:
        if self.corpus is not None:
            self.corpus.base.merge(self.corpus)
        self.profiles.base.merge(self.profiles)
        corrections = self.faq.base.merge(self.faq)
        if corrections and self.pipeline is not None:
            # Questions this shard missed that an earlier-in-post-order
            # shard had already asked: hits, sequentially speaking.
            self.pipeline.stats.faq_hits += corrections

    def rebase(self) -> None:
        if self.corpus is not None:
            self.corpus.rebase()
        self.profiles.rebase()
        self.faq.rebase()

    def take_replies(self) -> list:
        replies, self.outbox = self.outbox, []
        return replies


@dataclass(slots=True)
class SupervisionPolicy:
    """Behaviour knobs for the pipeline.

    Attributes:
        reply_to_errors: post agent replies on detected problems.
        reply_to_questions: post QA answers into the room.
        reply_when_unanswered: apologise when QA finds nothing.
        max_replies_per_message: cap agent chatter per user message.
        supervise_teachers: also review teacher messages (off by
            default — the paper's agents supervise *learners*, and
            instructor material is often outside the learner grammar).
    """

    reply_to_errors: bool = True
    reply_to_questions: bool = True
    reply_when_unanswered: bool = True
    max_replies_per_message: int = 4
    supervise_teachers: bool = False


class SupervisionPipeline:
    """Binds the agents, QA system, corpus and profiles to a server.

    One pipeline instance is one worker's supervision state.  The
    ``parallel`` runtime calls :meth:`fork_shard` once per worker;
    :meth:`combined_stats` merges every fork's counters back into the
    global view on demand.
    """

    def __init__(
        self,
        learning_angel: LearningAngelAgent,
        semantic_agent: SemanticAgent,
        qa_system: QASystem,
        profiles: UserProfileStore,
        policy: SupervisionPolicy | None = None,
    ) -> None:
        self.learning_angel = learning_angel
        self.semantic_agent = semantic_agent
        self.qa_system = qa_system
        self.profiles = profiles
        self.policy = policy or SupervisionPolicy()
        self.stats = SupervisionStats()
        self.records = AnalysisRecordStore()
        self._forks: list["SupervisionPipeline"] = []
        # Shard-local mode (set by fork_shard): replicas + reply outbox.
        self.shard_stores: ShardStores | None = None
        self._reply_n = 0
        # Set by the system wiring: the shared ResilienceController whose
        # stage guards wrap the plan phase.  None = unguarded (plain
        # calls), which bare pipelines outside a system keep.
        self.resilience = None

    # ------------------------------------------------------------ sharding

    def fork_shard(self) -> tuple["SupervisionPipeline", ShardStores]:
        """A per-worker twin owning private store replicas.

        The twin's agents share every static collaborator (dictionary,
        parse options, keyword filter, ontology, matcher, parse cache),
        and the twin shares the analysis record store, but it writes to
        forked replicas of the corpus, profile and FAQ stores and
        buffers agent replies in the returned bundle's outbox.  Stats
        are private, merged via :meth:`combined_stats`.
        """
        corpus = self.learning_angel.corpus
        stores = ShardStores(
            corpus=corpus.fork() if corpus is not None else None,
            profiles=self.profiles.fork(),
            faq=self.qa_system.faq.fork(),
        )
        twin = SupervisionPipeline(
            self.learning_angel.fork(stores.corpus),
            self.semantic_agent,
            self.qa_system.fork(faq=stores.faq, corpus=stores.corpus),
            stores.profiles,
            self.policy,
        )
        twin.shard_stores = stores
        twin.records = self.records
        stores.pipeline = twin
        twin.resilience = self.resilience
        self._forks.append(twin)
        return twin, stores

    def combined_stats(self) -> SupervisionStats:
        """This pipeline's stats merged with every fork's (global view)."""
        if not self._forks:
            return self.stats
        return SupervisionStats.total([self.stats, *(f.stats for f in self._forks)])

    def worker_stats(self) -> list[SupervisionStats]:
        """Per-worker stats, prototype first (shard load inspection)."""
        return [self.stats, *(fork.stats for fork in self._forks)]

    # ------------------------------------------------------------ pipeline

    def on_message(self, server: ChatServer, message: ChatMessage) -> None:
        """Supervise one delivered user message (legacy entry point)."""
        room = server.get_room(message.room)
        participant = room.participants.get(message.sender)
        role = participant.role if participant is not None else None
        self.on_item(server, SupervisionItem(message, room, role))

    def on_item(
        self,
        server: ChatServer,
        item: SupervisionItem,
        memo: dict | None = None,
    ) -> None:
        """Supervise one work item; ``memo`` is a parallel cycle's
        suggestion memo (None elsewhere).

        Two phases.  **Plan** runs every sentence's fallible analysis —
        parsing, suggestion search, semantic review, QA resolution —
        under the resilience stage guards, touching no store.  **Commit**
        then applies the plans: counters, corpus records, profiles, FAQ
        bumps, replies.  The single :meth:`ResilienceController.
        guard_commit` crossing between the phases is the last point a
        fault can strike, so a failed item is always side-effect free
        and safe to retry, defer or redrive without double-counting.
        """
        message = item.message
        if message.kind != MessageKind.USER:
            return
        if not self.policy.supervise_teachers and item.sender_role == Role.TEACHER:
            return
        plans = [
            self._plan_sentence(message, index, sentence, memo)
            for index, sentence in enumerate(split_sentences(message.text))
        ]
        if self.resilience is not None:
            self.resilience.guard_commit(str(message.seq))
        if self.shard_stores is not None:
            # Tag this item's writes (corpus records, FAQ bumps, replies)
            # with the message's global seq so the barrier merge can
            # restore post order across shards.
            self.shard_stores.begin(message.seq)
            self._reply_n = 0
        self.stats.messages += 1
        replies_posted = 0
        for index, plan in enumerate(plans):
            replies_posted += self._commit_sentence(
                server, message, plan, index, replies_posted
            )

    def _guarded(self, stage: str, key: str, call: Callable):
        """``call()`` under the resilience stage guard, when one is wired."""
        if self.resilience is None:
            return call()
        return self.resilience.guard(stage, key, call)

    def _plan_sentence(
        self,
        message: ChatMessage,
        index: int,
        sentence: str,
        memo: dict | None,
    ) -> _SentencePlan:
        """Run one sentence's analysis under the stage guards.

        The guard key ``seq:index`` makes retry backoff deterministic
        per sentence; the guarded calls write nothing but the record
        store and the memo, both only with complete values, so
        re-invoking them after a transient fault is free of side
        effects by construction.
        """
        key = f"{message.seq}:{index}"
        record, review = self._guarded(
            "parser", key, lambda: self._analyze_sentence(sentence, memo)
        )
        if record.pattern.is_question:
            self._guarded("qa", key, lambda: self._resolve_question(record, sentence))
        elif review.is_correct:
            # Fill the lazy semantic review now (kept on the record), so
            # the commit phase's read is guaranteed fault-free.
            self._guarded("semantic", key, lambda: self._semantic_review(record))
        return _SentencePlan(record=record, review=review)

    def _record_key(self, sentence: str) -> tuple:
        """The analysis record key: everything a record's value reads.

        Agent identities make shard forks of one pipeline share records
        while an unrelated pipeline's agents never match; the dictionary
        version and ontology generations make an edit a cache miss.
        """
        return (
            self.learning_angel.analysis_key,
            id(self.semantic_agent),
            id(self.qa_system.matcher),
            self.learning_angel.analyzer.dictionary.version,
            self.semantic_agent.ontology.generation,
            # The agents normally share one ontology; this covers a QA
            # system wired to another.
            self.qa_system.ontology.generation,
            sentence,
        )

    def _analyze_sentence(
        self, sentence: str, memo: dict | None
    ) -> tuple[_AnalysisRecord, SyntaxReview]:
        """The sentence's record and this occurrence's syntax review.

        The record is built once per key — tokenise, classify, static
        review, with repairs for statements only — and enters the store
        complete.  A faulty statement then searches the learner corpus
        for a suggestion on every occurrence, because the corpus grows
        between posts.  In shard-local mode replica reads are frozen at
        the barrier snapshot, so the search is a pure function of
        (record, snapshot) for the cycle and the runtime's per-cycle
        ``memo`` shares it; its key carries the *base* corpus identity,
        which shard forks of one pipeline share.
        """
        key = self._record_key(sentence)
        record = self.records.get(key)
        if record is None:
            tokenized = tokenize(sentence)
            pattern = classify(tokenized)
            static = self.learning_angel.static_review(
                tokenized, pattern, repair=not pattern.is_question
            )
            record = self.records.add(key, _AnalysisRecord(tokenized, pattern, static))
        review = record.review
        if review.is_correct or record.pattern.is_question:
            return record, review
        stores = self.shard_stores
        if memo is None or stores is None or stores.corpus is None:
            return record, self.learning_angel.suggest(record.tokenized, review)
        memo_key = (id(stores.corpus.base), key)
        suggested = memo.get(memo_key)
        if suggested is None:
            suggested = memo[memo_key] = self.learning_angel.suggest(record.tokenized, review)
        return record, suggested

    def _semantic_review(self, record: _AnalysisRecord) -> SemanticReview:
        """The (lazily computed, record-held) semantic review of a statement."""
        semantic = record.semantic
        if semantic is not None:
            return semantic
        # Learning_Angel's keyword matches are reusable only when both
        # agents share one keyword filter (the default wiring).
        shared_keywords = (
            record.review.keywords
            if self.learning_angel.keyword_filter is self.semantic_agent.keyword_filter
            else None
        )
        semantic = self.semantic_agent.review(
            record.tokenized,
            syntactically_ok=True,
            analysis=record.pattern,
            keywords=shared_keywords,
        )
        record.semantic = semantic
        return semantic

    def _emit_reply(
        self,
        server: ChatServer,
        message: ChatMessage,
        agent: str,
        text: str,
        severity: str,
    ) -> None:
        """Post one agent reply — or, in shard-local mode, buffer it.

        Buffered replies carry ``(message seq, emission index)`` so the
        runtime's barrier flush restores the exact post order the
        sequential pipeline would have produced.
        """
        stores = self.shard_stores
        if stores is not None:
            stores.outbox.append(
                (message.seq, self._reply_n, message.room, agent, text, message, severity)
            )
            self._reply_n += 1
        else:
            server.post_agent_reply(message.room, agent, text, message, severity)

    def _commit_sentence(
        self,
        server: ChatServer,
        message: ChatMessage,
        plan: _SentencePlan,
        index: int,
        already_posted: int,
    ) -> int:
        """Apply one planned sentence: counters, stores, replies.

        Commits stamp the *message's post timestamp*, not the drain
        clock: a deferred, retried or redriven item must produce the
        exact records the fault-free run would have, and the drain time
        is the one input a fault changes.
        """
        self.stats.sentences += 1
        now = message.timestamp
        review = plan.review
        posted = 0

        if plan.record.pattern.is_question:
            posted += self._handle_question(
                server, message, plan, index, now, already_posted
            )
            return posted

        mistake_kinds: list[str] = []
        semantic_notes: list[str] = []
        verdict = Correctness.CORRECT

        if not review.is_correct:
            self.stats.syntax_errors += 1
            verdict = Correctness.SYNTAX_ERROR
            mistake_kinds = [issue.kind.value for issue in review.diagnosis.issues]
            if self.policy.reply_to_errors:
                for reply in review.as_replies():
                    if already_posted + posted >= self.policy.max_replies_per_message:
                        break
                    self._emit_reply(
                        server, message, reply.agent, reply.text, reply.severity.value
                    )
                    posted += 1
                    self.stats.agent_replies += 1
                    if reply.severity.value == "correction":
                        self.stats.corrections_suggested += 1
        else:
            semantic = self._semantic_review(plan.record)
            if semantic.verdict == SemanticVerdict.VIOLATION:
                self.stats.semantic_violations += 1
                verdict = Correctness.SEMANTIC_ERROR
            elif semantic.verdict == SemanticVerdict.MISCONCEPTION:
                self.stats.misconceptions += 1
                verdict = Correctness.SEMANTIC_ERROR
            if semantic.is_anomalous:
                semantic_notes = [
                    f"{pair.left}~{pair.right}" for pair in semantic.pairs if not pair.holds
                ]
                if self.policy.reply_to_errors:
                    for reply in semantic.as_replies():
                        if already_posted + posted >= self.policy.max_replies_per_message:
                            break
                        self._emit_reply(
                            server, message, reply.agent, reply.text, reply.severity.value
                        )
                        posted += 1
                        self.stats.agent_replies += 1
                        if reply.severity.value == "correction":
                            self.stats.corrections_suggested += 1

        self.learning_angel.record(
            review,
            user=message.sender,
            room=message.room,
            timestamp=now,
            verdict=verdict,
            semantic_issues=semantic_notes,
        )
        self.profiles.record_activity(
            message.sender,
            now,
            syntax_error=(verdict == Correctness.SYNTAX_ERROR),
            semantic_error=(verdict == Correctness.SEMANTIC_ERROR),
            question=False,
            mistake_kinds=tuple(mistake_kinds),
            topics=tuple(match.name for match in review.keywords),
        )
        return posted

    def _resolve_question(self, record: _AnalysisRecord, sentence: str) -> QAResolution:
        """The (lazily computed, record-held) resolution of a question.

        Template match plus lazy ontology answer, once per distinct
        question; the per-item apply (FAQ lookup and bump, corpus
        fallback) runs in the commit phase.
        """
        resolution = record.resolution
        if resolution is None:
            resolution = record.resolution = self.qa_system.resolve(sentence)
        return resolution

    def _handle_question(
        self,
        server: ChatServer,
        message: ChatMessage,
        plan: _SentencePlan,
        index: int,
        now: float,
        already_posted: int,
    ) -> int:
        review = plan.review
        self.stats.questions += 1
        # The origin (message seq, sentence index) keys FAQ merge order:
        # a redriven or backfilled question commits late, and the origin
        # is what keeps the FAQ's representative entry the one the
        # fault-free, in-order run would have kept.
        answer = self.qa_system.apply_resolution(
            plan.record.resolution, now=now, origin=(message.seq, index)
        )
        posted = 0
        if answer.answered:
            self.stats.questions_answered += 1
            if answer.is_faq_hit:
                self.stats.faq_hits += 1
            if (
                self.policy.reply_to_questions
                and already_posted < self.policy.max_replies_per_message
            ):
                self._emit_reply(server, message, QA_AGENT_NAME, answer.text, "info")
                posted += 1
                self.stats.agent_replies += 1
        elif (
            self.policy.reply_when_unanswered
            and already_posted < self.policy.max_replies_per_message
        ):
            self._emit_reply(
                server,
                message,
                QA_AGENT_NAME,
                "I could not find an answer to that in the course material.",
                "info",
            )
            posted += 1
            self.stats.agent_replies += 1

        self.learning_angel.record(
            review,
            user=message.sender,
            room=message.room,
            timestamp=now,
            verdict=Correctness.QUESTION,
        )
        self.profiles.record_activity(
            message.sender,
            now,
            question=True,
            topics=tuple(match.name for match in review.keywords),
        )
        return posted
