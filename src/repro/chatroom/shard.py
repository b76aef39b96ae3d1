"""Room-sharded supervision work queues and workers.

The supervision runtime (see :mod:`repro.chatroom.runtime`) decouples
message delivery from agent analysis: :meth:`~repro.chatroom.server.ChatServer.post`
enqueues a :class:`SupervisionItem` on a deterministic per-room-shard
queue, and :class:`SupervisionWorker` instances drain the queues in
batches.  Everything here is single-process and deterministic — the
sharding models the unit of horizontal scale (one worker per shard owns
that shard's pipeline state), while keeping runs replayable.

Shard assignment uses CRC-32 of the room name, **not** Python's
``hash()``: the builtin is salted per process, and shard placement must
be stable across runs for transcripts to be reproducible.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Protocol

from .messages import ChatMessage, Role
from .room import ChatRoom


def shard_of(room_name: str, shards: int) -> int:
    """Deterministic shard index of a room (stable across processes)."""
    if shards <= 1:
        return 0
    return zlib.crc32(room_name.encode("utf-8")) % shards


@dataclass(slots=True)
class SupervisionItem:
    """One unit of supervision work, captured at post time.

    The room is resolved once, in ``post`` — supervisors never repeat the
    ``get_room`` lookup — and the sender's role is snapshotted alongside,
    so a learner leaving (or being promoted) between post and a deferred
    drain cannot change how the message is judged.
    """

    message: ChatMessage
    room: ChatRoom
    sender_role: Role | None = None


@dataclass(slots=True, frozen=True)
class ShedEvent:
    """One supervision item dropped by a shard's backpressure bound.

    The shed *counter* says how much analysis was skipped; the event
    says **what** — room, seq and why — so operators can audit exactly
    which messages went unsupervised (the message itself was already
    delivered; only its agent analysis is skipped).
    """

    shard: int
    room: str
    seq: int
    reason: str = "backpressure"

    def to_dict(self) -> dict:
        return {"shard": self.shard, "room": self.room, "seq": self.seq, "reason": self.reason}


class ItemSupervisor(Protocol):
    """A supervisor that accepts resolved work items (the fast path)."""

    def on_item(self, server, item: SupervisionItem, memo: dict | None = None) -> None:
        """React to one delivered user message with its room resolved."""


def dispatch(supervisor, server, item: SupervisionItem, memo: dict | None) -> None:
    """Deliver one item to a supervisor, newest protocol first.

    Rich supervisors (the pipeline) take the resolved item plus the
    ``parallel`` cycle's suggestion memo; plain observers keep the original
    ``on_message(server, message)`` protocol.
    """
    handler = getattr(supervisor, "on_item", None)
    if handler is not None:
        handler(server, item, memo=memo)
    else:
        supervisor.on_message(server, item.message)


class ShardQueue:
    """FIFO queue of pending supervision items for one shard.

    Args:
        max_pending: backpressure bound.  ``None`` (the default) keeps
            the queue unbounded; with a bound, pushing into a full queue
            *sheds the oldest* pending item — under overload, stale
            messages are the right ones to skip supervising, and the
            freshest traffic is what the agents should react to.  Shed
            items were already delivered to their rooms; only their
            agent analysis is skipped, and :attr:`shed` counts them.
    """

    __slots__ = ("items", "max_pending", "shed", "shard", "shed_events")

    #: Shed events kept per shard for operator reports; bounded so a
    #: pathologically overloaded queue can't trade message memory for
    #: audit-trail memory.
    SHED_EVENT_KEEP = 64

    def __init__(self, max_pending: int | None = None, shard: int = 0) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.items: deque[SupervisionItem] = deque()
        self.max_pending = max_pending
        self.shed = 0
        self.shard = shard
        self.shed_events: deque[ShedEvent] = deque(maxlen=self.SHED_EVENT_KEEP)

    def push(self, item: SupervisionItem) -> None:
        if self.max_pending is not None and len(self.items) >= self.max_pending:
            dropped = self.items.popleft()
            self.shed += 1
            self.shed_events.append(
                ShedEvent(self.shard, dropped.message.room, dropped.message.seq)
            )
        self.items.append(item)

    def take(self, max_items: int) -> list[SupervisionItem]:
        """Pop up to ``max_items`` from the front, FIFO."""
        items = self.items
        batch: list[SupervisionItem] = []
        while items and len(batch) < max_items:
            batch.append(items.popleft())
        return batch

    def requeue_front(self, items: list[SupervisionItem]) -> None:
        """Put already-popped items back at the front, order preserved.

        Used when a batch fails mid-way: the unprocessed tail goes back
        to be supervised by the next drain.  Bypasses the backpressure
        bound — these items were admitted once; shedding them here would
        double-count."""
        self.items.extendleft(reversed(items))

    def __len__(self) -> int:
        return len(self.items)


class SupervisionWorker:
    """Drains one shard's queue through this worker's supervisors.

    A worker is *stateless between batches*: all durable state lives in
    the stores its supervisors write to — the shared stores in
    ``queued`` mode, per-worker shard replicas merged at the barrier in
    ``parallel`` mode — plus the supervisors' own counters.  Each
    ``parallel`` worker gets its own shard forks with private stats, so
    N workers never contend on one stats object and per-shard load is
    observable.
    """

    __slots__ = ("index", "queue", "supervisors", "processed", "unprocessed")

    def __init__(self, index: int, max_pending: int | None = None) -> None:
        self.index = index
        self.queue = ShardQueue(max_pending, shard=index)
        self.supervisors: list = []
        self.processed = 0
        #: Tail of a failed batch (set when :meth:`process_batch`
        #: raises; requeued by the runtime on the caller's thread).
        self.unprocessed: list[SupervisionItem] = []

    def enqueue(self, item: SupervisionItem) -> None:
        self.queue.push(item)

    @property
    def pending(self) -> int:
        return len(self.queue)

    @property
    def shed(self) -> int:
        """Items dropped by this shard's backpressure bound."""
        return self.queue.shed

    def take_batch(self, max_items: int) -> list[SupervisionItem]:
        """Pop this worker's next drain batch (caller-thread only: the
        parallel runtime keeps all queue mutation off worker threads)."""
        return self.queue.take(max_items)

    def supervise_item(
        self,
        server,
        item: SupervisionItem,
        memo: dict | None,
        resilience,
        defer_journal: bool = False,
    ) -> bool:
        """Supervise one item under the resilience controller.

        Returns True when the item is *handled* — fully supervised or
        dead-lettered into quarantine — and False when the controller
        deferred it (degraded mode; the item is parked on the deferred
        ledger, not lost, and the runtime releases it later).  Ordinary
        ``Exception``s never escape: a supervisor that raises routes
        its item to quarantine and the drain continues.  Simulated
        crashes (``BaseException``) still propagate — a dying process
        must not be mistaken for a poison item.
        """
        if resilience is None:
            for supervisor in self.supervisors:
                dispatch(supervisor, server, item, memo)
            return True
        replayed = resilience.consume_replay(item.message.seq)
        if replayed is not None:
            # Recovery replay: the WAL says this supervision attempt
            # ended in quarantine — reproduce it without re-analysis.
            resilience.quarantine_replayed(replayed)
            return True
        if not resilience.admit(item):
            return False
        try:
            for supervisor in self.supervisors:
                dispatch(supervisor, server, item, memo)
        except Exception as error:
            resilience.on_item_failure(item, error, defer_journal=defer_journal)
            return True
        resilience.on_item_success(item)
        return True

    def process_batch(
        self,
        server,
        items: list[SupervisionItem],
        memo: dict | None = None,
        resilience=None,
        defer_journal: bool = False,
    ) -> int:
        """Run one popped batch through this worker's supervisors.

        Returns the number of items *handled* (supervised or
        quarantined); deferred items don't count — they are parked on
        the controller until the runtime releases them.  Supervisor
        errors are absorbed per item by :meth:`supervise_item`, so a
        batch only aborts on a simulated crash — in which case the
        unprocessed tail is stashed on :attr:`unprocessed` for the
        runtime to requeue.  ``defer_journal`` buffers quarantine rows
        for the barrier flush; pool threads set it, because the event
        log is written from the caller's thread only.
        """
        handled = 0
        done = 0
        try:
            for item in items:
                if self.supervise_item(server, item, memo, resilience, defer_journal):
                    handled += 1
                done += 1
        except BaseException:
            self.unprocessed = items[done + 1:]
            self.processed += handled
            raise
        self.processed += handled
        return handled
