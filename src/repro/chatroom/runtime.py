"""The supervision runtime: how agent analysis is scheduled.

``ChatServer.post`` delivers a message and hands a
:class:`SupervisionItem` to the runtime; the runtime decides when the
supervising agents run and who owns the mutable stores while they do.
Every drain runs the same barrier-cycle loop (:meth:`SupervisionRuntime.
drain`); the two modes differ only in where a cycle's batches execute:

``queued`` (default)
    One worker runs the registered supervisors themselves, writing to
    the shared corpus, profile and FAQ stores, on the caller's thread.
    With ``auto_drain`` (the default) the queue is drained right after
    each post; with ``auto_drain=False`` the caller drains explicitly
    and posting cost is independent of supervision work.  This is the
    serial reference every other schedule is checked against.

``parallel``
    Rooms are assigned to N shards by CRC-32; every shard's worker runs
    :meth:`~repro.chatroom.supervisor.SupervisionPipeline.fork_shard`
    twins that write to private replicas of the stores (see
    :mod:`repro.state`), and a cycle's batches run on a
    ``ThreadPoolExecutor``.  At the barrier the replicas merge back
    (deterministic in any merge order — writes carry their origin seq),
    the buffered agent replies flush in post order and the replicas
    re-snapshot.  Suggestion searches read the barrier snapshot, so a
    per-cycle memo shares each faulty sentence's suggestion across
    rooms and threads, and the merged state is identical whatever the
    thread interleaving.

In both modes each pipeline's analysis record store (see
:mod:`repro.chatroom.supervisor`) analyses every distinct utterance
once, across drains, cycles and worker threads.

``queued`` is deterministic by construction; ``parallel`` is
deterministic in *outcome* (merged stores, stats, transcripts) for a
fixed post/drain schedule, whatever the scheduler does.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from .shard import SupervisionItem, SupervisionWorker, dispatch, shard_of

RUNTIME_MODES = ("queued", "parallel")


@dataclass(frozen=True, slots=True)
class DrainBudget:
    """When a deferred-mode system should drain itself.

    Attributes:
        max_pending_posts: drain once this many supervision items are
            pending (post-count trigger).
        max_interval: drain once this much *virtual* clock time has
            passed since the last drain (interval trigger — the system
            clock only advances on posts, so this never needs a timer
            thread).

    Both triggers are optional; either firing is enough.  A budget with
    neither set never fires (explicit-drain behaviour).  The serving
    layer depends on this: an HTTP front door posts O(1) and lets the
    budget schedule the analysis work, no caller ``drain()`` required.
    """

    max_pending_posts: int | None = None
    max_interval: float | None = None

    def __post_init__(self) -> None:
        if self.max_pending_posts is not None and self.max_pending_posts < 1:
            raise ValueError("max_pending_posts must be >= 1 (or None)")
        if self.max_interval is not None and self.max_interval <= 0:
            raise ValueError("max_interval must be > 0 (or None)")

    def due(self, pending: int, elapsed: float) -> bool:
        """Whether a drain should fire for this backlog/elapsed pair."""
        if self.max_pending_posts is not None and pending >= self.max_pending_posts:
            return True
        if self.max_interval is not None and elapsed >= self.max_interval:
            return True
        return False


class SupervisionRuntime:
    """Schedules supervision work for a :class:`ChatServer`.

    Args:
        mode: ``queued`` or ``parallel`` (see module docs).
        shards: number of room shards / workers (``parallel`` only;
            ``queued`` always runs a single worker).
        batch_size: max items one worker takes per drain cycle (the
            per-worker batch between barriers).
        auto_drain: drain after every submitted item.  Defaults to True
            for ``queued`` (synchronous semantics) and False for
            ``parallel`` (callers drain explicitly, posting is O(1)).
        max_pending: per-shard queue bound.  ``None`` = unbounded; with
            a bound, an overloaded shard sheds its *oldest* pending item
            on push (see :class:`~repro.chatroom.shard.ShardQueue`).
            Shed totals surface via :meth:`shed_counts` / :attr:`shed`.
    """

    def __init__(
        self,
        mode: str = "queued",
        shards: int = 1,
        batch_size: int = 64,
        auto_drain: bool | None = None,
        max_pending: int | None = None,
        resilience=None,
    ) -> None:
        if mode not in RUNTIME_MODES:
            raise ValueError(f"unknown runtime mode {mode!r}; expected one of {RUNTIME_MODES}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode == "queued":
            shards = 1
        self.mode = mode
        self.batch_size = batch_size
        self.auto_drain = (mode == "queued") if auto_drain is None else auto_drain
        self.max_pending = max_pending
        self.workers = [SupervisionWorker(index, max_pending) for index in range(shards)]
        if resilience is None:
            # Every runtime gets a controller: a supervisor error must
            # dead-letter its item instead of aborting the drain, even
            # on a bare runtime nobody wired fault policies into.
            # Imported lazily — the resilience package depends on this
            # module's siblings, never the other way around at import.
            from repro.resilience.controller import ResilienceController

            resilience = ResilienceController()
        self.resilience = resilience
        self._prototypes: list = []
        self._draining = False
        # Parallel mode: every worker's shard-store bundles (replicas +
        # outboxes) in worker order, supervisors without fork support
        # (dispatched at the barrier on the caller's thread), and the
        # lazily built pool.
        self._bindings: list = []
        self._barrier_supervisors: list = []
        self._executor: ThreadPoolExecutor | None = None

    # --------------------------------------------------------- supervisors

    @property
    def supervisors(self) -> tuple:
        """The registered supervisor prototypes.

        A tuple on purpose: the pre-runtime ``server.supervisors.append``
        registration pattern must fail loudly — appended supervisors
        would never be dispatched.  Use :meth:`add_supervisor`.
        """
        return tuple(self._prototypes)

    def add_supervisor(self, supervisor) -> None:
        """Register a supervisor across all workers.

        ``queued``: the single worker runs the object itself.

        ``parallel``: *every* worker gets a ``fork_shard()`` twin owning
        private store replicas — the prototype itself never runs on a
        pool thread.  Supervisors without ``fork_shard`` are dispatched
        at the drain barrier on the caller's thread, in post order,
        after the merge.
        """
        self._prototypes.append(supervisor)
        if self.mode == "queued":
            self.workers[0].supervisors.append(supervisor)
            return
        fork = getattr(supervisor, "fork_shard", None)
        if fork is None:
            self._barrier_supervisors.append(supervisor)
            return
        for worker in self.workers:
            shard_pipeline, stores = fork()
            worker.supervisors.append(shard_pipeline)
            self._bindings.append(stores)

    # ------------------------------------------------------------ schedule

    def submit(self, server, item: SupervisionItem) -> None:
        """Hand one delivered user message to the runtime."""
        self.workers[shard_of(item.room.name, len(self.workers))].enqueue(item)
        # A supervisor posting user-visible follow-ups during a drain must
        # not recurse; the outer drain loop picks the new item up.
        if self.auto_drain and not self._draining:
            self.drain(server)

    def drain(self, server) -> int:
        """Drain every queue to empty; returns the number of items handled.

        One loop of barrier-separated cycles serves both modes.  Each
        cycle releases the deferred items the breakers allow back, takes
        every worker's next batch (queues are only touched on the
        caller's thread), runs the batches — inline for ``queued``, on
        the pool for ``parallel`` — and then, at the barrier, merges and
        rebases the store replicas, flushes the buffered agent replies in
        post order, journals pool-buffered quarantine rows and hands the
        barrier supervisors the cycle's items in post order.  Items
        enqueued *during* the drain (a supervisor-triggered post) are
        taken by a later cycle.  The drain ends when the queues are
        empty and the last cycle handled nothing.

        ``parallel`` cycles each get a fresh suggestion memo: its
        entries were computed against that cycle's snapshot.  ``queued``
        needs none; its suggestion searches read the live corpus.
        """
        if self._draining:
            return 0
        self._draining = True
        resilience = self.resilience
        pool = self._pool() if self.mode == "parallel" else None
        done = 0
        try:
            # One drain = one cooldown tick for open breakers, so a
            # degraded system heals from drain traffic alone even when
            # no new messages arrive to tick it via admission.
            resilience.on_drain()
            while True:
                released = resilience.take_releasable()
                if released:
                    self.requeue_items(released)
                batches = [worker.take_batch(self.batch_size) for worker in self.workers]
                if not any(batches):
                    return done
                handled = self._run_batches(server, pool, batches)
                self._barrier(server, batches)
                done += handled
                if not handled and not self.pending:
                    # Everything this cycle took was parked on the
                    # deferred ledger: releasing it again now would
                    # hammer a stage whose breaker just refused it.
                    return done
        finally:
            self._draining = False

    def _run_batches(self, server, pool, batches: list) -> int:
        """Run one cycle's batches; returns the items handled.

        A batch only aborts on a simulated crash; the first such error
        is re-raised after every failed batch's unfinished tail is back
        at the front of its queue, so a retried drain supervises it.
        The replicas stay unmerged then: their buffered writes carry
        origin tags and fold in at the next successful barrier.
        """
        resilience = self.resilience
        try:
            if pool is None:
                return sum(
                    worker.process_batch(server, batch, None, resilience)
                    for worker, batch in zip(self.workers, batches)
                    if batch
                )
            # Quarantine rows of pool threads are journaled at the
            # barrier: the event log is not thread-safe.
            memo: dict = {}
            futures = [
                pool.submit(worker.process_batch, server, batch, memo, resilience, True)
                for worker, batch in zip(self.workers, batches)
                if batch
            ]
            # Every batch must finish before the barrier lifts — even when
            # one fails.  Re-raising while a sibling batch still runs would
            # let a retried drain() hand that worker's replica to the pool
            # while the old thread is still writing it.
            wait(futures)
            return sum(future.result() for future in futures)
        finally:
            for worker in self.workers:
                if worker.unprocessed:
                    worker.queue.requeue_front(worker.unprocessed)
                    worker.unprocessed = []

    def _barrier(self, server, batches: list) -> None:
        """Fold one finished cycle into the shared state, caller's thread."""
        bindings = self._bindings
        if bindings:
            for stores in bindings:
                stores.merge()
            for stores in bindings:
                stores.rebase()
            replies = [reply for stores in bindings for reply in stores.take_replies()]
            replies.sort(key=lambda reply: (reply[0], reply[1]))
            for _seq, _n, room, agent, text, message, severity in replies:
                server.post_agent_reply(room, agent, text, message, severity)
        resilience = self.resilience
        resilience.flush_journal()
        if self._barrier_supervisors:
            deferred = resilience.deferred_seqs()
            items = sorted(
                (
                    item
                    for batch in batches
                    for item in batch
                    if item.message.seq not in deferred
                ),
                key=lambda item: item.message.seq,
            )
            for item in items:
                for supervisor in self._barrier_supervisors:
                    dispatch(supervisor, server, item, None)

    def _pool(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            executor = self._executor = ThreadPoolExecutor(
                max_workers=len(self.workers),
                thread_name_prefix="supervision-shard",
            )
        return executor

    def requeue_items(self, items: list[SupervisionItem]) -> None:
        """Put items back at the front of their shards' queues, in seq
        order — released deferred work, redriven quarantine rows and
        snapshot-restored backlog all re-enter here.  Front placement
        keeps global commit order: re-entering items always predate
        whatever is still queued behind them."""
        if not items:
            return
        shards = len(self.workers)
        by_shard: dict[int, list[SupervisionItem]] = {}
        for item in sorted(items, key=lambda item: item.message.seq):
            by_shard.setdefault(shard_of(item.room.name, shards), []).append(item)
        for index, group in by_shard.items():
            self.workers[index].queue.requeue_front(group)

    # ------------------------------------------------------------- reports

    @property
    def pending(self) -> int:
        """Queued items not yet supervised (0 between posts under auto-drain)."""
        return sum(worker.pending for worker in self.workers)

    @property
    def shards(self) -> int:
        return len(self.workers)

    def worker_loads(self) -> list[int]:
        """Items processed per worker (shard balance diagnostics)."""
        return [worker.processed for worker in self.workers]

    def shed_counts(self) -> list[int]:
        """Items shed per shard by the backpressure bound."""
        return [worker.shed for worker in self.workers]

    def shed_events(self) -> list:
        """Structured shed events across all shards, in message order.

        Each event names the dropped message (room, seq) and the reason,
        so the supervisor report and ``health`` can show *what* went
        unsupervised, not just how much (bounded per shard — see
        :attr:`~repro.chatroom.shard.ShardQueue.SHED_EVENT_KEEP`).
        """
        events = [
            event for worker in self.workers for event in worker.queue.shed_events
        ]
        events.sort(key=lambda event: event.seq)
        return events

    @property
    def shed(self) -> int:
        """Total items shed across all shards (0 when unbounded)."""
        return sum(worker.shed for worker in self.workers)

    def close(self) -> None:
        """Shut the ``parallel`` worker pool down (idempotent; ``queued``
        has nothing to release)."""
        executor = self._executor
        if executor is not None:
            self._executor = None
            executor.shutdown(wait=True)
