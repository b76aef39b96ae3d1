"""The drain loop's cycle contract, for both executors.

``SupervisionRuntime.drain`` runs one loop of barrier-separated cycles
whatever the mode; ``queued`` runs a cycle's batches on the caller's
thread and ``parallel`` runs them on the thread pool.  Everything this
suite pins must therefore hold for every executor alike:

* a drain returns the number of items handled and leaves nothing
  pending; a second drain is a no-op;
* every registered supervisor sees every item exactly once;
* a supervisor error costs exactly the failing item (it dead-letters
  into quarantine) and the rest of the batch is supervised;
* a simulated crash aborts the cycle, the unfinished tail goes back to
  the front of its queue, and a retried drain supervises it;
* items posted *during* a drain are taken by a later cycle of the same
  drain;
* ``batch_size`` bounds every cycle, with one barrier per cycle;
* barrier observers see items in post order;
* supervisors registered between drains serve the items posted after.
"""

from __future__ import annotations

import pytest

from repro.chatroom import ChatServer, SupervisionRuntime
from repro.durability import SimulatedCrash

#: Runtime keyword arguments per executor; every one drains explicitly.
EXECUTORS = {
    "queued": dict(mode="queued", auto_drain=False),
    "parallel-1": dict(mode="parallel", shards=1),
    "parallel-3": dict(mode="parallel", shards=3),
}


class _Stores:
    """A shard-store bundle with nothing to merge and no replies."""

    def merge(self):
        pass

    def rebase(self):
        pass

    def take_replies(self):
        return []


class Recorder:
    """Records the texts it supervises; ``boom`` raises an ordinary
    error and ``crash`` a simulated process crash.

    ``queued`` runs the recorder itself; ``parallel`` runs the
    ``fork_shard`` twins, which record into the same list.
    """

    def __init__(self):
        self.seen: list[str] = []

    def on_item(self, server, item, memo=None):
        text = item.message.text
        if "crash" in text:
            raise SimulatedCrash("worker died mid-batch")
        if "boom" in text:
            raise RuntimeError("supervisor blew up")
        self.seen.append(text)

    def fork_shard(self):
        return _Fork(self), _Stores()


class _Fork:
    def __init__(self, outer: Recorder):
        self.outer = outer

    def on_item(self, server, item, memo=None):
        self.outer.on_item(server, item, memo)


class SeqSpy:
    """A plain observer (no ``fork_shard``): the parallel runtime
    dispatches it at the barrier, the queued one inline."""

    def __init__(self):
        self.seqs: list[int] = []
        self.texts: list[str] = []

    def on_message(self, server, message):
        self.seqs.append(message.seq)
        self.texts.append(message.text)


@pytest.fixture(params=list(EXECUTORS))
def runtime(request):
    runtime = SupervisionRuntime(**EXECUTORS[request.param])
    yield runtime
    runtime.close()


def make_server(runtime, rooms=("r",)) -> ChatServer:
    server = ChatServer(runtime=runtime)
    for room in rooms:
        server.create_room(room)
        server.join(room, "u")
    return server


def test_drain_returns_handled_count_and_empties_the_queues(runtime):
    server = make_server(runtime, ("a", "b"))
    recorder = Recorder()
    server.add_supervisor(recorder)
    for index in range(5):
        server.post("ab"[index % 2], "u", f"note {index}")
    assert runtime.pending == 5
    assert recorder.seen == []
    assert server.drain_supervision() == 5
    assert runtime.pending == 0
    assert server.drain_supervision() == 0


def test_every_supervisor_sees_every_item_once(runtime):
    rooms = ("a", "b", "c", "d")
    server = make_server(runtime, rooms)
    first, second = Recorder(), Recorder()
    server.add_supervisor(first)
    server.add_supervisor(second)
    texts = [f"{room} {index}" for index in range(3) for room in rooms]
    for text in texts:
        server.post(text.split()[0], "u", text)
    server.drain_supervision()
    assert sorted(first.seen) == sorted(texts)
    assert sorted(second.seen) == sorted(texts)
    assert sum(runtime.worker_loads()) == len(texts)


def test_failed_item_dead_letters_and_batch_continues(runtime):
    server = make_server(runtime)
    recorder = Recorder()
    server.add_supervisor(recorder)
    posted = {text: server.post("r", "u", text) for text in ("alpha", "boom", "gamma", "delta")}
    assert server.drain_supervision() == 4  # no raise: the drain survives
    assert recorder.seen == ["alpha", "gamma", "delta"]
    assert runtime.pending == 0
    quarantine = runtime.resilience.quarantine
    assert len(quarantine) == 1
    row = quarantine.get(posted["boom"].seq)
    assert row is not None
    assert row.text == "boom"
    assert "supervisor blew up" in row.error


def test_simulated_crash_requeues_the_unfinished_tail(runtime):
    server = make_server(runtime)
    recorder = Recorder()
    server.add_supervisor(recorder)
    for text in ("alpha", "crash", "gamma", "delta"):
        server.post("r", "u", text)
    with pytest.raises(SimulatedCrash):
        server.drain_supervision()
    # The crashing item went down with the "process"; the tail behind it
    # is back at the front of the queue, not quarantined.
    assert recorder.seen == ["alpha"]
    assert runtime.pending == 2
    assert len(runtime.resilience.quarantine) == 0
    assert server.drain_supervision() == 2
    assert recorder.seen == ["alpha", "gamma", "delta"]
    assert runtime.pending == 0


def test_items_posted_during_a_drain_join_a_later_cycle(runtime):
    class Echo(SeqSpy):
        def on_message(self, server, message):
            super().on_message(server, message)
            if message.text == "ping":
                server.post(message.room, "u", "pong")

    server = make_server(runtime)
    echo = Echo()
    server.add_supervisor(echo)
    server.post("r", "u", "ping")
    assert server.drain_supervision() == 2
    assert echo.texts == ["ping", "pong"]
    assert runtime.pending == 0
    assert [m.text for m in server.get_room("r").transcript] == ["ping", "pong"]


def test_batch_size_bounds_every_cycle(runtime):
    runtime.batch_size = 2
    server = make_server(runtime)
    server.add_supervisor(Recorder())
    cycles: list[int] = []
    barrier = runtime._barrier

    def counting_barrier(server, batches):
        cycles.append(sum(len(batch) for batch in batches))
        barrier(server, batches)

    runtime._barrier = counting_barrier
    for index in range(5):
        server.post("r", "u", f"note {index}")
    assert server.drain_supervision() == 5
    assert cycles == [2, 2, 1]


def test_observers_see_items_in_post_order(runtime):
    rooms = ("a", "b", "c", "d")
    server = make_server(runtime, rooms)
    spy = SeqSpy()
    server.add_supervisor(spy)
    expected = [server.post(room, "u", "hello").seq for room in rooms * 2]
    server.drain_supervision()
    assert spy.seqs == expected


def test_supervisor_added_between_drains_serves_later_items(runtime):
    server = make_server(runtime)
    early = Recorder()
    server.add_supervisor(early)
    server.post("r", "u", "one")
    server.drain_supervision()  # the parallel pool is warm from here on
    late = Recorder()
    server.add_supervisor(late)
    server.post("r", "u", "two")
    server.drain_supervision()
    assert early.seen == ["one", "two"]
    assert late.seen == ["two"]


def test_close_is_idempotent_after_a_drain(runtime):
    server = make_server(runtime)
    server.add_supervisor(Recorder())
    server.post("r", "u", "alpha")
    server.drain_supervision()
    runtime.close()
    runtime.close()
    assert runtime._executor is None
