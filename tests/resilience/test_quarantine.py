"""Quarantine rows: round-trips, item rebuilds, store operations."""

from __future__ import annotations

from repro.chatroom.clock import SimulatedClock
from repro.chatroom.events import EventBus
from repro.chatroom.messages import MessageKind, Role
from repro.chatroom.runtime import SupervisionRuntime
from repro.chatroom.server import ChatServer
from repro.chatroom.shard import SupervisionItem
from repro.resilience import QuarantinedItem, QuarantineStore
from repro.resilience.quarantine import rebuild_item


def make_server() -> ChatServer:
    server = ChatServer(SimulatedClock(), EventBus(), SupervisionRuntime())
    server.create_room("ds-101", "stacks")
    server.join("ds-101", "alice")
    return server


def make_row(**overrides) -> QuarantinedItem:
    fields = dict(
        seq=7,
        room="ds-101",
        sender="alice",
        text="stack the holds data.",
        timestamp=3.0,
        reply_to=None,
        sender_role="student",
        stage="parser",
        error="InjectedFault('boom')",
        attempts=3,
    )
    fields.update(overrides)
    return QuarantinedItem(**fields)


class TestRowRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        row = make_row()
        assert QuarantinedItem.from_dict(row.to_dict()) == row

    def test_from_dict_defaults_for_sparse_rows(self):
        row = QuarantinedItem.from_dict(
            {"seq": 1, "room": "r", "sender": "s", "text": "t", "ts": 0.0}
        )
        assert row.stage == "dispatch"
        assert row.attempts == 1
        assert row.sender_role is None

    def test_from_item_captures_message_and_role(self):
        server = make_server()
        message = server.post("ds-101", "alice", "What is a stack?")
        item = SupervisionItem(message, server.get_room("ds-101"), Role.STUDENT)
        row = QuarantinedItem.from_item(item, stage="qa", error="boom", attempts=2)
        assert row.seq == message.seq
        assert row.text == "What is a stack?"
        assert row.timestamp == message.timestamp
        assert row.sender_role == "student"
        assert (row.stage, row.error, row.attempts) == ("qa", "boom", 2)


class TestRebuildItem:
    def test_rebuild_is_field_exact(self):
        server = make_server()
        message = server.post("ds-101", "alice", "The stack is full.")
        item = SupervisionItem(message, server.get_room("ds-101"), Role.STUDENT)
        row = QuarantinedItem.from_item(item, stage="semantic")
        rebuilt = rebuild_item(server, row)
        assert rebuilt.message.seq == message.seq
        assert rebuilt.message.text == message.text
        assert rebuilt.message.timestamp == message.timestamp
        assert rebuilt.message.kind is MessageKind.USER
        assert rebuilt.room is server.get_room("ds-101")
        assert rebuilt.sender_role is Role.STUDENT

    def test_rebuild_without_role_snapshot(self):
        server = make_server()
        rebuilt = rebuild_item(server, make_row(sender_role=None))
        assert rebuilt.sender_role is None


class TestQuarantineStore:
    def test_add_get_remove(self):
        store = QuarantineStore()
        row = make_row()
        store.add(row)
        assert len(store) == 1
        assert 7 in store
        assert store.get(7) is row
        assert store.remove(7) is row
        assert store.remove(7) is None
        assert len(store) == 0

    def test_rows_are_seq_ordered(self):
        store = QuarantineStore()
        store.add(make_row(seq=9))
        store.add(make_row(seq=2))
        store.add(make_row(seq=5))
        assert [row.seq for row in store.rows()] == [2, 5, 9]

    def test_take_all_drains_in_order(self):
        store = QuarantineStore()
        store.add(make_row(seq=4))
        store.add(make_row(seq=1))
        taken = store.take_all()
        assert [row.seq for row in taken] == [1, 4]
        assert len(store) == 0

    def test_snapshot_restore_round_trip(self):
        store = QuarantineStore()
        store.add(make_row(seq=3))
        store.add(make_row(seq=8, stage="dispatch", error="x"))
        rows = store.snapshot()
        restored = QuarantineStore()
        restored.restore(rows)
        assert restored.snapshot() == rows
        # restore replaces, never merges
        restored.restore([])
        assert len(restored) == 0


class TestDeferredJournal:
    """Pool threads dead-letter with ``defer_journal``: the row lands in
    the quarantine store at once, and its journal write waits for the
    caller-thread flush at the drain barrier, in seq order.  The caller's
    thread (the ``queued`` executor) journals each row as it happens."""

    class JournalSpy:
        def __init__(self):
            self.rows = []

        def item_quarantined(self, row_dict):
            self.rows.append(row_dict)

    def controller(self):
        from repro.resilience.controller import ResilienceController

        controller = ResilienceController()
        controller.journal = self.JournalSpy()
        return controller

    def test_rows_journal_at_once_without_deferral(self):
        controller = self.controller()
        server = make_server()
        item = rebuild_item(server, make_row(seq=7))
        controller.on_item_failure(item, RuntimeError("boom"))
        assert [row["seq"] for row in controller.journal.rows] == [7]
        controller.flush_journal()  # nothing buffered: no second write
        assert [row["seq"] for row in controller.journal.rows] == [7]

    def test_rows_buffer_for_the_journal_flush(self):
        controller = self.controller()
        server = make_server()
        for seq in (9, 7):
            item = rebuild_item(server, make_row(seq=seq))
            controller.on_item_failure(item, RuntimeError("boom"), defer_journal=True)
        assert len(controller.quarantine) == 2
        assert controller.journal.rows == []  # buffered, not yet written
        controller.flush_journal()
        assert [row["seq"] for row in controller.journal.rows] == [7, 9]
