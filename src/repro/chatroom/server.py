"""The chat server: rooms, ordered delivery, supervision hand-off.

A deterministic, in-process stand-in for the paper's networked chat
service.  Delivery order is a single global sequence (total order), the
clock is simulated, and *supervisors* — the paper's always-online agents —
observe every user message after delivery and may post replies.

Supervision is scheduled by a :class:`SupervisionRuntime` rather than run
inline: ``post`` resolves the room once, delivers the message, and hands
a :class:`SupervisionItem` to the runtime.  The default runtime (queued,
single worker, drain-after-post) supervises each message before ``post``
returns; deferred-drain runtimes move agent work off the posting path
entirely (see :mod:`repro.chatroom.runtime`).
"""

from __future__ import annotations

from typing import Protocol

from .clock import SimulatedClock
from .events import AgentIntervened, EventBus, MessageDelivered, UserJoined, UserLeft
from .messages import ChatMessage, MessageKind, Role
from .room import ChatRoom, ChatRoomError
from .runtime import SupervisionRuntime
from .shard import SupervisionItem


class Supervisor(Protocol):
    """A supervision hook: sees each delivered user message."""

    def on_message(self, server: "ChatServer", message: ChatMessage) -> None:
        """React to a delivered user message (may post agent replies)."""


class ChatServer:
    """Rooms + total-order delivery + runtime-scheduled supervision."""

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        bus: EventBus | None = None,
        runtime: SupervisionRuntime | None = None,
        journal=None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.bus = bus or EventBus()
        self.runtime = runtime or SupervisionRuntime()
        self.rooms: dict[str, ChatRoom] = {}
        self._next_seq = 0
        # Duck-typed write-ahead journal (a DurabilityManager when the
        # system runs with a data dir): external inputs are logged after
        # validation but before they mutate anything, so the log always
        # holds a clean prefix of the input history.
        self.journal = journal

    @property
    def supervisors(self) -> tuple:
        """Registered supervisor prototypes (read-only back-compat
        accessor; register through :meth:`add_supervisor`)."""
        return self.runtime.supervisors

    # --------------------------------------------------------------- rooms

    def create_room(self, name: str, topic: str = "") -> ChatRoom:
        if name in self.rooms:
            raise ChatRoomError(f"room {name!r} already exists")
        if self.journal is not None:
            self.journal.room_created(name, topic, self.clock.now())
        room = ChatRoom(name=name, topic=topic)
        self.rooms[name] = room
        return room

    def get_room(self, name: str) -> ChatRoom:
        room = self.rooms.get(name)
        if room is None:
            raise ChatRoomError(f"no room named {name!r}")
        return room

    def join(self, room_name: str, user: str, role: Role = Role.STUDENT) -> bool:
        """Add (or re-role) a member; returns whether anything changed.

        Joining a room the user is already in under the same role is a
        pure no-op: nothing is journalled (re-joins used to bloat the
        WAL with duplicate events) and no ``UserJoined`` is published.
        Re-joining under a *different* role is a role change — it
        journals and publishes like a fresh join, and replay re-applies
        it, so a student promoted to teacher stays a teacher.
        """
        room = self.get_room(room_name)
        participant = room.participants.get(user)
        if participant is not None and participant.role is role:
            return False
        if self.journal is not None:
            self.journal.user_joined(room_name, user, role.value, self.clock.now())
        room.join(user, role, self.clock.now())
        self.bus.publish(UserJoined(room_name, user, role.value, self.clock.now()))
        return True

    def leave(self, room_name: str, user: str) -> bool:
        """Remove a member; returns whether the user was actually present.

        A non-member leave is a no-op everywhere: no journal event, no
        ``UserLeft`` on the bus (publishing it unconditionally used to
        diverge the bus history from WAL replay, which has always
        skipped non-member leaves).
        """
        room = self.get_room(room_name)
        if not room.is_member(user):
            return False
        if self.journal is not None:
            self.journal.user_left(room_name, user, self.clock.now())
        room.leave(user)
        self.bus.publish(UserLeft(room_name, user, self.clock.now()))
        return True

    # ------------------------------------------------------------ delivery

    def add_supervisor(self, supervisor: Supervisor) -> None:
        self.runtime.add_supervisor(supervisor)

    def post(
        self,
        room_name: str,
        sender: str,
        text: str,
        kind: MessageKind = MessageKind.USER,
        reply_to: int | None = None,
    ) -> ChatMessage:
        """Deliver a message to a room and schedule supervision for it.

        User messages require membership; agent/system messages do not
        (the agents are "constantly online" fixtures of every room).
        Delivery itself is O(1): supervision runs now, after this post,
        or at the next explicit drain, depending on the runtime mode.
        The room is resolved exactly once and threaded through the work
        item, so supervisors never repeat the lookup.
        """
        room = self.get_room(room_name)
        if kind == MessageKind.USER and not room.is_member(sender):
            raise ChatRoomError(f"{sender!r} is not in room {room_name!r}")
        message = ChatMessage(
            seq=self._next_seq,
            room=room_name,
            sender=sender,
            kind=kind,
            text=text,
            timestamp=self.clock.now(),
            reply_to=reply_to,
        )
        if self.journal is not None:
            # Write-ahead, in origin-seq order, before delivery and
            # before supervision; agent replies are filtered inside the
            # journal (replay regenerates them).
            self.journal.message_posted(message)
        self._next_seq += 1
        room.deliver(message)
        if kind == MessageKind.USER:
            participant = room.participants.get(sender)
            if participant is not None:
                participant.messages_sent += 1
        self.bus.publish(MessageDelivered(message))
        if kind == MessageKind.USER:
            role = participant.role if participant is not None else None
            self.runtime.submit(self, SupervisionItem(message, room, role))
        return message

    def drain_supervision(self) -> int:
        """Flush all queued supervision work (deferred-drain runtimes)."""
        if self.journal is not None and (
            self.runtime.pending
            or getattr(self.runtime.resilience, "has_backlog", False)
        ):
            # Journalled so replay drains at the same points the
            # original run did (supervision outcomes can depend on how
            # posts are batched into drain cycles).  A drain with an
            # empty queue still counts when deferred items are parked on
            # the controller: it ticks breaker cooldowns and may release
            # the backfill, which replay must reproduce.
            self.journal.drained(self.clock.now())
        return self.runtime.drain(self)

    @property
    def pending_supervision(self) -> int:
        """Messages delivered but not yet supervised."""
        return self.runtime.pending

    def post_agent_reply(
        self,
        room_name: str,
        agent: str,
        text: str,
        in_reply_to: ChatMessage,
        severity: str = "info",
    ) -> ChatMessage:
        """Post a supervising agent's reply (published as an intervention)."""
        message = self.post(
            room_name, agent, text, kind=MessageKind.AGENT, reply_to=in_reply_to.seq
        )
        self.bus.publish(
            AgentIntervened(
                room=room_name,
                agent=agent,
                severity=severity,
                in_reply_to=in_reply_to.seq,
                timestamp=self.clock.now(),
            )
        )
        return message

    # ------------------------------------------------------------- utility

    def role_of(self, room_name: str, user: str) -> Role | None:
        participant = self.get_room(room_name).participants.get(user)
        return participant.role if participant else None

    def total_messages(self) -> int:
        return self._next_seq
