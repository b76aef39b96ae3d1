"""One repetition of the ``served`` workload: an HTTP client.

Usage (normally spawned by ``run.py``)::

    python3 classbench/served.py --trace-file T --rate R --closed N
        --work-dir D --out R.json [--traced]

Starts ``python -m repro serve --port 0 --data-dir D/data`` (the CLI's
durable defaults) and replays the trace's setup and then its untimed
warm-up over one keep-alive connection.  The timed operations then go
out on that connection in two phases:

* open loop: each at its scheduled instant (``i / rate`` after the
  start), while a second keep-alive connection long-polls transcripts
  for the agents' replies.  Reply latencies count from the scheduled
  instant, so a stalled server also charges the requests queued behind
  the stall; they are reported beside the metrics, as measured.
* closed loop: the operations from the ``N``-th last post on, back to
  back; their posts over the phase's time are the server's capacity,
  their round trips the supervision latencies, and the round trips of
  those that drew a reply the reply latencies.  Their replies are read
  back afterwards, untimed.

Every question must draw a QA reply.  Afterwards the live state is read
back, the server is killed with SIGKILL (a crash: no clean shutdown, no
final snapshot) and ``ELearningSystem.recover`` is timed on its data
directory in a fresh interpreter (``recover.py``), whose state must equal
the live one.  Set-up and the closed loop's times are scaled to the
reference host speed (see ``common.host_speed``), probed at the ends of
set-up and between closed-loop chunks while neither the reader nor the
server runs; the unscaled figures are reported beside them.
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

REPLY_TIMEOUT_S = 20.0
POLL_WAIT_S = 1.0
CLOSED_CHUNK = 200  # closed-loop posts between host-speed probes


class Client:
    """One keep-alive connection speaking the serving layer's JSON."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def send(client: Client, op: dict) -> tuple[int, dict]:
    kind = op["op"]
    room = op.get("room")
    if kind == "post":
        return client.call("POST", f"/rooms/{room}/messages", {"user": op["user"], "text": op["text"]})
    if kind == "join":
        return client.call("POST", f"/rooms/{room}/join", {"user": op["user"], "role": op["role"]})
    if kind == "leave":
        return client.call("POST", f"/rooms/{room}/leave", {"user": op["user"]})
    if kind == "create":
        return client.call("POST", "/rooms", {"name": room, "topic": op["topic"]})
    raise ValueError(f"served traces carry no {kind!r} operations")


class ReplyReader(threading.Thread):
    """Long-polls the rooms for the agents' replies to every timed post.

    A post's supervision, replies included, finishes under the gateway's
    admission lock before any read can see the post, so the first page
    that shows a learner's message also shows every reply it drew.
    """

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.client = Client(port)
        self.lock = threading.Condition()
        # (room, seq) -> (due instant, is a question, the post's key in
        # the open loop or None when untimed), until read back.
        self.outstanding: dict[tuple[str, int], tuple[float, bool, int | None]] = {}
        # (room, seq) -> (instant its first reply was read or None, drew a
        # QA reply), for posts read before the writer registered them.
        self.seen: dict[tuple[str, int], tuple[float | None, bool]] = {}
        self.cursor: dict[str, int] = {}
        self.latencies: list[tuple[int, float, float]] = []  # (key, due, latency)
        self.replied: set[tuple[str, int]] = set()  # (room, seq) of posts that drew a reply
        self.replies = 0  # posts whose replies were read back
        self.unanswered = 0
        self.reads = 0
        self.read_s = 0.0
        self.errors = 0
        self.stopping = False

    def expect(self, room: str, seq: int, due: float, question: bool, key: int | None = None) -> None:
        with self.lock:
            seen = self.seen.pop((room, seq), None)
            if seen is None:
                self.outstanding[(room, seq)] = (due, question, key)
                self.lock.notify()
            else:
                self._settle(due, question, key, *seen)

    def _settle(self, due: float, question: bool, key: int | None, replied_at: float | None, qa: bool) -> None:
        if replied_at is not None:
            self.replies += 1
            if key is not None:
                self.latencies.append((key, due, replied_at - due))
        if question and not qa:
            self.unanswered += 1

    def wait_idle(self) -> None:
        """Wait until every expected post has been read back (or give up)."""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while time.monotonic() < deadline:
            with self.lock:
                if not self.outstanding:
                    return
            time.sleep(0.01)

    def run(self) -> None:
        while True:
            with self.lock:
                while not self.outstanding and not self.stopping:
                    self.lock.wait()
                if not self.outstanding:
                    return
                room = min(self.outstanding.items(), key=lambda kv: kv[1][0])[0][0]
            since = self.cursor.get(room, -1)
            start = time.perf_counter()
            try:
                status, page = self.client.call(
                    "GET", f"/rooms/{room}/transcript?since={since}&wait={POLL_WAIT_S}"
                )
            except (OSError, http.client.HTTPException):
                self.errors += 1
                time.sleep(0.01)
                continue
            now = time.perf_counter()
            self.reads += 1
            self.read_s += now - start
            if status != 200:
                self.errors += 1
                continue
            self.cursor[room] = page["next"]
            replies: dict[int, bool] = {}  # replied-to seq -> a QA reply among them
            for message in page["messages"]:
                if message["kind"] == "agent" and message["reply_to"] is not None:
                    qa = message["sender"] == common.QA_AGENT
                    replies[message["reply_to"]] = replies.get(message["reply_to"], False) or qa
            with self.lock:
                self.replied.update((room, seq) for seq in replies)
                for message in page["messages"]:
                    if message["kind"] != "user":
                        continue
                    seq = message["seq"]
                    info = (now if seq in replies else None, replies.get(seq, False))
                    pending = self.outstanding.pop((room, seq), None)
                    if pending is None:
                        self.seen[(room, seq)] = info
                    else:
                        self._settle(*pending, *info)

    def stop(self) -> None:
        with self.lock:
            self.stopping = True
            self.lock.notify()


def start_server(data_dir: Path, traced_dump: Path | None) -> tuple[subprocess.Popen, int, float]:
    """Spawn the server; returns (process, port, spawn instant)."""
    if traced_dump is None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--data-dir", str(data_dir)]
    else:
        command = [sys.executable, str(common.BENCH / "traced_serve.py"), str(traced_dump),
                   "--port", "0", "--data-dir", str(data_dir)]
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = process.stdout.readline()
    if not line.startswith("serving on http://"):
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return process, port, spawned


def run(args) -> dict:
    work = Path(args.work_dir)
    ops = common.read_trace(args.trace_file)
    dump = work / "server-trace.json" if args.traced else None
    speed_before = common.quiet_host_speed()
    process, port, spawned = start_server(work / "data", dump)
    try:
        return drive(args, ops, process, port, work, dump, spawned, speed_before)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()


def drive(args, ops, process, port, work, dump, spawned, speed_before) -> dict:
    server = (process.pid,)
    writer = Client(port)
    failed = attempted = 0
    for phase in ("setup", "warmup"):
        for op in ops:
            if op["phase"] == phase:
                attempted += 1
                status, _ = send(writer, op)
                failed += status >= 300
        if phase == "setup":
            # Set-up is the server's: from its spawn to the setup phase's end.
            raw_setup = time.monotonic() - spawned
            setup_speed = common.quiet_host_speed(server)
    timed = [op for op in ops if op["phase"] == "timed"]
    post_at = [i for i, op in enumerate(timed) if op["op"] == "post"]
    split = post_at[-args.closed]
    if dump is not None:
        process.send_signal(signal.SIGUSR2)  # span tables restart here
        time.sleep(0.1)

    reader = ReplyReader(port)
    reader.start()
    perf = time.perf_counter
    interval = 1.0 / args.rate
    lateness: list[float] = []
    sent_s: list[float] = []  # every post's round trip
    posts = 0

    def submit(op: dict) -> dict | None:
        """Send one operation; its reply body, or None if it failed."""
        nonlocal writer, failed, attempted
        attempted += 1
        try:
            status, body = send(writer, op)
        except (OSError, http.client.HTTPException) as exc:
            print(f"classbench: {op['op']} failed: {exc!r}", file=sys.stderr)
            writer.close()
            writer = Client(port)
            status, body = 599, None
        failed += status >= 300
        return body if status < 300 else None

    start = perf() + 0.05
    for index, op in enumerate(timed[:split]):
        due = start + index * interval
        now = perf()
        if now < due:
            time.sleep(due - now)
        sent = perf()
        lateness.append(sent - due)
        body = submit(op)
        done = perf()
        if body is None or op["op"] != "post":
            continue
        posts += 1
        sent_s.append(done - sent)
        reader.expect(op["room"], body["message"]["seq"], due, op["kind"] == "question", index)
    # Once the open loop's replies are read back, the reader and the
    # server are idle for the probe that starts the closed loop.
    reader.wait_idle()
    speeds = [setup_speed, common.quiet_host_speed(server)]

    # The closed loop runs in chunks with a probe between them; its
    # replies are read back afterwards, so the server is idle then.  Its
    # posts' round trips, scaled like in-process times, are the
    # supervision latencies, and those of the posts that drew a reply the
    # reply latencies: a post's replies are readable once it returns.
    closed_seqs: list[tuple[str, int, float, bool]] = []
    supervise: list[tuple[int, float]] = []  # (closed-loop position, round trip)
    scaled_supervise: list[tuple[int, float]] = []
    raw_closed_wall = closed_wall = 0.0
    chunk_posts = 0
    chunk_start = perf()
    for index, op in enumerate(timed[split:]):
        sent = perf()
        body = submit(op)
        done = perf()
        if body is not None and op["op"] == "post":
            posts += 1
            chunk_posts += 1
            sent_s.append(done - sent)
            supervise.append((index, done - sent))
            closed_seqs.append((op["room"], body["message"]["seq"], sent, op["kind"] == "question"))
        if chunk_posts == CLOSED_CHUNK or op is timed[-1]:
            elapsed = perf() - chunk_start
            speeds.append(common.quiet_host_speed(server))
            factor = (speeds[-2] + speeds[-1]) / 2
            raw_closed_wall += elapsed
            closed_wall += elapsed * factor
            scaled_supervise += [(key, latency * factor) for key, latency in supervise[len(scaled_supervise):]]
            chunk_posts = 0
            chunk_start = perf()

    for room, seq, due, question in closed_seqs:
        reader.expect(room, seq, due, question)
    reader.wait_idle()
    reader.stop()
    reader.join(timeout=POLL_WAIT_S + 5)
    unanswered = reader.unanswered + sum(q for _due, q, _key in reader.outstanding.values())
    failed += len(reader.outstanding) + reader.errors

    server_trace = None
    if dump is not None:
        # Dump before reading the live state back: those reads are not
        # part of the timed traffic.
        process.send_signal(signal.SIGUSR1)
        limit = time.monotonic() + 30
        while not dump.exists() and time.monotonic() < limit:
            time.sleep(0.02)
        server_trace = json.loads(dump.read_text(encoding="utf-8"))

    rooms = sorted({op["room"] for op in ops if op["op"] == "create"})
    live_rooms = {}
    for room in rooms:
        _, page = writer.call("GET", f"/rooms/{room}/transcript?since=-1")
        live_rooms[room] = common.transcript_hash(
            (m["seq"], m["sender"], m["kind"], m["text"], m["timestamp"], m["reply_to"])
            for m in page["messages"]
        )
    _, health = writer.call("GET", "/healthz")
    writer.close()
    reader.client.close()
    server_rss = common.vm_hwm_mb(process.pid)

    process.kill()  # the crash: no clean close, no final snapshot
    process.wait()

    data = work / "data"
    wal_bytes = sum(p.stat().st_size for p in data.glob("wal-*.log"))
    snapshots = sorted(data.glob("snapshot-*.json"))
    snapshot_bytes = snapshots[-1].stat().st_size if snapshots else 0
    recovered = recover(data, args.traced)

    live = {"rooms": live_rooms, "messages": health["messages"], "room_count": health["rooms"]}
    restored = {"rooms": recovered["digest"]["rooms"], "messages": recovered["messages"],
                "room_count": len(recovered["digest"]["rooms"])}
    # Capacity: the closed loop's posts over its time.
    replied = [(room, seq) in reader.replied for room, seq, _sent, _question in closed_seqs]
    latency_s = {
        key: {"supervise": samples, "reply": [sample for sample, hit in zip(samples, replied) if hit]}
        for key, samples in (("figures", scaled_supervise), ("raw", supervise))
    }
    # The open loop's long-poll reply latencies, as measured.
    open_replies = [latency for _key, _due, latency in reader.latencies]
    setup_s = {"figures": raw_setup * (speed_before + setup_speed) / 2, "raw": raw_setup}
    rate = {"figures": len(closed_seqs) / closed_wall, "raw": len(closed_seqs) / raw_closed_wall}
    result = {
        key: common.figures(setup_s[key], rate[key], [v for _, v in latency_s[key]["supervise"]],
                            [v for _, v in latency_s[key]["reply"]], server_rss)
        for key in latency_s
    }
    result.update({
        "latency_s": latency_s,
        "speed": sum(speeds) / len(speeds),
        "samples": [len(supervise), len(latency_s["raw"]["reply"])],
        "open_reply_s": [common.percentile(open_replies, 50), common.tail_mean(open_replies, common.TAIL_SHARE)],
        "posts": posts,
        "attempted": attempted,
        "failed": failed + health["shed"] + health["quarantined"],
        "sent_s": sent_s,
        "lateness_s": lateness,
        "unanswered": unanswered,
        "replies": reader.replies,
        "reads": reader.reads,
        "read_s": reader.read_s,
        "digest": recovered["digest"],
        "recovered_matches_live": live == restored and recovered["clean"],
        "recover": recovered,
        "wal_bytes": wal_bytes,
        "snapshot_bytes": snapshot_bytes,
        "counters": recovered["counters"],
    })
    if server_trace is not None:
        result["trace"] = server_trace
    return result


def recover(data: Path, traced: bool) -> dict:
    out = data.parent / "recovered.json"
    command = [sys.executable, str(common.BENCH / "recover.py"), str(data), str(out)]
    if traced:
        command.append("--traced")
    subprocess.run(command, cwd=common.ROOT, env=common.child_env(), check=True, timeout=170)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--closed", type=int, required=True,
                        help="send the last N timed posts back to back, to measure capacity")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
