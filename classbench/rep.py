"""One repetition of an in-process workload, in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    python3 classbench/rep.py --trace-file T --runtime queued --out R.json
        [--shards N] [--no-auto-drain] [--traced]

Replays the trace's operations through :class:`repro.ELearningSystem`
and writes one JSON result: the set-up time (from the parent's spawn to
the end of the trace's setup phase, which ends with the first supervised
message); the rate over the timed operations (warm-up passes between
them excluded); percentiles of the per-post supervision latencies and of
those of the posts that drew an agent reply; the state digest, failure counts and,
with ``--traced``, the per-layer span table.  The end-to-end figures
are reported twice: scaled to the reference host speed (see
``common.host_speed``) and as measured.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common

# Timed posts between two host-speed probes on auto-draining runtimes;
# deferred runtimes probe after every drain.
CHUNK_POSTS = 200


class ChunkClock:
    """Times the timed operations in chunks with a host-speed probe
    between chunks, scaling each chunk's times by the speed around it."""

    def __init__(self, tracer, cache) -> None:
        self.tracer = tracer
        self.cache = cache
        self.raw_wall = self.wall = 0.0
        self.cache_hits = self.cache_misses = 0
        self.samples: list[list] = []  # [room, seq, raw latency, scaled latency]
        self.first = 0  # first sample of the open chunk
        self.posts = 0  # posts in the open chunk
        self.start = None
        self.speed = self.setup_speed = common.quiet_host_speed()
        self.speeds = [self.speed]

    @property
    def open(self) -> bool:
        return self.start is not None

    def begin(self) -> None:
        self.baseline = self.cache.info()
        if self.tracer is not None:
            self.tracer.enabled = True
        self.start = time.perf_counter()

    def end(self) -> None:
        elapsed = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.enabled = False
        info = self.cache.info()
        self.cache_hits += info["hits"] - self.baseline["hits"]
        self.cache_misses += info["misses"] - self.baseline["misses"]
        after = common.quiet_host_speed()
        self.speeds.append(after)
        factor = (self.speed + after) / 2
        self.speed = after
        self.raw_wall += elapsed
        self.wall += elapsed * factor
        for sample in self.samples[self.first:]:
            sample[3] = sample[2] * factor
        self.first = len(self.samples)
        self.posts = 0
        self.start = None


def run(args) -> dict:
    common.require_source()
    from repro import ELearningSystem, SystemConfig
    from repro.chatroom.messages import Role

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    config = SystemConfig(
        runtime_mode=args.runtime,
        shards=args.shards,
        auto_drain=False if args.no_auto_drain else None,
    )
    system = ELearningSystem.with_defaults(config)
    ops = common.read_trace(args.trace_file)

    setup_done = clock = None
    failed = attempted = posts = 0
    questions: dict[str, set[int]] = {}
    pending: list[tuple[str, int, float]] = []  # deferred posts awaiting a drain
    auto = system.runtime.auto_drain
    perf = time.perf_counter

    for op in ops:
        timed = op["phase"] == "timed"
        if clock is None and op["phase"] != "setup":
            setup_done = time.monotonic()
            clock = ChunkClock(tracer, system.learning_angel.cache_store)
        if timed and not clock.open:
            clock.begin()
        elif not timed and clock is not None and clock.open:
            clock.end()
        kind = op["op"]
        attempted += 1
        start = perf()
        try:
            if kind == "post":
                message = system.say(op["room"], op["user"], op["text"])
                if op["kind"] == "question":
                    questions.setdefault(op["room"], set()).add(message.seq)
            elif kind == "join":
                system.join(op["room"], op["user"], Role(op["role"]))
            elif kind == "leave":
                system.leave(op["room"], op["user"])
            elif kind == "create":
                system.open_room(op["room"], topic=op["topic"])
            elif kind == "drain":
                system.drain()
        except Exception as exc:  # a failed operation is counted, never fatal
            failed += 1
            print(f"classbench: {kind} failed: {exc!r}", file=sys.stderr)
            continue
        if not timed:
            continue
        if kind == "post":
            posts += 1
            if auto:
                latency = perf() - start
                clock.samples.append([op["room"], message.seq, latency, latency])
                clock.posts += 1
                if clock.posts == CHUNK_POSTS:
                    clock.end()
            else:
                pending.append((op["room"], message.seq, start))
        elif kind == "drain":
            done = perf()
            clock.samples.extend([room, seq, done - posted_at, 0.0] for room, seq, posted_at in pending)
            pending.clear()
            clock.end()
    if clock.open:
        clock.end()
    if pending:
        raise RuntimeError("trace ended with posts that no drain supervised")

    replied = common.replied_seqs(system)
    rss = common.peak_rss_mb()
    raw_setup = setup_done - args.spawned

    def latencies(column: int) -> dict:
        """Each timed post's latency, and each replied post's, keyed by
        the post's position in the timed phase."""
        supervise = [(index, sample[column]) for index, sample in enumerate(clock.samples)]
        # A reply is visible once the supervision that posted it is done.
        reply = [(index, sample[column]) for index, sample in enumerate(clock.samples)
                 if sample[1] in replied[sample[0]]]
        return {"supervise": supervise, "reply": reply}

    def figures(latency_s: dict, setup_s: float, wall_s: float) -> dict:
        return common.figures(setup_s, posts / wall_s, [v for _, v in latency_s["supervise"]],
                              [v for _, v in latency_s["reply"]], rss)

    latency_s = {"figures": latencies(3), "raw": latencies(2)}
    result = {
        "figures": figures(latency_s["figures"], raw_setup * (args.speed + clock.setup_speed) / 2, clock.wall),
        "raw": figures(latency_s["raw"], raw_setup, clock.raw_wall),
        "latency_s": latency_s,
        "speed": sum(clock.speeds) / len(clock.speeds),
        "samples": [len(clock.samples), len(latency_s["raw"]["reply"])],
        "wall_s": clock.wall,
        "posts": posts,
        "attempted": attempted,
        "failed": failed + system.supervision_shed + system.quarantined,
        "unanswered": common.unanswered_questions(system, questions),
        "digest": common.state_digest(system),
        "counters": common.counters(system),
    }
    if tracer is not None:
        result["trace"] = {
            "table": tracer.table(),
            "root_s": tracer.main_root_s,
            "raw_wall_s": clock.raw_wall,
            "cache_hits": clock.cache_hits,
            "cache_misses": clock.cache_misses,
        }
    system.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--runtime", default="queued")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--no-auto-drain", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="the parent's monotonic instant just before it started us")
    parser.add_argument("--speed", type=float, required=True,
                        help="the host speed the parent measured then")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
