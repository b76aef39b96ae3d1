"""The per-run correctness check: state digests, their comparison and
the host-speed probe's guards."""

import copy
import subprocess
import sys

import common
import run
import tracegen
from repro import ELearningSystem, SystemConfig
from repro.chatroom.messages import Role


def replay(ops, **config):
    system = ELearningSystem.with_defaults(SystemConfig(**config))
    for op in ops:
        kind = op["op"]
        if kind == "create":
            system.open_room(op["room"], topic=op["topic"])
        elif kind == "join":
            system.join(op["room"], op["user"], Role(op["role"]))
        elif kind == "leave":
            system.leave(op["room"], op["user"])
        elif kind == "post":
            system.say(op["room"], op["user"], op["text"])
        elif kind == "drain":
            system.drain()
    system.close()
    return system


def test_transcript_hash_ignores_reply_numbering_only():
    user = [(1, "ann", "user", "What is a stack?", 1.0, None), (2, "bob", "user", "Hi.", 2.0, None)]
    serial = user[:1] + [(3, "QA_System", "agent", "A stack is LIFO.", 1.0, 1)] + user[1:]
    batched = user + [(3, "QA_System", "agent", "A stack is LIFO.", 1.0, 1)]
    assert common.transcript_hash(serial) == common.transcript_hash(batched)
    changed = user + [(3, "QA_System", "agent", "A stack is FIFO.", 1.0, 1)]
    assert common.transcript_hash(changed) != common.transcript_hash(batched)
    renumbered = [(5, "ann", "user", "What is a stack?", 1.0, None)] + user[1:]
    assert common.transcript_hash(renumbered) != common.transcript_hash(user)


def test_transcript_hash_keeps_only_the_suggestion_prefix():
    one = [(1, "Learning_Angel", "agent", common.SUGGESTION_PREFIX + "We push data.", 1.0, 0)]
    two = [(1, "Learning_Angel", "agent", common.SUGGESTION_PREFIX + "We pop data.", 1.0, 0)]
    assert common.transcript_hash(one) == common.transcript_hash(two)


def test_digest_repeats_for_one_trace():
    ops = tracegen.generate(tracegen.TraceSpec(rooms=2, learners=3, posts=40), 3)
    assert common.state_digest(replay(ops)) == common.state_digest(replay(ops))


def test_parallel_backlog_digest_equals_the_serial_replay():
    spec = tracegen.TraceSpec(rooms=4, learners=3, posts=150, burst=70)
    ops = tracegen.generate(spec, 9)
    parallel = common.state_digest(replay(ops, runtime_mode="parallel", shards=2))
    serial = common.state_digest(replay(ops, runtime_mode="queued", auto_drain=False))
    assert parallel == serial
    assert parallel["stats"]["messages"] == sum(op["op"] == "post" for op in ops)


def _rep(digest):
    return {"digest": copy.deepcopy(digest), "unanswered": 0, "recovered_matches_live": True, "speed": 0.9}


def test_check_flags_every_mismatch():
    ops = [{"op": "post"}] * 3
    digest = {"stats": {"messages": 3}, "corpus": 3, "verdicts": {}, "rooms": {"r": "x"}}
    assert run.check("classroom", [_rep(digest), _rep(digest)], ops, None) == []

    other = _rep(digest)
    other["digest"]["rooms"]["r"] = "y"
    assert run.check("classroom", [_rep(digest), other], ops, None)
    assert run.check("backlog", [_rep(digest)], ops, other)

    short = _rep(digest)
    short["digest"]["stats"]["messages"] = 2
    assert run.check("drill", [short], ops, None)

    unanswered = _rep(digest)
    unanswered["unanswered"] = 1
    assert run.check("classroom", [unanswered], ops, None)

    diverged = _rep(digest)
    diverged["recovered_matches_live"] = False
    assert run.check("served", [diverged], ops, None)

    disturbed = _rep(digest)
    disturbed["speed"] = common.SPEED_RANGE[0] / 2
    assert run.check("classroom", [disturbed], ops, None)


def test_host_speed_ignores_probes_the_system_disturbs():
    assert common.host_speed() > 0
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        assert common.host_speed(watch=(busy.pid,), attempts=5) is None
    finally:
        busy.kill()
        busy.wait()


def test_tail_mean_averages_the_slowest_share():
    samples = [float(i) for i in range(1, 101)]
    assert common.tail_mean(samples, 0.1) == sum(range(91, 101)) / 10
    assert common.tail_mean([3.0, 1.0], 0.2) == 3.0


def test_end_to_end_takes_each_posts_best_time():
    def rep(setup, supervise):
        latency = {"supervise": list(enumerate(supervise)), "reply": list(enumerate(supervise))[:2]}
        figures = {"setup_s": setup, "supervised_msg_per_s": 1.0 / setup, "peak_rss_mb": 10.0}
        return {"figures": figures, "latency_s": {"figures": latency}}

    reps = [rep(1.0, [0.004, 0.001, 0.009]), rep(3.0, [0.002, 0.005, 0.003]), rep(2.0, [0.006, 0.006, 0.006])]
    metrics = run.end_to_end(reps)
    assert metrics["setup_s"] == 2.0
    assert metrics["supervised_msg_per_s"] == 1.0
    assert metrics["supervise_p50_ms"] == 2.0  # of the best times 2, 1 and 3 ms
    assert metrics["reply_tail20_ms"] == 2.0
