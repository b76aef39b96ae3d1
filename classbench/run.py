"""The repository benchmark: seeded classroom traffic, four workloads.

Usage::

    python3 classbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* ``classroom`` — 8 rooms x 6 learners, default learner mix, unbounded
  utterance pool, in-process on the default ``queued`` runtime;
* ``drill`` — error-free statements, semantic violations and questions
  drawn Zipf-skewed from pools of 256 utterances, each pool after an
  untimed warm-up pass over it;
* ``served`` — ``python -m repro serve`` with a durable data directory,
  an open-loop HTTP client at a fixed offered rate, then a closed loop
  that measures capacity, crash + recover;
* ``backlog`` — 16 rooms on the ``parallel`` runtime (one shard per
  core, no auto-drain), bursts of 256 posts each followed by ``drain()``.

The trace is generated from ``--seed`` in this process; the system only
ever receives its operations.  Every repetition runs in a fresh
interpreter: the dictionary and parse caches are process-wide, so a
second run in one interpreter measured about 1.6x faster than the first
and back-to-back in-process repetitions would not be comparable.

``--trace 0`` runs several untraced repetitions and reports the
end-to-end metrics from the least disturbed of them (see
``end_to_end``).  ``--trace 1`` runs one untraced and one traced
repetition of the same trace and reports the per-layer breakdown, the
span coverage and the tracing overhead.  Each
run checks its outputs; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import common

REPS = 3
REP_TIMEOUT_S = 150
POOL_PROFILE = dict(question_rate=0.3, syntax_error_rate=0.0, semantic_error_rate=0.2, chitchat_rate=0.0)

# size: timed posts per repetition per second of --seconds, so that the
# in-process repetitions together last about --seconds on the reference
# host.  The host's speed drifts over stretches of seconds; the best of
# several short repetitions rides that out.  ``served`` is first
# open-loop at ``offered`` posts/s, far below the server's capacity, with
# every reply read back by long-poll; its last ``closed`` posts per
# second of --seconds then go back to back and give the server's
# capacity and its latencies.  Its times move more with the host than
# in-process ones, so it runs more repetitions for each post's best time
# to settle (see ``best_latencies``).
WORKLOADS = {
    "classroom": {"size": 220, "rooms": 8, "runtime": "queued"},
    "drill": {"size": 560, "rooms": 8, "runtime": "queued", "pool": 256, "zipf": 0.6},
    "served": {"size": 30, "offered": 50, "closed": 100, "rooms": 8, "churn": 0.02, "reps": 4, "warmup": 240},
    "backlog": {"size": 250, "rooms": 16, "runtime": "parallel", "burst": 256, "warmup": 256},
}
LEARNERS = 6


def cores() -> int:
    return len(os.sched_getaffinity(0))


def closed_posts(seconds: float) -> int:
    return max(20, round(WORKLOADS["served"]["closed"] * seconds))


def trace_spec(workload: str, seconds: float):
    from repro.simulation import LearnerProfile
    from tracegen import TraceSpec

    cfg = WORKLOADS[workload]
    posts = max(50, round(cfg["size"] * seconds))
    if workload == "served":
        posts += closed_posts(seconds)
    return TraceSpec(
        rooms=cfg["rooms"],
        learners=LEARNERS,
        posts=posts,
        profile=LearnerProfile(**POOL_PROFILE) if cfg.get("pool") else LearnerProfile(),
        pool=cfg.get("pool"),
        zipf=cfg.get("zipf", 1.0),
        churn=cfg.get("churn", 0.0),
        burst=cfg.get("burst"),
        warmup=cfg.get("warmup", 0),
    )


def spawn(command: list[str], out: str) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    process = subprocess.Popen(command, cwd=common.ROOT, env=common.child_env(), start_new_session=True)
    try:
        code = process.wait(timeout=REP_TIMEOUT_S)
    except BaseException:  # timeout or SIGTERM: take the whole group down
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if code != 0:
        raise RuntimeError(f"repetition exited {code}: {command}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def repetition(workload: str, trace_file: str, work: str, tag: str, seconds: float,
               traced: bool = False, serial: bool = False) -> dict:
    out = os.path.join(work, f"{tag}.json")
    script = str(common.BENCH / ("served.py" if workload == "served" else "rep.py"))
    command = [sys.executable, script, "--trace-file", trace_file, "--out", out]
    if workload == "served":
        rep_dir = os.path.join(work, tag)
        os.makedirs(rep_dir)
        command += ["--rate", str(WORKLOADS["served"]["offered"]),
                    "--closed", str(closed_posts(seconds)), "--work-dir", rep_dir]
    elif workload == "backlog":
        if serial:  # the reference: one worker, same posts and drains
            command += ["--runtime", "queued", "--no-auto-drain"]
        else:
            command += ["--runtime", "parallel", "--shards", str(cores()), "--no-auto-drain"]
    else:
        command += ["--runtime", WORKLOADS[workload]["runtime"]]
    if traced:
        command.append("--traced")
    if workload != "served":  # served.py times its server's set-up itself
        # The child times its set-up from this instant, at the mean of the
        # host speed here and at the end of its set-up.
        speed = common.quiet_host_speed()
        command += ["--spawned", repr(time.monotonic()), "--speed", repr(speed)]
    return spawn(command, out)


def check(workload: str, reps: list[dict], ops: list[dict], serial: dict | None) -> list[str]:
    """Every reason this run's outputs are wrong (empty when correct)."""
    problems = []
    digests = [json.dumps(rep["digest"], sort_keys=True) for rep in reps]
    if len(set(digests)) != 1:
        problems.append("state digests differ between repetitions of one seed")
    posts = sum(1 for op in ops if op["op"] == "post")
    for rep in reps:
        if rep["digest"]["stats"]["messages"] != posts:
            problems.append(f"supervised {rep['digest']['stats']['messages']} of {posts} posts")
        if rep["unanswered"]:
            problems.append(f"{rep['unanswered']} questions drew no QA reply")
        if workload == "served" and not rep["recovered_matches_live"]:
            problems.append("recovered state differs from the live server's final state")
        low, high = common.SPEED_RANGE
        if not low <= rep["speed"] <= high:
            problems.append(f"mean host-speed factor {rep['speed']:.3f} outside {common.SPEED_RANGE}")
    if serial is not None and json.dumps(serial["digest"], sort_keys=True) != digests[0]:
        problems.append("backlog digest differs from the serial queued replay")
    return problems


# The unit of each end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "supervised_msg_per_s": "1/s",
    "supervise_p50_ms": "ms",
    "supervise_tail20_ms": "ms",
    "reply_p50_ms": "ms",
    "reply_tail20_ms": "ms",
    "peak_rss_mb": "MB",
}


def best_latencies(reps: list[dict], key: str) -> tuple[list[float], list[float]]:
    """Each timed post's supervision and reply latency, from the
    repetition in which that post was timed fastest.

    Every repetition replays the same posts in the same order, so a
    post's systematic costs (its repair, a snapshot or collection it
    triggers, the posts queued ahead of it) recur in each; the host's
    disturbance does not, and only ever slows a post down.
    """
    best = []
    for kind in ("supervise", "reply"):
        per_post: dict[int, float] = {}
        for rep in reps:
            for index, latency in rep["latency_s"][key][kind]:
                per_post[index] = min(latency, per_post.get(index, latency))
        best.append(list(per_post.values()))
    return best[0], best[1]


def end_to_end(reps: list[dict], key: str = "figures") -> dict[str, float]:
    """The run's end-to-end metrics from its repetitions.

    The host is shared: its speed drifts by tens of percent over
    stretches of seconds, and that noise only ever slows a repetition
    down.  The best of several fresh-interpreter repetitions is the one
    least disturbed, so it varies far less from run to run than their
    median does: the rate comes from the best repetition, the latencies
    from each post's best time (``best_latencies``).  Set-up is the
    median of the repetitions' set-ups, memory (which does not drift with
    host load) the median of their peaks.  ``key`` picks the scaled
    (``figures``) or the unscaled (``raw``) set.
    """
    def column(name: str) -> list[float]:
        return [rep[key][name] for rep in reps]

    supervise, reply = best_latencies(reps, key)
    return common.figures(statistics.median(column("setup_s")), max(column("supervised_msg_per_s")),
                          supervise, reply, statistics.median(column("peak_rss_mb")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    # A terminated run still stops its repetitions and removes its files.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))
    import layers
    import tracegen

    ops = tracegen.generate(trace_spec(args.workload, args.seconds), args.seed)
    summary = tracegen.summary(ops)
    print(f"classbench: workload={args.workload} seed={args.seed} cores={cores()} trace={json.dumps(summary)}")
    common.TMP_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.TMP_ROOT)
    try:
        trace_file = os.path.join(work, "trace.jsonl")
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.write(tracegen.to_jsonl(ops))
        if args.trace:
            reps = [repetition(args.workload, trace_file, work, "untraced", args.seconds),
                    repetition(args.workload, trace_file, work, "traced", args.seconds, traced=True)]
        else:
            reps = [repetition(args.workload, trace_file, work, f"rep{i}", args.seconds)
                    for i in range(WORKLOADS[args.workload].get("reps", REPS))]
        serial = (repetition(args.workload, trace_file, work, "serial", args.seconds, serial=True)
                  if args.workload == "backlog" else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    problems = check(args.workload, reps, ops, serial)
    for i, rep in enumerate(reps):
        print(f"classbench: rep{i} speed={rep['speed']:.3f} posts={rep['posts']} failed={rep['failed']} "
              f"samples={rep['samples']} digest={json.dumps(rep['digest']['stats'])}")
        for key in ("figures", "raw"):
            print(f"classbench: rep{i} {key:7s} " + " ".join(f"{k}={v:.4g}" for k, v in rep[key].items()))
    print("classbench: unscaled " + json.dumps(end_to_end(reps, "raw")))
    if args.workload == "served":
        print("classbench: open-loop long-poll replies, as measured: " + " ".join(
            f"rep{i} p50 {rep['open_reply_s'][0] * 1e3:.4g} ms tail20 {rep['open_reply_s'][1] * 1e3:.4g} ms"
            for i, rep in enumerate(reps)))
    supervise, reply = best_latencies(reps, "figures")
    print(f"classbench: per-post best: {len(supervise)} posts, p99 {common.percentile(supervise, 99) * 1e3:.4g} ms; "
          f"{len(reply)} replies, p99 {common.percentile(reply, 99) * 1e3:.4g} ms")
    if args.trace:
        metrics = layers.per_layer(args.workload, untraced=reps[0], traced=reps[1])
        if metrics["trace.coverage"]["value"] < layers.MIN_COVERAGE:
            problems.append(f"spans cover {metrics['trace.coverage']['value']:.3f} of the wall time, "
                            f"below {layers.MIN_COVERAGE}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end(reps).items()}
    for problem in problems:
        print(f"classbench: INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
