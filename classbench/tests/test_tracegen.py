"""The trace generator: seed-determinism, phases and membership."""

import itertools
import json

import pytest

import tracegen
from run import WORKLOADS, trace_spec


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_jsonl(workload):
    spec = trace_spec(workload, 0.3)
    assert tracegen.to_jsonl(tracegen.generate(spec, 7)) == tracegen.to_jsonl(tracegen.generate(spec, 7))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_differ(workload):
    spec = trace_spec(workload, 0.3)
    assert tracegen.to_jsonl(tracegen.generate(spec, 1)) != tracegen.to_jsonl(tracegen.generate(spec, 2))


def test_jsonl_round_trips():
    ops = tracegen.generate(trace_spec("served", 0.3), 3)
    text = tracegen.to_jsonl(ops)
    assert [json.loads(line) for line in text.splitlines()] == ops


def test_setup_ends_with_the_first_supervised_post():
    for workload in WORKLOADS:
        ops = tracegen.generate(trace_spec(workload, 0.3), 1)
        setup = [op for op in ops if op["phase"] == "setup"]
        posts = [op for op in setup if op["op"] == "post"]
        assert len(posts) == 1, workload
        assert all(op["phase"] != "setup" for op in ops[len(setup):]), workload


def test_posters_are_present_students():
    """Churn never lets an absent or re-roled learner post."""
    spec = tracegen.TraceSpec(rooms=3, learners=4, posts=600, churn=0.2)
    ops = tracegen.generate(spec, 5)
    roles = {}
    churn = 0
    for op in ops:
        key = (op.get("room"), op.get("user"))
        if op["op"] == "join":
            churn += op["phase"] == "timed"
            roles[key] = op["role"]
        elif op["op"] == "leave":
            churn += 1
            roles.pop(key)
        elif op["op"] == "post":
            assert roles.get(key) == "student", op
    assert churn > 0


def test_each_pool_is_warmed_before_its_draws():
    spec = trace_spec("drill", 0.3)
    ops = tracegen.generate(spec, 4)
    segments = [list(group) for _phase, group in itertools.groupby(ops, key=lambda op: op["phase"])]
    assert [seg[0]["phase"] for seg in segments] == ["setup"] + ["warmup", "timed"] * tracegen.POOLS
    for warm, timed in zip(segments[1::2], segments[2::2]):
        warm_texts = [op["text"] for op in warm]
        assert len(warm_texts) == len(set(warm_texts)) == spec.pool
        assert {op["text"] for op in timed} <= set(warm_texts)
    assert sum(len(seg) for seg in segments[2::2]) == spec.posts
    kinds = {op["kind"] for op in ops if op["op"] == "post"}
    assert kinds <= {"statement", "semantic", "question"}


def test_burst_traces_drain_after_the_last_post():
    ops = tracegen.generate(trace_spec("backlog", 0.3), 2)
    assert ops[-1]["op"] == "drain"
    assert sum(op["op"] == "drain" for op in ops) > 1


def test_summary_reports_distinct_ratio_and_mix():
    ops = tracegen.generate(trace_spec("served", 0.3), 1)
    summary = tracegen.summary(ops)
    assert 0 < summary["distinct_ratio"] <= 1
    assert summary["posts"] == trace_spec("served", 0.3).posts
    assert abs(sum(summary["op_mix"].values()) - 1) < 1e-3
    assert abs(sum(summary["post_mix"].values()) - 1) < 1e-3


def test_fresh_posts_follow_the_profile_mix_exactly():
    spec = tracegen.TraceSpec(rooms=2, learners=3, posts=2 * tracegen.MIX_BLOCK)
    posts = [op for op in tracegen.generate(spec, 6) if op["op"] == "post" and op["phase"] == "timed"]
    quota = tracegen._quota(spec.profile, tracegen.MIX_BLOCK)
    for block in (posts[:tracegen.MIX_BLOCK], posts[tracegen.MIX_BLOCK:]):
        kinds = {kind: sum(op["kind"] == kind for op in block) for kind in quota}
        assert kinds == quota
