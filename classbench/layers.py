"""Per-layer metrics from a traced repetition's span table.

Times named ``*_ms`` without another qualifier are per supervised post
(the total time spent in that span, divided by the timed posts), so a
layer's numbers add up along the supervised-message path.  A layer's
``self_share`` is its self time over the self time of every layer.

``trace.coverage`` is the share of the wall time attributed to a named
layer below the entry point.  In-process, the outermost spans on the
driving thread (``core.say`` / ``core.drain``) minus their own self time
(the part of the entry point no inner span explains), over the timed
loop's wall time.  ``served`` crosses a process boundary: there it is
the server's span self time, ``core``'s excepted, over the client's
request round trips, and the uncovered rest (transport, header parsing,
the client's HTTP stack) is counted as the HTTP layer's self time.  Time
the open-loop generator ran late is not a layer's work; it is reported
as ``serving.lateness_p99_ms``.  The drain barrier's wait for the worker
pool (``runtime.wait``) is waiting, not work, and adds to no layer.

``trace.overhead`` is the traced repetition's timed wall time (for
``served``: its summed request round trips) over the untraced one's.
"""

from __future__ import annotations

import common
from tracing import WAIT_SPANS

# A traced run whose coverage falls below this fails its check.
MIN_COVERAGE = 0.90

LAYERS = (
    "core", "chatroom", "pipeline", "runtime", "state", "resilience", "linkgrammar",
    "nlp", "agents", "ontology", "qa", "corpus", "profiles", "durability", "serving",
)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("linkgrammar.parse_ms", "ms", "lower"),
    ("linkgrammar.parse_calls_per_msg", "calls/msg", "lower"),
    ("linkgrammar.cache_hit_ratio", "ratio", "higher"),
    ("linkgrammar.repair_ms", "ms", "lower"),
    ("linkgrammar.repair_calls_per_msg", "calls/msg", "lower"),
    ("nlp.tokenize_ms", "ms", "lower"),
    ("nlp.keywords_ms", "ms", "lower"),
    ("agents.angel_review_self_ms", "ms", "lower"),
    ("agents.semantic_review_ms", "ms", "lower"),
    ("agents.semantic_review_self_ms", "ms", "lower"),
    ("ontology.self_ms_per_msg", "ms", "lower"),
    ("ontology.relations_from_calls_per_msg", "calls/msg", "lower"),
    ("ontology.operations_of_calls_per_msg", "calls/msg", "lower"),
    ("ontology.has_operation_calls_per_msg", "calls/msg", "lower"),
    ("ontology.concepts_with_operation_ms", "ms", "lower"),
    ("qa.resolve_ms", "ms", "lower"),
    ("qa.apply_ms", "ms", "lower"),
    ("qa.faq_hit_ratio", "ratio", "higher"),
    ("qa.answered_ratio", "ratio", "higher"),
    ("corpus.add_ms", "ms", "lower"),
    ("corpus.search_ms", "ms", "lower"),
    ("corpus.search_calls_per_msg", "calls/msg", "lower"),
    ("corpus.records", "count", "lower"),
    ("profiles.record_ms", "ms", "lower"),
    ("chatroom.post_self_ms", "ms", "lower"),
    ("chatroom.reply_ms", "ms", "lower"),
    ("pipeline.on_item_ms", "ms", "lower"),
    ("runtime.drain_self_ms_per_item", "ms", "lower"),
    ("runtime.cycles", "count", "lower"),
    ("runtime.items_per_cycle", "count", "higher"),
    ("runtime.worker_busy_share", "ratio", "higher"),
    ("runtime.barrier_wait_ms_per_cycle", "ms", "lower"),
    ("runtime.shed", "count", "lower"),
    ("state.merge_ms_per_cycle", "ms", "lower"),
    ("state.rebase_ms_per_cycle", "ms", "lower"),
    ("durability.wal_append_ms", "ms", "lower"),
    ("durability.wal_bytes_per_msg", "B", "lower"),
    ("durability.snapshot_ms", "ms", "lower"),
    ("durability.snapshots", "count", "lower"),
    ("durability.snapshot_bytes", "B", "lower"),
    ("durability.replay_events", "count", "lower"),
    ("durability.replay_ms_per_event", "ms", "lower"),
    ("durability.recover_ms", "ms", "lower"),
    ("serving.gateway_post_ms", "ms", "lower"),
    ("serving.gateway_overhead_ms", "ms", "lower"),
    ("serving.http_overhead_ms", "ms", "lower"),
    ("serving.read_ms", "ms", "lower"),
    ("serving.reads_per_reply", "count", "lower"),
    ("serving.lateness_p99_ms", "ms", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.quarantined", "count", "lower"),
    ("resilience.deferred", "count", "lower"),
    ("resilience.failed_frac", "ratio", "lower"),
] + [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS] + [
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    table = dict(trace["table"])
    recovery = traced.get("recover", {}).get("table", {})
    n = traced["posts"]
    counters = traced["counters"]

    def calls(name: str, source=table) -> int:
        return source.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name: str, source=table) -> float:
        return source.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[2] * 1e3

    def per_msg(ms: float) -> float:
        return _ratio(ms, n)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, _total, own) in table.items():
        if name not in WAIT_SPANS:
            layer_self[name.split(".", 1)[0]] += own * 1e3

    values: dict[str, float] = {}
    if workload == "served":
        round_trips_ms = (sum(traced["sent_s"]) + traced["read_s"]) * 1e3
        coverage = _ratio(sum(layer_self.values()) - layer_self["core"], round_trips_ms)
        # What no server span covers — transport, header parsing, the
        # client's HTTP stack — is the HTTP layer's share of the trips.
        layer_self["serving"] += max(0.0, round_trips_ms - total_ms("serving.http"))
        overhead = _ratio(sum(traced["sent_s"]), sum(untraced["sent_s"]))
        gateway_ms = _ratio(total_ms("serving.gateway_post"), calls("serving.gateway_post"))
        values.update({
            "serving.gateway_post_ms": gateway_ms,
            "serving.gateway_overhead_ms": _ratio(
                total_ms("serving.gateway_post") - total_ms("core.say"), calls("serving.gateway_post")
            ),
            "serving.http_overhead_ms": _ratio(sum(traced["sent_s"]) * 1e3, len(traced["sent_s"])) - gateway_ms,
            "serving.read_ms": _ratio(traced["read_s"] * 1e3, traced["reads"]),
            "serving.reads_per_reply": _ratio(traced["reads"], traced["replies"]),
            "serving.lateness_p99_ms": common.percentile(traced["lateness_s"], 99) * 1e3,
            "durability.wal_bytes_per_msg": _ratio(traced["wal_bytes"], n),
            "durability.snapshot_bytes": traced["snapshot_bytes"],
            "durability.replay_events": traced["recover"]["events_replayed"],
            "durability.replay_ms_per_event": _ratio(
                total_ms("durability.replay", recovery), traced["recover"]["events_replayed"]
            ),
            "durability.recover_ms": traced["recover"]["recover_s"] * 1e3,
        })
    else:
        coverage = _ratio(trace["root_s"] - layer_self["core"] / 1e3, trace["raw_wall_s"])
        overhead = _ratio(traced["wall_s"], untraced["wall_s"])
    all_self = sum(layer_self.values())

    shards = counters["shards"]
    cycles = _ratio(calls("state.merge"), shards)
    values.update({
        "linkgrammar.parse_ms": per_msg(total_ms("linkgrammar.parse")),
        "linkgrammar.parse_calls_per_msg": per_msg(calls("linkgrammar.parse")),
        "linkgrammar.cache_hit_ratio": _ratio(trace["cache_hits"], trace["cache_hits"] + trace["cache_misses"]),
        "linkgrammar.repair_ms": per_msg(total_ms("linkgrammar.repair")),
        "linkgrammar.repair_calls_per_msg": per_msg(calls("linkgrammar.repair")),
        "nlp.tokenize_ms": per_msg(total_ms("nlp.tokenize")),
        "nlp.keywords_ms": per_msg(total_ms("nlp.keywords")),
        "agents.angel_review_self_ms": per_msg(self_ms("agents.angel_review")),
        "agents.semantic_review_ms": per_msg(total_ms("agents.semantic_review")),
        "agents.semantic_review_self_ms": per_msg(self_ms("agents.semantic_review")),
        "ontology.self_ms_per_msg": per_msg(layer_self["ontology"]),
        "ontology.relations_from_calls_per_msg": per_msg(calls("ontology.relations_from")),
        "ontology.operations_of_calls_per_msg": per_msg(calls("ontology.operations_of")),
        "ontology.has_operation_calls_per_msg": per_msg(calls("ontology.has_operation")),
        "ontology.concepts_with_operation_ms": per_msg(total_ms("ontology.concepts_with_operation")),
        "qa.resolve_ms": per_msg(total_ms("qa.resolve")),
        "qa.apply_ms": per_msg(total_ms("qa.apply")),
        "qa.faq_hit_ratio": _ratio(counters["faq_hits"], counters["questions_answered"]),
        "qa.answered_ratio": _ratio(counters["questions_answered"], counters["questions"]),
        "corpus.add_ms": per_msg(total_ms("corpus.add")),
        "corpus.search_ms": per_msg(total_ms("corpus.search")),
        "corpus.search_calls_per_msg": per_msg(calls("corpus.search")),
        "corpus.records": counters["records"],
        "profiles.record_ms": per_msg(total_ms("profiles.record")),
        "chatroom.post_self_ms": per_msg(self_ms("chatroom.post")),
        "chatroom.reply_ms": per_msg(total_ms("chatroom.reply")),
        "pipeline.on_item_ms": per_msg(total_ms("pipeline.on_item")),
        "runtime.drain_self_ms_per_item": per_msg(self_ms("runtime.drain")),
        "runtime.cycles": cycles,
        "runtime.items_per_cycle": _ratio(n, cycles),
        "runtime.worker_busy_share": _ratio(total_ms("runtime.batch"), total_ms("runtime.wait") * shards),
        "runtime.barrier_wait_ms_per_cycle": _ratio(total_ms("runtime.wait"), cycles),
        "runtime.shed": counters["shed"],
        "state.merge_ms_per_cycle": _ratio(total_ms("state.merge"), cycles),
        "state.rebase_ms_per_cycle": _ratio(total_ms("state.rebase"), cycles),
        "durability.wal_append_ms": per_msg(total_ms("durability.wal_append")),
        "durability.snapshot_ms": _ratio(total_ms("durability.snapshot"), calls("durability.snapshot")),
        "durability.snapshots": calls("durability.snapshot"),
        "resilience.retries": counters["retries"],
        "resilience.quarantined": counters["quarantined"],
        "resilience.deferred": counters["deferred"],
        "resilience.failed_frac": _ratio(traced["failed"], traced["attempted"]),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    })
    for layer in LAYERS:
        values[f"{layer}.self_share"] = _ratio(layer_self[layer], all_self)
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _better in METRICS}
