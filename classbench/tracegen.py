"""Seeded classroom traffic for the benchmark, serialisable to JSONL.

A trace is a list of operations — ``create``, ``join`` (which also
re-roles), ``leave``, ``post`` and ``drain`` — each tagged with the
``phase`` it belongs to: ``setup`` (rooms and memberships), ``warmup``
(replayed untimed, to make caches resident) or ``timed``.  Posts carry
the generator's ground-truth ``kind`` (question, statement, syntax,
semantic, chitchat) for the benchmark's own checks; the system under
test only ever receives room, user and text.

Utterances come from :mod:`repro.simulation`: every learner is a
:class:`SimulatedLearner` whose :class:`LearnerProfile` decides the mix
of questions, syntax errors (:class:`ErrorInjector`), semantic
violations and chit-chat over the :class:`SentenceGenerator`'s
ontology-driven sentences.  The same spec and seed always give a
byte-identical JSONL file.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.ontology.domains import default_ontology
from repro.simulation import ErrorClass, LearnerProfile, SimulatedLearner

# A pooled trace splits its timed posts across this many pools, each with
# its own warm-up pass, so that one run's cost does not hinge on the few
# utterances one pool ranks first.
POOLS = 4
# Fresh utterances follow the profile's mix of kinds exactly in every
# block of this many timed posts, with the syntax errors split evenly
# over the injector's error classes.  Left to each learner's own draws,
# the share of syntax errors (the costliest posts, and the whole latency
# tail) moved by a fifth from seed to seed, and the tails with it; the
# classes' supervision costs differ by over 10x (an unknown word against
# a dropped article).
MIX_BLOCK = 200
SYNTAX_CLASSES = [error.value for error in ErrorClass if error is not ErrorClass.NONE]
# Draws a learner may take to produce a post of the scheduled kind.
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class TraceSpec:
    """Knobs of one generated trace.

    Attributes:
        rooms: chat rooms opened in the setup phase.
        learners: simulated learners per room.
        posts: timed posts.
        profile: the learners' behaviour mix.
        pool: ``None`` lets every learner draw fresh utterances (an
            unbounded pool), in the profile's mix of kinds per
            ``MIX_BLOCK`` posts; a number first builds that many distinct
            utterances and draws every timed post from them,
            Zipf-skewed, after an untimed warm-up pass over the pool
            (one of ``POOLS`` such pools).
        zipf: skew exponent of the pool draw (rank ``r`` has weight
            ``1 / r**zipf``).
        churn: share of timed operations that are membership changes (a
            leave or a re-role to teacher, undone a few posts later).
        burst: posts between ``drain`` operations; ``None`` emits no
            drains.
        warmup: fresh posts replayed untimed between the setup and the
            timed phase (followed by a drain on a burst trace), so that
            the first full garbage collection and the first drain's
            one-time costs fall before timing starts.
    """

    rooms: int
    learners: int
    posts: int
    profile: LearnerProfile = field(default_factory=LearnerProfile)
    pool: int | None = None
    zipf: float = 1.0
    churn: float = 0.0
    burst: int | None = None
    warmup: int = 0


def utterance_kind(utterance) -> str:
    """The ground-truth class of one planned utterance."""
    if utterance.is_question:
        return "question"
    if utterance.syntax_error != ErrorClass.NONE:
        return "syntax"
    if utterance.semantic_error:
        return "semantic"
    if not utterance.base.concept and not utterance.base.operation:
        return "chitchat"
    return "statement"


def generate(spec: TraceSpec, seed: int) -> list[dict]:
    """The operations of one trace, in order."""
    rng = random.Random(seed * 7919 + 17)
    ontology = default_ontology()
    ops: list[dict] = []
    members: list[tuple[str, SimulatedLearner]] = []
    for r in range(spec.rooms):
        room = f"room-{r}"
        ops.append({"op": "create", "room": room, "topic": "data structures", "phase": "setup"})
        for i in range(spec.learners):
            learner = SimulatedLearner(
                f"r{r}-learner{i}", ontology, profile=spec.profile,
                seed=rng.randrange(1 << 30),
            )
            members.append((room, learner))
            ops.append({"op": "join", "room": room, "user": learner.name,
                        "role": "student", "phase": "setup"})

    pools = [_pool(spec, rng) for _ in range(POOLS)] if spec.pool else []
    kinds = _kind_schedule(spec.profile, rng)
    # The first supervised message ends the setup phase: a fresh process
    # pays a one-time cost on its first parse, which belongs to set-up.
    # A plain statement, so that set-up does not hinge on a costly repair.
    room, learner = members[0]
    text, kind = pools[0][0] if pools else _fresh(learner, "statement")
    ops.append({"op": "post", "room": room, "user": learner.name, "text": text,
                "kind": kind, "phase": "setup"})
    if spec.burst:
        ops.append({"op": "drain", "phase": "setup"})
    speakers = itertools.cycle(range(len(members)))
    for _ in range(spec.warmup):
        room, learner = members[next(speakers)]
        text, kind = _fresh(learner, next(kinds))
        ops.append({"op": "post", "room": room, "user": learner.name, "text": text,
                    "kind": kind, "phase": "warmup"})
    if spec.warmup and spec.burst:
        ops.append({"op": "drain", "phase": "warmup"})
    draw = None
    switches = [k * spec.posts // len(pools) for k in range(len(pools))]
    away: dict[int, int] = {}  # member index -> posts until it returns
    undo: dict[int, dict] = {}
    burst_left = spec.burst
    posted = 0
    while posted < spec.posts:
        if spec.churn and rng.random() < spec.churn and len(away) < len(members) // 2:
            index = rng.choice([i for i in range(len(members)) if i not in away])
            room, learner = members[index]
            if rng.random() < 0.5:
                ops.append({"op": "leave", "room": room, "user": learner.name, "phase": "timed"})
            else:
                ops.append({"op": "join", "room": room, "user": learner.name,
                            "role": "teacher", "phase": "timed"})
            undo[index] = {"op": "join", "room": room, "user": learner.name,
                           "role": "student", "phase": "timed"}
            away[index] = rng.randint(5, 40)
            continue
        index = next(speakers)
        if index in away:
            continue
        if switches and posted == switches[0]:
            switches.pop(0)
            draw = _warmup_and_draw(spec, rng, members, ops, pools[len(pools) - len(switches) - 1])
        room, learner = members[index]
        text, kind = draw() if draw else _fresh(learner, next(kinds))
        ops.append({"op": "post", "room": room, "user": learner.name, "text": text,
                    "kind": kind, "phase": "timed"})
        posted += 1
        for other in list(away):
            away[other] -= 1
            if away[other] == 0:
                del away[other]
                ops.append(undo.pop(other))
        if burst_left is not None:
            burst_left -= 1
            if burst_left == 0:
                ops.append({"op": "drain", "phase": "timed"})
                burst_left = spec.burst
    if spec.burst and ops[-1]["op"] != "drain":
        ops.append({"op": "drain", "phase": "timed"})
    return ops


def _fresh(learner: SimulatedLearner, slot: str | None = None) -> tuple[str, str]:
    """The learner's next utterance, or its next one that fills ``slot``:
    a kind, or ``syntax:<error class>``.

    Skipping the learner's other draws keeps the utterances of each slot
    distributed as the learner produces them.
    """
    for _ in range(MAX_DRAWS):
        utterance = learner.next_utterance()
        kind = utterance_kind(utterance)
        filled = f"syntax:{utterance.syntax_error.value}" if kind == "syntax" else kind
        if slot is None or filled == slot:
            return utterance.text, kind
    raise ValueError(f"{learner.name} produced no {slot!r} utterance in {MAX_DRAWS} draws")


def _quota(profile: LearnerProfile, total: int) -> dict[str, int]:
    """How many of ``total`` utterances each kind gets under ``profile``."""
    plain = 1.0 - profile.question_rate - profile.chitchat_rate - profile.semantic_error_rate
    shares = {
        "question": profile.question_rate,
        "chitchat": profile.chitchat_rate,
        "semantic": profile.semantic_error_rate,
        "syntax": plain * profile.syntax_error_rate,
        "statement": plain * (1.0 - profile.syntax_error_rate),
    }
    quota = {kind: round(total * share) for kind, share in shares.items() if share > 0}
    quota["statement"] = quota.get("statement", 0) + total - sum(quota.values())
    return quota


def _kind_schedule(profile: LearnerProfile, rng: random.Random):
    """Endless slots (see ``_fresh``) of fresh posts: shuffled blocks of
    ``MIX_BLOCK``, each in the profile's exact mix of kinds."""
    block = []
    for kind, count in _quota(profile, MIX_BLOCK).items():
        if kind == "syntax":
            block += [f"syntax:{SYNTAX_CLASSES[i % len(SYNTAX_CLASSES)]}" for i in range(count)]
        else:
            block += [kind] * count
    while True:
        yield from rng.sample(block, len(block))


def _pool(spec, rng) -> list[tuple[str, str]]:
    """``spec.pool`` distinct utterances in Zipf rank order.

    Each kind gets its share of the profile, and the kinds are spread
    evenly over the ranks, so that whichever ranks the skew favours, the
    traffic keeps the profile's mix of kinds.
    """
    profile = spec.profile
    quota = _quota(profile, spec.pool)
    source = SimulatedLearner("pool", default_ontology(), profile=profile, seed=rng.randrange(1 << 30))
    by_kind: dict[str, list[tuple[str, str]]] = {kind: [] for kind in quota}
    seen: set[str] = set()
    for _ in range(spec.pool * 400):
        text, kind = _fresh(source)
        if text not in seen and len(by_kind.get(kind, ())) < quota.get(kind, 0):
            seen.add(text)
            by_kind[kind].append((text, kind))
            if len(seen) == spec.pool:
                break
    ranked = [
        ((index + 0.5) / len(items), kind, item)
        for kind, items in by_kind.items()
        for index, item in enumerate(items)
    ]
    return [item for _position, _kind, item in sorted(ranked)]


def _warmup_and_draw(spec, rng, members, ops, pool):
    """Emit the untimed pass over the pool; return the Zipf drawer."""
    for index, (text, kind) in enumerate(rng.sample(pool, len(pool))):
        room, learner = members[index % len(members)]
        ops.append({"op": "post", "room": room, "user": learner.name, "text": text,
                    "kind": kind, "phase": "warmup"})
    cumulative = list(itertools.accumulate(1.0 / rank**spec.zipf for rank in range(1, len(pool) + 1)))
    total = cumulative[-1]

    def draw() -> tuple[str, str]:
        return pool[bisect.bisect_left(cumulative, rng.random() * total)]

    return draw


def to_jsonl(ops: list[dict]) -> str:
    return "".join(json.dumps(op, sort_keys=True, separators=(",", ":")) + "\n" for op in ops)


def summary(ops: list[dict]) -> dict:
    """Distinct-sentence ratio and operation mix of the timed phase."""
    timed = [op for op in ops if op["phase"] == "timed"]
    posts = [op for op in timed if op["op"] == "post"]
    mix = Counter(op["op"] for op in timed)
    kinds = Counter(op["kind"] for op in posts)
    return {
        "timed_ops": len(timed),
        "posts": len(posts),
        "distinct_ratio": round(len({op["text"] for op in posts}) / max(1, len(posts)), 4),
        "op_mix": {k: round(v / max(1, len(timed)), 4) for k, v in sorted(mix.items())},
        "post_mix": {k: round(v / max(1, len(posts)), 4) for k, v in sorted(kinds.items())},
    }
