"""Out-of-program tracing: spans around each module's public entry points.

:func:`install` replaces the listed methods and functions of the
``repro`` package with wrappers that time every call.  Spans nest per
thread: a span's *self* time is its duration minus the time of the spans
it caused, so summing self times over a thread never counts an interval
twice.  Spans are folded into per-thread ``name -> [calls, total, self]``
tables as they close (in memory, no I/O on the hot path) and written out
once, when the run ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types

# Spans that time waiting, not work: the drain barrier's wait for the
# pool.  They nest like any span but add to no layer's self time.
WAIT_SPANS = frozenset({"runtime.wait"})

# (module, owner class or None for a module-level function, attribute, span)
TARGETS = [
    ("repro.core.system", "ELearningSystem", "say", "core.say"),
    ("repro.core.system", "ELearningSystem", "drain", "core.drain"),
    ("repro.core.system", "ELearningSystem", "open_room", "core.membership"),
    ("repro.core.system", "ELearningSystem", "join", "core.membership"),
    ("repro.core.system", "ELearningSystem", "leave", "core.membership"),
    ("repro.chatroom.server", "ChatServer", "post", "chatroom.post"),
    ("repro.chatroom.server", "ChatServer", "post_agent_reply", "chatroom.reply"),
    ("repro.chatroom.supervisor", "SupervisionPipeline", "on_item", "pipeline.on_item"),
    ("repro.chatroom.runtime", "SupervisionRuntime", "drain", "runtime.drain"),
    ("repro.chatroom.shard", "SupervisionWorker", "process_batch", "runtime.batch"),
    ("repro.chatroom.runtime", None, "wait", "runtime.wait"),
    ("repro.chatroom.supervisor", "ShardStores", "merge", "state.merge"),
    ("repro.chatroom.supervisor", "ShardStores", "rebase", "state.rebase"),
    ("repro.resilience.controller", "ResilienceController", "guard", "resilience.guard"),
    ("repro.linkgrammar.robust", "RobustAnalyzer", "analyze", "linkgrammar.analyze"),
    ("repro.linkgrammar.parser", "Parser", "parse", "linkgrammar.parse"),
    ("repro.linkgrammar.repair", "SentenceRepairer", "repair", "linkgrammar.repair"),
    ("repro.linkgrammar.tokenizer", None, "tokenize", "nlp.tokenize"),
    ("repro.nlp.patterns", None, "classify", "nlp.classify"),
    ("repro.nlp.keywords", "KeywordFilter", "extract", "nlp.keywords"),
    ("repro.agents.learning_angel", "LearningAngelAgent", "review", "agents.angel_review"),
    ("repro.agents.learning_angel", "LearningAngelAgent", "record", "agents.angel_record"),
    ("repro.agents.semantic_agent", "SemanticAgent", "review", "agents.semantic_review"),
    ("repro.ontology.model", "Ontology", "items_of_kind", "ontology.items_of_kind"),
    ("repro.ontology.model", "Ontology", "relations_from", "ontology.relations_from"),
    ("repro.ontology.model", "Ontology", "relations_to", "ontology.relations_to"),
    ("repro.ontology.model", "Ontology", "parents", "ontology.parents"),
    ("repro.ontology.model", "Ontology", "ancestors", "ontology.ancestors"),
    ("repro.ontology.model", "Ontology", "operations_of", "ontology.operations_of"),
    ("repro.ontology.model", "Ontology", "has_operation", "ontology.has_operation"),
    ("repro.ontology.model", "Ontology", "concepts_with_operation", "ontology.concepts_with_operation"),
    ("repro.ontology.model", "Ontology", "properties_of", "ontology.properties_of"),
    ("repro.ontology.distance", "SemanticDistanceEvaluator", "distance", "ontology.distance"),
    ("repro.ontology.distance", "SemanticDistanceEvaluator", "evaluate_pair", "ontology.evaluate_pair"),
    ("repro.ontology.distance", "SemanticDistanceEvaluator", "concepts_supporting", "ontology.concepts_supporting"),
    ("repro.ontology.distance", "SemanticDistanceEvaluator", "operations_available", "ontology.operations_available"),
    ("repro.ontology.distance", "SemanticDistanceEvaluator", "nearest_items", "ontology.nearest_items"),
    ("repro.qa.engine", "QASystem", "resolve", "qa.resolve"),
    ("repro.qa.engine", "QASystem", "apply_resolution", "qa.apply"),
    ("repro.corpus.store", "LearnerCorpus", "add", "corpus.add"),
    ("repro.corpus.store", "CorpusReplica", "add", "corpus.add"),
    ("repro.corpus.search", "SuggestionSearch", "find", "corpus.search"),
    ("repro.profiles.store", "UserProfileStore", "record_activity", "profiles.record"),
    ("repro.profiles.store", "ProfileReplica", "record_activity", "profiles.record"),
    ("repro.durability.wal", "EventLog", "append", "durability.wal_append"),
    ("repro.durability.manager", "DurabilityManager", "snapshot", "durability.snapshot"),
    ("repro.durability.manager", None, "replay_events", "durability.replay"),
    ("repro.serving.gateway", "ChatGateway", "post", "serving.gateway_post"),
    ("repro.serving.gateway", "ChatGateway", "transcript_since", "serving.read"),
    ("repro.serving.http", "ChatRequestHandler", "parse_request", "serving.http"),
    ("repro.serving.http", "ChatRequestHandler", "do_POST", "serving.http"),
    ("repro.serving.http", "ChatRequestHandler", "do_GET", "serving.http"),
]


class _ThreadState:
    __slots__ = ("stack", "table", "root")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.table: dict[str, list] = {}
        self.root = 0.0


class Tracer:
    """Per-thread span tables; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main_state = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)  # list.append is atomic under the GIL
        return state

    def wrap(self, name: str, fn):
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                row = state.table.get(name)
                if row is None:
                    row = state.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    state.root += elapsed

        return traced

    def table(self) -> dict[str, list]:
        """Every thread's spans folded together: ``name -> [calls, total_s, self_s]``."""
        merged: dict[str, list] = {}
        for state in list(self._states):
            for name, (calls, total, own) in list(state.table.items()):
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return merged

    @property
    def main_root_s(self) -> float:
        """Time covered by outermost spans on the thread that installed us."""
        return self._main_state.root

    def reset(self) -> None:
        for state in list(self._states):
            state.table.clear()
            state.root = 0.0


def install(tracer: Tracer) -> int:
    """Wrap every target that exists; returns how many were wrapped."""
    import importlib

    wrapped = 0
    for module_name, owner, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        if owner is None:
            original = getattr(module, attr)
            replacement = tracer.wrap(span, original)
            # Callers bound the function by name at import time: rebind
            # it in every loaded repro module that holds the original.
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and isinstance(loaded, types.ModuleType):
                    if loaded.__dict__.get(attr) is original:
                        setattr(loaded, attr, replacement)
            wrapped += 1
            continue
        cls = getattr(module, owner)
        # May be inherited (``parse_request`` comes from the stdlib
        # handler); the wrapper is set on ``cls`` alone either way.
        original = getattr(cls, attr)
        if not callable(original):
            raise TypeError(f"{module_name}.{owner}.{attr} is not a plain function")
        setattr(cls, attr, tracer.wrap(span, original))
        wrapped += 1
    return wrapped
