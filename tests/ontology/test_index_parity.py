"""The indexed ontology answers exactly as the relation scans it replaced.

Every public query of :class:`~repro.ontology.model.Ontology` and every
distance query of :class:`~repro.ontology.graph.OntologyGraph` is
compared against the scan oracle in ``tests/scan_ontology.py``: same
results in the same order, same exception type and message.  Inputs are
the shipped domain, its XML and DDL round trips, an empty ontology, and
random interleavings of edits and queries, so a memo that outlives the
generation it was built for shows up as a mismatch.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.ontology import (
    Item,
    ItemKind,
    Ontology,
    OntologyGraph,
    RelationKind,
    SemanticDistanceEvaluator,
    from_xml,
    interpret_script,
    render_script,
    to_xml,
    translate,
)
from repro.ontology.domains import build_data_structure_ontology
from scan_ontology import ScanGraph, ScanOntology, scan_twin

KINDS = [*RelationKind, None]
UNKNOWN_KEYS = [0, 9999, "no such item"]


def outcome(method, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("ok", method(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raise", type(exc), str(exc))


def query_calls(keys, pair_keys):
    """(method name, args) for every public query over ``keys``."""
    for key in keys:
        for kind in KINDS:
            yield "relations_from", (key, kind)
            yield "relations_to", (key, kind)
        yield "parents", (key,)
        yield "ancestors", (key,)
        for inherit in (True, False):
            yield "operations_of", (key, inherit)
            yield "properties_of", (key, inherit)
            yield "concepts_with_operation", (key, inherit)
    for concept in pair_keys:
        for operation in pair_keys:
            for inherit in (True, False):
                yield "has_operation", (concept, operation, inherit)
    for kind in ItemKind:
        yield "items_of_kind", (kind,)
    yield "validate", ()


def assert_parity(indexed: Ontology, scan: ScanOntology, keys, pair_keys) -> None:
    for name, args in query_calls(keys, pair_keys):
        expected = outcome(getattr(scan, name), *args)
        assert outcome(getattr(indexed, name), *args) == expected, (name, args)


def all_keys(ontology: Ontology) -> tuple[list, list]:
    """Every id, name and alias (plus upper-cased names and unknown
    keys), and the ids plus unknown keys for pairwise queries."""
    ids = [item.item_id for item in ontology.items()]
    names = list(ontology.term_index())
    keys = ids + names + [name.upper() for name in names[:5]] + UNKNOWN_KEYS
    return keys, ids + UNKNOWN_KEYS


def shipped_variants() -> dict[str, Ontology]:
    shipped = build_data_structure_ontology()
    return {
        "shipped": shipped,
        "xml": from_xml(to_xml(shipped)),
        "ddl": interpret_script(render_script(translate(shipped)), shipped.domain),
    }


@pytest.mark.parametrize("variant", ["shipped", "xml", "ddl"])
def test_queries_match_scans_on_shipped_domain(variant):
    ontology = shipped_variants()[variant]
    scan = scan_twin(ontology)
    keys, pair_keys = all_keys(ontology)
    # Twice: the second pass answers from the memos the first built.
    assert_parity(ontology, scan, keys, pair_keys)
    assert_parity(ontology, scan, keys, pair_keys)


def test_empty_ontology_raises_and_answers_alike():
    assert_parity(Ontology(), ScanOntology(), UNKNOWN_KEYS, UNKNOWN_KEYS)
    # No concept ever resolves the operation, so even an unknown one
    # answers [] instead of raising.
    assert Ontology().concepts_with_operation("no such item") == []


def test_results_are_fresh_lists():
    ontology = build_data_structure_ontology()
    for name, key in [
        ("ancestors", "avl tree"),
        ("operations_of", "avl tree"),
        ("properties_of", "avl tree"),
        ("relations_from", "avl tree"),
        ("concepts_with_operation", "push"),
    ]:
        method = getattr(ontology, name)
        first = method(key)
        first.clear()
        assert method(key) != [] and method(key) is not method(key), name


def test_generation_counts_effective_edits():
    ontology = Ontology()
    assert ontology.generation == 0
    ontology.add_item(Item(1, "stack"))
    ontology.add_item(Item(2, "container"))
    assert ontology.generation == 2
    with pytest.raises(ValueError):
        ontology.add_item(Item(1, "other"))
    ontology.add_relation("stack", RelationKind.IS_A, "container")
    ontology.add_relation("stack", RelationKind.IS_A, "container")  # duplicate: no-op
    assert ontology.generation == 3


def test_edit_after_query_is_seen():
    ontology = Ontology()
    for item in (Item(1, "stack"), Item(2, "container"), Item(30, "push", ItemKind.OPERATION)):
        ontology.add_item(item)
    ontology.add_relation("stack", RelationKind.IS_A, "container")
    assert ontology.concepts_with_operation("push") == []
    assert not ontology.has_operation("stack", "push")
    ontology.add_relation("container", RelationKind.HAS_OPERATION, "push")
    assert [c.name for c in ontology.concepts_with_operation("push")] == ["stack", "container"]
    assert ontology.has_operation("stack", "push")
    ontology.add_item(Item(3, "vector"))
    ontology.add_relation("vector", RelationKind.IS_A, "stack")
    supporters = ontology.concepts_with_operation("push")
    assert [c.name for c in supporters] == ["stack", "container", "vector"]
    assert [a.name for a in ontology.ancestors("vector")] == ["stack", "container"]


# ------------------------------------------------------------ graph parity


@pytest.mark.parametrize("kinds", [None, (RelationKind.IS_A, RelationKind.HAS_OPERATION)])
def test_graph_distances_match_fresh_dijkstra(kinds):
    ontology = build_data_structure_ontology()
    graph, scan = OntologyGraph(ontology, kinds), ScanGraph(ontology, kinds)
    nodes = [item.item_id for item in ontology.items()] + [9999]
    for _ in range(2):
        for source in nodes:
            expected = scan.distances_from(source)
            got = graph.distances_from(source)
            assert list(got.items()) == list(expected.items())
            got.clear()  # a copy: the memo is untouched
            for target in nodes:
                assert graph.distance(source, target) == scan.distance(source, target)


def test_evaluator_matches_scan_evaluator():
    ontology = build_data_structure_ontology()
    scan = scan_twin(ontology)
    indexed_eval = SemanticDistanceEvaluator(ontology)
    scan_eval = SemanticDistanceEvaluator(scan)
    scan_eval.graph = ScanGraph(scan)
    ids = [item.item_id for item in ontology.items()]
    for left in ids:
        for right in ids:
            assert indexed_eval.evaluate_pair(left, right) == scan_eval.evaluate_pair(left, right)
        available = outcome(scan_eval.operations_available, left)
        assert outcome(indexed_eval.operations_available, left) == available
        assert indexed_eval.nearest_items(left, 8) == scan_eval.nearest_items(left, 8)
        for near in (None, "stack", left):
            assert outcome(indexed_eval.concepts_supporting, left, near) == outcome(
                scan_eval.concepts_supporting, left, near
            )


# ------------------------------------------- random edits and queries


_names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
_ids = st.integers(1, 7)
_keys = st.one_of(_ids, _names)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add_item"), _ids, _names, st.sampled_from(list(ItemKind))),
        st.tuples(st.just("add_relation"), _keys, st.sampled_from(list(RelationKind)), _keys),
        st.tuples(
            st.just("query"),
            st.sampled_from([
                "relations_from", "relations_to", "parents", "ancestors", "operations_of",
                "properties_of", "concepts_with_operation", "has_operation", "validate",
            ]),
            _keys,
            _keys,
            st.sampled_from(KINDS),
            st.booleans(),
        ),
    ),
    max_size=40,
)


def _query_args(name, key, other, kind, inherit):
    if name in ("relations_from", "relations_to"):
        return (key, kind)
    if name in ("parents", "ancestors"):
        return (key,)
    if name == "has_operation":
        return (key, other, inherit)
    if name == "validate":
        return ()
    return (key, inherit)


@given(_steps)
@settings(max_examples=150, deadline=None)
def test_interleaved_edits_and_queries(steps):
    indexed, scan = Ontology("random"), ScanOntology("random")
    for step in steps:
        if step[0] == "add_item":
            _, item_id, name, kind = step
            assert outcome(indexed.add_item, Item(item_id, name, kind)) == outcome(
                scan.add_item, Item(item_id, name, kind)
            )
        elif step[0] == "add_relation":
            _, source, kind, target = step
            assert outcome(indexed.add_relation, source, kind, target) == outcome(
                scan.add_relation, source, kind, target
            )
        else:
            _, name, key, other, kind, inherit = step
            args = _query_args(name, key, other, kind, inherit)
            expected = outcome(getattr(scan, name), *args)
            assert outcome(getattr(indexed, name), *args) == expected, (name, args)
    keys = list(range(0, 9)) + ["a", "b", "c", "d", "e", "f", "g", "zz"]
    assert_parity(indexed, scan, keys, keys)


_EDIT_KEYS = ["stack", "tree", "queue", "heap", "push", "pop", "root", "ring", "trie"]
_evaluator_edits = st.lists(
    st.one_of(
        st.tuples(
            st.just("add_item"),
            st.integers(900, 903),
            st.sampled_from(["ring", "trie"]),
            st.sampled_from(list(ItemKind)),
        ),
        st.tuples(
            st.just("add_relation"),
            st.sampled_from(_EDIT_KEYS),
            st.sampled_from(list(RelationKind)),
            st.sampled_from(_EDIT_KEYS),
        ),
    ),
    min_size=1,
    max_size=6,
)


@given(_evaluator_edits)
@settings(max_examples=40, deadline=None)
def test_evaluator_answers_like_a_fresh_one_after_edits(edits):
    ontology = build_data_structure_ontology()
    live = SemanticDistanceEvaluator(ontology)
    for step in edits:
        # Query first, so the live evaluator holds distances memoized
        # before the edit.
        outcome(live.nearest_items, "stack", 8)
        if step[0] == "add_item":
            _, item_id, name, kind = step
            outcome(ontology.add_item, Item(item_id, name, kind))
        else:
            _, source, kind, target = step
            outcome(ontology.add_relation, source, kind, target)
        fresh = SemanticDistanceEvaluator(ontology)
        for left in _EDIT_KEYS:
            assert outcome(live.nearest_items, left, 8) == outcome(fresh.nearest_items, left, 8)
            for right in _EDIT_KEYS:
                assert outcome(live.evaluate_pair, left, right) == outcome(
                    fresh.evaluate_pair, left, right
                ), (left, right)
                assert outcome(live.concepts_supporting, left, right) == outcome(
                    fresh.concepts_supporting, left, right
                ), (left, right)


# ------------------------------------------------------------- threads


def test_threads_racing_first_queries_get_oracle_answers():
    oracle = scan_twin(build_data_structure_ontology())
    keys, pair_keys = all_keys(oracle)
    pair_keys = pair_keys[::3]
    calls = list(query_calls(keys, pair_keys))
    expected = [outcome(getattr(oracle, name), *args) for name, args in calls]

    fresh = build_data_structure_ontology()
    graph = OntologyGraph(fresh)
    scan_graph = ScanGraph(fresh)
    nodes = [item.item_id for item in fresh.items()]
    expected_distances = [scan_graph.distances_from(node) for node in nodes]

    workers = 6
    barrier = threading.Barrier(workers)
    mismatches: list[object] = []
    finished: list[int] = []

    def worker(offset: int) -> None:
        barrier.wait(timeout=60)
        # Each thread starts at a different point so the memo builds overlap.
        order = calls[offset:] + calls[:offset]
        answers = {(name, args): outcome(getattr(fresh, name), *args) for name, args in order}
        got = [answers[(name, args)] for name, args in calls]
        if got != expected:
            mismatches.append(offset)
        if [graph.distances_from(node) for node in nodes] != expected_distances:
            mismatches.append(("graph", offset))
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i * 97,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == workers
    assert mismatches == []
