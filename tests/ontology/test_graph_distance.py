"""Ontology graph distances, with networkx as a property-test oracle."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.ontology import INFINITY, OntologyGraph, SemanticDistanceEvaluator
from repro.ontology.builder import OntologyBuilder
from repro.ontology.domains import build_data_structure_ontology, default_ontology
from repro.ontology.model import Item, ItemKind, RelationKind


@pytest.fixture(scope="module")
def ontology():
    return default_ontology()


@pytest.fixture(scope="module")
def graph(ontology):
    return OntologyGraph(ontology)


class TestPaperDistances:
    """Section 4.3: tree (4) and pop (33) 'is not related'."""

    def test_paper_ids(self, ontology):
        assert ontology.find("stack").item_id == 3
        assert ontology.find("tree").item_id == 4
        assert ontology.find("push").item_id == 32
        assert ontology.find("pop").item_id == 33

    def test_stack_push_adjacent(self, graph, ontology):
        assert graph.distance(3, 32) == 1.0

    def test_tree_pop_far(self, graph):
        assert graph.distance(4, 33) > 2.0

    def test_verdicts(self, ontology):
        evaluator = SemanticDistanceEvaluator(ontology)
        assert evaluator.evaluate_pair("stack", "push").related
        assert not evaluator.evaluate_pair("tree", "pop").related


class TestGraphBasics:
    def test_distance_to_self(self, graph):
        assert graph.distance(3, 3) == 0.0

    def test_symmetry(self, graph, ontology):
        items = [item.item_id for item in ontology.items()][:20]
        for a in items[:5]:
            for b in items[5:10]:
                assert graph.distance(a, b) == graph.distance(b, a)

    def test_unreachable_is_infinite(self):
        b = OntologyBuilder()
        b.concept("a", item_id=1)
        b.concept("b", item_id=2)
        graph = OntologyGraph(b.build())
        assert graph.distance(1, 2) == INFINITY

    def test_shortest_path_nodes(self, graph, ontology):
        result = graph.shortest_path(
            ontology.find("avl tree").item_id, ontology.find("tree").item_id
        )
        assert result.reachable
        assert result.nodes[0] == ontology.find("avl tree").item_id
        assert result.nodes[-1] == ontology.find("tree").item_id
        assert result.distance == len(result.nodes) - 1  # all is-a hops, weight 1

    def test_distances_from_contains_source(self, graph):
        distances = graph.distances_from(3)
        assert distances[3] == 0.0
        assert len(distances) > 10

    def test_whole_domain_is_connected(self, graph, ontology):
        components = graph.connected_components()
        assert len(components) == 1

    def test_unknown_node(self, graph):
        assert graph.distance(99999, 3) == INFINITY


def _as_networkx(ontology) -> nx.Graph:
    g = nx.Graph()
    for item in ontology.items():
        g.add_node(item.item_id)
    for relation in ontology.relations():
        weight = relation.kind.weight
        if g.has_edge(relation.source, relation.target):
            weight = min(weight, g[relation.source][relation.target]["weight"])
        g.add_edge(relation.source, relation.target, weight=weight)
    return g


class TestAgainstNetworkxOracle:
    """Property tests: our Dijkstra agrees with networkx everywhere."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_pairs_match_oracle(self, seed):
        import random

        ontology = default_ontology()
        graph = OntologyGraph(ontology)
        oracle = _as_networkx(ontology)
        rng = random.Random(seed)
        ids = [item.item_id for item in ontology.items()]
        a, b = rng.choice(ids), rng.choice(ids)
        ours = graph.distance(a, b)
        try:
            theirs = nx.dijkstra_path_length(oracle, a, b)
        except nx.NetworkXNoPath:
            theirs = INFINITY
        assert ours == pytest.approx(theirs)

    def test_all_pairs_from_stack_match_oracle(self):
        ontology = default_ontology()
        graph = OntologyGraph(ontology)
        oracle = _as_networkx(ontology)
        source = ontology.find("stack").item_id
        ours = graph.distances_from(source)
        theirs = nx.single_source_dijkstra_path_length(oracle, source)
        assert set(ours) == set(theirs)
        for node, distance in theirs.items():
            assert ours[node] == pytest.approx(distance)


class TestSuggestions:
    def test_concepts_supporting_pop(self, ontology):
        evaluator = SemanticDistanceEvaluator(ontology)
        names = [item.name for item in evaluator.concepts_supporting("pop")]
        assert "stack" in names

    def test_near_anchor_changes_order(self, ontology):
        evaluator = SemanticDistanceEvaluator(ontology)
        ranked = evaluator.concepts_supporting("insert", near="avl tree")
        # The nearest insert-supporting concept to an AVL tree should be a
        # tree-family structure, not the hash table.
        assert ranked[0].name in {"binary search tree", "tree", "avl tree"}

    def test_operations_available_sorted(self, ontology):
        evaluator = SemanticDistanceEvaluator(ontology)
        names = [item.name for item in evaluator.operations_available("stack")]
        assert names == sorted(names)
        assert "push" in names and "pop" in names

    def test_nearest_items_excludes_self(self, ontology):
        evaluator = SemanticDistanceEvaluator(ontology)
        nearest = evaluator.nearest_items("stack", limit=5)
        assert len(nearest) == 5
        assert all(item.name != "stack" for item, _distance in nearest)
        distances = [distance for _item, distance in nearest]
        assert distances == sorted(distances)


class TestEvaluatorFollowsEdits:
    """The evaluator rebuilds its graph when the ontology generation
    moves, and only then.  Edits go to a private build: the cached
    ``default_ontology()`` is shared process-wide."""

    def test_graph_reused_while_ontology_unchanged(self):
        evaluator = SemanticDistanceEvaluator(build_data_structure_ontology())
        graph = evaluator.graph
        evaluator.evaluate_pair("stack", "push")
        evaluator.nearest_items("tree", limit=3)
        evaluator.concepts_supporting("pop", near="tree")
        assert evaluator.graph is graph

    def test_added_relation_shortens_distance_and_relates_pair(self):
        ontology = build_data_structure_ontology()
        evaluator = SemanticDistanceEvaluator(ontology)
        assert evaluator.distance("tree", "pop") > 2.0
        assert not evaluator.evaluate_pair("tree", "pop").related
        ontology.add_relation("tree", RelationKind.HAS_OPERATION, "pop")
        assert evaluator.distance("tree", "pop") == 1.0
        assert evaluator.evaluate_pair("tree", "pop").related
        assert "tree" in [item.name for item in evaluator.concepts_supporting("pop")]

    def test_added_item_gains_neighbours_once_related(self):
        ontology = build_data_structure_ontology()
        evaluator = SemanticDistanceEvaluator(ontology)
        ontology.add_item(Item(950, "ring buffer", ItemKind.CONCEPT))
        assert evaluator.nearest_items("ring buffer", 3) == []  # isolated
        ontology.add_relation("ring buffer", RelationKind.IS_A, "queue")
        nearest = evaluator.nearest_items("ring buffer", 3)
        assert nearest[0][0].name == "queue"
        assert nearest == SemanticDistanceEvaluator(ontology).nearest_items("ring buffer", 3)
