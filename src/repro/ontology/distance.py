"""Semantic distance evaluation over the knowledge ontology.

This is the decision kernel of the paper's chosen Semantic Agent
methodology ("Semantic Relation of Knowledge Ontology", section 4.3):
given the keywords of a sentence, locate them in the ontology, measure
how related they are, and decide whether a concept/operation pairing
makes sense — e.g. *tree* (id 4) with *pop* (id 33) "is not related",
so "I push the data into a tree" is flagged while the negated
"The tree doesn't have pop method" is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import INFINITY, OntologyGraph
from .model import Item, ItemKind, Ontology

DEFAULT_RELATED_THRESHOLD = 2.0


@dataclass(frozen=True, slots=True)
class DistanceVerdict:
    """Outcome of evaluating one keyword pair.

    Attributes:
        left_id / right_id: ontology ids of the evaluated items.
        distance: weighted shortest-path distance (INFINITY = unrelated).
        related: True when the pair is semantically close (supports the
            affirmative reading of the sentence).
        capability: for concept/operation pairs, whether the concept
            actually supports the operation (inheritance included);
            None when the pair is not a concept/operation pairing.
    """

    left_id: int
    right_id: int
    distance: float
    related: bool
    capability: bool | None = None


class SemanticDistanceEvaluator:
    """Evaluates keyword pairs against the ontology's current state.

    Distances come from :attr:`graph`, an :class:`OntologyGraph`
    snapshot.  Every query first compares the ontology's
    :attr:`~repro.ontology.model.Ontology.generation` with the one the
    snapshot was taken at and rebuilds the graph after an edit, so
    distances never lag behind the capability answers.
    """

    def __init__(
        self,
        ontology: Ontology,
        related_threshold: float = DEFAULT_RELATED_THRESHOLD,
    ) -> None:
        self.ontology = ontology
        self.related_threshold = related_threshold
        self._graph_generation = ontology.generation
        self.graph = OntologyGraph(ontology)

    def _current_graph(self) -> OntologyGraph:
        generation = self.ontology.generation
        if generation == self._graph_generation:
            return self.graph
        # Publish the graph before its generation: a concurrent reader
        # that sees the new generation must also see the new graph.
        graph = self.graph = OntologyGraph(self.ontology)
        self._graph_generation = generation
        return graph

    # ------------------------------------------------------------ queries

    def distance(self, left: int | str, right: int | str) -> float:
        """Weighted ontology distance between two items."""
        a = self.ontology.resolve(left).item_id
        b = self.ontology.resolve(right).item_id
        return self._current_graph().distance(a, b)

    def evaluate_pair(self, left: int | str, right: int | str) -> DistanceVerdict:
        """Judge one keyword pair, with capability logic for operations.

        A concept/operation pair is "related" only when the concept (or an
        IS-A ancestor) *has* the operation — mere graph proximity is not
        enough: tree and pop are both near "data structure", yet trees do
        not support pop.
        """
        left_item = self.ontology.resolve(left)
        right_item = self.ontology.resolve(right)
        dist = self._current_graph().distance(left_item.item_id, right_item.item_id)

        def verdict(related: bool, capability: bool | None) -> DistanceVerdict:
            return DistanceVerdict(
                left_id=left_item.item_id,
                right_id=right_item.item_id,
                distance=dist,
                related=related,
                capability=capability,
            )

        concept, operation = _typed_pair(left_item, right_item, ItemKind.OPERATION)
        if concept is not None and operation is not None:
            capable = self.ontology.has_operation(concept.item_id, operation.item_id)
            return verdict(capable, capable)

        concept, prop = _typed_pair(left_item, right_item, ItemKind.PROPERTY)
        if concept is not None and prop is not None:
            held = any(
                item.item_id == prop.item_id
                for item in self.ontology.properties_of(concept.item_id)
            )
            return verdict(held, held)

        if left_item.kind == ItemKind.CONCEPT and right_item.kind == ItemKind.CONCEPT:
            # IS-A claims: ancestry in either direction counts as related
            # regardless of path length ("an avl tree is a tree").
            left_ancestors = {a.item_id for a in self.ontology.ancestors(left_item.item_id)}
            right_ancestors = {a.item_id for a in self.ontology.ancestors(right_item.item_id)}
            if right_item.item_id in left_ancestors or left_item.item_id in right_ancestors:
                return verdict(True, True)

        return verdict(dist <= self.related_threshold, None)

    # -------------------------------------------------------- suggestions

    def concepts_supporting(self, operation: int | str, near: int | str | None = None) -> list[Item]:
        """Concepts that support ``operation``, nearest to ``near`` first.

        Used to build correction suggestions: for "I push the data into a
        tree", the nearest push-supporting concept (stack) is proposed.
        """
        candidates = self.ontology.concepts_with_operation(operation)
        if near is None:
            return sorted(candidates, key=lambda item: item.name)
        anchor = self.ontology.resolve(near).item_id
        distances = self._current_graph().distances_from(anchor)

        def sort_key(item: Item) -> tuple[float, str]:
            return (distances.get(item.item_id, INFINITY), item.name)

        return sorted(candidates, key=sort_key)

    def operations_available(self, concept: int | str) -> list[Item]:
        """Operations the concept does support (for "did you mean" hints)."""
        return sorted(
            self.ontology.operations_of(concept),
            key=lambda item: item.name,
        )

    def nearest_items(self, key: int | str, limit: int = 5) -> list[tuple[Item, float]]:
        """The ``limit`` closest items to ``key`` (excluding itself)."""
        anchor = self.ontology.resolve(key).item_id
        distances = self._current_graph().distances_from(anchor)
        ranked = sorted(
            ((self.ontology.get(node), dist) for node, dist in distances.items() if node != anchor),
            key=lambda pair: (pair[1], pair[0].name),
        )
        return ranked[:limit]


def _typed_pair(left: Item, right: Item, kind: ItemKind) -> tuple[Item | None, Item | None]:
    """Order a pair as (concept, <kind>) when it is such a pairing."""
    if left.kind == ItemKind.CONCEPT and right.kind == kind:
        return left, right
    if left.kind == kind and right.kind == ItemKind.CONCEPT:
        return right, left
    return None, None
