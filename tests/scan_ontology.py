"""Test oracle: the ontology queries answered by linear relation scans.

:class:`ScanOntology` keeps the storage and mutators of
:class:`~repro.ontology.model.Ontology` but answers every relation query
the original way, by scanning the full relation list on each call with
no index and no memo; :class:`ScanGraph` runs a fresh Dijkstra for every
distance query.  The parity suites compare the indexed ontology
against it result for result, in order, and exception for exception.
"""

from __future__ import annotations

import heapq

from repro.ontology.graph import INFINITY, OntologyGraph
from repro.ontology.model import Item, ItemKind, Ontology, Relation, RelationKind


class ScanOntology(Ontology):
    """An :class:`Ontology` whose queries scan every relation."""

    def relations_from(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        source = self.resolve(key).item_id
        return [
            r for r in self._relations
            if r.source == source and (kind is None or r.kind == kind)
        ]

    def relations_to(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        target = self.resolve(key).item_id
        return [
            r for r in self._relations
            if r.target == target and (kind is None or r.kind == kind)
        ]

    def parents(self, key: int | str) -> list[Item]:
        return [self.get(r.target) for r in self.relations_from(key, RelationKind.IS_A)]

    def ancestors(self, key: int | str) -> list[Item]:
        start = self.resolve(key).item_id
        seen: list[int] = []
        frontier = [start]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for relation in self.relations_from(node, RelationKind.IS_A):
                    if relation.target not in seen and relation.target != start:
                        seen.append(relation.target)
                        next_frontier.append(relation.target)
            frontier = next_frontier
        return [self.get(item_id) for item_id in seen]

    def operations_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        concept = self.resolve(key)
        sources = [concept] + (self.ancestors(concept.item_id) if inherit else [])
        operations: dict[int, Item] = {}
        for source in sources:
            for relation in self.relations_from(source.item_id, RelationKind.HAS_OPERATION):
                operations.setdefault(relation.target, self.get(relation.target))
        return list(operations.values())

    def has_operation(self, concept: int | str, operation: int | str, inherit: bool = True) -> bool:
        target = self.resolve(operation).item_id
        return any(op.item_id == target for op in self.operations_of(concept, inherit=inherit))

    def concepts_with_operation(self, operation: int | str, inherit: bool = True) -> list[Item]:
        result = []
        for item in self.items_of_kind(ItemKind.CONCEPT):
            if self.has_operation(item.item_id, operation, inherit=inherit):
                result.append(item)
        return result

    def properties_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        concept = self.resolve(key)
        sources = [concept] + (self.ancestors(concept.item_id) if inherit else [])
        properties: dict[int, Item] = {}
        for source in sources:
            for relation in self.relations_from(source.item_id, RelationKind.HAS_PROPERTY):
                properties.setdefault(relation.target, self.get(relation.target))
        return list(properties.values())

    def validate(self) -> list[str]:
        problems = []
        for relation in self._relations:
            if relation.source not in self._items or relation.target not in self._items:
                problems.append(f"dangling relation {relation}")
        for item in self.items():
            seen = {item.item_id}
            frontier = [item.item_id]
            while frontier:
                node = frontier.pop()
                for relation in self.relations_from(node, RelationKind.IS_A):
                    if relation.target == item.item_id:
                        problems.append(f"is-a cycle through {item.name!r}")
                        frontier = []
                        break
                    if relation.target not in seen:
                        seen.add(relation.target)
                        frontier.append(relation.target)
        return problems


def scan_twin(ontology: Ontology) -> ScanOntology:
    """A :class:`ScanOntology` holding the same items and relations,
    added in the same order."""
    twin = ScanOntology(ontology.domain)
    for item in ontology._items.values():
        twin.add_item(item)
    for relation in ontology.relations():
        twin.add_relation(relation.source, relation.kind, relation.target)
    return twin


class ScanGraph(OntologyGraph):
    """An :class:`OntologyGraph` that recomputes every distance query."""

    def distance(self, source: int, target: int) -> float:
        return self.shortest_path(source, target).distance

    def distances_from(self, source: int) -> dict[int, float]:
        if source not in self._adjacency:
            return {}
        best: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > best.get(node, INFINITY):
                continue
            for neighbor, weight in self._adjacency[node]:
                candidate = dist + weight
                if candidate < best.get(neighbor, INFINITY):
                    best[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return best
