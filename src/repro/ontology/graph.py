"""Weighted graph view of an ontology, with shortest-path distances.

The Sentence Distance Evaluation (section 4.3) asks "how far apart are
these two keywords in the knowledge ontology?".  We answer with weighted
shortest paths over the relation graph, treating relations as undirected
for distance purposes (being operated-on is as close as operating).

The implementation is self-contained (binary-heap Dijkstra); ``networkx``
is used only in the test suite as an oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Ontology, RelationKind

INFINITY = float("inf")


@dataclass(frozen=True, slots=True)
class PathResult:
    """A shortest path between two ontology items."""

    distance: float
    nodes: tuple[int, ...]

    @property
    def reachable(self) -> bool:
        return self.distance != INFINITY


class OntologyGraph:
    """Adjacency view over an :class:`~repro.ontology.model.Ontology`.

    A snapshot: the adjacency is copied from the ontology at construction
    and never refreshed, so items and relations added to the ontology
    afterwards are invisible here.  Nothing in the package rebuilds a
    graph after an edit; a caller that edits the ontology must build a
    new graph itself.  Single-source distances are memoized per source
    over that snapshot.
    """

    def __init__(self, ontology: Ontology, kinds: tuple[RelationKind, ...] | None = None) -> None:
        self.ontology = ontology
        self._adjacency: dict[int, list[tuple[int, float]]] = {}
        for item in ontology.items():
            self._adjacency[item.item_id] = []
        for relation in ontology.relations():
            if kinds is not None and relation.kind not in kinds:
                continue
            weight = relation.kind.weight
            self._adjacency[relation.source].append((relation.target, weight))
            self._adjacency[relation.target].append((relation.source, weight))
        self._distances: dict[int, dict[int, float]] = {}

    def neighbors(self, node: int) -> list[tuple[int, float]]:
        return list(self._adjacency.get(node, ()))

    def shortest_path(self, source: int, target: int) -> PathResult:
        """Dijkstra shortest path; ``INFINITY`` when unreachable."""
        if source not in self._adjacency or target not in self._adjacency:
            return PathResult(INFINITY, ())
        if source == target:
            return PathResult(0.0, (source,))
        best: dict[int, float] = {source: 0.0}
        previous: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > best.get(node, INFINITY):
                continue
            if node == target:
                break
            for neighbor, weight in self._adjacency[node]:
                candidate = dist + weight
                if candidate < best.get(neighbor, INFINITY):
                    best[neighbor] = candidate
                    previous[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if target not in best:
            return PathResult(INFINITY, ())
        path = [target]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return PathResult(best[target], tuple(path))

    def distance(self, source: int, target: int) -> float:
        if source not in self._adjacency or target not in self._adjacency:
            return INFINITY
        return self._single_source(source).get(target, INFINITY)

    def distances_from(self, source: int) -> dict[int, float]:
        """Single-source distances to every reachable node."""
        if source not in self._adjacency:
            return {}
        return dict(self._single_source(source))

    def _single_source(self, source: int) -> dict[int, float]:
        """Memoized Dijkstra from ``source``; stored only once complete."""
        best = self._distances.get(source)
        if best is not None:
            return best
        best = {source: 0.0}
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
        self._distances[source] = best
        return best

    def connected_components(self) -> list[set[int]]:
        """Connected components of the (undirected) relation graph."""
        seen: set[int] = set()
        components: list[set[int]] = []
        for start in self._adjacency:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor, _ in self._adjacency[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            components.append(component)
        return components
