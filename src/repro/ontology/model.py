"""The knowledge-ontology object model (paper section 2.2, Figure 5).

The paper's Distance Learning Ontology is a *domain ontology*: a knowledge
body of **KeyItems** (concepts such as Array, Stack, Tree), each carrying a
**Definition** (description plus named symbols), **Operations** (SubItems
such as push/pop with their own ids — Fig. 5 shows push=32, pop=33 under
Stack), **Algorithms** (typed code attachments, e.g. ``type="c"``), and
typed **Relations** to other items.  Items are addressable both by numeric
id and by (multi-word) name; ids are what the Sentence Distance Evaluation
of section 4.3 looks up ("the id of the keywords 'tree' and 'pop' is 4
and 33").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class OntologyError(ValueError):
    """Raised for malformed or inconsistent ontology operations."""


class ItemKind(Enum):
    """What an ontology item denotes."""

    CONCEPT = "concept"        # KeyItem: a data structure / domain entity
    OPERATION = "operation"    # SubItem: a method such as push or pop
    PROPERTY = "property"      # a characteristic such as LIFO
    ALGORITHM = "algorithm"    # a named procedure such as binary search


class RelationKind(Enum):
    """Typed edges of the knowledge body.

    Weights encode semantic closeness for the Sentence Distance
    Evaluation: taxonomic and structural edges are tighter than loose
    associative ones.
    """

    IS_A = "is-a"
    HAS_OPERATION = "has-operation"
    HAS_PROPERTY = "has-property"
    PART_OF = "part-of"
    USES = "uses"
    IMPLEMENTED_WITH = "implemented-with"
    RELATED_TO = "related-to"

    @property
    def weight(self) -> float:
        return _RELATION_WEIGHTS[self]


_RELATION_WEIGHTS: dict[RelationKind, float] = {
    RelationKind.IS_A: 1.0,
    RelationKind.HAS_OPERATION: 1.0,
    RelationKind.HAS_PROPERTY: 1.0,
    RelationKind.PART_OF: 1.0,
    RelationKind.USES: 2.0,
    RelationKind.IMPLEMENTED_WITH: 2.0,
    RelationKind.RELATED_TO: 2.0,
}


@dataclass(slots=True)
class Definition:
    """A KeyItem's definition: free-text description plus named symbols."""

    description: str = ""
    symbols: dict[str, str] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.description and not self.symbols


@dataclass(slots=True)
class Algorithm:
    """A typed algorithm attachment (Fig. 5: ``Algorithm type="c"``)."""

    name: str
    type: str = "text"
    body: str = ""


@dataclass(slots=True)
class Item:
    """One ontology item: a KeyItem (concept) or SubItem (operation) etc.

    Attributes:
        item_id: stable numeric id, unique within the ontology.
        name: canonical lower-case name; may be multi-word.
        kind: concept / operation / property / algorithm.
        category: free-form grouping ("container", "measure", ...).
        definition: textual definition (mostly for concepts).
        aliases: alternative names resolving to this item.
        algorithms: attached algorithm texts.
    """

    item_id: int
    name: str
    kind: ItemKind = ItemKind.CONCEPT
    category: str = ""
    definition: Definition = field(default_factory=Definition)
    aliases: tuple[str, ...] = ()
    algorithms: list[Algorithm] = field(default_factory=list)

    def all_names(self) -> tuple[str, ...]:
        return (self.name,) + self.aliases


@dataclass(frozen=True, slots=True)
class Relation:
    """A typed, directed relation ``source --kind--> target`` (by id)."""

    source: int
    kind: RelationKind
    target: int


# Relation targets in first-occurrence order, plus their ids.
_Targets = tuple[tuple[Item, ...], frozenset[int]]


class _Memos:
    """Answers derived from one ontology generation.

    Every entry is immutable and stored only once complete, so a thread
    that reads an entry never sees a partial one; two threads racing to
    build the same entry store equal values.
    """

    __slots__ = ("generation", "closure", "inherited", "concepts", "supporters")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        # start id -> transitive IS-A ancestors, BFS order
        self.closure: dict[int, tuple[Item, ...]] = {}
        # (item id, HAS_OPERATION | HAS_PROPERTY, inherit) -> (targets, their ids)
        self.inherited: dict[tuple[int, RelationKind, bool], _Targets] = {}
        # concepts in id order (None until first asked)
        self.concepts: tuple[Item, ...] | None = None
        # inherit -> operation id -> supporting concepts, id order
        self.supporters: dict[bool, dict[int, tuple[Item, ...]]] = {}


class Ontology:
    """The knowledge body: items plus typed relations.

    Items are indexed by id and by every name/alias (lower-cased).
    Relations are indexed by ``(source, kind)`` and ``(target, kind)``
    (``kind=None`` lists every kind), each list in insertion order.
    IS-A closures, inherited operations and properties and the
    concepts-per-operation map are memoized per :attr:`generation`.
    Graph analytics live in :mod:`repro.ontology.graph` and
    :mod:`repro.ontology.distance`; ``docs/ontology.md`` states the
    query and invalidation contract.
    """

    def __init__(self, domain: str = "Data Structure") -> None:
        self.domain = domain
        self._items: dict[int, Item] = {}
        self._by_name: dict[str, int] = {}
        self._relations: list[Relation] = []
        self._relation_set: set[Relation] = set()
        self._outgoing: dict[tuple[int, RelationKind | None], list[Relation]] = {}
        self._incoming: dict[tuple[int, RelationKind | None], list[Relation]] = {}
        self._generation = 0
        self._memos = _Memos(0)

    def __getstate__(self) -> dict:
        """Pickle the items, relations and indexes but not the memos;
        the receiving side rebuilds them lazily on first query."""
        state = self.__dict__.copy()
        state["_memos"] = _Memos(self._generation)
        return state

    @property
    def generation(self) -> int:
        """Counter bumped by every :meth:`add_item` and every
        :meth:`add_relation` that adds a relation; the memos are keyed
        by it."""
        return self._generation

    def _current_memos(self) -> _Memos:
        memos = self._memos
        if memos.generation != self._generation:
            memos = self._memos = _Memos(self._generation)
        return memos

    # ------------------------------------------------------------- storage

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: int | str) -> bool:
        if isinstance(key, int):
            return key in self._items
        return key.lower() in self._by_name

    def items(self) -> Iterator[Item]:
        """All items in id order."""
        for item_id in sorted(self._items):
            yield self._items[item_id]

    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations)

    def add_item(self, item: Item) -> Item:
        """Register an item; ids and names must be unique."""
        if item.item_id in self._items:
            raise OntologyError(f"duplicate item id {item.item_id}")
        for name in item.all_names():
            key = name.lower()
            if key in self._by_name:
                raise OntologyError(f"duplicate item name {name!r}")
        self._items[item.item_id] = item
        for name in item.all_names():
            self._by_name[name.lower()] = item.item_id
        self._generation += 1
        return item

    def add_relation(self, source: int | str, kind: RelationKind, target: int | str) -> Relation:
        """Add a typed relation; both endpoints must exist."""
        relation = Relation(self.resolve(source).item_id, kind, self.resolve(target).item_id)
        if relation in self._relation_set:
            return relation
        self._relations.append(relation)
        self._relation_set.add(relation)
        for index, node in ((self._outgoing, relation.source), (self._incoming, relation.target)):
            index.setdefault((node, None), []).append(relation)
            if kind is not None:
                index.setdefault((node, kind), []).append(relation)
        # Bump only once the indexes are complete: a memo built for the
        # new generation must see this relation.
        self._generation += 1
        return relation

    # -------------------------------------------------------------- lookup

    def get(self, item_id: int) -> Item:
        item = self._items.get(item_id)
        if item is None:
            raise OntologyError(f"no item with id {item_id}")
        return item

    def find(self, name: str) -> Item | None:
        """Item by name or alias (case-insensitive), or None."""
        item_id = self._by_name.get(name.lower())
        return self._items[item_id] if item_id is not None else None

    def resolve(self, key: int | str) -> Item:
        """Item by id or by name; raises when missing."""
        if isinstance(key, int):
            return self.get(key)
        item = self.find(key)
        if item is None:
            raise OntologyError(f"no item named {key!r}")
        return item

    def term_index(self) -> dict[str, int]:
        """Every name and alias (lower-case) mapped to its item id."""
        return dict(self._by_name)

    def items_of_kind(self, kind: ItemKind) -> list[Item]:
        return [item for item in self.items() if item.kind == kind]

    # ----------------------------------------------------------- relations

    def relations_from(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        source = self.resolve(key).item_id
        return list(self._outgoing.get((source, kind), ()))

    def relations_to(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        target = self.resolve(key).item_id
        return list(self._incoming.get((target, kind), ()))

    def parents(self, key: int | str) -> list[Item]:
        """IS-A parents of an item."""
        source = self.resolve(key).item_id
        return [self._items[r.target] for r in self._outgoing.get((source, RelationKind.IS_A), ())]

    def ancestors(self, key: int | str) -> list[Item]:
        """All transitive IS-A ancestors, nearest first (BFS order)."""
        return list(self._closure(self.resolve(key).item_id))

    def operations_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Operations supported by a concept, optionally via IS-A chains."""
        concept = self.resolve(key)
        return list(self._inherited(concept.item_id, RelationKind.HAS_OPERATION, bool(inherit))[0])

    def has_operation(self, concept: int | str, operation: int | str, inherit: bool = True) -> bool:
        """Does ``concept`` support ``operation`` (directly or inherited)?"""
        target = self.resolve(operation).item_id
        source = self.resolve(concept).item_id
        return target in self._inherited(source, RelationKind.HAS_OPERATION, bool(inherit))[1]

    def concepts_with_operation(self, operation: int | str, inherit: bool = True) -> list[Item]:
        """All concepts supporting ``operation`` — the QA template
        "Which data structure has the method X?"."""
        # With no concepts nothing resolves ``operation``, so an unknown
        # one answers [] rather than raising.
        if not self._concepts():
            return []
        target = self.resolve(operation).item_id
        return list(self._supporters(bool(inherit)).get(target, ()))

    def properties_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Properties of a concept (LIFO, FIFO, ...), optionally inherited."""
        concept = self.resolve(key)
        return list(self._inherited(concept.item_id, RelationKind.HAS_PROPERTY, bool(inherit))[0])

    # --------------------------------------------------------------- memos

    def _closure(self, start: int) -> tuple[Item, ...]:
        memos = self._current_memos()
        closure = memos.closure.get(start)
        if closure is None:
            seen: dict[int, None] = {}
            frontier = [start]
            while frontier:
                next_frontier: list[int] = []
                for node in frontier:
                    for relation in self._outgoing.get((node, RelationKind.IS_A), ()):
                        if relation.target not in seen and relation.target != start:
                            seen[relation.target] = None
                            next_frontier.append(relation.target)
                frontier = next_frontier
            closure = memos.closure[start] = tuple(self._items[item_id] for item_id in seen)
        return closure

    def _inherited(self, item_id: int, kind: RelationKind, inherit: bool) -> _Targets:
        """Targets of ``kind`` relations from the item and, when
        ``inherit``, from its ancestors."""
        memos = self._current_memos()
        key = (item_id, kind, inherit)
        entry = memos.inherited.get(key)
        if entry is None:
            sources = [item_id] + ([a.item_id for a in self._closure(item_id)] if inherit else [])
            found: dict[int, Item] = {}
            for source in sources:
                for relation in self._outgoing.get((source, kind), ()):
                    found.setdefault(relation.target, self._items[relation.target])
            entry = memos.inherited[key] = (tuple(found.values()), frozenset(found))
        return entry

    def _concepts(self) -> tuple[Item, ...]:
        memos = self._current_memos()
        concepts = memos.concepts
        if concepts is None:
            concepts = memos.concepts = tuple(self.items_of_kind(ItemKind.CONCEPT))
        return concepts

    def _supporters(self, inherit: bool) -> dict[int, tuple[Item, ...]]:
        memos = self._current_memos()
        supporters = memos.supporters.get(inherit)
        if supporters is None:
            lists: dict[int, list[Item]] = {}
            for concept in self._concepts():
                _, ids = self._inherited(concept.item_id, RelationKind.HAS_OPERATION, inherit)
                for operation_id in ids:
                    lists.setdefault(operation_id, []).append(concept)
            supporters = {operation_id: tuple(items) for operation_id, items in lists.items()}
            memos.supporters[inherit] = supporters
        return supporters

    def validate(self) -> list[str]:
        """Consistency problems (dangling relations, IS-A cycles)."""
        problems = []
        for relation in self._relations:
            if relation.source not in self._items or relation.target not in self._items:
                problems.append(f"dangling relation {relation}")
        # IS-A cycles would make inheritance loop forever conceptually.
        for item in self.items():
            seen = {item.item_id}
            frontier = [item.item_id]
            while frontier:
                node = frontier.pop()
                for relation in self._outgoing.get((node, RelationKind.IS_A), ()):
                    if relation.target == item.item_id:
                        problems.append(f"is-a cycle through {item.name!r}")
                        frontier = []
                        break
                    if relation.target not in seen:
                        seen.add(relation.target)
                        frontier.append(relation.target)
        return problems


def next_free_id(ontology: Ontology, start: int = 1) -> int:
    """Smallest unused id >= start (helper for builders)."""
    current = start
    while current in ontology:
        current += 1
    return current
