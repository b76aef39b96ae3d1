"""The built-in Data Structure knowledge ontology (paper sections 4.1/4.3).

Ids reproduce the paper where it pins them down: Figure 5 and section 4.3
give **stack = 3, tree = 4, push = 32, pop = 33**, and section 4.4 quotes
the stored definition of *stack* verbatim — both are reproduced here
exactly and asserted by tests.

The ontology covers the classic undergraduate Data Structures course:
containers, their parts, operations, properties (LIFO/FIFO/...), and
algorithms, wired with typed relations so that the Semantic Agent's
distance evaluation can separate sense from nonsense ("stack has push"
vs "tree has pop").
"""

from __future__ import annotations

from functools import lru_cache

from ..builder import OntologyBuilder
from ..model import Ontology

# The paper's verbatim stack definition (section 4.4).
STACK_DESCRIPTION = (
    "A stack is a Last In, First Out (LIFO) data structure in which all "
    "insertions and deletions are restricted to one end called a top. "
    "There are three basic stack operations: push, pop, and stack top."
)
STACK_TOP_SYMBOL = (
    "A stack is a linear list in which all additions and deletions are "
    "restricted to one end which is called the top."
)

PUSH_ALGORITHM_C = """void push(Stack *s, int value) {
    if (s->count == s->capacity) { grow(s); }
    s->items[s->count] = value;
    s->count = s->count + 1;
}"""

POP_ALGORITHM_C = """int pop(Stack *s) {
    s->count = s->count - 1;
    return s->items[s->count];
}"""


def build_data_structure_ontology() -> Ontology:
    """Construct the full Data Structure knowledge body."""
    b = OntologyBuilder("Data Structure")

    # ------------------------------------------------------------ concepts
    b.concept(
        "data structure", item_id=1, category="abstract",
        description="A data structure is a way of organizing data so that it can be used efficiently.",
        aliases=("structure",),
    )
    b.concept(
        "array", item_id=2, category="container",
        description="An array is a contiguous block of cells accessed by an index in constant time.",
    )
    b.concept(
        "stack", item_id=3, category="container",
        description=STACK_DESCRIPTION,
        symbols={"top": STACK_TOP_SYMBOL},
    )
    b.concept(
        "tree", item_id=4, category="container",
        description="A tree is a hierarchical data structure of nodes in which every node except the root has one parent.",
    )
    b.concept(
        "queue", item_id=5, category="container",
        description="A queue is a First In, First Out (FIFO) data structure in which insertions happen at the rear and deletions at the front.",
        symbols={
            "front": "The front of a queue is the end where elements are removed.",
            "rear": "The rear of a queue is the end where elements are added.",
        },
    )
    b.concept(
        "linked list", item_id=6, category="container",
        description="A linked list is a linear collection of nodes in which every node points to the next node.",
    )
    b.concept(
        "heap", item_id=7, category="container",
        description="A heap is a complete binary tree in which every node keeps the heap order with its children.",
    )
    b.concept(
        "graph", item_id=8, category="container",
        description="A graph is a set of vertices together with a set of edges that connect pairs of vertices.",
    )
    b.concept(
        "hash table", item_id=9, category="container",
        description="A hash table stores keys in buckets chosen by a hash function for constant expected lookup time.",
        aliases=("hash",),
    )
    b.concept(
        "binary tree", item_id=10, category="container",
        description="A binary tree is a tree in which every node has at most two children.",
    )
    b.concept(
        "binary search tree", item_id=11, category="container",
        description="A binary search tree is a binary tree in which every key in the left subtree is smaller and every key in the right subtree is larger.",
        aliases=("bst",),
    )
    b.concept(
        "avl tree", item_id=12, category="container",
        description="An AVL tree is a binary search tree in which the heights of the two subtrees of any node differ by at most one.",
        aliases=("avl",),
    )
    b.concept(
        "deque", item_id=13, category="container",
        description="A deque is a linear list in which additions and deletions happen at both ends.",
    )
    b.concept(
        "priority queue", item_id=14, category="container",
        description="A priority queue is a queue in which the element with the highest priority is removed first.",
    )
    b.concept(
        "list", item_id=15, category="container",
        description="A list is an ordered collection of elements that supports insertion, deletion, and traversal.",
    )
    b.concept(
        "set", item_id=16, category="container",
        description="A set is a collection of distinct elements that supports membership lookup.",
    )
    # Parts.
    b.concept("node", item_id=17, category="part",
              description="A node is one record of a linked structure, holding data and links.")
    b.concept("pointer", item_id=18, category="part",
              description="A pointer holds the address of another node or cell.")
    b.concept("element", item_id=19, category="part",
              description="An element is one data value stored in a data structure.",
              aliases=("item",))
    b.concept("index", item_id=20, category="part",
              description="An index is the integer position of a cell in an array.")
    b.concept("key", item_id=21, category="part",
              description="A key is the value by which an element is identified and compared.")
    b.concept("root", item_id=22, category="part",
              description="The root is the topmost node of a tree.")
    b.concept("leaf", item_id=23, category="part",
              description="A leaf is a tree node that has no children.")
    b.concept("edge", item_id=24, category="part",
              description="An edge connects two vertices of a graph.")
    b.concept("vertex", item_id=25, category="part",
              description="A vertex is one point of a graph.")
    b.concept("bucket", item_id=26, category="part",
              description="A bucket is one slot of a hash table that receives the keys hashing to it.")
    b.concept("top", item_id=27, category="part",
              description=STACK_TOP_SYMBOL)
    b.concept("front", item_id=28, category="part",
              description="The front of a queue is the end where elements are removed.")
    b.concept("rear", item_id=29, category="part",
              description="The rear of a queue is the end where elements are added.")

    # ---------------------------------------------------------- operations
    b.operation("insert", item_id=30,
                description="Insert places a new element into a data structure.")
    b.operation("delete", item_id=31,
                description="Delete removes an element from a data structure.",
                aliases=("remove",))
    b.operation("push", item_id=32,
                description="Push places a new element on the top of a stack.")
    b.operation("pop", item_id=33,
                description="Pop removes the element at the top of a stack.")
    b.operation("peek", item_id=34,
                description="Peek reads the next element without removing it.",
                aliases=("stack top",))
    b.operation("enqueue", item_id=35,
                description="Enqueue adds an element at the rear of a queue.")
    b.operation("dequeue", item_id=36,
                description="Dequeue removes the element at the front of a queue.")
    b.operation("traverse", item_id=37,
                description="Traverse visits every element of a data structure once.",
                aliases=("traversal", "visit"))
    b.operation("search", item_id=38,
                description="Search locates an element with a given key.",
                aliases=("find",))
    b.operation("sort", item_id=39,
                description="Sort arranges the elements into order.")
    b.operation("access", item_id=40,
                description="Access reads the element at a given position.")
    b.operation("lookup", item_id=41,
                description="Lookup retrieves the value stored under a key.",
                aliases=("retrieve",))
    b.operation("append", item_id=42,
                description="Append adds an element at the tail of a list.")
    b.operation("prepend", item_id=43,
                description="Prepend adds an element at the head of a list.")
    b.operation("merge", item_id=44,
                description="Merge combines two structures into one.")
    b.operation("split", item_id=45,
                description="Split divides a structure into two parts.")
    b.operation("rotate", item_id=46,
                description="A rotation rearranges a local group of tree nodes to restore balance.",
                aliases=("rotation",))
    b.operation("balance", item_id=47,
                description="Balance restores the shape invariant of a tree.")
    b.operation("heapify", item_id=48,
                description="Heapify restores the heap order below a node.")
    b.operation("hash function", item_id=49,
                description="The hash function maps a key to a bucket index.",
                aliases=("hashing",))
    b.operation("update", item_id=50,
                description="Update changes the value stored for an existing key.")
    b.operation("swap", item_id=51,
                description="Swap exchanges two elements.")
    b.operation("partition", item_id=52,
                description="Partition splits elements around a chosen pivot.")

    # ---------------------------------------------------------- properties
    b.property("lifo", item_id=60,
               description="Last In, First Out: the newest element leaves first.",
               aliases=("last in first out",))
    b.property("fifo", item_id=61,
               description="First In, First Out: the oldest element leaves first.",
               aliases=("first in first out",))
    b.property("sorted", item_id=62,
               description="The elements are kept in key order.",
               aliases=("ordered",))
    b.property("balanced", item_id=63,
               description="Subtree heights differ by at most a constant.")
    b.property("linear", item_id=64,
               description="The elements form a sequence.")
    b.property("hierarchical", item_id=65,
               description="The elements form parent/child levels.")
    b.property("dynamic", item_id=66,
               description="The structure grows and shrinks at run time.")
    b.property("static", item_id=67,
               description="The capacity is fixed when the structure is created.")
    b.property("contiguous", item_id=68,
               description="The cells occupy one block of memory.")
    b.property("complete", item_id=69,
               description="Every tree level except the last is full.")

    # ---------------------------------------------------------- algorithms
    b.algorithm_item("binary search", item_id=80,
                     description="Binary search halves a sorted array until the key is found.")
    b.algorithm_item("linear search", item_id=81,
                     description="Linear search scans the elements one by one.")
    b.algorithm_item("merge sort", item_id=82,
                     description="Merge sort sorts by splitting the list and merging sorted halves.")
    b.algorithm_item("quick sort", item_id=83,
                     description="Quick sort sorts by partitioning around a pivot.",
                     aliases=("quicksort",))
    b.algorithm_item("heap sort", item_id=84,
                     description="Heap sort sorts by repeatedly removing the heap maximum.")
    b.algorithm_item("dijkstra", item_id=85,
                     description="Dijkstra finds shortest paths from a source vertex.",
                     aliases=("dijkstra algorithm",))

    # ------------------------------------------------------------ taxonomy
    for child, parent in [
        ("array", "data structure"),
        ("list", "data structure"),
        ("tree", "data structure"),
        ("graph", "data structure"),
        ("hash table", "data structure"),
        ("set", "data structure"),
        ("stack", "list"),
        ("queue", "list"),
        ("deque", "list"),
        ("linked list", "list"),
        ("priority queue", "queue"),
        ("binary tree", "tree"),
        ("binary search tree", "binary tree"),
        ("avl tree", "binary search tree"),
        ("heap", "binary tree"),
    ]:
        b.is_a(child, parent)

    # -------------------------------------------------------- capabilities
    b.supports("list", "insert", "delete", "traverse", "search")
    b.supports("array", "access", "search", "sort", "update", "swap")
    b.supports("stack", "push", "pop", "peek")
    b.supports("queue", "enqueue", "dequeue", "peek")
    b.supports("deque", "append", "prepend", "pop", "peek")
    b.supports("tree", "insert", "delete", "traverse", "search")
    b.supports("binary search tree", "lookup")
    b.supports("avl tree", "rotate", "balance")
    b.supports("heap", "insert", "delete", "peek", "merge", "heapify")
    b.supports("hash table", "insert", "delete", "lookup", "hash function", "update")
    b.supports("linked list", "append", "prepend", "insert", "delete", "traverse", "split")
    b.supports("graph", "traverse", "search", "insert", "delete")
    b.supports("set", "insert", "delete", "lookup", "merge")
    b.supports("priority queue", "insert", "peek", "delete")

    # ---------------------------------------------------------- properties
    b.has_property("stack", "lifo", "linear")
    b.has_property("queue", "fifo", "linear")
    b.has_property("array", "static", "linear", "contiguous")
    b.has_property("linked list", "dynamic", "linear")
    b.has_property("list", "linear")
    b.has_property("deque", "linear")
    b.has_property("tree", "hierarchical")
    b.has_property("binary search tree", "sorted")
    b.has_property("avl tree", "balanced")
    b.has_property("heap", "complete")

    # --------------------------------------------------------------- parts
    for part, whole in [
        ("node", "linked list"),
        ("node", "tree"),
        ("pointer", "node"),
        ("element", "data structure"),
        ("index", "array"),
        ("key", "hash table"),
        ("key", "binary search tree"),
        ("root", "tree"),
        ("leaf", "tree"),
        ("edge", "graph"),
        ("vertex", "graph"),
        ("bucket", "hash table"),
        ("top", "stack"),
        ("front", "queue"),
        ("rear", "queue"),
    ]:
        b.part_of(part, whole)

    # ----------------------------------------------------- implementations
    b.implemented_with("stack", "array")
    b.implemented_with("stack", "linked list")
    b.implemented_with("queue", "array")
    b.implemented_with("queue", "linked list")
    b.implemented_with("heap", "array")
    b.implemented_with("hash table", "array")
    b.implemented_with("priority queue", "heap")

    # ------------------------------------------------------ algorithm uses
    b.uses("binary search", "array")
    b.uses("binary search", "sorted")
    b.uses("linear search", "list")
    b.uses("merge sort", "merge")
    b.uses("quick sort", "partition")
    b.uses("quick sort", "array")
    b.uses("merge sort", "split")
    b.uses("heap sort", "heap")
    b.uses("dijkstra", "graph")
    b.uses("dijkstra", "priority queue")

    # --------------------------------------------------- algorithm bodies
    b.attach_algorithm("stack", "push", "c", PUSH_ALGORITHM_C)
    b.attach_algorithm("stack", "pop", "c", POP_ALGORITHM_C)

    return b.build()


@lru_cache(maxsize=1)
def default_ontology() -> Ontology:
    """The shared Data Structure ontology.

    Built on the first call and cached: every later call in the process
    returns that same instance, so an edit made through one holder is
    seen by every other.  :func:`build_data_structure_ontology` builds a
    private copy.
    """
    return build_data_structure_ontology()
