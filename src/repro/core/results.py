"""Result and statistics containers for query processing."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class QueryStats:
    """Work counters exposed for the paper's Fig 9(a) style analyses."""

    #: door pairs combined at the LCA (|AD(Ns)| x |AD(Nt)|)
    pairs_considered: int = 0
    #: superior-door pairs considered at the endpoints (VIP-Tree metric
    #: reported in Fig 9(a))
    superior_pairs: int = 0
    #: tree nodes touched (kNN/range)
    nodes_visited: int = 0
    #: priority-queue pops of the best-first kNN/range search
    heap_pops: int = 0
    #: access-list entries examined while combining leaf objects
    #: (kNN/range); the live pruning bound shrinks this as results
    #: tighten mid-leaf
    list_entries_scanned: int = 0
    #: True when both endpoints shared a leaf, so the answer came from
    #: that leaf's door matrix (distance) or a D2D expansion (path)
    #: instead of a tree climb
    same_leaf: bool = False
    #: True when the engine answered from its result/distance cache
    #: (the other counters then describe zero work — the cached entry's
    #: original cost was counted when it was computed)
    cache_hit: bool = False
    #: the conservative set of leaf ids whose objects could have
    #: contributed to a kNN/range answer (the bound-ball closure), as a
    #: bitmask with bit ``i`` set for leaf id ``i``; captured only when
    #: the search is asked to (``collect_leaves=``). ``None`` means "not
    #: captured" / "depends on every leaf". Engine-internal — the wire
    #: stats document does not carry it.
    result_leaves: int | None = None

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Fold ``other``'s work into this object (counters add, flags
        or): the accumulation primitive behind the engine's ``stats=``
        out-parameters and batch totals. Returns ``self``.

        ``result_leaves`` is per-answer state, not a counter: merging
        keeps the union (bitwise or) only when both sides captured a
        mask, and poisons to ``None`` (conservative "all leaves")
        otherwise.
        """
        self.pairs_considered += other.pairs_considered
        self.superior_pairs += other.superior_pairs
        self.nodes_visited += other.nodes_visited
        self.heap_pops += other.heap_pops
        self.list_entries_scanned += other.list_entries_scanned
        self.same_leaf = self.same_leaf or other.same_leaf
        self.cache_hit = self.cache_hit or other.cache_hit
        if self.result_leaves is None or other.result_leaves is None:
            self.result_leaves = None
        else:
            self.result_leaves = self.result_leaves | other.result_leaves
        return self


@dataclass(slots=True)
class DistanceResult:
    """Outcome of a shortest-distance query."""

    distance: float
    stats: QueryStats = field(default_factory=QueryStats)


@dataclass(slots=True)
class PathResult:
    """Outcome of a shortest-path query.

    ``doors`` is the ordered door sequence from source to target
    (excluding the endpoints themselves, which are arbitrary indoor
    points or doors). The path semantics: walk from the source to
    ``doors[0]`` inside the source partition, then door to door (each
    consecutive pair shares a partition), then from ``doors[-1]`` to the
    target.
    """

    distance: float
    doors: list[int]
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def num_hops(self) -> int:
        return len(self.doors)


@dataclass(slots=True)
class Neighbor:
    """One kNN / range result: object id with its exact indoor distance."""

    object_id: int
    distance: float
