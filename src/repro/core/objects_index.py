"""Embedding indoor objects into the tree (paper §3.4, "Indexing Indoor
Objects").

For each object the index records the leaf node containing its
partition; for each access door of a leaf it keeps the list of leaf
objects sorted by distance from that door; and every tree node knows how
many objects live in its subtree (branch-and-bound pruning skips empty
nodes, Algorithm 5 line 10).

The index is **incrementally maintainable** — the paper attaches objects
to leaves precisely so that insertion, deletion and movement are cheap
(§3.4: "the objects can be easily inserted/deleted"). :meth:`insert`,
:meth:`delete` and :meth:`move` update the leaf lists, the per-door
sorted access lists (via bisect) and the subtree counts (bubbling the
±1 delta up the leaf's ancestor chain) in place, in O(ρ · |leaf
objects| + height) per update instead of an O(|O|) rebuild. All three
mutate the underlying :class:`ObjectSet` too, so index and set never
diverge; after any update sequence the index is structurally identical
to one freshly built from the same set (asserted by the test suite).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING

from ..exceptions import QueryError
from ..model.entities import IndoorPoint
from ..model.objects import ObjectSet, UpdateOp, apply_update

if TYPE_CHECKING:  # pragma: no cover
    from .tree import IPTree

INF = float("inf")


class ObjectIndex:
    """Objects embedded into an IP-Tree / VIP-Tree.

    Mutate through :meth:`insert` / :meth:`delete` / :meth:`move` (or
    :meth:`apply` with an :class:`~repro.model.objects.UpdateOp`); the
    :attr:`version` property mirrors the object set's version counter so
    engines can invalidate object-dependent caches.
    """

    def __init__(self, tree: "IPTree", objects: ObjectSet) -> None:
        objects.validate(tree.space)
        self.tree = tree
        self.objects = objects
        #: leaf node id -> object ids located in that leaf
        self.leaf_objects: dict[int, list[int]] = {}
        #: leaf node id -> {access door -> [(distance, object id)] sorted}
        self.access_lists: dict[int, dict[int, list[tuple[float, int]]]] = {}
        #: node id -> number of objects in the subtree (absent == 0)
        self.node_counts: dict[int, int] = {}
        #: object id -> (leaf id, {access door -> exact distance},
        #: ((partition door, point-to-door distance), ...)); lets
        #: deletion locate its access-list entries with a bisect instead
        #: of a scan, and query-leaf searches read the object's exits
        #: without recomputing them
        self._entries: dict[
            int, tuple[int, dict[int, float], tuple[tuple[int, float], ...]]
        ] = {}
        #: update operations applied since construction (monotone)
        self.updates = 0
        for obj in objects:
            self._register(obj)

    @property
    def version(self) -> int:
        """The underlying object set's version counter."""
        return self.objects.version

    # ------------------------------------------------------------------
    # Construction / incremental maintenance
    # ------------------------------------------------------------------
    def _partition_offsets(self, location: IndoorPoint) -> tuple[tuple[int, float], ...]:
        """``(door, point-to-door distance)`` for every door of the
        location's partition: the only ways out of it."""
        space = self.tree.space
        return tuple([
            (dv, space.point_to_door_distance(location, dv))
            for dv in space.partitions[location.partition_id].door_ids
        ])

    def _door_distances(self, offsets, leaf_id: int) -> dict[int, float]:
        """Exact dist(a, o) for every access door ``a`` of the leaf: leave
        the object's partition through any of its doors (``offsets``;
        matrix distances are globally exact)."""
        node = self.tree.nodes[leaf_id]
        table = node.table
        out: dict[int, float] = {}
        for a in node.access_doors:
            best = INF
            for dv, off in offsets:
                d = table.distance(dv, a) + off
                if d < best:
                    best = d
            out[a] = best
        return out

    def _register(self, obj, *, bubble_counts: bool = True) -> None:
        tree = self.tree
        leaf_id = tree.leaf_node_of_partition[obj.location.partition_id]
        offsets = self._partition_offsets(obj.location)
        dists = self._door_distances(offsets, leaf_id)
        self.leaf_objects.setdefault(leaf_id, []).append(obj.object_id)
        per_door = self.access_lists.get(leaf_id)
        if per_door is None:
            per_door = {a: [] for a in tree.nodes[leaf_id].access_doors}
            self.access_lists[leaf_id] = per_door
        for a, d in dists.items():
            insort(per_door[a], (d, obj.object_id))
        self._entries[obj.object_id] = (leaf_id, dists, offsets)
        if bubble_counts:
            for nid in tree.chain_of_leaf(leaf_id):
                self.node_counts[nid] = self.node_counts.get(nid, 0) + 1

    def _unregister(self, object_id: int, *, bubble_counts: bool = True) -> int:
        leaf_id, dists, _ = self._entries.pop(object_id)
        self.leaf_objects[leaf_id].remove(object_id)
        per_door = self.access_lists[leaf_id]
        for a, d in dists.items():
            lst = per_door[a]
            i = bisect_left(lst, (d, object_id))
            assert i < len(lst) and lst[i] == (d, object_id)
            lst.pop(i)
        if not self.leaf_objects[leaf_id]:
            del self.leaf_objects[leaf_id]
            del self.access_lists[leaf_id]
        if bubble_counts:
            for nid in self.tree.chain_of_leaf(leaf_id):
                remaining = self.node_counts[nid] - 1
                if remaining:
                    self.node_counts[nid] = remaining
                else:
                    del self.node_counts[nid]
        return leaf_id

    def insert(self, location: IndoorPoint, label: str = "", category: str = "") -> int:
        """Add a new object to the set and the index; returns its id."""
        self.tree.space.validate_point(location)
        oid = self.objects.insert(location, label, category)
        self._register(self.objects[oid])
        self.updates += 1
        return oid

    def delete(self, object_id: int) -> None:
        """Remove an object from the set and the index."""
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        self._unregister(object_id)
        self.objects.delete(object_id)
        self.updates += 1

    def move(self, object_id: int, location: IndoorPoint) -> None:
        """Relocate an object, re-embedding it in its (possibly new) leaf.

        Subtree counts are only touched when the object changes leaf —
        a same-leaf move just replaces its access-list entries.
        """
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        self.tree.space.validate_point(location)
        new_leaf = self.tree.leaf_node_of_partition[location.partition_id]
        same_leaf = self._entries[object_id][0] == new_leaf
        self._unregister(object_id, bubble_counts=not same_leaf)
        self.objects.move(object_id, location)
        self._register(self.objects[object_id], bubble_counts=not same_leaf)
        self.updates += 1

    def apply(self, op: UpdateOp):
        """Apply one :class:`UpdateOp` (see :func:`apply_update`)."""
        return apply_update(self, op)

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe serialized state of the embedding.

        Covers the leaf object lists, the per-door sorted access lists,
        the subtree counts, the per-object entry map and the ``updates``
        counter — everything needed to restore the index without
        re-embedding a single object. Int-keyed maps are emitted as
        sorted pair lists (JSON objects would stringify the keys).
        """
        return {
            "updates": self.updates,
            "leaf_objects": [
                [leaf, list(oids)] for leaf, oids in sorted(self.leaf_objects.items())
            ],
            "access_lists": [
                [
                    leaf,
                    [
                        [door, [[d, oid] for d, oid in lst]]
                        for door, lst in sorted(per_door.items())
                    ],
                ]
                for leaf, per_door in sorted(self.access_lists.items())
            ],
            "node_counts": [list(kv) for kv in sorted(self.node_counts.items())],
            "entries": [
                [oid, leaf, [[door, d] for door, d in sorted(dists.items())]]
                for oid, (leaf, dists, _) in sorted(self._entries.items())
            ],
        }

    @classmethod
    def from_state(
        cls, tree: "IPTree", objects: ObjectSet, state: dict
    ) -> "ObjectIndex":
        """Restore an index from :meth:`to_state` output with zero
        re-embedding. ``tree`` and ``objects`` must be the instances the
        state was serialized against (the snapshot layer restores all
        three together)."""
        objects.validate(tree.space)
        index = object.__new__(cls)
        index.tree = tree
        index.objects = objects
        index.updates = state["updates"]
        index.leaf_objects = {leaf: list(oids) for leaf, oids in state["leaf_objects"]}
        index.access_lists = {
            leaf: {door: [(d, oid) for d, oid in lst] for door, lst in per_door}
            for leaf, per_door in state["access_lists"]
        }
        index.node_counts = {nid: count for nid, count in state["node_counts"]}
        # the partition-door offsets are not persisted: they cost one
        # point-to-door distance per door to derive again
        index._entries = {
            oid: (
                leaf,
                {door: d for door, d in dists},
                index._partition_offsets(objects[oid].location),
            )
            for oid, leaf, dists in state["entries"]
        }
        return index

    # ------------------------------------------------------------------
    def count(self, node_id: int) -> int:
        """Objects in the subtree of ``node_id`` (0 when empty)."""
        return self.node_counts.get(node_id, 0)

    def objects_in_leaf(self, leaf_id: int) -> list[int]:
        return self.leaf_objects.get(leaf_id, [])

    def leaf_of_object(self, object_id: int) -> int:
        """The leaf node currently containing an object."""
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        return self._entries[object_id][0]

    def partition_offsets(self, object_id: int) -> tuple[tuple[int, float], ...]:
        """``((door, point-to-door distance), ...)`` over the doors of
        the object's partition."""
        return self._entries[object_id][2]

    def memory_bytes(self) -> int:
        total = 16 * sum(len(v) for v in self.leaf_objects.values())
        for per_door in self.access_lists.values():
            total += 24 * sum(len(lst) for lst in per_door.values())
        total += 16 * len(self.node_counts)
        total += 24 * sum(len(d) + len(o) for _, d, o in self._entries.values())
        return total

    def __len__(self) -> int:
        return len(self.objects)
