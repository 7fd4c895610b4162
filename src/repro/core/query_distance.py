"""Shortest-distance queries on the IP-Tree (paper §3.1, Algorithms 2 & 3).

Query endpoints are arbitrary :class:`~repro.model.entities.IndoorPoint`
locations or door ids. When both endpoints fall in the same leaf, the
paper runs a Dijkstra expansion on the D2D graph; here the distance is
an O(|doors(a)| * |doors(b)|) lookup in that leaf's exact door x door
matrix (:meth:`~repro.core.tree.IPTree.leaf_door_matrix`), and only
same-leaf *path* queries still expand on the graph
(:func:`same_leaf_expansion`), for its parent map. Otherwise Algorithm 2
climbs the tree computing distances from each endpoint to the access
doors of the children of the lowest common ancestor, and Algorithm 3
combines them through the LCA's matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exceptions import QueryError
from ..graph.dijkstra import dijkstra
from ..model.entities import IndoorPoint
from .context import endpoint_key
from .results import DistanceResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover
    from .context import QueryContext
    from .tree import IPTree

INF = float("inf")


class Endpoint:
    """A normalized query endpoint (point or door).

    Attributes:
        is_door: True when the endpoint is a door id.
        offsets: Dijkstra virtual-source offsets: door -> initial
            distance (0 for a door endpoint; point-to-door distances for
            a point endpoint).
        entry_doors: doors considered when leaving the start partition —
            the superior doors for a point (paper Definition 2), the door
            itself for a door endpoint.
        leaves: candidate leaf node ids containing the endpoint.
        key: hashable endpoint identity (used by :class:`QueryContext`).
    """

    __slots__ = ("is_door", "door", "point", "partition", "leaves", "entry_doors", "offsets", "key")

    def __init__(self, tree: "IPTree", raw) -> None:
        space = tree.space
        self.key = endpoint_key(raw)
        if isinstance(raw, IndoorPoint):
            space.validate_point(raw)
            self.is_door = False
            self.door = None
            self.point = raw
            self.partition = raw.partition_id
            self.leaves = (tree.leaf_node_of_partition[raw.partition_id],)
            self.entry_doors = tree.superior_doors[raw.partition_id]
            self.offsets = {
                du: space.point_to_door_distance(raw, du)
                for du in space.partitions[raw.partition_id].door_ids
            }
        elif isinstance(raw, int):
            if not 0 <= raw < space.num_doors:
                raise QueryError(f"unknown door {raw}")
            self.is_door = True
            self.door = raw
            self.point = None
            self.partition = space.door_partitions[raw][0]
            self.leaves = tree.leaf_nodes_of_door[raw]
            self.entry_doors = [raw]
            self.offsets = {raw: 0.0}
        else:
            raise QueryError(
                f"query endpoints must be IndoorPoint or door id, got {type(raw).__name__}"
            )


def base_leaf_distances(
    tree: "IPTree", endpoint: Endpoint, leaf_id: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Distances from the endpoint to every access door of its leaf.

    Uses the superior doors of the endpoint's partition (paper §3.1.1):
    the shortest path from any point to a global access door must pass
    through a superior door, so only those are enumerated.

    Returns ``(known, pred)``: distances per access door and the entry
    door through which the minimum is achieved (for path recovery).
    """
    table = tree.nodes[leaf_id].table
    known: dict[int, float] = {}
    pred: dict[int, int] = {}
    for a in table.col_doors:
        best = INF
        best_entry = -1
        if endpoint.is_door:
            best = table.distance(endpoint.door, a)
            best_entry = endpoint.door
        else:
            for du in endpoint.entry_doors:
                d = endpoint.offsets[du] + table.distance(du, a)
                if d < best:
                    best = d
                    best_entry = du
        known[a] = best
        pred[a] = best_entry
    return known, pred


def get_distances(
    tree: "IPTree",
    endpoint: Endpoint,
    target_node: int,
    leaf_id: int | None = None,
    collect_chain: bool = False,
) -> tuple[dict[int, float], dict[int, int], dict[int, dict[int, float]]]:
    """Algorithm 2: distances from an endpoint to ``AD(target_node)``.

    ``target_node`` must be on the ancestor chain of the endpoint's leaf.

    Returns:
        ``(known, pred, chain)`` — ``known`` maps every access door
        encountered while climbing to its distance; ``pred`` maps each
        door to the previous door on the chosen path (entry door at the
        leaf level); ``chain`` maps each visited node id to its
        ``{access door: distance}`` snapshot when ``collect_chain``.
    """
    if leaf_id is None:
        leaf_id = endpoint.leaves[0]
    known, pred = base_leaf_distances(tree, endpoint, leaf_id)
    chain_map: dict[int, dict[int, float]] = {}
    chain = tree.chain_of_leaf(leaf_id)
    if collect_chain:
        chain_map[leaf_id] = dict(known)
    if chain[0] == target_node and not collect_chain:
        return known, pred, chain_map

    child = leaf_id
    for parent in chain[1:]:
        parent_node = tree.nodes[parent]
        table = parent_node.table
        child_ad = tree.nodes[child].access_doors
        for a in parent_node.access_doors:
            if a in known:  # marked: already computed at a lower level
                continue
            best = INF
            best_via = -1
            for di in child_ad:
                d = known[di] + table.distance(di, a)
                if d < best:
                    best = d
                    best_via = di
            known[a] = best
            pred[a] = best_via
        if collect_chain:
            chain_map[parent] = {a: known[a] for a in parent_node.access_doors}
        child = parent
        if parent == target_node and not collect_chain:
            break
    return known, pred, chain_map


def _direct_distance(tree: "IPTree", ea: Endpoint, eb: Endpoint) -> float:
    """The straight intra-partition segment between two points of one
    partition; INF for any other pair."""
    if (
        not ea.is_door
        and not eb.is_door
        and ea.partition == eb.partition
    ):
        return tree.space.direct_point_distance(ea.point, eb.point)
    return INF


def same_leaf_distance(
    tree: "IPTree", ea: Endpoint, eb: Endpoint, leaf_id: int
) -> float:
    """Distance when both endpoints lie in leaf ``leaf_id``: ``min over
    du, dv of off_a[du] + M[du, dv] + off_b[dv]`` over the leaf's exact
    door matrix ``M``, or the direct segment when it is shorter. Both
    endpoints' offset doors are doors of the leaf, so no search runs.
    """
    if ea.is_door and eb.is_door and ea.door == eb.door:
        return 0.0
    mat = tree.leaf_door_matrix(leaf_id)
    col = mat.col_index
    targets = [(col[dv], off) for dv, off in eb.offsets.items()]
    best = _direct_distance(tree, ea, eb)
    for du, off_a in ea.offsets.items():
        row = mat.row(du)
        for j, off_b in targets:
            d = off_a + row[j] + off_b
            if d < best:
                best = d
    return best


def same_leaf_expansion(
    tree: "IPTree", ea: Endpoint, eb: Endpoint
) -> tuple[float, dict[int, float], dict[int, int], int]:
    """Same-leaf *path* support: Dijkstra on the D2D graph with virtual
    sources (paper §3.1.1 first paragraph), kept for its parent map.

    Returns ``(distance, dist_map, parent_map, best_target_door)``.
    ``best_target_door`` is -1 when the direct intra-partition segment
    wins (same-partition endpoints).
    """
    if ea.is_door and eb.is_door and ea.door == eb.door:
        return 0.0, {}, {}, ea.door

    dist, parent = dijkstra(tree.d2d, dict(ea.offsets), targets=set(eb.offsets))
    best = _direct_distance(tree, ea, eb)
    best_door = -1
    for dv, off in eb.offsets.items():
        d = dist.get(dv, INF) + off
        if d < best:
            best = d
            best_door = dv
    return best, dist, parent, best_door


def shortest_distance(
    tree: "IPTree", source, target, ctx: "QueryContext | None" = None, kernels=None
) -> DistanceResult:
    """Algorithm 3: shortest indoor distance between two endpoints.

    ``ctx`` optionally supplies cached endpoint resolution and tree
    climbs shared across a query stream (see
    :class:`~repro.core.context.QueryContext`); the answer is identical
    with or without it. ``kernels`` selects the array-at-a-time
    implementation of the climbs and the LCA combine
    (:mod:`repro.kernels`); answers are bit-identical to this module's
    python reference.
    """
    if kernels is None and ctx is not None:
        kernels = ctx.kernels
    if ctx is not None:
        ea = ctx.resolve(source)
        eb = ctx.resolve(target)
    else:
        ea = Endpoint(tree, source)
        eb = Endpoint(tree, target)
    stats = QueryStats()

    shared = set(ea.leaves) & set(eb.leaves)
    if shared:
        stats.same_leaf = True
        return DistanceResult(same_leaf_distance(tree, ea, eb, min(shared)), stats)

    leaf_a, leaf_b = ea.leaves[0], eb.leaves[0]
    lca, ns, nt = tree.lca_info(leaf_a, leaf_b)
    if ctx is not None:
        ds, _ = ctx.climb(ea, ns, leaf_a)
        dt, _ = ctx.climb(eb, nt, leaf_b)
    else:
        ds, _, _ = tree.endpoint_distances(ea, ns, leaf_id=leaf_a, kernels=kernels)
        dt, _, _ = tree.endpoint_distances(eb, nt, leaf_id=leaf_b, kernels=kernels)
    table = tree.nodes[lca].table

    ad_s = tree.nodes[ns].access_doors
    ad_t = tree.nodes[nt].access_doors
    combine = getattr(kernels, "combine_lca", None)
    if combine is not None:
        best = combine(table, ad_s, ad_t, ds, dt)
    else:
        best = INF
        for di in ad_s:
            dsi = ds[di]
            if dsi >= best:
                continue
            for dj in ad_t:
                d = dsi + table.distance(di, dj) + dt[dj]
                if d < best:
                    best = d
    stats.pairs_considered = len(ad_s) * len(ad_t)
    stats.superior_pairs = len(ea.entry_doors) * len(eb.entry_doors)
    return DistanceResult(best, stats)
