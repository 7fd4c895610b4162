"""Distance-matrix construction for IP-Tree nodes (paper §2.1.2, steps 3-4).

Leaf matrices are computed with Dijkstra expansions on the full D2D graph
(one per access door, stopped as soon as all leaf doors are settled).
Non-leaf matrices at level *l* are computed on the **level-l graph** G_l,
whose vertices are the access doors of the level-(l-1) nodes and whose
edges connect access doors of the same node, weighted by the already
computed level-(l-1) distances. Because leaf matrices come from the full
graph, all matrix distances are globally exact.

This module also derives the **superior doors** of each partition
(paper Definition 2) from the same Dijkstra shortest-path trees, and the
per-leaf door x door matrices query-time code derives lazily from a
built tree (:func:`leaf_door_matrix`).
"""

from __future__ import annotations

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..model.indoor_space import IndoorSpace
from .table import NO_DOOR, DistanceTable

INF = float("inf")


def _walk_to_source(parent: dict[int, int], start: int, source: int) -> list[int]:
    """Vertices after ``start`` on the tree path ``start -> source``.

    ``parent`` comes from a Dijkstra rooted at ``source`` (parents point
    toward the source), so the walk follows parent pointers directly. The
    returned list ends with ``source``.
    """
    seq = []
    cur = start
    while cur != source:
        cur = parent[cur]
        seq.append(cur)
    return seq


def _leaf_next_hop(
    seq: list[int],
    target: int,
    row_set: set[int],
    is_access: list[bool],
) -> int:
    """Next-hop door for a leaf-matrix entry (paper §2.1.1 / Example 6).

    ``seq`` lists the doors after the row door on the shortest path and
    ends with the access door ``target``. If the path stays inside the
    leaf, the next-hop is simply the first door; if it leaves the leaf,
    the next-hop is the first door that is an access door of *some* leaf
    (falling back to the first door when the whole detour stays inside a
    single neighbouring leaf — see DESIGN.md §4).
    """
    if seq[0] == target:
        return NO_DOOR  # direct edge: final
    if all(v in row_set for v in seq):
        return seq[0]
    for v in seq[:-1]:
        if is_access[v]:
            return v
    return seq[0]


def compute_leaf_tables(
    space: IndoorSpace,
    d2d: Graph,
    leaves: list[list[int]],
    leaf_access: list[list[int]],
    leaf_doors: list[list[int]],
    is_access: list[bool],
) -> tuple[list[DistanceTable], list[list[int]]]:
    """Build all leaf distance matrices and the per-partition superior doors.

    Returns:
        ``(tables, superior)`` where ``tables[i]`` is the matrix of leaf i
        and ``superior[pid]`` lists the superior doors of partition pid
        (sorted).
    """
    tables: list[DistanceTable] = []
    superior: list[list[int]] = [[] for _ in range(space.num_partitions)]

    for leaf_idx, leaf in enumerate(leaves):
        rows = leaf_doors[leaf_idx]
        cols = leaf_access[leaf_idx]
        table = DistanceTable(rows, cols)
        row_set = set(rows)
        parent_maps: dict[int, dict[int, int]] = {}

        for a in cols:
            dist, parent = dijkstra(d2d, a, targets=set(rows))
            parent_maps[a] = parent
            for di in rows:
                if di == a:
                    table.set_entry(di, a, 0.0, NO_DOOR)
                    continue
                seq = _walk_to_source(parent, di, a)
                table.set_entry(
                    di, a, dist[di], _leaf_next_hop(seq, a, row_set, is_access)
                )
        tables.append(table)

        # Superior doors (Definition 2), from the canonical shortest-path
        # trees: a door is superior iff it is a local access door, or the
        # tree path from it to some global access door contains no other
        # door of its partition.
        for pid in leaf:
            part_doors = space.partitions[pid].door_ids
            part_door_set = set(part_doors)
            local_access = [d for d in part_doors if d in table.col_index]
            global_access = [g for g in cols if g not in part_door_set]
            sup = set(local_access)
            if not cols:
                # Single-leaf venue with no exterior doors: no tree routing
                # ever happens, keep all doors for safety.
                sup = part_door_set
            else:
                for du in part_doors:
                    if du in sup:
                        continue
                    for g in global_access:
                        seq = _walk_to_source(parent_maps[g], du, g)
                        if not any(v in part_door_set for v in seq[:-1]):
                            sup.add(du)
                            break
            superior[pid] = sorted(sup)

    return tables, superior


def leaf_door_matrix(d2d: Graph, leaf_table: DistanceTable) -> DistanceTable:
    """Exact door x door distances among the doors of one leaf.

    A shortest path between two doors of a leaf either stays on the
    leaf's own doors, where Floyd-Warshall over the D2D edges among them
    finds it, or it leaves the leaf, which it can only do through one of
    the leaf's access doors ``a``. The leaf table's entries are exact
    over the full graph, so ``T[du, a] + T[dv, a]`` is no longer than
    any such path. Each entry is the smaller of the two, which makes it
    exact without a search on the full graph: O(n^3 + n^2 * rho) for a
    leaf of n doors and rho access doors. Next hops are not derived
    (every entry is ``NO_DOOR``).
    """
    doors = leaf_table.row_doors
    index = leaf_table.row_index
    n = len(doors)
    m = [[INF] * n for _ in range(n)]
    for i, u in enumerate(doors):
        row = m[i]
        row[i] = 0.0
        for v, w in d2d.neighbors(u):
            j = index.get(v)
            if j is not None and w < row[j]:
                row[j] = w
    for k in range(n):
        # row k does not change in round k; its infinite entries never
        # improve anything
        via_k = [(j, y) for j, y in enumerate(m[k]) if y != INF]
        for ri in m:
            dik = ri[k]
            if dik != INF:
                for j, y in via_k:
                    v = dik + y
                    if v < ri[j]:
                        ri[j] = v
    # float(): a snapshot-restored (mmap) table's rows are numpy views
    exits = [[float(v) for v in leaf_table.row(d)] for d in doors]
    for i in range(n):
        ei = exits[i]
        row = m[i]
        for j in range(n):
            best = row[j]
            for a, b in zip(ei, exits[j]):
                if a + b < best:
                    best = a + b
            row[j] = best
    return DistanceTable.from_rows(doors, doors, m)


def build_level_graph(
    num_doors: int,
    node_entries: list[tuple[list[int], DistanceTable]],
) -> Graph:
    """Build G_l from the level-(l-1) nodes (paper §2.1.2, step 4).

    Args:
        num_doors: total doors in the venue (vertex-id space).
        node_entries: ``(access_doors, table)`` per level-(l-1) node.

    Returns:
        A graph over door ids; an edge connects two doors iff they are
        access doors of the same level-(l-1) node, weighted by the exact
        distance from that node's matrix.
    """
    graph = Graph(num_doors)
    for access, table in node_entries:
        for i in range(len(access)):
            a = access[i]
            for j in range(i + 1, len(access)):
                b = access[j]
                graph.add_edge(a, b, table.distance(a, b))
    return graph


def compute_group_table(level_graph: Graph, matrix_doors: list[int]) -> DistanceTable:
    """Distance matrix of a non-leaf node.

    ``matrix_doors`` is the union of the children's access doors. For
    each door a Dijkstra expansion on G_l runs until all matrix doors are
    settled; the next-hop entry is the first G_l vertex on the path (an
    access door of a level-(l-1) node), or NULL for a direct G_l edge.
    """
    table = DistanceTable(matrix_doors, matrix_doors)
    door_set = set(matrix_doors)
    for x in matrix_doors:
        dist, parent = dijkstra(level_graph, x, targets=set(door_set))
        first_hop: dict[int, int] = {}
        for v in dist:  # settled in distance order: parents resolve first
            if v == x:
                continue
            p = parent[v]
            first_hop[v] = v if p == x else first_hop[p]
        for y in matrix_doors:
            if y == x:
                table.set_entry(x, y, 0.0, NO_DOOR)
                continue
            fh = first_hop[y]
            table.set_entry(x, y, dist[y], NO_DOOR if fh == y else fh)
    return table
