"""Dijkstra variants used throughout the library.

All index-construction steps of the paper (§2.1.2) are phrased as
"Dijkstra's like expansion until all doors in ... have been reached"; the
query baselines (DistAw), the oracle and the trees' same-leaf *path*
queries are Dijkstra expansions with virtual sources (the trees answer
same-leaf distance, kNN and range work from per-leaf door matrices
instead, see :func:`repro.core.matrices.leaf_door_matrix`). This module
provides those primitives with early termination, parent tracking (for
next-hop doors) and first-hop tracking (for the DistMx path matrix).
"""

from __future__ import annotations

import heapq
import math

from .adjacency import Graph

INF = math.inf


def dijkstra(
    graph: Graph,
    sources: dict[int, float] | int,
    targets: set[int] | None = None,
    cutoff: float | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single/multi-source Dijkstra with early termination.

    Args:
        graph: the graph to search.
        sources: either a single source vertex, or a mapping
            ``vertex -> initial offset`` (virtual-source searches, e.g. a
            query point connected to the doors of its partition).
        targets: if given, the search stops once *all* targets are
            settled (paper: "until all doors in the node N are reached").
        cutoff: if given, vertices farther than this are not settled.

    Returns:
        ``(dist, parent)`` dictionaries over settled vertices. ``parent``
        maps each settled vertex to its predecessor on a shortest path
        from the source set (sources map to themselves).
    """
    if isinstance(sources, int):
        sources = {sources: 0.0}

    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    best: dict[int, float] = dict()
    pq: list[tuple[float, int, int]] = []
    for s, off in sources.items():
        if off < 0:
            raise ValueError("negative source offset")
        if off < best.get(s, INF):
            best[s] = off
            heapq.heappush(pq, (off, s, s))

    remaining = set(targets) if targets is not None else None

    while pq:
        d, u, via = heapq.heappop(pq)
        if u in dist:
            continue
        if cutoff is not None and d > cutoff:
            break
        dist[u] = d
        parent[u] = via
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in graph.neighbors(u):
            if v in dist:
                continue
            nd = d + w
            if nd < best.get(v, INF):
                best[v] = nd
                heapq.heappush(pq, (nd, v, u))
    return dist, parent


def dijkstra_first_hops(
    graph: Graph, source: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Full Dijkstra from ``source`` tracking the *first hop* per vertex.

    ``first_hop[v]`` is the first vertex after ``source`` on a shortest
    path ``source -> v`` (``v`` itself when the edge is direct). This is
    the structure the DistMx baseline materializes for path recovery.
    """
    dist, parent = dijkstra(graph, source)
    first_hop: dict[int, int] = {}
    # Vertices settle in increasing distance order in `dist` (insertion
    # order of the dict), so parents are resolved before children.
    for v in dist:
        if v == source:
            continue
        p = parent[v]
        first_hop[v] = v if p == source else first_hop[p]
    return dist, first_hop


def path_from_parents(parent: dict[int, int], source: int, target: int) -> list[int]:
    """Reconstruct ``source -> target`` from a parent map.

    Works with the parent maps returned by :func:`dijkstra` (parents point
    toward the source).
    """
    if target not in parent:
        raise KeyError(f"target {target} was not settled")
    path = [target]
    v = target
    while v != source and parent[v] != v:
        v = parent[v]
        path.append(v)
    path.reverse()
    return path


def pseudo_diameter(graph: Graph, start: int = 0) -> float:
    """Lower bound on the graph diameter via a double Dijkstra sweep.

    Used by the workload generator to split [0, d_max] into the paper's
    Q1..Q5 distance buckets (§4.3.2).
    """
    if graph.num_vertices == 0:
        return 0.0
    dist, _ = dijkstra(graph, start)
    far = max(dist, key=dist.get)
    dist2, _ = dijkstra(graph, far)
    return max(dist2.values())
