"""Per-leaf door matrices: exact against full-graph Dijkstra, and the
query-leaf / same-leaf answers built on them.

``IPTree.leaf_door_matrix`` is derived on first use from the leaf's own
D2D edges and its (globally exact) leaf table, never from a search on
the full graph. These tests pin it to full-graph Dijkstra on every
fixture venue, for both tree kinds, on trees freshly built and restored
from a snapshot (plain and mmap'd). They then drive the queries that
read it — kNN and range from inside the leaf holding the objects, a
door endpoint on a leaf boundary, a same-partition direct segment,
same-leaf distances, a single-leaf venue — against ``DijkstraOracle``,
with the python and numpy backends bit-identical.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.core.query_distance as query_distance
import repro.core.query_knn as query_knn
from repro import IndoorSpaceBuilder, IPTree, ObjectIndex, VIPTree
from repro.baselines import DijkstraOracle
from repro.core.matrices import leaf_door_matrix
from repro.core.query_knn import knn
from repro.core.query_range import range_query
from repro.core.table import DistanceTable
from repro.datasets import random_objects, random_point
from repro.graph import Graph, dijkstra
from repro.kernels import HAVE_NUMPY, NumpyKernels
from repro.model.entities import PartitionKind
from repro.model.objects import ObjectSet
from repro.storage import load_snapshot, save_snapshot

VENUES = ["fig1", "tower", "mall", "office", "campus"]
TREE_KINDS = {"ip": IPTree, "vip": VIPTree}
RESTORES = ["fresh", "snapshot"] + (["mmap"] if HAVE_NUMPY else [])
TOL = 1e-9
INF = float("inf")


def close(a: float, b: float, tol: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=tol, abs_tol=tol)


@pytest.fixture(scope="module")
def trees(all_fixture_spaces, tmp_path_factory):
    """``(space, tree)`` per (venue, kind, restore). Snapshot-restored
    trees start with no derived matrices, like any warm start."""
    root = tmp_path_factory.mktemp("leaf-matrix")
    out, keep = {}, []
    for venue, space in all_fixture_spaces.items():
        for kind, cls in TREE_KINDS.items():
            tree = cls.build(space)
            path = root / f"{venue}-{kind}.snap"
            save_snapshot(path, tree)
            out[venue, kind, "fresh"] = (space, tree)
            snap = load_snapshot(path, space=space)
            out[venue, kind, "snapshot"] = (space, snap.index)
            if HAVE_NUMPY:
                mapped = load_snapshot(path, space=space, mmap=True)
                keep.append(mapped)  # the mapping must outlive the tests
                out[venue, kind, "mmap"] = (space, mapped.index)
    yield out
    keep.clear()


def leaves_of(tree) -> list[int]:
    return [n.nid for n in tree.nodes if n.is_leaf]


def samplable(space, pids) -> list[int]:
    return [
        pid for pid in pids
        if space.partitions[pid].floor is not None
        and space.partitions[pid].kind in (PartitionKind.ROOM, PartitionKind.HALLWAY)
    ]


def backends():
    return [None] + ([NumpyKernels()] if HAVE_NUMPY else [])


def check_objects(tree, space, index, q, k: int, radius: float) -> None:
    """kNN and range from ``q``: every backend answers bit-identically,
    and each answer matches the oracle within TOL."""
    oracle = DijkstraOracle(space, tree.d2d).object_distances(q, index.objects)
    ranked = sorted(oracle.values())
    knn_answers = [knn(tree, index, q, k, kernels=kern) for kern in backends()]
    range_answers = [range_query(tree, index, q, radius, kernels=kern)
                     for kern in backends()]
    for answers in (knn_answers, range_answers):
        assert all(a == answers[0] for a in answers[1:])
    got = knn_answers[0]
    assert len(got) == min(k, len(oracle))
    for n, want in zip(got, ranked):
        assert close(n.distance, oracle[n.object_id], TOL)
        assert close(n.distance, want, TOL)
    got_ids = {n.object_id for n in range_answers[0]}
    for oid, d in oracle.items():
        if d <= radius - TOL:
            assert oid in got_ids
        elif d > radius + TOL:
            assert oid not in got_ids
    for n in range_answers[0]:
        assert close(n.distance, oracle[n.object_id], TOL)


def check_distance(tree, space, a, b) -> None:
    """A same-leaf distance: both backends bit-identical, oracle-exact."""
    res = [tree.distance_query(a, b, kernels=kern) for kern in backends()]
    assert all(r.stats.same_leaf for r in res)
    assert all(r.distance == res[0].distance for r in res)
    want = DijkstraOracle(space, tree.d2d).shortest_distance(a, b)
    assert close(res[0].distance, want, TOL)


# ----------------------------------------------------------------------
# The matrix itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("restore", RESTORES)
@pytest.mark.parametrize("kind", list(TREE_KINDS))
@pytest.mark.parametrize("venue", VENUES)
def test_every_leaf_matrix_equals_full_graph_dijkstra(trees, venue, kind, restore):
    _, tree = trees[venue, kind, restore]
    for leaf in leaves_of(tree):
        mat = tree.leaf_door_matrix(leaf)
        doors = tree.nodes[leaf].table.row_doors
        assert mat.row_doors == doors and mat.col_doors == doors
        assert tree.leaf_door_matrix(leaf) is mat  # memoised
        for u in doors:
            dist, _ = dijkstra(tree.d2d, u, targets=set(doors))
            for v in doors:
                assert close(mat.distance(u, v), dist.get(v, INF), 1e-12), (
                    f"leaf {leaf}: M[{u}, {v}] = {mat.distance(u, v)!r}, "
                    f"Dijkstra {dist.get(v, INF)!r}"
                )


def test_unreachable_pairs_stay_infinite():
    """Doors with no path inside the leaf and no access door to leave
    through keep an infinite entry; the reachable pair is exact."""
    d2d = Graph(3)
    d2d.add_edge(0, 1, 2.5)
    table = DistanceTable([0, 1, 2], [])
    mat = leaf_door_matrix(d2d, table)
    assert mat.distance(0, 1) == mat.distance(1, 0) == 2.5
    assert mat.distance(0, 2) == mat.distance(2, 1) == INF
    assert mat.distance(2, 2) == 0.0


def test_exits_through_access_doors_shorten_entries():
    """A detour out of the leaf and back (through access door 2) beats
    the leaf's own edge: the table term wins the min."""
    d2d = Graph(3)
    d2d.add_edge(0, 1, 10.0)
    table = DistanceTable([0, 1, 2], [2])
    table.set_entry(0, 2, 1.0)
    table.set_entry(1, 2, 2.0)
    table.set_entry(2, 2, 0.0)
    mat = leaf_door_matrix(d2d, table)
    assert mat.distance(0, 1) == 3.0
    assert mat.distance(0, 2) == 1.0


def test_matrices_are_not_persisted(trees):
    space, tree = trees["mall", "vip", "fresh"]
    for leaf in leaves_of(tree):
        tree.leaf_door_matrix(leaf)
    restored = type(tree).from_state(space, tree.to_state())
    assert restored._door_matrices == {}


# ----------------------------------------------------------------------
# Same-leaf queries through the matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("restore", RESTORES)
@pytest.mark.parametrize("kind", list(TREE_KINDS))
@pytest.mark.parametrize("venue", VENUES)
def test_query_and_objects_in_one_leaf(trees, venue, kind, restore):
    """q and several objects share a leaf (some of them q's own
    partition, so the direct segment competes); more objects elsewhere."""
    space, tree = trees[venue, kind, restore]
    rng = random.Random(f"{venue}-{kind}")
    checked = 0
    for leaf in leaves_of(tree):
        pids = samplable(space, tree.nodes[leaf].partitions)
        if not pids:
            continue
        q = random_point(space, rng, partitions=pids)
        objects = ObjectSet()
        objects.insert(random_point(space, rng, partitions=[q.partition_id]))
        for _ in range(4):
            objects.insert(random_point(space, rng, partitions=pids))
        for _ in range(3):
            objects.insert(random_point(space, rng))
        index = ObjectIndex(tree, objects)
        check_objects(tree, space, index, q, k=5, radius=30.0)
        for o in list(objects)[:5]:
            check_distance(tree, space, q, o.location)
        checked += 1
    assert checked


@pytest.mark.parametrize("restore", RESTORES)
@pytest.mark.parametrize("kind", list(TREE_KINDS))
@pytest.mark.parametrize("venue", VENUES)
def test_door_endpoint_on_leaf_boundary(trees, venue, kind, restore):
    """An access door shared by two leaves as the query endpoint: its
    first leaf is the query leaf, and objects sit on both sides."""
    space, tree = trees[venue, kind, restore]
    rng = random.Random(f"door-{venue}-{kind}")
    boundary = [d for d in range(space.num_doors)
                if len(tree.leaf_nodes_of_door[d]) > 1]
    if not boundary:
        pytest.skip("single-leaf venue: no leaf boundary")
    for door in rng.sample(boundary, min(4, len(boundary))):
        objects = ObjectSet()
        for leaf in tree.leaf_nodes_of_door[door]:
            pids = samplable(space, tree.nodes[leaf].partitions)
            for _ in range(3 if pids else 0):
                objects.insert(random_point(space, rng, partitions=pids))
        if not len(objects):
            continue
        index = ObjectIndex(tree, objects)
        check_objects(tree, space, index, door, k=4, radius=25.0)
        for o in objects:
            if tree.leaf_node_of_partition[o.location.partition_id] in \
                    tree.leaf_nodes_of_door[door]:
                check_distance(tree, space, door, o.location)
                check_distance(tree, space, o.location, door)
        leaf = tree.leaf_nodes_of_door[door][0]
        for other in tree.nodes[leaf].table.row_doors[:6]:
            check_distance(tree, space, door, other)


@pytest.mark.parametrize("kind", list(TREE_KINDS))
def test_single_leaf_venue(kind):
    """Every query is a same-leaf query: the leaf's matrix answers all
    of them, including objects reachable only around the chain."""
    b = IndoorSpaceBuilder(name="chain")
    rooms = [b.add_room(floor=0) for _ in range(4)]
    for i in range(3):
        b.add_door(rooms[i], rooms[i + 1], x=float(3 * i + 3), y=1.0)
    b.add_exterior_door(rooms[0], x=0.0, y=1.0)
    space = b.build()
    tree = TREE_KINDS[kind].build(space)
    assert len(leaves_of(tree)) == 1
    rng = random.Random(11)
    objects = ObjectSet()
    for _ in range(6):
        objects.insert(random_point(space, rng))
    index = ObjectIndex(tree, objects)
    for _ in range(5):
        q = random_point(space, rng)
        check_objects(tree, space, index, q, k=3, radius=8.0)
        for o in objects:
            check_distance(tree, space, q, o.location)
    for d in range(space.num_doors):
        check_objects(tree, space, index, d, k=6, radius=INF)


def test_restored_object_index_reads_its_offsets(trees, tmp_path):
    """An ObjectIndex restored from a snapshot re-derives the partition
    offsets the query-leaf branch reads, so it answers like a fresh one."""
    space, tree = trees["mall", "vip", "fresh"]
    index = ObjectIndex(tree, random_objects(space, 30, seed=8))
    path = tmp_path / "mall.snap"
    save_snapshot(path, tree, index)
    snap = load_snapshot(path, space=space)
    restored = snap.object_index
    rng = random.Random(2)
    for _ in range(6):
        q = random_point(space, rng)
        assert knn(snap.index, restored, q, 8) == knn(tree, index, q, 8)
        assert range_query(snap.index, restored, q, 40.0) == \
            range_query(tree, index, q, 40.0)


def test_same_leaf_kernels_run_no_dijkstra(trees, monkeypatch):
    """Same-leaf kNN, range and distance read the matrix only: the
    graph search the paper uses there is never called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("same-leaf query ran a Dijkstra")

    space, tree = trees["fig1", "ip", "fresh"]
    monkeypatch.setattr(query_knn, "dijkstra", forbidden)
    monkeypatch.setattr(query_distance, "dijkstra", forbidden)
    rng = random.Random(4)
    leaf = next(lf for lf in leaves_of(tree)
                if samplable(space, tree.nodes[lf].partitions))
    pids = samplable(space, tree.nodes[leaf].partitions)
    objects = ObjectSet()
    for _ in range(4):
        objects.insert(random_point(space, rng, partitions=pids))
    index = ObjectIndex(tree, objects)
    q = random_point(space, rng, partitions=pids)
    for kern in backends():
        assert len(knn(tree, index, q, 3, kernels=kern)) == 3
        range_query(tree, index, q, 50.0, kernels=kern)
        res = tree.distance_query(q, objects[0].location, kernels=kern)
        assert res.stats.same_leaf
