"""Numpy implementations of the hot query kernels.

Bit-identity with the python reference is a hard requirement here, not a
nicety — the equivalence suite compares answers with ``==``, never with
a tolerance. The rules that make it hold:

* additions keep the reference's association order (e.g. the Lemma 8/9
  combine is ``source[:, None] + table`` — one add per entry, exactly
  the reference's ``dd + table.distance(d, a)``);
* ``min``/``argmin`` return the first occurrence of the minimum, which
  matches the reference's first-strict-improvement scans because rows
  are laid out in the same iteration order;
* access-list cuts compare the *totals* array (``base + dists``) against
  the entry bound in one vector op, replicating ``break on total >
  bound`` including ties kept at the bound (each door's segment is
  sorted, so the mask count equals the reference's per-door cuts);
* the whole-query eager path (:meth:`NumpyKernels.knn_full` /
  :meth:`NumpyKernels.range_full`) evaluates the Lemma 8/9 recursion for
  *every* tree node level by level with ``np.minimum.reduceat`` over a
  flat slot vector, then scans all access lists in one gather + add +
  per-object min. Each candidate value is still a single ``a + b`` add
  in the reference's operand order, and ``min`` over a fixed set is
  evaluation-order independent, so the distances — and therefore the
  ``(distance, object_id)``-lexicographic result sets — are bit-identical
  to the best-first reference even though the traversal order differs.
  (The query leaf's door-matrix branch is the reference code, reused.)

Instances cache derived array forms (index arrays per tree node, packed
access lists per object-index version, materialized VIP climb matrices,
per-leaf eager propagation programs) keyed by identity + version, so
they are safe to share across queries of one engine; updates bump
``ObjectIndex.version`` under the engine's write lock, and readers
re-derive on the next query.
"""

from __future__ import annotations

import numpy as np

from ..core.results import Neighbor

INF = float("inf")
_INTP = np.intp


def _neighbors(oids, dists) -> list[Neighbor]:
    """Result objects from aligned id/distance arrays, converted to
    python ints and floats in one ``tolist`` each (indexing numpy
    scalars one by one costs more than the whole conversion)."""
    return [
        Neighbor(object_id=oid, distance=d)
        for oid, d in zip(oids.tolist(), dists.tolist())
    ]


class NumpyKernels:
    """Array-at-a-time backend selected via ``kernels=`` (see
    :func:`repro.kernels.resolve_kernels`)."""

    name = "numpy"

    def __init__(self) -> None:
        # access-list arrays: (leaf_id, door) -> (dist_f64, oid_i64),
        # valid for one (ObjectIndex identity, version) pair
        self._al_cache: dict = {}
        self._al_index = None
        self._al_version = -1
        # child_distances index arrays: (parent, source_node, child) ->
        # (row_idx, col_idx)
        self._cd_cache: dict = {}
        self._cd_tree = None
        # eager whole-query state: flat (node, access door) slot table,
        # BFS node levels, per-query-leaf propagation programs, and the
        # global access-list entry arrays (per object-index version)
        self._eg_tree = None
        self._eg_slots: dict = {}
        self._eg_doors: dict = {}
        self._eg_nslots = 0
        self._eg_levels: list = []
        self._eg_prog: dict = {}
        self._eg_ent_index = None
        self._eg_ent_version = -1
        self._eg_ent = None
        # leaf segments over the slot vector: (leaf_ids_i64,
        # flat_slot_idx, reduceat_starts) — the vectorized bound-ball
        # closure (leaf mindist mask) reads these
        self._eg_leaf_seg = None
        # bits in a leaf tag: one past the largest leaf id
        self._eg_leaf_bits = 0

    # ------------------------------------------------------------------
    # Lemmas 8/9: child expansion
    # ------------------------------------------------------------------
    def child_distances(self, search, parent_id: int, child_id: int) -> dict[int, float]:
        """``min(source[:, None] + table, axis=0)`` over the parent's
        matrix; returns the same ``{access door: distance}`` dict as the
        reference."""
        tree = search.tree
        pos = search.chain_pos.get(parent_id)
        if pos is not None and pos > 0:
            source_nid = search.chain[pos - 1]
        else:
            source_nid = parent_id
        source = search.node_dists[source_nid]
        table = tree.nodes[parent_id].table
        child_ad = tree.nodes[child_id].access_doors
        if not source or not child_ad:
            return {a: INF for a in child_ad}

        if self._cd_tree is not tree:
            self._cd_cache.clear()
            self._cd_tree = tree
        key = (parent_id, source_nid, child_id)
        sub = self._cd_cache.get(key)
        if sub is None:
            # Gather the (source doors x child access doors) submatrix
            # once — the tree is static across queries, so every later
            # call is just one broadcasted add + min over it.
            ri = table.row_index
            ci = table.col_index
            rows = np.fromiter((ri[d] for d in source), dtype=_INTP, count=len(source))
            cols = np.fromiter((ci[a] for a in child_ad), dtype=_INTP, count=len(child_ad))
            sub = np.ascontiguousarray(table.dist_matrix[np.ix_(rows, cols)])
            self._cd_cache[key] = sub
        src = np.fromiter(source.values(), dtype=np.float64, count=len(source))
        best = (src[:, None] + sub).min(axis=0)
        return dict(zip(child_ad, best.tolist()))

    # ------------------------------------------------------------------
    # kNN/range leaf combination
    # ------------------------------------------------------------------
    def _leaf_arrays(self, index, leaf_id: int, dq: dict[int, float]):
        """Concatenated per-leaf access arrays: every door's sorted list
        laid out back to back, plus each entry's position of its door in
        ``dq``'s (static) iteration order — derived once per
        (object-index version, leaf)."""
        version = index.version
        if self._al_index is not index or self._al_version != version:
            self._al_cache.clear()
            self._al_index = index
            self._al_version = version
        arrs = self._al_cache.get(leaf_id)
        if arrs is None:
            lists = index.access_lists[leaf_id]
            doors = tuple(dq)
            entries = [(e, pos) for pos, a in enumerate(doors) for e in lists[a]]
            n = len(entries)
            dists = np.fromiter((e[0][0] for e in entries), dtype=np.float64, count=n)
            oids = np.fromiter((e[0][1] for e in entries), dtype=np.int64, count=n)
            door_pos = np.fromiter((e[1] for e in entries), dtype=_INTP, count=n)
            arrs = (doors, dists, oids, door_pos)
            self._al_cache[leaf_id] = arrs
        return arrs

    def leaf_objects(self, search, leaf_id: int, dq: dict[int, float], bound, stats):
        """Vectorized access-list combine for one non-query leaf.

        Cuts the entries at the entry bound in one vector comparison
        (each door's segment is sorted, so the per-entry mask count
        equals the reference's per-door ``searchsorted`` cuts), keeps
        the minimum total per object id, and yields ``(distance,
        object_id)`` in ascending ``(distance, object_id)`` order — the
        same stream the reference's k-way merge produces, so the
        caller's live bound prunes identically.
        """
        doors, dists, oids, door_pos = self._leaf_arrays(search.index, leaf_id, dq)
        if not dists.size:
            return
        b0 = bound()
        bases = np.fromiter((dq[a] for a in doors), dtype=np.float64, count=len(doors))
        totals = bases[door_pos] + dists
        mask = totals <= b0
        scanned = int(np.count_nonzero(mask))
        stats.list_entries_scanned += scanned
        if not scanned:
            return
        totals = totals[mask]
        kept = oids[mask]
        # group by object id, keep the minimum total per object
        order = np.lexsort((totals, kept))
        so = kept[order]
        st = totals[order]
        keep = np.empty(len(so), dtype=bool)
        keep[0] = True
        np.not_equal(so[1:], so[:-1], out=keep[1:])
        uo = so[keep]
        ut = st[keep]
        asc = np.argsort(ut, kind="stable")  # stable: ties stay oid-ascending
        for d, oid in zip(ut[asc].tolist(), uo[asc].tolist()):
            if d > bound():
                break
            yield d, int(oid)

    # ------------------------------------------------------------------
    # Eager whole-query kNN / range (Algorithm 5, array-at-a-time)
    # ------------------------------------------------------------------
    def _eager_tree_state(self, tree) -> None:
        """Assign every (node, access door) a slot in one flat vector and
        record the BFS node levels — static per tree."""
        if self._eg_tree is tree:
            return
        slots: dict[int, int] = {}
        doors: dict[int, tuple] = {}
        levels: list[list[int]] = []
        base = 0
        frontier = [tree.root_id]
        while frontier:
            levels.append(frontier)
            nxt: list[int] = []
            for nid in frontier:
                node = tree.nodes[nid]
                ad = tuple(node.access_doors)
                doors[nid] = ad
                slots[nid] = base
                base += len(ad)
                if not node.is_leaf:
                    nxt.extend(node.children)
            frontier = nxt
        leaf_l: list[int] = []
        lstarts: list[int] = []
        lslots: list[int] = []
        for nid, ad in doors.items():
            if tree.nodes[nid].is_leaf and ad:
                lstarts.append(len(lslots))
                leaf_l.append(nid)
                lslots.extend(range(slots[nid], slots[nid] + len(ad)))
        self._eg_leaf_seg = (
            np.asarray(leaf_l, dtype=np.int64),
            np.asarray(lslots, dtype=_INTP),
            np.asarray(lstarts, dtype=_INTP),
        )
        self._eg_leaf_bits = 1 + max(
            nid for nid, node in enumerate(tree.nodes) if node.is_leaf
        )
        self._eg_slots = slots
        self._eg_doors = doors
        self._eg_nslots = base
        self._eg_levels = levels
        self._eg_prog = {}
        self._eg_ent_index = None
        self._eg_ent = None
        self._eg_tree = tree

    def _eager_program(self, tree, leaf_q: int):
        """Level-batched propagation program for one query leaf.

        The Lemma 8/9 recursion — ``dists(child)[a] = min over source
        doors d of dists(source)[d] + T_parent[d, a]`` with the source
        being the parent's chain child (Lemma 8) or the parent itself
        (Lemma 9) — depends on the query only through the leaf chain, so
        the gathered table values and index arrays are built once per
        (tree, query leaf) and each query replays them as one gather +
        add + segmented min per level.
        """
        prog = self._eg_prog.get(leaf_q)
        if prog is not None:
            return prog
        chain = tree.chain_of_leaf(leaf_q)
        chain_pos = {nid: i for i, nid in enumerate(chain)}
        slots = self._eg_slots
        doors = self._eg_doors
        chain_fill = []
        for nid in chain:
            ad = doors[nid]
            if ad:
                sl = np.arange(slots[nid], slots[nid] + len(ad), dtype=_INTP)
                chain_fill.append((nid, ad, sl))
        level_ops = []
        for parents in self._eg_levels:
            src_idx: list[int] = []
            tvals: list[float] = []
            seg: list[int] = []
            dst: list[int] = []
            for pid in parents:
                node = tree.nodes[pid]
                if node.is_leaf:
                    continue
                pos = chain_pos.get(pid)
                src_nid = chain[pos - 1] if pos is not None and pos > 0 else pid
                sdoors = doors[src_nid]
                if not sdoors:
                    continue  # empty source: children stay at INF
                sbase = slots[src_nid]
                table = node.table
                matrix = table.dist_matrix
                rows = [table.row_index[d] for d in sdoors]
                col_index = table.col_index
                for cid in node.children:
                    if cid in chain_pos:
                        continue  # chain values come from the climb
                    cad = doors[cid]
                    cbase = slots[cid]
                    for j, a in enumerate(cad):
                        seg.append(len(src_idx))
                        dst.append(cbase + j)
                        col = col_index[a]
                        for si, r in enumerate(rows):
                            src_idx.append(sbase + si)
                            tvals.append(float(matrix[r, col]))
            if seg:
                level_ops.append(
                    (
                        np.asarray(src_idx, dtype=_INTP),
                        np.asarray(tvals, dtype=np.float64),
                        np.asarray(seg, dtype=_INTP),
                        np.asarray(dst, dtype=_INTP),
                    )
                )
        prog = (chain_fill, level_ops)
        self._eg_prog[leaf_q] = prog
        return prog

    def _eager_entries(self, index):
        """Global access-list arrays, grouped by object id — derived once
        per object-index version."""
        if self._eg_ent_index is not index or self._eg_ent_version != index.version:
            slots = self._eg_slots
            doors = self._eg_doors
            oid_l: list[int] = []
            dist_l: list[float] = []
            slot_l: list[int] = []
            leaf_l: list[int] = []
            for leaf_id, per_door in index.access_lists.items():
                base = slots[leaf_id]
                for j, a in enumerate(doors[leaf_id]):
                    for dd, oid in per_door[a]:
                        oid_l.append(oid)
                        dist_l.append(dd)
                        slot_l.append(base + j)
                        leaf_l.append(leaf_id)
            n = len(oid_l)
            oids = np.asarray(oid_l, dtype=np.int64)
            if n:
                order = np.argsort(oids, kind="stable")
                oids = oids[order]
                e_dist = np.asarray(dist_l, dtype=np.float64)[order]
                e_slot = np.asarray(slot_l, dtype=_INTP)[order]
                leaf_arr = np.asarray(leaf_l, dtype=np.int64)[order]
                newgrp = np.empty(n, dtype=bool)
                newgrp[0] = True
                np.not_equal(oids[1:], oids[:-1], out=newgrp[1:])
                starts = np.flatnonzero(newgrp).astype(_INTP)
                uniq = oids[starts]
                leaf_pos = {
                    int(lid): np.flatnonzero(leaf_arr == lid).astype(_INTP)
                    for lid in set(leaf_l)
                }
            else:
                e_dist = np.empty(0, dtype=np.float64)
                e_slot = starts = np.empty(0, dtype=_INTP)
                uniq = np.empty(0, dtype=np.int64)
                leaf_pos = {}
            oid_pos = {int(o): i for i, o in enumerate(uniq.tolist())}
            self._eg_ent = (uniq, e_dist, e_slot, starts, leaf_pos, oid_pos)
            self._eg_ent_index = index
            self._eg_ent_version = index.version
        return self._eg_ent

    def _eager_distances(self, search):
        """Exact distance to every object as ``(distances, object_ids,
        slot_vals)`` arrays; the query leaf goes through the reference
        door-matrix branch, everything else through the propagation
        program. ``slot_vals`` is the propagated per-(node, door)
        distance vector — the leaf-ball closure reads it."""
        tree = search.tree
        index = search.index
        self._eager_tree_state(tree)
        uniq, e_dist, e_slot, starts, leaf_pos, oid_pos = self._eager_entries(index)
        chain_fill, level_ops = self._eager_program(tree, search.leaf_q)
        stats = search.stats

        vals = np.full(self._eg_nslots, INF)
        node_dists = search.node_dists
        for nid, ad, sl in chain_fill:
            dct = node_dists.get(nid)
            if dct:
                vals[sl] = [dct[a] for a in ad]
        for src_idx, tvals, seg, dst in level_ops:
            vals[dst] = np.minimum.reduceat(vals[src_idx] + tvals, seg)
        stats.nodes_visited += len(self._eg_slots)

        if uniq.size:
            totals = vals[e_slot] + e_dist
            qpos = leaf_pos.get(search.leaf_q)
            if qpos is not None and qpos.size:
                # the query leaf's objects are handled exactly below
                totals[qpos] = INF
            dists = np.minimum.reduceat(totals, starts)
            stats.list_entries_scanned += int(totals.size)
        else:
            dists = np.empty(0, dtype=np.float64)

        extra_d: list[float] = []
        extra_o: list[int] = []
        if index.objects_in_leaf(search.leaf_q):
            for dd, oid in search.leaf_object_distances(search.leaf_q, INF):
                pos = oid_pos.get(oid)
                if pos is None:
                    extra_d.append(dd)
                    extra_o.append(oid)
                else:
                    dists[pos] = dd
        if extra_d:
            dists = np.concatenate([dists, np.asarray(extra_d, dtype=np.float64)])
            oids = np.concatenate([uniq, np.asarray(extra_o, dtype=np.int64)])
        else:
            oids = uniq
        return dists, oids, vals

    def _eager_leaf_ball(self, search, vals, bound: float) -> int:
        """Vectorized bound-ball leaf closure as a leaf bitmask: leaves
        whose minimum access-door distance in the propagated slot vector
        is ``<= bound``, plus the query leaf (mindist 0 by containment).
        The flags are packed little-endian, so bit ``i`` is leaf ``i``.

        Same contract as :func:`repro.core.query_knn.contributing_leaves`
        and deliberately independent of the access-list *candidate* mask:
        a leaf that is empty today but inside the ball must still tag the
        cached answer, because an insert there could change it.
        """
        leaf_ids, slot_idx, starts = self._eg_leaf_seg
        flags = np.zeros(self._eg_leaf_bits, dtype=bool)
        if leaf_ids.size:
            mind = np.minimum.reduceat(vals[slot_idx], starts)
            flags[leaf_ids[mind <= bound]] = True
        flags[search.leaf_q] = True
        packed = np.packbits(flags, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def knn_full(self, search, k: int):
        """Whole-query kNN: the k lexicographically smallest
        ``(distance, object_id)`` pairs over the eager distance arrays —
        the same result set Algorithm 5's best-first traversal keeps.

        Stats are reported in aggregate (all nodes propagated, all list
        entries combined); ``heap_pops`` stays 0 on this path.
        """
        dists, oids, vals = self._eager_distances(search)
        order = np.lexsort((oids, dists))[:k] if dists.size else np.empty(0, _INTP)
        if search.collect_leaves:
            # Fewer than k results: the effective kth-distance bound is
            # infinite, so the answer depends on every leaf (None tag).
            search.stats.result_leaves = (
                self._eager_leaf_ball(search, vals, float(dists[order[-1]]))
                if order.size >= k
                else None
            )
        return _neighbors(oids[order], dists[order])

    def range_full(self, search, radius: float):
        """Whole-query range: every object with distance <= radius,
        sorted by ``(distance, object_id)`` like the reference."""
        dists, oids, vals = self._eager_distances(search)
        if search.collect_leaves:
            # The radius bound holds even for an empty answer: an insert
            # inside the ball could make the next answer non-empty.
            search.stats.result_leaves = self._eager_leaf_ball(
                search, vals, radius
            )
        if not dists.size:
            return []
        sel = np.flatnonzero(dists <= radius)
        if not sel.size:
            return []
        sub_d = dists[sel]
        sub_o = oids[sel]
        order = np.lexsort((sub_o, sub_d))
        return _neighbors(sub_o[order], sub_d[order])
