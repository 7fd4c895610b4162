"""Leaf-tagged result caching: the data structure behind scoped
invalidation.

:class:`TaggedLRUCache` extends :class:`~repro.engine.cache.LRUCache`
with one piece of metadata per entry — the set of tree leaf ids whose
objects could have contributed to the cached answer (the conservative
bound-ball closure computed by
:func:`repro.core.query_knn.contributing_leaves` and its vectorized
kernel twin). A tag is one python int with bit ``i`` set for leaf id
``i``, so :meth:`TaggedLRUCache.invalidate_leaves` is one ``tag & mask``
per live entry and a put stores one int — no per-leaf bookkeeping.
Leaf ids are small dense integers (a tree numbers its leaves ``0 ..
M-1``), so a mask is M bits.

Tag semantics:

* a non-negative int mask (or, at :meth:`TaggedLRUCache.put`, any
  iterable of leaf ids) — the entry is invalidated exactly when one of
  those leaves' object population changes;
* ``None`` ("ALL") — the entry's dependency set is unknown or unbounded
  (e.g. a kNN that returned fewer than k results, whose effective bound
  is infinite), so *any* update invalidates it. Plain ``cache[key] =
  value`` writes get this conservative tag; use :meth:`put` to attach a
  real one.

Thread safety: none here — the engine guards the cache (tags included)
with its existing cache mutex, exactly as it does for the untagged
caches.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .cache import LRUCache

__all__ = ["TaggedLRUCache", "leaf_mask", "mask_leaves"]

#: the stored tag of an ALL entry: every bit set, so it meets any mask
_ALL = -1


def leaf_mask(leaves: int | Iterable[int]) -> int:
    """The bitmask of an iterable of leaf ids (an int passes through)."""
    if isinstance(leaves, int):
        return leaves
    mask = 0
    for leaf_id in leaves:
        mask |= 1 << leaf_id
    return mask


def mask_leaves(mask: int) -> frozenset:
    """The leaf ids set in a non-negative mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


class TaggedLRUCache(LRUCache):
    """An :class:`LRUCache` whose entries carry leaf-dependency tags.

    All :class:`LRUCache` semantics are preserved — LRU bound, lifetime
    ``hits``/``misses``/``evictions`` counters, ``clear`` keeping the
    counters — and the tags stay exactly consistent with the entry
    population: overwrites, LRU evictions, ``clear`` and both
    ``invalidate_*`` methods drop the tag with the entry.
    """

    __slots__ = ("_tags",)

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)
        #: key -> leaf bitmask, or _ALL
        self._tags: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    def put(self, key: Hashable, value, leaves: int | Iterable[int] | None) -> None:
        """Store ``key -> value`` tagged with ``leaves``: a leaf
        bitmask, an iterable of leaf ids, or ``None`` (ALL). The LRU
        bound applies as in ``__setitem__``; evicted entries lose their
        tags."""
        data = self._data
        tags = self._tags
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if self.maxsize > 0:
            while len(data) > self.maxsize:
                old, _ = data.popitem(last=False)
                del tags[old]
                self.evictions += 1
        tags[key] = _ALL if leaves is None else leaf_mask(leaves)

    def __setitem__(self, key: Hashable, value) -> None:
        # untagged writes depend on everything until told otherwise
        self.put(key, value, None)

    def leaves_of(self, key: Hashable) -> frozenset | None:
        """The tag of a live entry as a set of leaf ids (``None`` =
        ALL); raises ``KeyError`` for keys not currently cached."""
        if key not in self._data:
            raise KeyError(key)
        tag = self._tags[key]
        return None if tag < 0 else mask_leaves(tag)

    # ------------------------------------------------------------------
    def invalidate_leaves(self, leaf_ids: Iterable[int]) -> int:
        """Drop every entry tagged with any of ``leaf_ids`` — plus every
        ALL-tagged entry, whose dependency set conservatively contains
        every leaf. Entries tagged only with other leaves survive.
        Returns the number of entries dropped (counters untouched, as
        with :meth:`clear`)."""
        tags = self._tags
        if not tags:
            return 0
        mask = leaf_mask(leaf_ids)
        if mask:
            victims = [key for key, tag in tags.items() if tag & mask]
        else:
            victims = [key for key, tag in tags.items() if tag < 0]
        data = self._data
        for key in victims:
            del tags[key]
            del data[key]
        return len(victims)

    def invalidate_all(self) -> int:
        """Full flush; returns the number of entries dropped."""
        dropped = len(self._data)
        self.clear()
        return dropped

    def clear(self) -> None:
        super().clear()
        self._tags.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaggedLRUCache(size={len(self._data)}/{self.maxsize}, "
            f"all={sum(1 for t in self._tags.values() if t < 0)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
