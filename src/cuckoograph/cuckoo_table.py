"""Two-array cuckoo hash table with multi-cell buckets and bounded eviction.

Entries are tuples ``(key, h1, h2, payload)``; the two hash values are
computed once by the caller and carried with the entry so that evictions
and table rebuilds never rehash. Each bucket keeps a key list parallel to
its entry list so membership scans run on the C side of the interpreter.

Array lengths are powers of two, so the modular bucket index reduces to a
bitmask with identical semantics.

``find_slot`` is the one lookup, for both graph levels: it probes the two
candidate buckets of each table in a list, oldest first, and returns the
slot ``(table, key_bucket, entry_bucket, index)`` of the hit. The slot is
the handle callers edit in place; the graph gives items kept in plain
lists the same shape, ``(None, None, list, index)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Entry = tuple  # (key, h1, h2, payload)


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TableShape:
    """Bucket-array geometry: the major array has twice the buckets of the minor."""

    len_major: int
    len_minor: int
    cells_per_bucket: int

    def __post_init__(self):
        if self.len_minor < 1 or self.len_major != 2 * self.len_minor:
            raise ValueError(f"arrays must keep a 2:1 bucket ratio, got "
                             f"{self.len_major}:{self.len_minor}")
        if not is_pow2(self.len_major):
            raise ValueError(f"bucket counts must be powers of two, got "
                             f"{self.len_major}")
        if self.cells_per_bucket < 1:
            raise ValueError("cells_per_bucket must be >= 1")

    @property
    def length(self) -> int:
        # reported table length = bucket count of the larger array
        return self.len_major

    @property
    def capacity(self) -> int:
        return (self.len_major + self.len_minor) * self.cells_per_bucket

    @classmethod
    def for_length(cls, length: int, cells_per_bucket: int) -> "TableShape":
        if length < 2 or length % 2:
            raise ValueError(f"table length must be even and >= 2, got {length}")
        return cls(length, length // 2, cells_per_bucket)


class LevelCounters:
    """Shared instrumentation for all tables of one level."""

    __slots__ = ("insert_events", "placements", "evictions", "bucket_probes",
                 "entries", "capacity_cells", "tables", "move_failures")

    def __init__(self):
        self.insert_events = 0
        self.placements = 0
        self.evictions = 0
        self.bucket_probes = 0
        self.entries = 0
        self.capacity_cells = 0
        self.tables = 0
        self.move_failures = 0   # entries that pushed a structural move up a row

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CuckooTable:
    """One cuckoo table: two bucket arrays, d cells per bucket.

    An insertion that finds both candidate buckets full displaces a
    uniformly random resident of the first candidate; every displaced
    entry retries in its alternate array. After ``max_kicks`` evictions
    the final homeless entry is handed back to the caller instead of
    being dropped.
    """

    __slots__ = ("shape", "d", "cap", "mask_major", "mask_minor",
                 "k1", "v1", "k2", "v2", "count", "max_kicks",
                 "_rng", "_stats")

    def __init__(self, shape: TableShape, rng: random.Random,
                 stats: LevelCounters, max_kicks: int):
        if max_kicks < 1:
            raise ValueError("max_kicks must be >= 1")
        self.shape = shape
        self.d = shape.cells_per_bucket
        self.cap = shape.capacity
        self.mask_major = shape.len_major - 1
        self.mask_minor = shape.len_minor - 1
        self.k1 = [[] for _ in range(shape.len_major)]
        self.v1 = [[] for _ in range(shape.len_major)]
        self.k2 = [[] for _ in range(shape.len_minor)]
        self.v2 = [[] for _ in range(shape.len_minor)]
        self.count = 0
        self.max_kicks = max_kicks
        self._rng = rng
        self._stats = stats
        stats.capacity_cells += shape.capacity
        stats.tables += 1

    def dispose(self):
        """Release this table's contribution to the level accounting."""
        self._stats.capacity_cells -= self.shape.capacity
        self._stats.entries -= self.count
        self._stats.tables -= 1
        self.count = 0
        self.k1 = self.v1 = self.k2 = self.v2 = []

    # -- mutation --------------------------------------------------------

    def insert(self, key, h1, h2, payload):
        """Insert a key known to be absent.

        Returns None when the entry (and any displaced residents) settled,
        else the one entry left homeless after the kick budget
        (``max_kicks``) ran out. Every cell placement is counted in the
        level's ``placements``.
        """
        st = self._stats
        st.insert_events += 1
        d = self.d
        st.bucket_probes += 1
        i = h1 & self.mask_major
        kfirst = self.k1[i]
        if len(kfirst) < d:
            kfirst.append(key)
            self.v1[i].append((key, h1, h2, payload))
            self.count += 1
            st.entries += 1
            st.placements += 1
            return None
        vfirst = self.v1[i]
        st.bucket_probes += 1
        i = h2 & self.mask_minor
        ks = self.k2[i]
        if len(ks) < d:
            ks.append(key)
            self.v2[i].append((key, h1, h2, payload))
            self.count += 1
            st.entries += 1
            st.placements += 1
            return None
        # both candidates full: displacement walk starting in the major array
        cur = (key, h1, h2, payload)
        kb, vb = kfirst, vfirst
        in_major = True
        kicks = 0
        rng = self._rng
        max_kicks = self.max_kicks
        while True:
            j = rng.randrange(d)
            victim = vb[j]
            vb[j] = cur
            kb[j] = cur[0]
            st.placements += 1
            st.evictions += 1
            kicks += 1
            cur = victim
            in_major = not in_major
            if in_major:
                i = cur[1] & self.mask_major
                kb, vb = self.k1[i], self.v1[i]
            else:
                i = cur[2] & self.mask_minor
                kb, vb = self.k2[i], self.v2[i]
            st.bucket_probes += 1
            if len(kb) < d:
                kb.append(cur[0])
                vb.append(cur)
                st.placements += 1
                self.count += 1
                st.entries += 1
                return None
            if kicks >= max_kicks:
                # net entry count unchanged: newcomer in, this one out
                return cur

    def clear_slot(self, kb, vb, j):
        """Free one already-located cell (swap-remove, order is irrelevant)."""
        kb[j] = kb[-1]
        vb[j] = vb[-1]
        kb.pop()
        vb.pop()
        self.count -= 1
        self._stats.entries -= 1

    def entries(self):
        """Yield every stored entry; the table is left unchanged."""
        for bucket in self.v1:
            yield from bucket
        for bucket in self.v2:
            yield from bucket


def find_slot(tables, key, h1, h2):
    """Locate key in a list of tables sharing one level's counters.

    Probes at most two buckets per table, oldest table first, and charges
    every probe to the level's ``bucket_probes``. Returns the slot
    ``(table, key_bucket, entry_bucket, index)``, or None on a miss.
    """
    probes = 0
    for t in tables:
        probes += 1
        i = h1 & t.mask_major
        ks = t.k1[i]
        if key in ks:
            t._stats.bucket_probes += probes
            return t, ks, t.v1[i], ks.index(key)
        probes += 1
        i = h2 & t.mask_minor
        ks = t.k2[i]
        if key in ks:
            t._stats.bucket_probes += probes
            return t, ks, t.v2[i], ks.index(key)
    tables[-1]._stats.bucket_probes += probes
    return None
