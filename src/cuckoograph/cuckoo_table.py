"""Two-array cuckoo hash table with multi-cell buckets and bounded eviction.

A bucket is a list of keys, and a table whose level has payloads keeps a
payload list parallel to each key list: the ``NodeCell`` itself in a node
table, the weight in a weighted adjacency table. An unweighted adjacency
table keeps keys only. No entry carries its hashes and no entry is a
tuple of its own, so a stored key costs one list cell (two with a
payload) and the garbage collector sees no per-entry object. Callers that
already hashed a key pass both hashes to ``insert``; a key displaced by
the kick walk, or moved by a chain's merge, contraction or drain, is
rehashed with the table's ``HashPair`` (as MemC3 works out a displaced
item's other bucket). Membership scans run on the key lists, on the C side
of the interpreter.

Array lengths are powers of two, so the modular bucket index reduces to a
bitmask with identical semantics.

``find_slot`` is the one lookup, for both graph levels: it probes the two
candidate buckets of each table in a list, oldest first, and returns the
slot ``(table, key_bucket, payload_bucket, index)`` of the hit, with no
payload bucket in a keys-only table. The slot is the handle callers edit
in place; a chain's overflow entries have the same shape, ``(None, keys,
payloads, index)``, and the graph's inline destinations ``(None, None,
inline, index)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

_flatten = itertools.chain.from_iterable


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
    """Shared instrumentation for all tables of one level.

    The ``kicks_*`` fields count displacement walks by their length: a walk
    that settled after 1, 2-3, 4-15 or 16 and more kicks, or one that ran
    out of its kick budget and handed an entry back. ``moved`` counts the
    level's chain moves: every placement attempt of a merge or contraction,
    and every overflow entry a grow drained into a table. ``overflow`` is
    the number of entries in all the level's overflow lists, which share
    one cap.
    """

    __slots__ = ("insert_events", "placements", "evictions", "bucket_probes",
                 "entries", "capacity_cells", "tables", "move_failures",
                 "moved", "overflow", "kicks_1", "kicks_2_3", "kicks_4_15", "kicks_16_up",
                 "kicks_exhausted")

    def __init__(self):
        self.insert_events = 0
        self.placements = 0
        self.evictions = 0
        self.bucket_probes = 0
        self.entries = 0
        self.capacity_cells = 0
        self.tables = 0
        self.move_failures = 0   # entries that pushed a structural move up a row
        self.moved = 0
        self.overflow = 0
        self.kicks_1 = 0
        self.kicks_2_3 = 0
        self.kicks_4_15 = 0
        self.kicks_16_up = 0
        self.kicks_exhausted = 0

    def count_walk(self, kicks: int):
        """Count one displacement walk that settled after ``kicks`` kicks."""
        if kicks == 1:
            self.kicks_1 += 1
        elif kicks < 4:
            self.kicks_2_3 += 1
        elif kicks < 16:
            self.kicks_4_15 += 1
        else:
            self.kicks_16_up += 1

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CuckooTable:
    """One cuckoo table: two bucket arrays, d cells per bucket.

    An insertion that finds both candidate buckets full displaces a
    uniformly random resident of the first candidate; every displaced
    key is rehashed and retries in its alternate array. After
    ``max_kicks`` evictions the final homeless ``(key, payload)`` is handed
    back to the caller instead of being dropped. With ``payloads`` false
    the table keeps keys only (``v1``/``v2`` are None) and every payload
    reads as None.
    """

    __slots__ = ("shape", "d", "cap", "mask_major", "mask_minor",
                 "k1", "v1", "k2", "v2", "count", "max_kicks",
                 "_hash", "_rng", "_stats")

    def __init__(self, shape: TableShape, rng: random.Random,
                 stats: LevelCounters, max_kicks: int, hash_pair,
                 payloads: bool):
        if max_kicks < 1:
            raise ValueError("max_kicks must be >= 1")
        self.shape = shape
        self.d = shape.cells_per_bucket
        self.cap = shape.capacity
        self.mask_major = shape.len_major - 1
        self.mask_minor = shape.len_minor - 1
        self.k1 = [[] for _ in range(shape.len_major)]
        self.k2 = [[] for _ in range(shape.len_minor)]
        if payloads:
            self.v1 = [[] for _ in range(shape.len_major)]
            self.v2 = [[] for _ in range(shape.len_minor)]
        else:
            self.v1 = self.v2 = None
        self.count = 0
        self.max_kicks = max_kicks
        self._hash = hash_pair
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
        self.k1 = self.k2 = []
        if self.v1 is not None:
            self.v1 = self.v2 = []

    # -- mutation --------------------------------------------------------

    def insert(self, key, h1, h2, payload):
        """Insert a key known to be absent; ``h1, h2`` are its hashes.

        Returns None when the key (and any displaced residents) settled,
        else the one ``(key, payload)`` left homeless after the kick budget
        (``max_kicks``) ran out. Every cell placement is counted in the
        level's ``placements``.
        """
        st = self._stats
        st.insert_events += 1
        d = self.d
        st.bucket_probes += 1
        i = h1 & self.mask_major
        ks = self.k1[i]
        if len(ks) < d:
            ks.append(key)
            if self.v1 is not None:
                self.v1[i].append(payload)
            self.count += 1
            st.entries += 1
            st.placements += 1
            return None
        st.bucket_probes += 1
        i2 = h2 & self.mask_minor
        ks = self.k2[i2]
        if len(ks) < d:
            ks.append(key)
            if self.v2 is not None:
                self.v2[i2].append(payload)
            self.count += 1
            st.entries += 1
            st.placements += 1
            return None
        return self._walk(key, payload, i)

    def _walk(self, key, payload, i):
        """Displacement walk from the full major bucket ``i``; see ``insert``."""
        st = self._stats
        k1, v1, k2, v2 = self.k1, self.v1, self.k2, self.v2
        kb = k1[i]
        vb = None if v1 is None else v1[i]
        in_major = True
        kicks = 0
        d = self.d
        rng = self._rng
        max_kicks = self.max_kicks
        while True:
            j = rng.randrange(d)
            key, kb[j] = kb[j], key
            if vb is not None:
                payload, vb[j] = vb[j], payload
            st.placements += 1
            st.evictions += 1
            kicks += 1
            # the victim leaves for its bucket in the other array
            in_major = not in_major
            h1, h2 = self._hash.pair(key)
            if in_major:
                i = h1 & self.mask_major
                kb = k1[i]
                vb = None if v1 is None else v1[i]
            else:
                i = h2 & self.mask_minor
                kb = k2[i]
                vb = None if v2 is None else v2[i]
            st.bucket_probes += 1
            if len(kb) < d:
                kb.append(key)
                if vb is not None:
                    vb.append(payload)
                st.placements += 1
                self.count += 1
                st.entries += 1
                st.count_walk(kicks)
                return None
            if kicks >= max_kicks:
                # net entry count unchanged: newcomer in, this one out
                st.kicks_exhausted += 1
                return key, payload

    def clear_slot(self, kb, vb, j):
        """Free one already-located cell (swap-remove, order is irrelevant)."""
        kb[j] = kb[-1]
        kb.pop()
        if vb is not None:
            vb[j] = vb[-1]
            vb.pop()
        self.count -= 1
        self._stats.entries -= 1

    def entries(self):
        """Iterate every stored ``(key, payload)``; the table is left unchanged."""
        keys = _flatten(self.k1 + self.k2)
        if self.v1 is None:
            return zip(keys, itertools.repeat(None))
        return zip(keys, _flatten(self.v1 + self.v2))

    def check_invariants(self):
        """Audit the layout by rehashing every key; raises AssertionError.

        Each key sits in the bucket a fresh ``pair(key)`` selects, no
        bucket holds more than ``d`` keys, payload lists (when kept) are
        parallel to the key lists, and ``count`` is the number of keys.
        """
        n = 0
        for which, mask, keys, vals in ((0, self.mask_major, self.k1, self.v1),
                                        (1, self.mask_minor, self.k2, self.v2)):
            assert (vals is None) == (self.v1 is None), "payload arrays differ"
            for bi, kb in enumerate(keys):
                assert len(kb) <= self.d, "bucket over capacity"
                if vals is not None:
                    assert len(vals[bi]) == len(kb), "payload list not parallel"
                for key in kb:
                    assert self._hash.pair(key)[which] & mask == bi, \
                        f"key {key} outside its candidate bucket"
                n += len(kb)
        assert n == self.count, "table count drift"


def find_slot(tables, key, h1, h2):
    """Locate key in a list of tables sharing one level's counters.

    Probes at most two buckets per table, oldest table first, and charges
    every probe to the level's ``bucket_probes``. Returns the slot
    ``(table, key_bucket, payload_bucket, index)``, the payload bucket None
    in a keys-only table, or None on a miss.
    """
    probes = 0
    for t in tables:
        probes += 1
        i = h1 & t.mask_major
        ks = t.k1[i]
        if key in ks:
            t._stats.bucket_probes += probes
            vs = t.v1
            return t, ks, None if vs is None else vs[i], ks.index(key)
        probes += 1
        i = h2 & t.mask_minor
        ks = t.k2[i]
        if key in ks:
            t._stats.bucket_probes += probes
            vs = t.v2
            return t, ks, None if vs is None else vs[i], ks.index(key)
    tables[-1]._stats.bucket_probes += probes
    return None
