"""Two-array cuckoo hash table with multi-cell buckets and bounded eviction.

A table of length ``n`` (a power of two, at least 2; the constructor
checks it) has ``n`` major buckets and ``n / 2`` minor ones of ``d``
cells, ``cap`` cells in all: the major array's buckets first, then the
minor array's, so bucket ``b`` of the minor array is bucket ``n + b`` of
the table. A table's length is its ``len_major``. Each table keeps its
buckets in one of two layouts, fixed by the level it serves:

- ``ROWS`` (node tables): a bucket is a list of keys; the payloads, the
  graph's row id of each source, sit unboxed in one ``array('Q')`` of
  ``cap`` cells, key ``i`` of bucket ``b`` with its row in cell ``b * d +
  i``. The keys stay in lists because the node level is probed on every
  operation: a flat probe (``key in keys[lo:hi]``) costs about 460 ns
  against 117 ns for ``key in list``, and a query on the sparse-inline
  workload probes 2.49 node buckets, so flat node keys would add about
  0.85 us to an operation of about 5.5 us. This layout takes 21.45 B/edge
  there (heap pass, seed 1), and a heap model puts flat keys at about 17,
  which is not worth that time.
- ``KEYS`` and ``WEIGHTS`` (adjacency tables): flat. All keys sit in one
  ``array('Q')`` of ``cap`` cells, bucket ``b`` in cells ``b * d``
  onwards, with a ``bytearray`` holding each bucket's fill count (so ``d``
  is at most 255); the filled cells come first. A weighted table keeps its
  weights in a parallel ``array('Q')``. A destination id or weight then
  costs 8 bytes, not an int object plus a list cell: on the zipf workloads
  these tables held about half of the heap. Both bucket arrays share one
  key array and one fill array, because most adjacency tables have only a
  few buckets, so the arrays' object headers weigh as much as their cells.

Payloads, where kept, are in an ``array('Q')`` in both layouts, so a
payload is an int below 2**64. No entry carries its hashes and no entry
is an object of its own, so the garbage collector sees no per-entry
object. Callers that already hashed a key pass both hashes to
``insert``; a key displaced by the kick walk, or moved by a chain's merge,
contraction or drain, is rehashed with the table's ``HashPair`` (as MemC3
works out a displaced item's other bucket). Membership scans run on the C
side of the interpreter: ``in`` on a key list, or on a slice of the key
array.

Array lengths are powers of two, so the modular bucket index reduces to a
bitmask with identical semantics.

``find_slot`` is the one lookup, for both graph levels: it probes the two
candidate buckets of each table in a list, oldest first, and returns the
slot ``(table, keys, payloads, index)`` of the hit. ``payloads`` is the
table's payload array (None in a ``KEYS`` table) and ``index`` the hit's
cell in it. In a flat table ``keys`` is the key array, indexed by the same
cell; in a ``ROWS`` table it is the bucket's key list, where the key sits
at ``index % d``. The slot is the handle callers edit in place; a chain's
overflow entries have the shape ``(None, keys, payloads, index)`` of its
parallel lists, and the graph's inline destinations ``(None, None,
slots, index)`` of its slot column (see ``graph``).
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array

_flatten = itertools.chain.from_iterable

# bucket layouts: key lists with a row array, or flat key (and weight) arrays
ROWS, KEYS, WEIGHTS = "rows", "keys", "weights"


@functools.cache
def _fill_masks(d: int) -> tuple:
    """``masks[n]``: one byte per cell of a bucket holding ``n`` keys, 1 if live."""
    return tuple(b"\x01" * n + b"\x00" * (d - n) for n in range(d + 1))


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
    back to the caller instead of being dropped. ``layout`` is ``ROWS``,
    ``KEYS`` or ``WEIGHTS`` (see the module docstring); in a ``KEYS`` table
    ``vals`` is None and every payload reads as None. ``fill`` holds the
    bucket fill counts of a flat table and is None in a ``ROWS`` one, whose
    key lists carry their own lengths.
    """

    __slots__ = ("d", "cap", "mask_major", "mask_minor", "len_major",
                 "keys", "vals", "fill", "count", "max_kicks",
                 "_hash", "_rng", "_stats")

    def __init__(self, length: int, cells_per_bucket: int, rng: random.Random,
                 stats: LevelCounters, max_kicks: int, hash_pair, layout: str):
        if length < 2 or not is_pow2(length):
            raise ValueError(f"table length must be a power of two >= 2, "
                             f"got {length}")
        if cells_per_bucket < 1:
            raise ValueError("cells_per_bucket must be >= 1")
        if max_kicks < 1:
            raise ValueError("max_kicks must be >= 1")
        if layout not in (ROWS, KEYS, WEIGHTS):
            raise ValueError(f"unknown bucket layout {layout!r}")
        self.d = cells_per_bucket
        self.len_major = length
        self.mask_major = length - 1
        self.mask_minor = length // 2 - 1
        buckets = length + length // 2
        self.cap = buckets * cells_per_bucket
        if layout == ROWS:
            # copied to exact size: a comprehension's list keeps spare cells
            self.keys = [[] for _ in range(buckets)].copy()
            self.fill = None
        else:
            self.keys = array("Q", bytes(8 * self.cap))
            self.fill = bytearray(buckets)
        self.vals = array("Q", bytes(8 * self.cap)) if layout != KEYS else None
        self.count = 0
        self.max_kicks = max_kicks
        self._hash = hash_pair
        self._rng = rng
        self._stats = stats
        stats.capacity_cells += self.cap
        stats.tables += 1

    def dispose(self):
        """Release this table's contribution to the level accounting."""
        self._stats.capacity_cells -= self.cap
        self._stats.entries -= self.count
        self._stats.tables -= 1
        self.count = 0
        self.keys = self.keys[:0]
        if self.vals is not None:
            self.vals = self.vals[:0]
        if self.fill is not None:
            self.fill = self.fill[:0]

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
        st.bucket_probes += 1
        b = h1 & self.mask_major
        if not self._put(b, key, payload):
            st.bucket_probes += 1
            if not self._put(self.len_major + (h2 & self.mask_minor), key,
                             payload):
                return self._walk(key, payload, b)
        self.count += 1
        st.entries += 1
        st.placements += 1
        return None

    def _put(self, b, key, payload):
        """Append to bucket ``b`` if it has a free cell; True when placed."""
        fill = self.fill
        if fill is None:
            ks = self.keys[b]
            n = len(ks)
            if n >= self.d:
                return False
            ks.append(key)
            self.vals[b * self.d + n] = payload
            return True
        n = fill[b]
        if n >= self.d:
            return False
        c = b * self.d + n
        self.keys[c] = key
        if self.vals is not None:
            self.vals[c] = payload
        fill[b] = n + 1
        return True

    def _walk(self, key, payload, b):
        """Displacement walk from the full major bucket ``b``; see ``insert``."""
        st = self._stats
        keys, vals, flat = self.keys, self.vals, self.fill is not None
        in_major = True
        kicks = 0
        d = self.d
        rng = self._rng
        max_kicks = self.max_kicks
        while True:
            j = rng.randrange(d)
            c = b * d + j
            if flat:
                key, keys[c] = keys[c], key
            else:
                kb = keys[b]
                key, kb[j] = kb[j], key
            if vals is not None:
                payload, vals[c] = vals[c], payload
            st.placements += 1
            st.evictions += 1
            kicks += 1
            # the victim leaves for its bucket in the other array
            in_major = not in_major
            h1, h2 = self._hash.pair(key)
            if in_major:
                b = h1 & self.mask_major
            else:
                b = self.len_major + (h2 & self.mask_minor)
            st.bucket_probes += 1
            if self._put(b, key, payload):
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
        """Free one already-located cell (a slot's last three fields): the
        bucket's last filled cell moves into it (order within a bucket is
        irrelevant)."""
        fill = self.fill
        if fill is None:
            first = j - j % self.d
            last = len(kb) - 1
            kb[j - first] = kb[last]
            kb.pop()
            vb[j] = vb[first + last]
        else:
            b = j // self.d
            n = fill[b] - 1
            last = b * self.d + n
            kb[j] = kb[last]
            if vb is not None:
                vb[j] = vb[last]
            fill[b] = n
        self.count -= 1
        self._stats.entries -= 1

    # -- reading ---------------------------------------------------------

    def stored_keys(self):
        """Iterate every stored key, bucket by bucket, in cell order."""
        if self.fill is None:
            return _flatten(self.keys)
        return itertools.compress(self.keys, self._live())

    def entries(self):
        """Iterate every stored ``(key, payload)``; the table is left unchanged."""
        if self.vals is None:
            return zip(self.stored_keys(), itertools.repeat(None))
        return zip(self.stored_keys(),
                   itertools.compress(self.vals, self._live()))

    def _live(self) -> bytes:
        """One byte per cell, 1 where the cell is filled."""
        fills = self.fill if self.fill is not None else map(len, self.keys)
        return b"".join(map(_fill_masks(self.d).__getitem__, fills))

    def buckets(self, key):
        """The two candidate buckets a fresh ``pair(key)`` selects."""
        h1, h2 = self._hash.pair(key)
        return h1 & self.mask_major, self.len_major + (h2 & self.mask_minor)

    def bucket(self, b):
        """Bucket ``b`` as ``(keys, payloads, first, filled)``: its keys are
        ``keys[first:first + filled]``, each payload at the same index of
        ``payloads`` (None in a ``KEYS`` table). A ``ROWS`` bucket comes as
        its key list and a copy of its filled payload cells."""
        if self.fill is None:
            ks = self.keys[b]
            lo = b * self.d
            return ks, self.vals[lo:lo + len(ks)], 0, len(ks)
        return self.keys, self.vals, b * self.d, self.fill[b]

    def check_invariants(self):
        """Audit the layout by rehashing every key; raises AssertionError.

        Each key sits in a bucket a fresh ``pair(key)`` selects, on the
        side its bucket belongs to; no bucket holds more than ``d`` keys;
        payloads (when kept) are parallel to the keys; and ``count`` is the
        number of keys.
        """
        n = 0
        buckets = self.cap // self.d
        if self.fill is not None:
            assert len(self.fill) == buckets, "fill counts do not match the buckets"
            assert len(self.keys) == self.cap, "key array does not match the cells"
        else:
            assert len(self.keys) == buckets, "key lists do not match the buckets"
        assert self.vals is None or len(self.vals) == self.cap, \
            "payload array not parallel"
        for b in range(buckets):
            keys, _, first, filled = self.bucket(b)
            assert filled <= self.d, f"bucket {b} over capacity"
            side = 0 if b < self.len_major else 1
            for key in keys[first:first + filled]:
                assert self.buckets(key)[side] == b, \
                    f"key {key} outside its candidate bucket"
            n += filled
        assert n == self.count, "table count drift"


def find_slot(tables, key, h1, h2):
    """Locate key in a list of tables sharing one level's counters.

    Probes at most two buckets per table, oldest table first, and charges
    every probe to the level's ``bucket_probes``. Returns the slot
    ``(table, keys, payloads, index)`` (see the module docstring), or None
    on a miss. All tables of a level share a layout, so the branch on it is
    taken once per call.

    Each layout spells out its major and its minor probe: a loop over the
    two buckets lost in 10 perfbench pairs each (2-core x86_64, Python
    3.11), about 5% of query throughput, hits and misses on sparse-inline
    (node tables) and misses on zipf-lifecycle (flat tables).
    """
    probes = 0
    d = tables[0].d
    if tables[0].fill is None:
        for t in tables:
            probes += 1
            b = h1 & t.mask_major
            ks = t.keys[b]
            if key in ks:
                t._stats.bucket_probes += probes
                return t, ks, t.vals, b * d + ks.index(key)
            probes += 1
            b = t.len_major + (h2 & t.mask_minor)
            ks = t.keys[b]
            if key in ks:
                t._stats.bucket_probes += probes
                return t, ks, t.vals, b * d + ks.index(key)
    else:
        for t in tables:
            probes += 1
            b = h1 & t.mask_major
            lo = b * d
            ks = t.keys[lo:lo + t.fill[b]]
            if key in ks:
                t._stats.bucket_probes += probes
                return t, t.keys, t.vals, lo + ks.index(key)
            probes += 1
            b = t.len_major + (h2 & t.mask_minor)
            lo = b * d
            ks = t.keys[lo:lo + t.fill[b]]
            if key in ks:
                t._stats.bucket_probes += probes
                return t, t.keys, t.vals, lo + ks.index(key)
    tables[-1]._stats.bucket_probes += probes
    return None
