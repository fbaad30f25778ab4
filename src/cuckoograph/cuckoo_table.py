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
``insert``; a key displaced by the kick walk, or drained from a chain's
overflow list, is rehashed with the level's ``HashPair`` (as MemC3 works
out a displaced item's other bucket). A chain's merge or contraction
moves its entries in bulk: it hashes all their keys in one batch
(``HashPair.pairs``) and hands them to ``place``, one loop that writes each
key straight into its major or minor bucket, exactly where ``insert``
would, and sends only a key whose two buckets are full on the kick walk.
Membership scans run on the C side of the interpreter: ``in`` on a key
list, or on a slice of the key array.

Array lengths are powers of two, so the modular bucket index reduces to a
bitmask with identical semantics.

The tables of a graph level share one ``Level`` (its settings and
counters) and keep only their own geometry (``d``, ``cap``, masks,
``len_major``) in slots of their own, for the probe path.

A lookup is the chain's (``TableChain.find``); its table hit comes back as
the slot ``(table, keys, payloads, index)``. ``payloads`` is the table's
payload array (None in a ``KEYS`` table) and ``index`` the hit's cell in
it. In a flat table ``keys`` is the key array, indexed by the same cell;
in a ``ROWS`` table it is the bucket's key list, where the key sits at
``index % d``. ``clear_slot`` frees such a cell. The audits read a key's
candidate buckets (``buckets``) and one bucket's contents (``bucket``).
"""

from __future__ import annotations

import functools
import itertools
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


class Level:
    """What every table and chain of one graph level shares.

    Settings: ``d`` cells per bucket, the kick budget ``max_kicks``, the
    ``HashPair`` that places every key, the ``rng`` that picks kick
    victims, the bucket ``layout``, and for the chains the ``base_len`` of
    a fresh chain, the grow and floor thresholds ``expand_at`` and
    ``contract_at``, and ``overflow_cap``, the cap on the entries of all the
    level's overflow lists together.

    Counters (``COUNTERS``): the ``kicks_*`` fields count displacement
    walks by their length: a walk that settled after 1, 2-3, 4-15 or 16
    and more kicks, or one that ran out of its kick budget and handed an
    entry back. ``moved`` counts the level's chain moves: every placement
    attempt of a merge or contraction, and every overflow entry a grow
    drained into a table. ``move_failures`` counts the entries that made a
    move discard a try and redo it. ``overflow`` is the number of entries in
    all the level's overflow lists.
    """

    COUNTERS = ("insert_events", "placements", "evictions", "bucket_probes",
                "entries", "capacity_cells", "tables", "move_failures",
                "moved", "overflow", "kicks_1", "kicks_2_3", "kicks_4_15",
                "kicks_16_up", "kicks_exhausted")
    __slots__ = COUNTERS + ("d", "max_kicks", "hash", "rng", "layout",
                            "base_len", "expand_at", "contract_at",
                            "overflow_cap")

    def __init__(self, *, cells_per_bucket, kick_budget, hash_pair, rng,
                 layout, base_len, expand_at, contract_at, overflow_cap):
        if cells_per_bucket < 1:
            raise ValueError("cells_per_bucket must be >= 1")
        if kick_budget < 1:
            raise ValueError("kick_budget must be >= 1")
        if layout not in (ROWS, KEYS, WEIGHTS):
            raise ValueError(f"unknown bucket layout {layout!r}")
        self.d = cells_per_bucket
        self.max_kicks = kick_budget
        self.hash = hash_pair
        self.rng = rng
        self.layout = layout
        self.base_len = base_len
        self.expand_at = expand_at
        self.contract_at = contract_at
        self.overflow_cap = overflow_cap
        for name in self.COUNTERS:
            setattr(self, name, 0)

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
        """The counters by name."""
        return {name: getattr(self, name) for name in self.COUNTERS}


class CuckooTable:
    """One cuckoo table: two bucket arrays, d cells per bucket.

    An insertion that finds both candidate buckets full displaces a
    uniformly random resident of the first candidate; every displaced
    key is rehashed and retries in its alternate array. After
    ``max_kicks`` evictions the final homeless ``(key, payload)`` is handed
    back to the caller instead of being dropped. The table takes its
    level's ``d``, kick budget, ``HashPair``, victim generator and layout,
    ``ROWS``, ``KEYS`` or ``WEIGHTS`` (see the module docstring); in a
    ``KEYS`` table ``vals`` is None and every payload reads as None.
    ``fill`` holds the bucket fill counts of a flat table and is None in a
    ``ROWS`` one, whose key lists carry their own lengths.
    """

    __slots__ = ("d", "cap", "mask_major", "mask_minor", "len_major",
                 "keys", "vals", "fill", "count", "level")

    def __init__(self, length: int, level: Level):
        if length < 2 or not is_pow2(length):
            raise ValueError(f"table length must be a power of two >= 2, "
                             f"got {length}")
        d = self.d = level.d
        self.len_major = length
        self.mask_major = length - 1
        self.mask_minor = length // 2 - 1
        buckets = length + length // 2
        self.cap = buckets * d
        if level.layout == ROWS:
            # copied to exact size: a comprehension's list keeps spare cells
            self.keys = [[] for _ in range(buckets)].copy()
            self.fill = None
        else:
            self.keys = array("Q", bytes(8 * self.cap))
            self.fill = bytearray(buckets)
        self.vals = (array("Q", bytes(8 * self.cap))
                     if level.layout != KEYS else None)
        self.count = 0
        self.level = level
        level.capacity_cells += self.cap
        level.tables += 1

    def dispose(self):
        """Release this table's contribution to the level accounting."""
        level = self.level
        level.capacity_cells -= self.cap
        level.entries -= self.count
        level.tables -= 1
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
        (the level's ``max_kicks``) ran out. Every cell placement is
        counted in the level's ``placements``.
        """
        st = self.level
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

    def place(self, keys, h1s, h2s, payloads, i, limit):
        """Insert ``keys[i:]``, in order, while the table holds fewer than
        ``limit`` entries. ``h1s`` and ``h2s`` hold the keys' hashes and
        ``payloads`` their payloads (None in a ``KEYS`` table), all
        parallel to ``keys``.

        Each key lands where ``insert`` would put it, with the same
        counters: straight into its major or minor bucket, and only a key
        whose two buckets are both full takes the kick walk. Returns ``(j,
        homeless)``: ``j`` is the index of the first key not tried, and
        ``homeless`` the ``(key, payload)`` a walk left homeless, which ends
        the call, else None.
        """
        st = self.level
        d, len_major = self.d, self.len_major
        mask_major, mask_minor = self.mask_major, self.mask_minor
        table_keys, vals, fill = self.keys, self.vals, self.fill
        start, n, count = i, len(keys), self.count
        placed = minor_probes = 0
        homeless = None
        while i < n and count < limit:
            key = keys[i]
            b = h1s[i] & mask_major
            if fill is None:
                m = len(table_keys[b])
                if m >= d:
                    minor_probes += 1
                    b = len_major + (h2s[i] & mask_minor)
                    m = len(table_keys[b])
                full = m >= d
                if not full:
                    table_keys[b].append(key)
                    vals[b * d + m] = payloads[i]
            else:
                m = fill[b]
                if m >= d:
                    minor_probes += 1
                    b = len_major + (h2s[i] & mask_minor)
                    m = fill[b]
                full = m >= d
                if not full:
                    c = b * d + m
                    table_keys[c] = key
                    if vals is not None:
                        vals[c] = payloads[i]
                    fill[b] = m + 1
            if full:
                self.count = count
                homeless = self._walk(key, None if payloads is None
                                      else payloads[i], h1s[i] & mask_major)
                count = self.count
            else:
                count += 1
                placed += 1
            i += 1
            if homeless is not None:
                break
        self.count = count
        st.insert_events += i - start
        st.bucket_probes += i - start + minor_probes
        st.placements += placed
        st.entries += placed
        return i, homeless

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
        st = self.level
        keys, vals, flat = self.keys, self.vals, self.fill is not None
        in_major = True
        kicks = 0
        d = self.d
        rng = st.rng
        max_kicks = st.max_kicks
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
            h1, h2 = st.hash.pair(key)
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
        self.level.entries -= 1

    # -- reading ---------------------------------------------------------

    def stored_keys(self):
        """Iterate every stored key, bucket by bucket, in cell order."""
        if self.fill is None:
            return _flatten(self.keys)
        return itertools.compress(self.keys, self._live())

    def stored_payloads(self):
        """Iterate the payloads parallel to ``stored_keys``; a ``KEYS``
        table has none."""
        return itertools.compress(self.vals, self._live())

    def entries(self):
        """Iterate every stored ``(key, payload)``; the table is left unchanged."""
        if self.vals is None:
            return zip(self.stored_keys(), itertools.repeat(None))
        return zip(self.stored_keys(), self.stored_payloads())

    def _live(self) -> bytes:
        """One byte per cell, 1 where the cell is filled."""
        fills = self.fill if self.fill is not None else map(len, self.keys)
        return b"".join(map(_fill_masks(self.d).__getitem__, fills))

    def buckets(self, key):
        """The two candidate buckets a fresh ``pair(key)`` selects."""
        h1, h2 = self.level.hash.pair(key)
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

