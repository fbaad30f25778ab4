"""Seeded 64-bit mixing hashes used for bucket indexing.

``HashPair.pair`` runs one seeded splitmix64 finaliser over a key and
splits the 64-bit result into the two cuckoo hashes: the low 30 bits
and bits 34-63. One pass is enough because the finaliser avalanches
every key bit into every output bit; linear families (multiply-shift,
multiply-add-shift) are not, and on structured keys (ids strided by
2^k, 2-D grids ``(i << s) + j``) they crowd a few buckets and break the
placement bound. ``tests/test_graph.py::TestBounds`` holds the gate:
structured and zipf key sets must stay within 1.2 placements per insert
event at both levels, with both overflow lists under their cap.

``HashPair.pairs`` runs the same finaliser over a whole batch of keys in
one numpy ``uint64`` pass, bit for bit as ``pair`` does key by key (the
array multiplies wrap modulo 2^64 as the masks do). A chain's structural
move knows every key it moves in advance, and a BFS level every node of
its frontier, so each hashes them as one batch, as vectorised hash joins
do (Polychroniou, Raghavan & Ross, SIGMOD '15). An empty batch returns
before numpy is touched.
"""

import numpy as np

MASK64 = (1 << 64) - 1
MASK30 = (1 << 30) - 1

# splitmix64 finalizer constants
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Avalanche an integer into a uniform 64-bit value."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _C1) & MASK64
    x = ((x ^ (x >> 27)) * _C2) & MASK64
    return x ^ (x >> 31)


class HashPair:
    """Two 30-bit hashes of an integer key from one seeded 64-bit mix.

    Both seeds fold into one 64-bit mask that the key is xored with
    before the pass; they need not differ. Bucket indices are the hashes
    masked to the array length (a power of two), so growing an array by a
    power of two leaves roughly half of the keys in place.
    Keys are ids in ``[0, 2^64)``; ``CuckooGraph.insert_edge`` rejects
    any other.
    """

    __slots__ = ("_m",)

    def __init__(self, seed_1: int, seed_2: int):
        self._m = mix64(mix64(seed_1) ^ seed_2)

    def pair(self, key: int) -> tuple[int, int]:
        """Return the two hash values for one key."""
        # mix64 inlined: this sits on the hot path of every operation.
        # The final xor-shift leaves bits 34-63 as they are, so only the
        # low half needs it.
        x = key ^ self._m
        x = ((x ^ (x >> 30)) * _C1) & MASK64
        x = ((x ^ (x >> 27)) * _C2) & MASK64
        return (x ^ (x >> 31)) & MASK30, x >> 34

    def pairs(self, keys) -> tuple[list[int], list[int]]:
        """Both hash lists of a batch of keys (a sequence of ints, or an id
        array of 4-byte or 8-byte cells): element i of each is
        ``pair(keys[i])``'s."""
        if not len(keys):
            # a move or a frontier with no key pays no numpy set-up
            return [], []
        x = np.array(keys, dtype=np.uint64)
        x ^= self._m
        x ^= x >> 30
        x *= _C1
        x ^= x >> 27
        x *= _C2
        h2 = x >> 34
        x ^= x >> 31
        x &= MASK30
        return x.tolist(), h2.tolist()
