import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuckoograph import hashing
from cuckoograph.hashing import MASK64, HashPair

HASH_PAIRS = (HashPair(11, 22), HashPair(3, 4), HashPair(MASK64, 0))

# the key sets of the structured-key gate (tests/test_graph.py, TestBounds):
# ids strided by 2^40 and 2^48, and 2-D grids (i << s) + j
STRUCTURED_KEYS = {
    **{f"strided-2^{k}": [i << k for i in range(30_000)] for k in (40, 48)},
    **{f"grid-{s}": [(i << s) + j for i in range(200) for j in range(200)]
       for s in (8, 16, 32, 40)},
}


def _one_by_one(hp, keys):
    return [hp.pair(k) for k in keys]


def _bulk(hp, keys):
    h1s, h2s = hp.pairs(keys)
    assert len(h1s) == len(h2s) == len(keys)
    return list(zip(h1s, h2s))


@pytest.mark.parametrize("hp", HASH_PAIRS)
class TestBulkHash:
    def test_empty_batch(self, hp):
        assert hp.pairs([]) == ([], [])
        assert hp.pairs(array("Q")) == ([], [])

    def test_empty_batch_skips_numpy(self, hp, monkeypatch):
        monkeypatch.setattr(hashing, "np", None)
        assert hp.pairs([]) == ([], [])

    @pytest.mark.parametrize("n", [0, 1, 10_000])
    def test_batch_sizes(self, hp, n):
        # every other key, the first among them, at or above 2**63, the
        # rest below it
        rnd = random.Random(n)
        keys = [rnd.getrandbits(63) | (i + 1) % 2 << 63 for i in range(n)]
        assert sum(k >> 63 for k in keys) == (n + 1) // 2
        assert _bulk(hp, keys) == _one_by_one(hp, keys)

    def test_extreme_keys(self, hp):
        keys = [0, MASK64, 1, MASK64 - 1, 1 << 63]
        assert _bulk(hp, keys) == _one_by_one(hp, keys)

    def test_array_input(self, hp):
        keys = array("Q", [0, MASK64, 7, 1 << 40, 12345678901234567])
        assert _bulk(hp, keys) == _one_by_one(hp, keys)
        # the 4-byte cells an id array has until the graph widens it
        keys = array("I", [0, (1 << 32) - 1, 7, 1 << 31, 123456789])
        assert keys.itemsize == 4
        assert _bulk(hp, keys) == _one_by_one(hp, keys)

    @pytest.mark.parametrize("keys", sorted(STRUCTURED_KEYS))
    def test_structured_keys(self, hp, keys):
        keys = STRUCTURED_KEYS[keys]
        assert _bulk(hp, keys) == _one_by_one(hp, keys)

    @given(keys=st.lists(st.integers(0, MASK64), max_size=50))
    def test_any_keys(self, hp, keys):
        assert _bulk(hp, keys) == _one_by_one(hp, keys)

    def test_results_are_python_ints(self, hp):
        h1s, h2s = hp.pairs([5, MASK64])
        assert all(type(h) is int for h in h1s + h2s)
