import random

import pytest

from cuckoograph.chain import TableChain
from cuckoograph.cuckoo_table import KEYS, ROWS, WEIGHTS, CuckooTable, Level
from cuckoograph.hashing import HashPair


def make_level(length=4, d=2, seeds=(1, 2), rng_seed=7, max_kicks=50,
               layout=ROWS):
    return Level(cells_per_bucket=d, kick_budget=max_kicks,
                 hash_pair=HashPair(*seeds), rng=random.Random(rng_seed),
                 layout=layout, base_len=length, expand_at=0.9,
                 contract_at=0.5, overflow_cap=64)


def make_table(length=4, **kwargs):
    level = make_level(length, **kwargs)
    return CuckooTable(length, level), level, level.hash


def ins(t, hp, key, payload=0):
    h1, h2 = hp.pair(key)
    return t.insert(key, h1, h2, payload)


def locate(t, key):
    """key's cell as (keys, cell), the first two fields ``clear_slot``
    takes, read through ``buckets`` and ``bucket``; None when absent."""
    for b in t.buckets(key):
        keys, _, first, filled = t.bucket(b)
        live = list(keys[first:first + filled])
        if key in live:
            return keys, b * t.d + live.index(key)
    return None


def find(t, key):
    """The payload stored with key, or None."""
    cell = locate(t, key)
    return None if cell is None else t.vals[cell[1]]


def remove(t, key):
    """Free key's cell; False when key is absent."""
    cell = locate(t, key)
    if cell is None:
        return False
    t.clear_slot(cell[0], t.vals, cell[1])
    return True


class TestShape:
    def test_bad_lengths_rejected(self):
        # odd, zero, not a power of two, and 1 (no minor bucket)
        for length in (3, 0, 6, 1):
            with pytest.raises(ValueError, match="power of two >= 2"):
                make_table(length=length)

    def test_capacity(self):
        # a table of length n: n major buckets and n/2 minor ones
        for layout in (ROWS, KEYS):
            t, stats, _ = make_table(length=2, d=8, layout=layout)
            assert t.cap == stats.capacity_cells == 24
            assert t.len_major == 2
            assert len(t.keys if layout == ROWS else t.fill) == 3


class TestInsertLookup:
    def test_insert_into_empty_places_first_try(self):
        t, stats, hp = make_table()
        assert ins(t, hp, 42, 7) is None
        assert stats.placements == 1
        assert find(t, 42) == 7

    def test_lookup_absent_in_empty(self):
        t, _, _ = make_table()
        assert find(t, 9) is None

    def test_lookup_probes_at_most_two_buckets(self):
        # a lookup is its chain's: a chain at its floor has one table
        level = make_level()
        chain = TableChain(level)
        t, hp = chain.tables[0], level.hash
        ins(t, hp, 1)
        before = level.bucket_probes
        assert chain.find(1, *hp.pair(1))[0] is t
        assert chain.find(12345, *hp.pair(12345)) is None
        assert level.bucket_probes - before <= 4

    def test_eviction_moves_to_alternate_and_stays_findable(self):
        # d=1 so a second key sharing the major bucket forces one eviction
        t, stats, hp = make_table(length=4, d=1)
        a, b, x = _colliding_triple(hp)
        ins(t, hp, a)
        ins(t, hp, b)
        before = stats.placements
        assert ins(t, hp, x) is None
        assert stats.placements - before == 2
        for key in (a, b, x):
            assert locate(t, key) is not None

    def test_failed_insert_returns_exactly_one_entry(self):
        t, stats, hp = make_table(length=2, d=2, max_kicks=200)
        filled = _fill_to_capacity(t, hp)
        # exhaustive check: genuinely no empty cell remains
        assert t.count == t.cap == 6
        assert all(t.bucket(b)[3] == t.d for b in range(3))
        newcomer = max(filled) + 1
        before = t.count
        stats.max_kicks = 1
        placed = stats.placements
        evicted = ins(t, hp, newcomer)
        assert evicted is not None
        assert stats.placements - placed == 1
        assert t.count == before
        survivors = {e[0] for e in t.entries()}
        assert len(survivors) == before
        assert survivors == (filled | {newcomer}) - {evicted[0]}


class TestRemove:
    def test_remove_absent(self):
        t, _, _ = make_table()
        assert not remove(t, 5)

    def test_insert_then_remove(self):
        t, _, hp = make_table()
        ins(t, hp, 5, payload=7)
        assert remove(t, 5)
        assert find(t, 5) is None

    def test_remove_one_of_two_colliding_keys(self):
        t, _, hp = make_table(length=4, d=2)
        a, b = _same_major_bucket_pair(hp, length=4)
        ins(t, hp, a)
        ins(t, hp, b)
        assert remove(t, a)
        assert locate(t, b) is not None
        assert locate(t, a) is None


class TestDrainAndDeterminism:
    def test_drain_empty(self):
        t, _, hp = make_table()
        assert list(t.entries()) == []

    def test_drain_returns_exactly_inserted(self):
        t, _, hp = make_table()
        for k in (3, 1, 4):
            ins(t, hp, k, payload=k * 10)
        assert sorted(t.entries()) == [(1, 10), (3, 30), (4, 40)]

    def test_drain_matches_shadow_after_random_ops(self):
        _check_random_ops_against_a_shadow(ROWS)

    @pytest.mark.parametrize("layout", [KEYS, WEIGHTS])
    def test_flat_drain_matches_shadow_after_random_ops(self, layout):
        _check_random_ops_against_a_shadow(layout)

    def test_entries_live_in_a_candidate_bucket(self):
        _check_eviction_heavy_fill(ROWS)

    def test_keys_only_entries_live_in_a_candidate_bucket(self):
        _check_eviction_heavy_fill(KEYS)

    def test_weighted_entries_live_in_a_candidate_bucket(self):
        _check_eviction_heavy_fill(WEIGHTS)

    def test_same_seeds_same_layout(self):
        layouts = []
        for _ in range(2):
            t, _, hp = make_table(length=8, d=2, rng_seed=99)
            for k in range(30):
                ins(t, hp, k)
            layouts.append((t.keys, t.vals))
        assert layouts[0] == layouts[1]

    @pytest.mark.parametrize("layout", [KEYS, WEIGHTS])
    def test_flat_tables_place_as_list_buckets_do(self, layout):
        # same keys, same kick walks: every bucket holds the same keys in
        # the same cell order, through inserts and swap-removes alike
        tables = [make_table(length=8, d=2, rng_seed=99, max_kicks=20,
                             layout=lay) for lay in (ROWS, layout)]
        rnd = random.Random(5)
        for _ in range(300):
            k = rnd.randrange(60)
            outs = [ins(t, hp, k, payload=k + 1)
                    if locate(t, k) is None
                    else remove(t, k) for t, _, hp in tables]
            if layout == KEYS:
                # a keys-only table hands back no payload of its own
                outs = [o[0] if isinstance(o, tuple) else o for o in outs]
            assert outs[0] == outs[1]
        (lists, stats, _), (flat, _, _) = tables
        assert stats.evictions > 0 and stats.kicks_exhausted > 0
        for b in range(12):
            ks, vs, _, _ = lists.bucket(b)
            fks, fvs, first, filled = flat.bucket(b)
            assert list(fks[first:first + filled]) == ks
            if fvs is not None:
                assert list(fvs[first:first + filled]) == list(vs)

    def test_kick_budget_bounds_evictions(self):
        t, stats, hp = make_table(length=2, d=2, max_kicks=5)
        for k in range(200):
            before = stats.evictions
            ins(t, hp, k)
            assert stats.evictions - before <= 5

    def test_exhausted_walks_count_homeless_entries(self):
        t, stats, hp = make_table(length=2, d=2, max_kicks=5)
        homeless = 0
        for k in range(200):
            if ins(t, hp, k, payload=k) is not None:
                homeless += 1
        assert homeless > 0
        assert stats.kicks_exhausted == homeless
        walks = (stats.kicks_1 + stats.kicks_2_3 + stats.kicks_4_15
                 + stats.kicks_16_up)
        # a walk that never settled spent exactly the budget
        assert stats.kicks_16_up == 0
        assert stats.evictions >= walks + 5 * homeless
        assert stats.placements == 200 + stats.evictions - homeless


class TestAudit:
    def test_full_table_passes(self):
        t, _, hp = make_table(length=2, d=2, max_kicks=200)
        _fill_to_capacity(t, hp)
        t.check_invariants()

    def test_key_outside_its_bucket_is_caught(self):
        _check_key_outside_its_bucket_is_caught(KEYS)

    def test_list_bucket_key_outside_its_bucket_is_caught(self):
        _check_key_outside_its_bucket_is_caught(ROWS)

    def test_flat_fill_count_over_d_is_caught(self):
        t, _, hp = make_table(length=16, d=2, layout=KEYS)
        for k in range(20):
            ins(t, hp, k)
        t.check_invariants()
        t.fill[3] = t.d + 1
        with pytest.raises(AssertionError, match="over capacity"):
            t.check_invariants()

    def test_payload_list_out_of_step_is_caught(self):
        t, _, hp = make_table(length=16, d=2)
        ins(t, hp, 7, payload=70)
        assert find(t, 7) == 70
        t.vals.append(71)
        with pytest.raises(AssertionError, match="not parallel"):
            t.check_invariants()

    def test_weight_array_out_of_step_is_caught(self):
        t, _, hp = make_table(length=16, d=2, layout=WEIGHTS)
        ins(t, hp, 7, payload=70)
        assert find(t, 7) == 70
        t.vals.append(71)
        with pytest.raises(AssertionError, match="not parallel"):
            t.check_invariants()


def _check_key_outside_its_bucket_is_caught(layout):
    """A key written into a bucket its hashes do not select fails the audit."""
    t, _, hp = make_table(length=16, d=2, layout=layout)
    for k in range(20):
        ins(t, hp, k)
    b = next(b for b in range(16) if t.bucket(b)[3])
    keys, _, first, _ = t.bucket(b)
    keys[first] = next(k for k in range(100, 1000)
                       if hp.pair(k)[0] & t.mask_major != b)
    with pytest.raises(AssertionError, match="candidate bucket"):
        t.check_invariants()


def _check_random_ops_against_a_shadow(layout):
    """1000 random inserts and removes; the entries match a plain set."""
    t, _, hp = make_table(length=64, d=4, max_kicks=100, layout=layout)
    shadow = set()
    rnd = random.Random(123)
    for _ in range(1000):
        k = rnd.randrange(500)
        if k in shadow:
            assert remove(t, k)
            shadow.discard(k)
        else:
            evicted = ins(t, hp, k, payload=k + 1)
            shadow.add(k)
            if evicted is not None:
                shadow.discard(evicted[0])
    assert {e[0] for e in t.entries()} == shadow
    assert t.count == len(shadow)


def _check_eviction_heavy_fill(layout):
    """Fill 2-cell buckets to 46 of 48 cells, then rehash every stored key.

    Most keys were moved by a kick walk, which rehashes the victims
    itself; a fresh ``HashPair`` must select the bucket each key sits in.
    """
    t, stats, hp = make_table(length=16, d=2, layout=layout, max_kicks=500)
    stored = {}
    for k in range(46):
        payload = None if layout == KEYS else k + 1
        homeless = ins(t, hp, k, payload=payload)
        stored[k] = payload
        if homeless is not None:
            del stored[homeless[0]]
    assert stats.evictions > 46
    fresh = HashPair(1, 2)
    for b in range(24):
        keys, _, first, filled = t.bucket(b)
        for key in keys[first:first + filled]:
            if b < 16:
                assert fresh.pair(key)[0] & t.mask_major == b
            else:
                assert fresh.pair(key)[1] & t.mask_minor == b - 16
    # each payload stayed with its key through every kick
    assert sorted(t.entries()) == sorted(stored.items())
    assert list(t.stored_keys()) == [k for k, _ in t.entries()]
    assert (t.vals is None) == (layout == KEYS)
    t.check_invariants()


# -- adversarial key searches -------------------------------------------------


def _colliding_triple(hp):
    """Keys (a, b, x): a blocks x's major bucket, b its minor bucket, and
    a's alternate minor bucket is free, so inserting x takes exactly one kick."""
    for a in range(1000):
        ha = hp.pair(a)
        for b in range(1000):
            if b == a:
                continue
            hb = hp.pair(b)
            if hb[0] % 4 != ha[0] % 4:
                continue
            for x in range(1000):
                if x in (a, b):
                    continue
                hx = hp.pair(x)
                if (hx[0] % 4 == ha[0] % 4
                        and hx[1] % 2 == hb[1] % 2
                        and ha[1] % 2 != hx[1] % 2):
                    return a, b, x
    raise AssertionError("no adversarial triple found in search space")


def _same_major_bucket_pair(hp, length):
    for a in range(500):
        for b in range(a + 1, 500):
            if hp.pair(a)[0] % length == hp.pair(b)[0] % length:
                return a, b
    raise AssertionError("no colliding pair found")


def _fill_to_capacity(t, hp):
    filled = set()
    key = 0
    while t.count < t.cap and key < 10000:
        if key not in filled:
            evicted = ins(t, hp, key)
            filled.add(key)
            if evicted is not None:
                filled.discard(evicted[0])
        key += 1
    assert t.count == t.cap, "could not fill the table"
    return filled
