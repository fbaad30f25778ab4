import random

import pytest

from cuckoograph.chain import TableChain, lengths_for_step
from cuckoograph.cuckoo_table import KEYS, ROWS, CuckooTable, Level
from cuckoograph.hashing import HashPair

HP = HashPair(11, 22)
# the chain properties must not hang on one hash: (3, 4) leaves an insert
# into a base-2 chain homeless, (5, 6) a merge at base 8 with 2-cell buckets
HASH_PAIRS = (HP, HashPair(3, 4), HashPair(5, 6))
CAP = 64   # the overflow cap of a test chain's level

# published growth schedule for a three-slot chain, rows 0..7
SCHEDULE = {
    0: lambda n: (n,),
    1: lambda n: (n, n // 2),
    2: lambda n: (n, n // 2, n // 2),
    3: lambda n: (2 * n, n),
    4: lambda n: (2 * n, n, n),
    5: lambda n: (4 * n, 2 * n),
    6: lambda n: (4 * n, 2 * n, 2 * n),
    7: lambda n: (8 * n, 4 * n),
}


class RecordingChain(TableChain):
    """Records each grow event as its move left the chain, before the
    overflow list drained: (step, lengths, newest count, spilled, event)."""

    __slots__ = ("grows",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grows = []

    def advance(self):
        spilled = len(self.spill_k)
        event = super().advance()
        # every drained entry that found a cell sits in the newest table
        drained = spilled - len(self.spill_k)
        self.grows.append((self.step, self.lengths(),
                           self.tables[-1].count - drained, spilled, event))
        return event


def make_chain(base=8, d=2, g=0.9, lam=0.5, kicks=50, rng_seed=3, hp=HP,
               cls=TableChain, layout=KEYS, cap=CAP):
    level = Level(cells_per_bucket=d, kick_budget=kicks, hash_pair=hp,
                  rng=random.Random(rng_seed), layout=layout, base_len=base,
                  expand_at=g, contract_at=lam, overflow_cap=cap)
    return cls(level), level


def pair(chain, k):
    return chain.level.hash.pair(k)


def fill(chain, keys):
    failed = []
    rows = chain.tables[0].vals is not None
    for k in keys:
        h1, h2 = pair(chain, k)
        ev = chain.insert(k, h1, h2, k if rows else None)
        if ev is not None:
            failed.append(ev)
    return failed


def held(chain, key):
    """Where find locates key: "list", the index of its table, or None."""
    slot = chain.find(key, *pair(chain, key))
    if slot is None:
        return None
    return "list" if slot[0] is None else chain.tables.index(slot[0])


def add(chain, k):
    """Insert k as the graph does: a homeless entry goes to the chain's list."""
    h1, h2 = pair(chain, k)
    homeless = chain.insert(k, h1, h2, None)
    if homeless is not None:
        chain.spill(homeless)
        assert held(chain, homeless[0]) is not None


def remove(chain, k):
    """Delete k through the chain; returns the contraction's event, or None."""
    slot = chain.find(k, *pair(chain, k))
    assert slot is not None, k
    return chain.remove(slot)


def clear(chain, k):
    """Free k's table cell behind the chain's back: no contraction runs.
    The chain's count follows, as ``remove`` would keep it."""
    t, keys, payloads, i = chain.find(k, *pair(chain, k))
    t.clear_slot(keys, payloads, i)
    chain.count -= 1


def put(chain, table, k, payload=None):
    """Insert k straight into one of the chain's tables, past its grow
    trigger, and count it in the chain when it stays; returns the
    homeless entry (dropped, so not counted) or None."""
    homeless = table.insert(k, *pair(chain, k), payload)
    if homeless is None:
        chain.count += 1
    return homeless


def push(chain, entry):
    """Spill an entry no insert handed back, counting it in the chain as
    ``insert`` counts the homeless entry it returns."""
    chain.count += 1
    chain.spill(entry)


def chain_keys(chain):
    return list(chain.keys())


class TestSchedule:
    @pytest.mark.parametrize("step", range(8))
    @pytest.mark.parametrize("n", [4, 8, 1024])
    def test_rows_match_published_schedule(self, step, n):
        assert lengths_for_step(step, n) == SCHEDULE[step](n)

    def test_minimal_base_keeps_pure_rows(self):
        assert lengths_for_step(1, 2) == (2, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lengths_for_step(-1, 8)
        with pytest.raises(ValueError):
            lengths_for_step(0, 3)

    def test_capacity_nondecreasing_and_ratio(self):
        # capacity grows by 3/2 when tables merge, 4/3 when one is enabled
        for n in (4, 8, 64):
            caps = [sum(lengths_for_step(k, n)) for k in range(12)]
            for k in range(1, 12):
                ratio = caps[k] / caps[k - 1]
                assert ratio in (1.5, 4 / 3)


class TestExpand:
    def test_fresh_chain_does_not_expand(self):
        chain, _ = make_chain()
        fill(chain, [0])
        assert (chain.step, chain.lengths()) == (0, (8,))

    def test_exactly_at_threshold_expands(self):
        chain, _ = make_chain(base=8, d=2, g=0.5)
        cap = chain.tables[0].cap  # 24
        fill(chain, range(cap // 2))
        assert (chain.step, chain.lengths()) == (0, (8,))
        # the newest table now sits exactly at the threshold: the next
        # insert grows the chain first
        fill(chain, [cap // 2])
        assert (chain.step, chain.lengths()) == (1, (8, 4))

    def test_whole_chain_loaded_but_newest_light_does_not_expand(self):
        chain, _ = make_chain(base=8, d=2, g=0.5)
        chain.advance()
        old, new = chain.tables
        # stuff the old table directly; the newest stays almost empty
        k = 0
        while old.count < 0.9 * old.cap:
            put(chain, old, k)
            k += 1
        chain.check_invariants()
        assert chain.load_rate() >= 0.5
        fill(chain, [k])
        assert (chain.step, chain.lengths()) == (1, (8, 4))

    def test_advance_first_step_enables_half_length_table(self):
        chain, _ = make_chain(base=8)
        event = chain.advance()
        assert event.kind == "enabled"
        assert chain.lengths() == (8, 4)
        assert chain.step == 1

    def test_advance_to_step_three_merges(self):
        chain, _ = make_chain(base=8, d=2)
        fill(chain, range(20))
        chain.advance()
        chain.advance()
        before = sorted(chain_keys(chain))
        event = chain.advance()
        assert event.kind == "merged"
        assert chain.lengths() == (16, 8)
        assert sorted(chain_keys(chain)) == before
        assert event.moved == len(before)

    def test_first_merge_of_a_clamped_chain_lands_on_a_larger_row(self):
        # base length 2 clamps rows 1-2 to (2, 2) and (2, 2, 2): 72 cells,
        # as many as the merge row (4, 2), so the merge lands on (4, 2, 2)
        for hp in HASH_PAIRS:
            chain, _ = make_chain(base=2, d=8, g=0.9, kicks=250, hp=hp,
                                  cls=RecordingChain)
            k = 0
            while not any(e.kind == "merged" for *_, e in chain.grows):
                add(chain, k)
                k += 1
            step, lengths, newest_count, spilled, event = next(
                grow for grow in chain.grows if grow[-1].kind == "merged")
            assert not event.failed
            assert newest_count == 0
            assert (step, lengths) == (4, (4, 2, 2))
            # every key inserted before the merging one, bar the spilled
            assert event.moved == k - 1 - spilled
            assert sorted(chain_keys(chain)) == list(range(k))

    @pytest.mark.parametrize("d", [1, 8])
    def test_clamped_merge_skips_a_row_at_any_bucket_size(self, d):
        chain, _ = make_chain(base=2, d=d)
        for _ in range(3):
            chain.advance()
        assert chain.step == 4
        assert chain.lengths() == (4, 2, 2)
        chain.advance()
        assert (chain.step, chain.lengths()) == (5, (8, 4))

    @staticmethod
    def _grow_to_step_7(d, hp):
        """Insert keys until step 7; returns (chain, rows seen, merges).

        A merge is (row tried first, step, lengths, newest count, event).
        """
        chain, _ = make_chain(base=8, d=d, g=0.9, hp=hp, cls=RecordingChain)
        seen = [chain.lengths()]
        merges = []
        k = 0
        while chain.step < 7:
            tried = chain.step + 1   # the row a merge in this insert tries first
            grown = len(chain.grows)
            add(chain, k)
            merges += [(tried, step, lengths, newest_count, event)
                       for step, lengths, newest_count, _, event
                       in chain.grows[grown:] if event.kind == "merged"]
            if chain.lengths() != seen[-1]:
                seen.append(chain.lengths())
            k += 1
        assert chain.count == k
        chain.check_invariants()
        assert sorted(chain_keys(chain)) == list(range(k))
        return chain, seen, merges

    def test_grow_driven_by_inserts_walks_the_schedule(self):
        # with 8-cell buckets no structural move fails, so every row shows
        # up; an insert's own kick failure goes to the chain's list
        for hp in HASH_PAIRS:
            _, seen, merges = self._grow_to_step_7(8, hp)
            assert seen == [SCHEDULE[s](8) for s in range(8)]
            assert not any(event.failed for *_, event in merges)

    def test_merge_that_leaves_an_entry_homeless_lands_on_a_later_row(self):
        # 2-cell buckets and 50 kicks: some merge row cannot hold its
        # entries, so the merge moves on to a larger row instead of losing
        # them. Every merge lands on a schedule row, the one it tried or a
        # later one, with its newest table empty.
        rows = [lengths_for_step(s, 8) for s in range(12)]
        for hp in HASH_PAIRS:
            _, seen, merges = self._grow_to_step_7(2, hp)
            assert all(row in rows for row in seen)
            for tried, step, lengths, newest_count, event in merges:
                assert step >= tried
                assert lengths == event.lengths == lengths_for_step(step, 8)
                assert newest_count == 0
            escalated = [m for m in merges if m[-1].failed]
            assert escalated
            assert all(step > tried for tried, step, *_ in escalated)


class TestContract:
    def test_floor_never_contracts(self):
        chain, _ = make_chain()
        assert not chain.should_contract()
        fill(chain, range(3))
        assert not chain.should_contract()

    def test_exactly_at_threshold_is_not_below(self):
        chain, _ = make_chain(base=8, d=8, g=0.9, lam=0.5)
        chain.advance()   # two tables so the floor check passes
        total_cap = chain.capacity()
        # load the old table directly so no growth trigger interferes
        old = chain.tables[0]
        k = 0
        while chain.count < total_cap // 2:
            put(chain, old, k)
            k += 1
        chain.check_invariants()
        assert chain.count == total_cap * 0.5
        assert not chain.should_contract()
        clear(chain, 0)
        chain.check_invariants()
        assert chain.should_contract()

    def test_remove_contracts_when_a_freed_cell_drops_under_the_floor(self):
        chain, level = make_chain(base=8, d=8, g=0.9, lam=0.5, layout=ROWS)
        chain.advance()   # (8, 4): two tables, so the floor check passes
        floor = chain.capacity() // 2
        old = chain.tables[0]
        for k in range(floor + 1):
            assert put(chain, old, k, k) is None
        # a freed cell that leaves the chain at the floor, not under it
        assert remove(chain, 0) is None
        assert chain.count == floor and chain.lengths() == (8, 4)
        # under the floor behind the chain's back, then an overflow entry
        # goes: the chain's tables lost nothing, so it does not contract
        push(chain, (1000, 1))
        clear(chain, 1)
        chain.check_invariants()
        assert chain.should_contract()
        assert remove(chain, 1000) is None
        assert chain.lengths() == (8, 4) and level.overflow == 0
        assert chain.should_contract()
        # the next freed cell contracts the chain
        event = remove(chain, 2)
        assert event is not None and event.kind == "removed"
        assert chain.lengths() != (8, 4) and not chain.should_contract()
        assert sorted(chain_keys(chain)) == list(range(3, floor + 1))
        chain.check_invariants()

    def test_removed_table_conserves_entries(self):
        chain, _ = make_chain(base=8, d=8)
        fill(chain, range(10))
        chain.advance()
        assert len(chain.tables) == 2
        hit = chain.tables[0]   # drop the table actually holding entries
        before = sorted(chain_keys(chain))
        event = chain.contract(hit)
        assert event.kind == "removed"
        assert not event.failed
        assert sorted(chain_keys(chain)) == before
        assert hit not in chain.tables

    def test_single_base_table_respects_floor(self):
        chain, _ = make_chain(base=8)
        fill(chain, range(2))
        assert chain.contract(chain.tables[0]) is None
        assert chain.lengths() == (8,)

    def test_contract_never_moves_a_chain_to_a_later_row(self):
        # insert checks the grow threshold, 0.9 * 24 = 21.6, before it
        # adds: a row-0 chain takes a 22nd entry and stays at row 0
        chain, _ = make_chain(base=2, d=8)
        assert fill(chain, range(22)) == []
        assert (chain.count, chain.lengths()) == (22, (2,))
        assert chain.count > chain.level.expand_at * chain.capacity()
        assert chain.contract(chain.tables[0]) is None
        assert chain.lengths() == (2,)
        chain.check_invariants()

    def test_off_schedule_survivor_rebuilds_onto_a_row(self):
        chain, _ = make_chain(base=8, d=8)
        fill(chain, range(10))
        chain.advance()   # (8, 4)
        chain.advance()   # (8, 4, 4)
        assert chain.lengths() == (8, 4, 4)
        before = sorted(chain_keys(chain))
        event = chain.contract(chain.tables[0])  # drop the big one: (4, 4) is off-row
        assert event.rebuilt
        assert not event.failed
        assert chain.lengths() == lengths_for_step(chain.step, 8)
        assert sorted(chain_keys(chain)) == before

    def test_floor_is_monotone_under_churn(self):
        chain, _ = make_chain(base=8, d=2, g=0.7, lam=0.4)
        rnd = random.Random(5)
        live = set()
        for i in range(600):
            if live and rnd.random() < 0.45:
                k = rnd.choice(sorted(live))
                # a key another insert's kick walk left homeless is gone
                slot = chain.find(k, *HP.pair(k))
                if slot is not None:
                    chain.remove(slot)
                    live.discard(k)
            else:
                k = 10000 + i
                h1, h2 = HP.pair(k)
                if chain.insert(k, h1, h2, None) is None:
                    live.add(k)
            assert all(ln >= 4 for ln in chain.lengths())
            assert len(chain.tables) <= 3

    @staticmethod
    def _grown_to_16_8(hp):
        chain, _ = make_chain(base=8, d=8, hp=hp)
        k = 0
        while chain.lengths() != (16, 8):
            add(chain, k)
            k += 1
        # free the oldest keys' cells until the chain's load falls under
        # the floor; the caller contracts it
        k = 0
        while not chain.should_contract():
            clear(chain, k)
            k += 1
        return chain

    @staticmethod
    def _assert_sized_by_count(chain, event, before):
        assert event is not None
        assert not event.failed
        assert sorted(chain_keys(chain)) == before
        assert chain.lengths() == lengths_for_step(chain.step,
                                                   chain.level.base_len)
        assert (chain.count - len(chain.spill_k)
                <= chain.level.expand_at * chain.capacity())

    @pytest.mark.parametrize("hit", ["big", "newest"])
    def test_contraction_never_lands_over_grow_threshold(self, hit):
        for hp in HASH_PAIRS:
            chain = self._grown_to_16_8(hp)
            before = sorted(chain_keys(chain))
            hit_table = chain.tables[0] if hit == "big" else chain.tables[-1]
            event = chain.contract(hit_table)
            self._assert_sized_by_count(chain, event, before)

    def test_lone_table_just_under_floor_lands_within_threshold(self):
        # right after the merge to (16, 8) every entry sits in the big
        # table; empty the newest one and free the big one's cells until
        # the chain is one entry under its floor
        for hp in HASH_PAIRS:
            chain, _ = make_chain(base=8, d=8, hp=hp)
            k = 0
            while chain.lengths() != (16, 8):
                add(chain, k)
                k += 1
            big, newest = chain.tables
            for key in list(newest.stored_keys()):
                clear(chain, key)
            for key in list(big.stored_keys()):
                if chain.should_contract():
                    break
                clear(chain, key)
            assert newest.count == 0 and chain.spill_k == ()
            assert chain.count + 1 >= (chain.level.contract_at
                                       * chain.capacity())
            chain.check_invariants()
            before = sorted(chain_keys(chain))
            event = chain.contract(big)
            self._assert_sized_by_count(chain, event, before)

    def test_drain_into_a_lone_base_table_keeps_every_key(self):
        # a length-2 table has one minor bucket, so a drain of (2, 2) into
        # (2,) strands keys whenever more than 16 share a major bucket;
        # the contraction must then rebuild instead of dropping them
        for h, hp in enumerate(HASH_PAIRS):
            for seed in range(300):
                chain, _ = make_chain(base=2, d=8, kicks=250, rng_seed=seed,
                                      hp=hp)
                keys = list(range(300))
                for k in keys:
                    add(chain, k)
                random.Random(seed).shuffle(keys)
                live = set(keys)
                for k in keys:
                    event = remove(chain, k)
                    live.discard(k)
                    if event is not None:
                        assert set(chain_keys(chain)) == live, (h, seed, k)
                assert chain_keys(chain) == []

    def test_rebuild_retries_homeless_entries_before_a_larger_row(self):
        # 24 keys share one bucket pair of every length-4 table. A (16, 8)
        # chain holds them last, alone in its newest table, after 119 keys
        # that avoid major bucket 3 of a length-4 table: one entry under
        # the floor, it rebuilds into (8, 4, 4), where the crowd overflows
        # the last table's quota share while the earlier tables still have
        # free cells that can take it
        chain, level = make_chain(base=2, d=8, kicks=250)
        crowd = [k for k in range(20000)
                 if HP.pair(k)[0] & 31 == 31 and HP.pair(k)[1] & 1 == 0][:24]
        # keys off major bucket 3 grow the chain to (16, 8); the big table
        # keeps 119 of them, and the emptied newest one takes the crowd
        spread = (k for k in range(20000) if HP.pair(k)[0] & 3 != 3)
        while chain.lengths() != (16, 8):
            add(chain, next(spread))
        big, newest = chain.tables
        for key in list(newest.stored_keys()):
            clear(chain, key)
        for key in chain.spill_k[:]:
            remove(chain, key)
        spread = sorted(big.stored_keys())[:119]
        for key in sorted(big.stored_keys())[119:]:
            clear(chain, key)
        for key in crowd:
            add(chain, key)
        assert sorted(big.stored_keys()) == spread
        assert sorted(newest.stored_keys()) == sorted(crowd)
        assert chain.spill_k == () and chain.should_contract()
        chain.check_invariants()
        exhausted = level.kicks_exhausted
        event = chain.contract(big)
        assert event.rebuilt
        assert chain.lengths() == (8, 4, 4)
        assert not event.failed
        # a walk ran out of kicks: its entry was retried, not escalated
        assert level.kicks_exhausted > exhausted
        assert sorted(chain_keys(chain)) == sorted(spread + crowd)

    def test_stable_band_triggers_nothing(self):
        chain, _ = make_chain(base=8, d=2, g=0.9, lam=0.5)
        cap = chain.capacity()
        fill(chain, range(int(cap * 0.7)))
        assert (chain.step, chain.lengths()) == (0, (8,))
        assert not chain.should_contract()
        fill(chain, [cap])
        assert (chain.step, chain.lengths()) == (0, (8,))


class TestOverflowList:
    def test_lists_are_allocated_on_the_first_spill(self):
        for payloads in (False, True):
            chain, stats = make_chain(layout=ROWS if payloads else KEYS)
            assert chain.spill_k == chain.spill_v == ()
            push(chain, (7, 70 if payloads else None))
            assert chain.spill_k == [7]
            assert chain.spill_v == ([70] if payloads else [None])
            assert stats.overflow == 1
            chain.check_invariants()

    def test_removing_an_overflow_entry_keeps_the_order_and_the_count(self):
        chain, stats = make_chain(layout=ROWS)
        for k in (5, 6, 7):
            push(chain, (k, k + 1))
        assert remove(chain, 6) is None
        assert (chain.spill_k, chain.spill_v) == ([5, 7], [6, 8])
        assert stats.overflow == 2
        chain.check_invariants()

    def test_grow_drains_the_list_in_order_into_the_newest_table(self):
        chain, stats = make_chain(base=8, d=2, layout=ROWS)
        fill(chain, range(10))
        # two keys sharing a major bucket of the new length-4 table land
        # in it in list order
        a, b = [k for k in range(100, 1000) if HP.pair(k)[0] & 3 == 0][:2]
        for k in (b, a, 99):
            push(chain, (k, k + 1))
        event = chain.advance()
        assert (chain.spill_k, chain.spill_v) == ((), ())
        newest = chain.tables[-1]
        keys, rows, first, filled = newest.bucket(0)
        assert (keys, list(rows), first, filled) == ([b, a], [b + 1, a + 1], 0, 2)
        assert sorted(newest.entries()) == sorted((k, k + 1) for k in (a, b, 99))
        assert stats.overflow == 0
        assert stats.moved == event.moved + 3
        chain.check_invariants()

    def test_spill_at_the_cap_grows_the_chain_instead(self):
        chain, stats = make_chain(base=8, d=2, cap=1)
        fill(chain, range(10))
        push(chain, (100, None))
        assert held(chain, 100) == "list"
        push(chain, (101, None))
        # the grow drained 100 into the new table, which then took 101
        assert chain.step == 1
        assert chain.spill_k == ()
        assert sorted(e[0] for e in chain.tables[-1].entries()) == [100, 101]
        assert stats.overflow == 0
        chain.check_invariants()

    def test_the_cap_is_shared_by_every_chain_of_a_level(self):
        chain, stats = make_chain(base=8, d=2, cap=2)
        other = TableChain(chain.level)
        push(other, (100, None))
        push(chain, (101, None))
        assert (held(other, 100), held(chain, 101)) == ("list", "list")
        push(chain, (102, None))   # at the cap: this chain grows
        assert (chain.step, other.step) == (1, 0)
        assert (held(chain, 101), held(chain, 102)) == (1, 1)
        assert (chain.spill_k, other.spill_k) == ((), [100])
        assert stats.overflow == 1
        other.dispose()
        assert stats.overflow == 0
        assert stats.tables == len(chain.tables)

    def test_structural_moves_count_into_the_level(self):
        chain, stats = make_chain(base=8, d=8)
        fill(chain, range(20))
        moved = []
        for _ in range(3):
            moved.append(chain.advance().moved)
        event = chain.contract(chain.tables[-1])
        assert event is not None
        assert stats.moved == sum(moved) + event.moved
        assert stats.move_failures == 0

    def test_audit_rejects_a_broken_list(self):
        chain, _ = make_chain(layout=ROWS)
        fill(chain, range(5))
        push(chain, (100, 1))
        chain.check_invariants()
        push(chain, (100, 2))
        with pytest.raises(AssertionError, match="spilled twice"):
            chain.check_invariants()
        remove(chain, 100)
        chain.spill_v.append(3)
        with pytest.raises(AssertionError, match="not parallel"):
            chain.check_invariants()
        chain.spill_v.pop()
        push(chain, (4, 4))   # key 4 also sits in a table
        with pytest.raises(AssertionError, match="spilled key 4 also sits"):
            chain.check_invariants()


class TestProbeAccounting:
    """Exact probe charges of ``TableChain.find``, on both bucket layouts."""

    @staticmethod
    def _chain(layout, tables=3):
        """A chain of 1, 2 or 3 tables, (8,), (8, 4) or (8, 4, 4), each
        holding keys."""
        chain, stats = make_chain(base=8, d=8, layout=layout)
        fill(chain, range(0, 20))
        for start in (100, 200)[:tables - 1]:
            chain.advance()
            fill(chain, range(start, start + 10))
        assert chain.lengths() == (8, 4, 4)[:tables]
        return chain, stats

    def test_hit_in_table_k_charges_2k_minus_1_or_2k(self):
        for layout in (ROWS, KEYS):
            chain, stats = self._chain(layout)
            for k, t in enumerate(chain.tables, start=1):
                keys = [e[0] for e in t.entries()]
                assert keys
                for key in keys:
                    h1, h2 = HP.pair(key)
                    ks, _, first, filled = t.bucket(h1 & t.mask_major)
                    in_major = key in ks[first:first + filled]
                    before = stats.bucket_probes
                    slot = chain.find(key, h1, h2)
                    # a ROWS slot holds the bucket's key list, where the
                    # key sits at index % d; a flat slot the key array
                    i = slot[3] % t.d if layout == ROWS else slot[3]
                    assert slot[0] is t and slot[1][i] == key
                    assert stats.bucket_probes - before == (
                        2 * k - 1 if in_major else 2 * k)

    def test_miss_charges_two_probes_per_table(self):
        for layout in (ROWS, KEYS):
            for n in (1, 2, 3):
                chain, stats = self._chain(layout, n)
                for key in range(1000, 1050):
                    h1, h2 = HP.pair(key)
                    before = stats.bucket_probes
                    assert chain.find(key, h1, h2) is None
                    assert stats.bucket_probes - before == 2 * n

    def test_overflow_hit_charges_two_probes_per_table(self):
        # the list is scanned after every table missed, uncharged
        for layout in (ROWS, KEYS):
            chain, stats = self._chain(layout)
            for key in (1000, 1001, 1002):
                push(chain, (key, key + 1 if layout == ROWS else None))
            for i, key in enumerate((1000, 1001, 1002)):
                before = stats.bucket_probes
                slot = chain.find(key, *HP.pair(key))
                assert slot == (None, chain.spill_k, chain.spill_v, i)
                assert slot[1] is chain.spill_k and slot[2] is chain.spill_v
                assert stats.bucket_probes - before == 2 * 3
