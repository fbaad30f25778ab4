"""Growth and contraction controller for a chain of cuckoo tables.

A chain starts as one table of its level's ``base_len`` (see
``cuckoo_table.Level``, which holds every setting a chain reads) and
tracks how many times the newest table's load rate crossed the grow
threshold. The table lengths for step k (three-table chains, base length
n) follow a fixed schedule:

    k=0: (n)            k=1: (n, n/2)     k=2: (n, n/2, n/2)
    k=3: (2n, n)        k=4: (2n, n, n)   k=5: (4n, 2n)
    k=6: (4n, 2n, 2n)   k=7: (8n, 4n)     ...

Odd steps beyond the first merge everything into one larger table and
enable a fresh one; even steps just enable another table. Total capacity
grows by 3/2 on merge steps and 4/3 on enable steps. New entries always
go to the newest table.

A chain's ``count`` is the number of keys in its tables and its overflow
list. ``insert`` adds one, since a homeless key it returns stays the
chain's (the caller keeps it with ``spill``); ``remove`` takes one away;
moves, drains and forced growth leave it be. Every trigger reads the
tables' load, ``count - len(spill_k)``, against the cells of the chain's
schedule row, which one function gives (``row_cells``).

Contraction runs when a deletion drops the whole chain's load rate below
the floor threshold (``contract_at``). It is sized by entry count, not by
the current table lengths: the chain moves to the smallest schedule row
whose capacity times the grow threshold (``expand_at``) holds every entry.
Since consecutive rows differ in capacity by at most 3/2, every row above
the floor lands at a load rate in ``(expand_at / 1.5, expand_at]``; with
``contract_at <= 2 * expand_at / 3`` that is above the floor threshold,
so one contraction never triggers another and never leaves the chain
over its grow threshold.

Every change to a chain's tables is one move (``_move``): put the chain on
a target row, keeping some of its tables as they are. The caller picks
the event kind, the row and the tables to keep:

- enabling a table keeps every table, and nothing moves;
- a merge keeps none;
- a contraction keeps the tables left after dropping the one the
  deletion hit when they already form the target row, so only the hit
  table's entries move, and keeps none otherwise.

The kind picks the quota policy. A merge fills the new tables in order,
all but the newest: each to the grow threshold, the last one to
capacity. A contraction fills every table to the same load share. The
moving entries travel as two parallel lists, keys and payloads, in the
tables' cell order; their keys are rehashed in one batch
(``HashPair.pairs``), and each destination takes its run of them in one
``CuckooTable.place`` call. A try that leaves an entry homeless is
discarded and redone: first without its kept tables, every entry into
fresh tables of the same row, then one row up, as often as it takes. A
structural move thus places every entry, on a larger row if it must, and
none leaves the chain. A contraction that lands above its target row may
sit under the floor threshold; the next deletion then contracts it
again.

Real tables are never shorter than ``MIN_TABLE_LEN``, which clamps the
early rows of short chains: with base length 2, rows 1 and 2 become
(2, 2) and (2, 2, 2). Row 1 then doubles row 0, so a chain there may sit
under the floor threshold, and contraction does nothing until the
entries fit row 0. Row 2 then holds as many cells as the merge row 3,
(4, 2), so a merge there lands on row 4, (4, 2, 2), instead: its entries
fill the tables below the newest one to the grow threshold, and the last
of those to capacity. A merge never moves entries into less room than
they came from, and the newest table always starts empty.

Each chain owns its overflow list (the paper's denylist), as a cuckoo
table with a stash owns its stash: the keys an insert's kick walk left
homeless, in ``spill_k``, with their payloads in a parallel ``spill_v``
when the chain's tables keep payloads. ``spill`` is the one push and
``advance`` the one drain: every grow event retries the list, in order,
in the newest table. The cap on a level's lists is shared by all chains
of that level, so the lists count their entries in the level's
``overflow``; a push over the cap forces the chain to grow first. Most
chains never spill, so a chain allocates its lists on its first spill.

A chain knows where its keys are. ``find`` probes at most two buckets
per table, oldest table first, and scans the overflow list only after
every table missed, as a cuckoo table checks its stash last (Kirsch,
Mitzenmacher & Wieder, ESA '08); a hit there counts in the level's
``list_hits``. ``remove`` frees what ``find`` located
and contracts the chain when a freed cell left it under its floor.
``keys`` and ``entries`` read the tables first, then the list.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .cuckoo_table import CuckooTable

MAX_TABLES = 3
MIN_TABLE_LEN = 2

_flatten = itertools.chain.from_iterable


def lengths_for_step(step: int, base_len: int) -> tuple[int, ...]:
    """Pure schedule row: table lengths after ``step`` grow events."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if base_len < 2 or base_len % 2:
        raise ValueError("base_len must be even and >= 2")
    if step == 0:
        return (base_len,)
    j, phase = divmod(step - 1, 2)
    big = base_len << j
    half = big >> 1
    if phase == 0:
        return (big, half)
    return (big, half, half)


def _materialized(step: int, base_len: int) -> tuple[int, ...]:
    # a real table needs a minor bucket: length MIN_TABLE_LEN at least
    return tuple(max(MIN_TABLE_LEN, ln) for ln in lengths_for_step(step, base_len))


@functools.cache
def row_cells(step: int, base_len: int, d: int) -> int:
    """Cells of schedule row ``step``: a table of length n has n major and
    n / 2 minor buckets of ``d`` cells each."""
    return sum(ln + ln // 2 for ln in _materialized(step, base_len)) * d


@dataclass
class ChainEvent:
    """Outcome of one structural change."""

    kind: str                      # enabled | merged | removed
    lengths: tuple[int, ...]
    moved: int = 0
    failed: list = field(default_factory=list)  # homeless on a redone try, then placed
    rebuilt: bool = False          # a contraction that kept no table


class TableChain:
    """Ordered list of cuckoo tables, the grow/shrink bookkeeping, and the
    chain's own overflow list.

    Every table of a chain is built on the chain's ``level``, whose
    counters also count the chain's moves and overflow entries. ``owner``
    names the node an adjacency chain belongs to (None for the node
    chain); the chain itself never reads it, it labels the level in
    traces. Structural moves never hand an entry out of the chain, so
    they leave its ``count`` (see the module docstring) as it is.
    """

    __slots__ = ("level", "step", "tables", "owner", "spill_k", "spill_v",
                 "count")

    def __init__(self, level, owner=None):
        self.level = level
        self.owner = owner
        self.step = 0
        self.count = 0
        self.tables = [CuckooTable(max(MIN_TABLE_LEN, level.base_len), level)]
        # empty until the first spill; spill_v stays None without payloads
        self.spill_k = ()
        self.spill_v = None if self.tables[0].vals is None else ()

    # -- metrics ---------------------------------------------------------

    def lengths(self) -> tuple[int, ...]:
        return tuple(t.len_major for t in self.tables)

    def capacity(self) -> int:
        return row_cells(self.step, self.level.base_len, self.level.d)

    def load_rate(self) -> float:
        return (self.count - len(self.spill_k)) / self.capacity()

    def at_floor(self) -> bool:
        # the audit pins the tables to the step's row, so row 0 is the floor
        return self.step == 0

    # -- triggers ----------------------------------------------------------

    def should_contract(self) -> bool:
        """True when the whole chain's load rate fell strictly below the floor threshold."""
        level = self.level
        return self.step > 0 and self.count - len(self.spill_k) < (
            level.contract_at * row_cells(self.step, level.base_len, level.d))

    # -- lookup and removal ------------------------------------------------

    def find(self, key, h1, h2):
        """The slot of key (hashes ``h1, h2``), or None when it is absent.

        Probes at most two buckets per table, oldest table first, and
        charges every probe to the level's ``bucket_probes``; only when
        all tables missed is the overflow list scanned, uncharged (a hit
        there counts in the level's ``list_hits``). A table hit comes back
        as ``(table, keys, payloads, index)`` (see ``cuckoo_table``), an
        overflow hit as ``(None, spill_k, spill_v, i)``. All tables of a
        level share a layout, so the branch on it is taken once per call.

        Each layout spells out its major and its minor probe: a loop over
        the two buckets lost in 10 perfbench pairs each (2-core x86_64,
        Python 3.11), about 5% of query throughput, hits and misses on
        sparse-inline (node tables) and misses on zipf-lifecycle (flat
        tables).
        """
        probes = 0
        tables = self.tables
        d = tables[0].d
        if tables[0].fill is None:
            for t in tables:
                probes += 1
                b = h1 & t.mask_major
                ks = t.keys[b]
                if key in ks:
                    self.level.bucket_probes += probes
                    return t, ks, t.vals, b * d + ks.index(key)
                probes += 1
                b = t.len_major + (h2 & t.mask_minor)
                ks = t.keys[b]
                if key in ks:
                    self.level.bucket_probes += probes
                    return t, ks, t.vals, b * d + ks.index(key)
        else:
            for t in tables:
                probes += 1
                b = h1 & t.mask_major
                lo = b * d
                ks = t.keys[lo:lo + t.fill[b]]
                if key in ks:
                    self.level.bucket_probes += probes
                    return t, t.keys, t.vals, lo + ks.index(key)
                probes += 1
                b = t.len_major + (h2 & t.mask_minor)
                lo = b * d
                ks = t.keys[lo:lo + t.fill[b]]
                if key in ks:
                    self.level.bucket_probes += probes
                    return t, t.keys, t.vals, lo + ks.index(key)
        self.level.bucket_probes += probes
        keys = self.spill_k
        if key in keys:
            self.level.list_hits += 1
            return None, keys, self.spill_v, keys.index(key)
        return None

    def remove(self, slot):
        """Free a slot ``find`` returned: a table cell, or an overflow
        entry (the rest of the list keeps its order); the chain's count
        loses one.

        A freed table cell that leaves the chain under its floor threshold
        contracts the chain (see ``contract``); the contraction's event is
        returned, else None.
        """
        table, keys, payloads, i = slot
        self.count -= 1
        if table is None:
            keys.pop(i)
            if payloads is not None:
                payloads.pop(i)
            self.level.overflow -= 1
            return None
        table.clear_slot(keys, payloads, i)
        if self.should_contract():
            return self.contract(table)
        return None

    def keys(self):
        """Iterate every key: the tables' in cell order, then the list's."""
        return itertools.chain(_flatten(t.stored_keys() for t in self.tables),
                               self.spill_k)

    def entries(self):
        """Iterate every ``(key, payload)`` of a chain that keeps payloads,
        tables first, then the list."""
        return itertools.chain(_flatten(t.entries() for t in self.tables),
                               zip(self.spill_k, self.spill_v))

    # -- operations --------------------------------------------------------

    def insert(self, key, h1, h2, payload):
        """Insert into the newest table, growing first if it is at threshold.

        Returns the homeless ``(key, payload)`` when the kick budget ran
        out, else None; the chain counts it either way.
        """
        t = self.tables[-1]
        if t.count >= self.level.expand_at * t.cap:
            self.advance()
            t = self.tables[-1]
        self.count += 1
        return t.insert(key, h1, h2, payload)

    def advance(self) -> ChainEvent:
        """Perform one grow event, then drain the overflow list.

        Even steps (and step 1) enable one more, empty table and keep every
        other. Odd steps merge every entry into fresh tables of the new row.
        When clamping leaves that row no larger than the current one, the
        merge starts at the row after it. Either way the newest table
        starts empty, and the overflow list is retried in it.
        """
        step = self.step + 1
        if step == 1 or step % 2 == 0:
            event = self._move("enabled", step, self.tables)
        else:
            level = self.level
            if row_cells(step, level.base_len, level.d) <= self.capacity():
                step += 1
            event = self._move("merged", step, ())
        if self.spill_k:
            self._drain()
        return event

    def contract(self, hit_table) -> ChainEvent | None:
        """Shrink after a deletion that left the chain under-loaded.

        The target is the smallest schedule row whose grow threshold holds
        the chain's current entry count (``entries <= expand_at *
        capacity``); the row is chosen from that count alone. When the
        tables left after dropping ``hit_table`` already form the target
        row they are kept, and only the hit table's entries move; else
        every entry moves into fresh tables of the row. Returns None when
        the chain sits at its floor or already is the target row.
        """
        if self.at_floor():
            return None
        step = self._row_for(self.count - len(self.spill_k))
        target = _materialized(step, self.level.base_len)
        if target == self.lengths():
            return None
        survivors = [t for t in self.tables if t is not hit_table]
        if tuple(t.len_major for t in survivors) != target:
            survivors = ()
        return self._move("removed", step, survivors)

    # -- overflow list -----------------------------------------------------

    def spill(self, entry):
        """Keep a homeless ``(key, payload)`` in the overflow list.

        The level's ``overflow_cap`` bounds the entries of all its lists
        together. At the cap the chain grows first (which drains its
        list) and retries the entry in the newest table. That table starts
        empty, so the first entry tried in it lands: the drain's first, or
        the retried entry when the list was empty. The level is then under
        its cap, and whatever is still homeless is kept.
        """
        if self.level.overflow >= self.level.overflow_cap:
            self.advance()
            entry = self._to_newest(*entry)
            if entry is None:
                return
        self._keep(*entry)

    def dispose(self):
        """Release every table and the overflow list from the level accounting."""
        self.level.overflow -= len(self.spill_k)
        for t in self.tables:
            t.dispose()

    def check_invariants(self):
        """Audit the tables, the schedule row and the overflow list.

        Raises AssertionError. Spilled keys are looked up bucket by
        bucket, not with ``find``, so the audit charges no bucket probes.
        """
        assert len(self.tables) <= MAX_TABLES, "chain too long"
        assert self.lengths() == _materialized(
            self.step, self.level.base_len), "chain off its schedule row"
        for t in self.tables:
            t.check_invariants()
        keys, vals = self.spill_k, self.spill_v
        assert self.count == sum(t.count for t in self.tables) + len(keys), \
            "chain count drift"
        assert (vals is None) == (self.tables[0].vals is None), \
            "overflow payloads do not match the tables"
        assert vals is None or len(vals) == len(keys), "overflow payloads not parallel"
        assert len(set(keys)) == len(keys), "key spilled twice"
        for key, t in itertools.product(keys, self.tables):
            for b in t.buckets(key):
                ks, _, first, filled = t.bucket(b)
                assert key not in ks[first:first + filled], \
                    f"spilled key {key} also sits in a table"

    # -- internals ---------------------------------------------------------

    def _to_newest(self, key, payload):
        """Insert into the newest table; returns the homeless entry or None."""
        h1, h2 = self.level.hash.pair(key)
        return self.tables[-1].insert(key, h1, h2, payload)

    def _keep(self, key, payload):
        if not self.spill_k:
            self.spill_k = []
            if self.spill_v is not None:
                self.spill_v = []
        self.spill_k.append(key)
        if self.spill_v is not None:
            self.spill_v.append(payload)
        self.level.overflow += 1

    def _drain(self):
        """Retry every overflow entry in the newest table, in list order."""
        keys, payloads = self.spill_k, self.spill_v
        self.level.overflow -= len(keys)
        self.spill_k = ()
        if payloads is None:
            payloads = itertools.repeat(None)
        else:
            self.spill_v = ()
        for entry in zip(keys, payloads):
            homeless = self._to_newest(*entry)
            if homeless is None:
                self.level.moved += 1
            else:
                self._keep(*homeless)

    def _row_for(self, n: int) -> int:
        """Smallest schedule step whose tables hold n entries at the grow threshold."""
        level = self.level
        step = 0
        while n > level.expand_at * row_cells(step, level.base_len, level.d):
            step += 1
        return step

    def _move(self, kind, step, keep) -> ChainEvent:
        """Put the chain on schedule row ``step`` or a later one, keeping
        the tables in ``keep`` (the row's leading ones) as they are; the
        one structural move (see the module docstring), returning its event.

        The other tables' entries move into the kept tables and fresh ones
        for the rest of the row; the other tables are disposed of. A merge
        leaves the newest table empty, for the overflow list's forced
        growth. ``moved`` counts every placement attempt of every try and
        ``failed`` the entries each discarded try left homeless; both are
        added to the level's ``moved`` and ``move_failures``.
        """
        level = self.level
        with_payloads = self.spill_v is not None
        keys, payloads = _columns([t for t in self.tables if t not in keep],
                                  with_payloads)
        for t in self.tables:
            if t not in keep:
                t.dispose()
        moved = 0
        failed = []
        while True:
            row = _materialized(step, level.base_len)
            # concatenated, so the list takes no spare slots
            tables = list(keep) + [CuckooTable(ln, level)
                                   for ln in row[len(keep):]]
            if kind == "merged":
                dests = tables[:-1]
                quotas = [math.ceil(level.expand_at * t.cap) for t in dests]
                quotas[-1] = dests[-1].cap
            else:
                # a contraction's equal load shares, ceil(n * cap / the
                # row's cells) per table; enabling a table moves nothing
                dests = tables
                n = self.count - len(self.spill_k)
                cells = row_cells(step, level.base_len, level.d)
                quotas = [-(-n * t.cap // cells) for t in tables]
            homeless = self._transfer(keys, payloads, dests, quotas)
            moved += len(keys)
            if not homeless:
                break
            failed += homeless
            if keep:
                keys, payloads = _columns(keep, with_payloads, homeless)
                keep = ()
            else:
                step += 1
            for t in tables:
                t.dispose()
        self.tables, self.step = tables, step
        level.moved += moved
        level.move_failures += len(failed)
        return ChainEvent(kind, self.lengths(), moved, failed,
                          rebuilt=kind == "removed" and not keep)

    def _transfer(self, keys, payloads, dests, quotas):
        """Place every key, with its payload, into the destination tables.

        The keys are rehashed in one batch with the level's ``HashPair``.
        Each goes to the first destination still under its quota (a table
        takes entries while its count is below the quota); a displaced
        entry tries the next one. An entry that every destination under
        quota left homeless is offered once more to each destination with a
        free cell. Returns the ``(key, payload)`` entries still homeless
        after that.

        Counts only grow, so the first destination under its limit only
        moves on: it takes the next run of keys in one ``place`` call, and
        only an entry a kick walk left homeless goes on alone, through
        ``insert``. The destinations hold at least as many cells as there
        are keys, so one is under its limit while keys are left.
        """
        limits = list(zip(dests, quotas)) + [(t, t.cap) for t in dests]
        pair = self.level.hash.pair
        h1s, h2s = self.level.hash.pairs(keys)
        homeless_all = []
        i = p = 0
        while i < len(keys):
            while limits[p][0].count >= limits[p][1]:
                p += 1
            i, homeless = limits[p][0].place(keys, h1s, h2s, payloads, i,
                                             limits[p][1])
            for t, limit in limits[p + 1:]:
                if homeless is None:
                    break
                if t.count < limit:
                    key = homeless[0]
                    h1, h2 = pair(key)
                    homeless = t.insert(key, h1, h2, homeless[1])
            if homeless is not None:
                homeless_all.append(homeless)
        return homeless_all


def _columns(tables, with_payloads, homeless=()):
    """The keys of ``tables`` in cell order, then those of the ``homeless``
    ``(key, payload)`` entries, and their payloads in a parallel list (None
    when the chain keeps no payloads)."""
    keys = list(_flatten(t.stored_keys() for t in tables))
    keys += [key for key, _ in homeless]
    if not with_payloads:
        return keys, None
    payloads = list(_flatten(t.stored_payloads() for t in tables))
    payloads += [payload for _, payload in homeless]
    return keys, payloads

