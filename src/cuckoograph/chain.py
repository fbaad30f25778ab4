"""Growth and contraction controller for a chain of cuckoo tables.

A chain starts as one table of ``base_len`` buckets and tracks how many
times the newest table's load rate crossed the grow threshold. The table
lengths for step k (three-table chains, base length n) follow a fixed
schedule:

    k=0: (n)            k=1: (n, n/2)     k=2: (n, n/2, n/2)
    k=3: (2n, n)        k=4: (2n, n, n)   k=5: (4n, 2n)
    k=6: (4n, 2n, 2n)   k=7: (8n, 4n)     ...

Odd steps beyond the first merge everything into one larger table and
enable a fresh one; even steps just enable another table. Total capacity
grows by 3/2 on merge steps and 4/3 on enable steps. New entries always
go to the newest table; lookups (``cuckoo_table.find_slot`` over
``tables``) scan oldest to newest.

Contraction runs when a deletion drops the whole chain's load rate below
the floor threshold (``contract_at``). It is sized by entry count, not by
the current table lengths: the chain moves to the smallest schedule row
whose capacity times the grow threshold (``expand_at``) holds every entry,
either by draining the table the deletion hit into the others (when they
already form that row) or by rebuilding into fresh tables of that row.
Since consecutive rows differ in capacity by at most 3/2, every row above
the floor lands at a load rate in ``(expand_at / 1.5, expand_at]``; with
``contract_at <= 2 * expand_at / 3`` that is above the floor threshold,
so one contraction never triggers another and never leaves the chain
over its grow threshold.

Merges and contraction rebuilds share one rebuild: when an entry is left
homeless it discards the fresh tables and starts over one row larger, and
a drain that leaves an entry homeless falls back to it. A structural move
thus places every entry, on a larger row if it must, and none leaves the
chain. A contraction that lands above its target row may sit under the
floor threshold; the next deletion then contracts it again.

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
``LevelCounters.overflow``; a push over the cap forces the chain to grow
first. Most chains never spill, so a chain allocates its lists on its
first spill.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

MAX_TABLES = 3
MIN_TABLE_LEN = 2


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


@dataclass
class ChainEvent:
    """Outcome of one structural change."""

    kind: str                      # enabled | merged | removed | halved
    lengths: tuple[int, ...]
    moved: int = 0
    failed: list = field(default_factory=list)  # homeless on a redone try, then placed
    rebuilt: bool = False


class TableChain:
    """Ordered list of cuckoo tables, the grow/shrink bookkeeping, and the
    chain's own overflow list.

    ``make_table(length)`` builds a table of the given length; every table
    of a chain charges the same ``LevelCounters``, which also count the
    chain's moves and overflow entries. ``owner`` names the node an
    adjacency chain belongs to (None for the node chain); the chain itself
    never reads it, it labels the level in traces. Structural moves never
    hand an entry out of the chain.
    """

    __slots__ = ("base_len", "expand_at", "contract_at", "step", "tables",
                 "make_table", "owner", "spill_k", "spill_v")

    def __init__(self, base_len, expand_at, contract_at, make_table,
                 owner=None):
        self.base_len = base_len
        self.expand_at = expand_at
        self.contract_at = contract_at
        self.make_table = make_table
        self.owner = owner
        self.step = 0
        self.tables = [make_table(max(MIN_TABLE_LEN, base_len))]
        # empty until the first spill; spill_v stays None without payloads
        self.spill_k = ()
        self.spill_v = None if self.tables[0].vals is None else ()

    # -- metrics ---------------------------------------------------------

    @property
    def counters(self):
        """The level counters this chain's tables charge."""
        return self.tables[0]._stats

    def lengths(self) -> tuple[int, ...]:
        return tuple(t.len_major for t in self.tables)

    def entry_count(self) -> int:
        return sum(t.count for t in self.tables)

    def capacity(self) -> int:
        return sum(t.cap for t in self.tables)

    def load_rate(self) -> float:
        return self.entry_count() / self.capacity()

    def at_floor(self) -> bool:
        return len(self.tables) == 1 and self.tables[0].len_major <= max(
            MIN_TABLE_LEN, self.base_len)

    # -- triggers ----------------------------------------------------------

    def should_contract(self) -> bool:
        """True when the whole chain's load rate fell strictly below the floor threshold."""
        if self.at_floor():
            return False
        return self.entry_count() < self.contract_at * self.capacity()

    # -- operations --------------------------------------------------------

    def insert(self, key, h1, h2, payload):
        """Insert into the newest table, growing first if it is at threshold.

        Returns the homeless ``(key, payload)`` when the kick budget ran
        out, else None.
        """
        t = self.tables[-1]
        if t.count >= self.expand_at * t.cap:
            self.advance()
            t = self.tables[-1]
        return t.insert(key, h1, h2, payload)

    def advance(self) -> ChainEvent:
        """Perform one grow event, then drain the overflow list.

        Even steps (and step 1) enable one more, empty table. Odd steps
        merge every entry into fresh tables of the new row (see
        ``_rebuild``). When clamping leaves that row no larger than the
        current one, the merge starts at the row after it. Either way the
        newest table starts empty, and the overflow list is retried in it.
        """
        self.step += 1
        target = _materialized(self.step, self.base_len)
        if self.step == 1 or self.step % 2 == 0:
            # enable one more table; existing ones keep their contents
            self.tables.append(self.make_table(target[-1]))
            event = ChainEvent("enabled", target)
        else:
            # equal cells per unit of length, so lengths compare capacities
            if sum(target) <= sum(self.lengths()):
                self.step += 1
            moved, failed = self._rebuild(self.step, self.tables, merge=True)
            event = ChainEvent("merged", self.lengths(), moved=moved,
                               failed=failed)
        self._count(event)
        if self.spill_k:
            self._drain()
        return event

    def contract(self, hit_table) -> ChainEvent | None:
        """Shrink after a deletion that left the chain under-loaded.

        The target is the smallest schedule row whose grow threshold holds
        the chain's current entry count (``entries <= expand_at *
        capacity``); the row is chosen from that count alone. When the
        tables left after dropping ``hit_table`` already form the target
        row, only the hit table's entries move into them, each receiving
        table filling to the same load share; if that drain leaves an
        entry homeless, or the survivors are not the target row, every
        entry is rebuilt from the target row on (see ``_rebuild``).
        Returns None when the chain sits at its floor or already is the
        target row.
        """
        if self.at_floor():
            return None
        n = self.entry_count()
        step = self._row_for(n)
        target = _materialized(step, self.base_len)
        if target == self.lengths():
            return None
        kind = "removed" if len(self.tables) >= 2 else "halved"
        survivors = [t for t in self.tables if t is not hit_table]
        drained, homeless = [], []
        if tuple(t.len_major for t in survivors) == target:
            drained = list(hit_table.entries())
            hit_table.dispose()
            homeless = self._transfer(drained, survivors, _shares(n, survivors))
            self.tables, self.step = survivors, step
            if not homeless:
                return self._count(ChainEvent(kind, target, moved=len(drained)))
        moved, failed = self._rebuild(step, self.tables, homeless)
        return self._count(ChainEvent(
            kind, self.lengths(), moved=len(drained) + moved,
            failed=homeless + failed, rebuilt=True))

    # -- overflow list -----------------------------------------------------

    def spill(self, entry, cap):
        """Keep a homeless ``(key, payload)`` in the overflow list.

        ``cap`` bounds the entries of all the level's lists together. At
        the cap the chain grows first (which drains its list) and retries
        the entry in the newest table. That table starts empty, so the
        first entry tried in it lands: the drain's first, or the retried
        entry when the list was empty. The level is then under its cap,
        and whatever is still homeless is kept.
        """
        if self.counters.overflow >= cap:
            self.advance()
            entry = self._to_newest(*entry)
            if entry is None:
                return
        self._keep(*entry)

    def unspill(self, i):
        """Remove the i-th overflow entry; the rest keep their order."""
        self.spill_k.pop(i)
        if self.spill_v is not None:
            self.spill_v.pop(i)
        self.counters.overflow -= 1

    def dispose(self):
        """Release every table and the overflow list from the level accounting."""
        self.counters.overflow -= len(self.spill_k)
        for t in self.tables:
            t.dispose()

    def check_invariants(self):
        """Audit the tables, the schedule row and the overflow list.

        Raises AssertionError. Spilled keys are looked up without
        ``find_slot``, so the audit charges no bucket probes.
        """
        assert len(self.tables) <= MAX_TABLES, "chain too long"
        assert self.lengths() == _materialized(self.step, self.base_len), \
            "chain off its schedule row"
        for t in self.tables:
            t.check_invariants()
        keys, vals = self.spill_k, self.spill_v
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

    def _count(self, event):
        st = self.counters
        st.moved += event.moved
        st.move_failures += len(event.failed)
        return event

    def _to_newest(self, key, payload):
        """Insert into the newest table; returns the homeless entry or None."""
        t = self.tables[-1]
        h1, h2 = t._hash.pair(key)
        return t.insert(key, h1, h2, payload)

    def _keep(self, key, payload):
        if not self.spill_k:
            self.spill_k = []
            if self.spill_v is not None:
                self.spill_v = []
        self.spill_k.append(key)
        if self.spill_v is not None:
            self.spill_v.append(payload)
        self.counters.overflow += 1

    def _drain(self):
        """Retry every overflow entry in the newest table, in list order."""
        keys, payloads = self.spill_k, self.spill_v
        self.counters.overflow -= len(keys)
        self.spill_k = ()
        if payloads is None:
            payloads = itertools.repeat(None)
        else:
            self.spill_v = ()
        for entry in zip(keys, payloads):
            homeless = self._to_newest(*entry)
            if homeless is None:
                self.counters.moved += 1
            else:
                self._keep(*homeless)

    def _row_for(self, n: int) -> int:
        """Smallest schedule step whose tables hold n entries at the grow threshold."""
        t = self.tables[0]
        cells_per_len = t.cap / t.len_major
        step = 0
        while n > self.expand_at * cells_per_len * sum(
                _materialized(step, self.base_len)):
            step += 1
        return step

    def _rebuild(self, step, old, extra=(), merge=False):
        """Move the entries of the ``old`` tables, plus ``extra`` ones, into
        fresh tables of row ``step`` or a later one; ``old`` is disposed of.

        A merge fills the row's tables in order, all but the newest: each
        up to ``ceil(expand_at * cap)``, the last one up to its full
        capacity. The newest stays empty because the forced growth of the
        overflow lists inserts into it. A contraction fills every table to
        the same load share. A row that leaves an entry homeless is
        discarded for the next one. Returns (moved, failed): every
        placement attempt, and the entries left homeless on discarded rows.
        """
        entries = [e for t in old for e in t.entries()] + list(extra)
        for t in old:
            t.dispose()
        moved = 0
        failed = []
        while True:
            tables = [self.make_table(ln)
                      for ln in _materialized(step, self.base_len)]
            if merge:
                dests = tables[:-1]
                quotas = [math.ceil(self.expand_at * t.cap) for t in dests]
                quotas[-1] = dests[-1].cap
            else:
                dests = tables
                quotas = _shares(len(entries), tables)
            homeless = self._transfer(entries, dests, quotas)
            moved += len(entries)
            if not homeless:
                self.tables = tables
                self.step = step
                return moved, failed
            failed.extend(homeless)
            for t in tables:
                t.dispose()
            step += 1

    @staticmethod
    def _transfer(entries, dests, quotas):
        """Place every entry into the destination tables.

        Entries are ``(key, payload)`` pairs, rehashed with the receiving
        table's ``HashPair``. Each entry goes to the first destination still
        under its quota (a table takes entries while its count is below the
        quota); a displaced entry tries the next one. An entry that every
        destination under quota left homeless is offered once more to each
        destination with a free cell. Returns the entries still homeless
        after that.
        """
        limits = list(zip(dests, quotas)) + [(t, t.cap) for t in dests]
        homeless_all = []
        for entry in entries:
            homeless = entry
            for t, limit in limits:
                if t.count >= limit:
                    continue
                key = homeless[0]
                h1, h2 = t._hash.pair(key)
                homeless = t.insert(key, h1, h2, homeless[1])
                if homeless is None:
                    break
            if homeless is not None:
                homeless_all.append(homeless)
        return homeless_all


def _shares(n, tables):
    """Equal load shares: ``ceil(n * cap / total capacity)`` per table."""
    cap = sum(t.cap for t in tables)
    return [-(-n * t.cap // cap) for t in tables]
