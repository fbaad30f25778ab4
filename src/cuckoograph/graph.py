"""Two-level cuckoo-hash store for dynamic directed graphs.

Source nodes live in a chain of node tables; each node's cell stores its
destinations either inline (a handful of slots) or in the node's own
chain of adjacency tables. Placement failures after the kick budget go
to the overflow list of the chain that failed them: the node chain's
list keeps node cells, an adjacency chain's list keeps that node's
destinations. A chain drains its list whenever it grows, and a push over
the level's cap forces the chain to grow instead (``TableChain.spill``).
Structural moves inside a chain (merges and contractions) never lose an
entry, so nothing else needs re-placing.

Both levels look keys up with ``cuckoo_table.find_slot``: the node chain
for a node's cell, then that cell's adjacency chain for a destination;
a chain's overflow list is scanned only after its tables missed, and a
source whose destinations sit inline has no list to scan.
Whatever a lookup locates, node cell or edge, comes back as one slot shape,
``(table, keys, payloads, index)``: a node table's bucket lists, or an
adjacency table's key and weight arrays and the cell's index in them; an
overflow entry has the slot ``(None, keys, payloads, index)`` of its
chain's lists, and an inline destination ``(None, None, inline, index)``.
Tables keep no per-entry object. A node table's payload is the
``NodeCell``, in list buckets (see ``cuckoo_table``). Adjacency tables are
flat: destination ids in one ``array('Q')`` per table, and the weights,
when weighted, in a parallel one, so a destination there costs 8 bytes
(16 weighted), and a weight, like an id, must be below 2**64. Overflow
lists keep the same payloads in Python lists. The inline slots are an
immutable tuple, of ids or of ``(v, w)`` pairs when weighted, that every
insert, delete and weight write replaces; an all-int tuple is one object
the garbage collector stops tracking.

A cell's destinations are read in one place, ``_dests``: its inline
slots, or its chain's live cells (read on the C side, zipped with the
weights when weighted) followed by the chain's overflow list.
``out_lists`` walks the node chain once, feeding every cell to that
reader; iteration, the analytics snapshot and the audit read through it,
so none re-probes a node it has walked past.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from .chain import MAX_TABLES, TableChain
from .cuckoo_table import (CELLS, KEYS, WEIGHTS, CuckooTable, LevelCounters,
                           TableShape, find_slot, is_pow2)
from .hashing import HashPair, mix64
from .workload import write_edge_file

NODE_BYTES = 8
TABLE_HEADER_BYTES = 48

_flatten = itertools.chain.from_iterable


class InsertResult(NamedTuple):
    status: str            # inserted | duplicate | incremented
    weight: Optional[int]


class DeleteResult(NamedTuple):
    status: str            # deleted | decremented | absent
    weight: Optional[int]


_INSERTED = InsertResult("inserted", None)
_DUPLICATE = InsertResult("duplicate", None)
_DELETED = DeleteResult("deleted", None)
_ABSENT = DeleteResult("absent", None)


@dataclass(frozen=True)
class GraphParams:
    """Tuning knobs; the defaults are the tuned operating point.

    ``seed`` derives both levels' ``HashPair`` seeds and the kick walks'
    victim choice.
    """

    cells_per_bucket: int = 8
    expand_at: float = 0.9
    contract_at: float = 0.5
    kick_budget: int = 250
    node_table_len: int = 1024
    adj_table_len: int = 2
    denylist_cap: int = 64
    weighted: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.cells_per_bucket < 1:
            raise ValueError("cells_per_bucket must be >= 1")
        if not (0.0 < self.expand_at < 1.0):
            raise ValueError("expand_at must be in (0, 1)")
        # chains contract to the smallest row holding their entries at
        # expand_at, which leaves them above expand_at / 1.5; this bound
        # keeps that above contract_at, so the count-based contraction
        # rule is hysteretic (no contraction can trigger another)
        if not (0.0 < self.contract_at <= 2.0 * self.expand_at / 3.0 + 1e-12):
            raise ValueError("contract_at must satisfy 0 < contract_at <= (2/3) * expand_at")
        if self.kick_budget < 1:
            raise ValueError("kick_budget must be >= 1")
        if not all(n >= 2 and is_pow2(n)
                   for n in (self.node_table_len, self.adj_table_len)):
            raise ValueError("initial table lengths must be powers of two >= 2")
        if self.denylist_cap < 1:
            raise ValueError("denylist_cap must be >= 1")

    @classmethod
    def from_seed(cls, seed: int, **overrides) -> "GraphParams":
        """Shorthand for ``GraphParams(seed=seed, **overrides)``."""
        return cls(seed=seed, **overrides)

    @property
    def inline_capacity(self) -> int:
        # a weighted destination takes two slots, halving the inline fan-out
        return MAX_TABLES if self.weighted else 2 * MAX_TABLES

    @property
    def node_cell_bytes(self) -> int:
        return NODE_BYTES + 2 * MAX_TABLES * NODE_BYTES

    @property
    def adj_cell_bytes(self) -> int:
        return 2 * NODE_BYTES if self.weighted else NODE_BYTES

    @property
    def adj_dl_entry_bytes(self) -> int:
        return 3 * NODE_BYTES if self.weighted else 2 * NODE_BYTES


class NodeCell:
    """One node-table cell: the source node plus its destination storage.

    The cell itself is the payload of its node-table entry.
    """

    __slots__ = ("node", "inline", "chain", "count")

    def __init__(self, node):
        self.node = node
        # destination ids, or (v, w) pairs when weighted; a tuple that is
        # replaced, never edited, so an all-int one stays untracked by gc
        self.inline = ()
        self.chain = None    # TableChain once the inline slots overflowed
        self.count = 0       # live destinations, wherever they are stored


@dataclass(frozen=True)
class GraphStats:
    """Structure-accounted snapshot; byte figures count cells, not RSS."""

    nodes: int
    edges: int
    node_cells: int
    adj_cells: int
    node_load_rate: float
    adj_load_rate: float
    inline_edges: int
    node_dl_len: int
    adj_dl_len: int
    dl_bytes: int
    bytes_total: int
    counters: dict


class CuckooGraph:
    """Dynamic directed graph with O(1)-probe edge queries.

    Construction is deterministic for fixed params: the same operation
    sequence always produces the same structure.
    """

    def __init__(self, params: GraphParams | None = None, **overrides):
        if params is None:
            params = GraphParams(**overrides)
        elif overrides:
            raise TypeError("pass either params or keyword overrides, not both")
        self.params = params
        self._weighted = params.weighted
        self._inline_cap = params.inline_capacity
        # mix64 is a bijection, so the four hash seeds are distinct
        base = mix64(params.seed)
        self._node_hash = HashPair(mix64(base + 1), mix64(base + 2))
        self._adj_hash = HashPair(mix64(base + 3), mix64(base + 4))
        self._rng = random.Random(mix64(base + 5))
        self.node_counters = LevelCounters()
        self.adj_counters = LevelCounters()
        self._make_adj_table = partial(self._make_table, self.adj_counters,
                                       self._adj_hash,
                                       WEIGHTS if self._weighted else KEYS)
        self._node_chain = TableChain(
            params.node_table_len, params.expand_at, params.contract_at,
            partial(self._make_table, self.node_counters, self._node_hash, CELLS))
        self._node_count = 0
        self._edge_count = 0
        self._inline_edges = 0
        self._movements = 0
        self._dl_hits = 0
        self._sdl_peak = 0
        self._ldl_peak = 0
        self._max_q_node_probes = 0
        self._max_q_adj_probes = 0
        self._max_q_dl_scans = 0

    # -- table / chain factories ------------------------------------------

    def _make_table(self, counters, hash_pair, layout, length):
        """One table of either level, charged to that level's counters."""
        shape = TableShape.for_length(length, self.params.cells_per_bucket)
        return CuckooTable(shape, self._rng, counters, self.params.kick_budget,
                           hash_pair, layout)

    def _new_adj_chain(self, owner):
        p = self.params
        return TableChain(p.adj_table_len, p.expand_at, p.contract_at,
                          self._make_adj_table, owner)

    # -- overflow lists -----------------------------------------------------

    def _push_node_dl(self, entry):
        self._node_chain.spill(entry, self.params.denylist_cap)
        self._ldl_peak = max(self._ldl_peak, self.node_counters.overflow)

    def _push_adj_dl(self, cell, entry):
        cell.chain.spill(entry, self.params.denylist_cap)
        self._sdl_peak = max(self._sdl_peak, self.adj_counters.overflow)

    def _spilled(self, chain, key):
        """The slot of key in chain's overflow list, or None."""
        keys = chain.spill_k
        if key in keys:
            self._dl_hits += 1
            return None, keys, chain.spill_v, keys.index(key)
        return None

    # -- location helpers ---------------------------------------------------

    def _find_cell(self, u):
        """u's cell, or None."""
        h1, h2 = self._node_hash.pair(u)
        slot = find_slot(self._node_chain.tables, u, h1, h2)
        if slot is None:
            slot = self._spilled(self._node_chain, u)
            if slot is None:
                return None
        return slot[2][slot[3]]

    def _locate_edge(self, u, v):
        """Full two-step lookup.

        Returns (cell, cell_slot, edge_slot, dl_scans, u_hashes, v_hashes);
        the hash pairs come back so mutating callers never rehash. Each
        level is one ``find_slot`` call, then, on a miss, a scan of that
        chain's overflow list (counted in ``dl_scans``); a source with
        inline destinations has no list. Routing the node level through
        ``_find_cell`` as well cost about 2% of query throughput.
        """
        uh = self._node_hash.pair(u)
        cslot = find_slot(self._node_chain.tables, u, uh[0], uh[1])
        scans = 0
        if cslot is None:
            scans = 1
            cslot = self._spilled(self._node_chain, u)
            if cslot is None:
                return None, None, None, scans, uh, None
        cell = cslot[2][cslot[3]]
        if cell.chain is None:
            inline = cell.inline
            if self._weighted:
                for i, item in enumerate(inline):
                    if item[0] == v:
                        return cell, cslot, (None, None, inline, i), scans, uh, None
            elif v in inline:
                return (cell, cslot, (None, None, inline, inline.index(v)),
                        scans, uh, None)
            return cell, cslot, None, scans, uh, None
        vh = self._adj_hash.pair(v)
        chain = cell.chain
        slot = find_slot(chain.tables, v, vh[0], vh[1])
        if slot is None:
            scans += 1
            slot = self._spilled(chain, v)
        return cell, cslot, slot, scans, uh, vh

    # -- public operations ---------------------------------------------------

    def insert_edge(self, u: int, v: int, weight: int = 1) -> InsertResult:
        """Insert the directed edge u->v; duplicates increment w in weighted mode."""
        if weight < 1 or weight >> 64:
            raise ValueError(f"weight must be in [1, 2**64), got {weight}")
        if (u | v) >> 64:
            raise ValueError(f"node ids must be in [0, 2**64), got {u}, {v}")
        cell, _, slot, _, uh, vh = self._locate_edge(u, v)
        if slot is not None:
            if not self._weighted:
                return _DUPLICATE
            w = _weight(slot) + weight
            if w >> 64:
                raise ValueError(f"weight of {u}->{v} would reach 2**64: "
                                 f"{w - weight} + {weight}")
            _write_weight(cell, slot, w)
            return InsertResult("incremented", w)
        if cell is None:
            cell = NodeCell(u)
            self._place_node_cell(cell, uh[0], uh[1])
            self._node_count += 1
        if cell.chain is None:
            if len(cell.inline) < self._inline_cap:
                cell.inline += ((v, weight),) if self._weighted else (v,)
                self._inline_edges += 1
            else:
                self._promote(cell)
                self._chain_add(cell, v, weight, vh)
        else:
            self._chain_add(cell, v, weight, vh)
        cell.count += 1
        self._edge_count += 1
        return InsertResult("inserted", weight) if self._weighted else _INSERTED

    def query_edge(self, u: int, v: int):
        """Membership test; returns the weight (or None) in weighted mode."""
        np0 = self.node_counters.bucket_probes
        ap0 = self.adj_counters.bucket_probes
        _, _, slot, scans, _, _ = self._locate_edge(u, v)
        np_ = self.node_counters.bucket_probes - np0
        ap = self.adj_counters.bucket_probes - ap0
        if np_ > self._max_q_node_probes:
            self._max_q_node_probes = np_
        if ap > self._max_q_adj_probes:
            self._max_q_adj_probes = ap
        if scans > self._max_q_dl_scans:
            self._max_q_dl_scans = scans
        if slot is None:
            return None if self._weighted else False
        if self._weighted:
            return _weight(slot)
        return True

    def delete_edge(self, u: int, v: int) -> DeleteResult:
        """Delete u->v; weighted mode decrements w and removes only at zero."""
        cell, cslot, slot, _, _, _ = self._locate_edge(u, v)
        if slot is None:
            return _ABSENT
        hit_table, _, items, i = slot
        if self._weighted:
            w = _weight(slot)
            if w > 1:
                _write_weight(cell, slot, w - 1)
                return DeleteResult("decremented", w - 1)
        if cell.chain is None:
            cell.inline = items[:i] + items[i + 1:]
            self._inline_edges -= 1
        else:
            _remove(slot, cell.chain)
        cell.count -= 1
        self._edge_count -= 1
        if cell.count == 0:
            self._clear_cell(cell, cslot)
        elif cell.chain is not None:
            chain = cell.chain
            if hit_table is not None and chain.should_contract():
                chain.contract(hit_table)
            self._maybe_demote(cell)
        return _DELETED

    def successors(self, u: int):
        """All v with edge u->v, as a set (of (v, w) pairs in weighted mode)."""
        cell = self._find_cell(u)
        if cell is None:
            return set()
        if cell.chain is None:
            return set(cell.inline)   # no list copy: BFS calls this per node
        return set(self._dests(cell))

    def out_lists(self):
        """Iterate (u, destinations) once per stored source, in one walk.

        Destinations come as a fresh list of ids, or of (v, w) pairs in
        weighted mode; no node is hashed or probed.
        """
        dests = self._dests
        for cell in self._iter_cells():
            yield cell.node, dests(cell)

    def nodes(self):
        """Iterate every stored source node."""
        return (cell.node for cell in self._iter_cells())

    def iter_edges(self):
        """Iterate distinct edges as (u, v) or (u, v, w) tuples."""
        if self._weighted:
            for u, dests in self.out_lists():
                for v, w in dests:
                    yield u, v, w
        else:
            for u, dests in self.out_lists():
                for v in dests:
                    yield u, v

    def export_edges(self, path):
        """Write the deduplicated edge list as text lines."""
        write_edge_file(path, self.iter_edges())

    def stats(self) -> GraphStats:
        p = self.params
        node_cells = self.node_counters.capacity_cells
        adj_cells = self.adj_counters.capacity_cells
        node_dl_len = self.node_counters.overflow
        adj_dl_len = self.adj_counters.overflow
        dl_bytes = (node_dl_len * p.node_cell_bytes
                    + adj_dl_len * p.adj_dl_entry_bytes)
        bytes_total = (node_cells * p.node_cell_bytes
                       + adj_cells * p.adj_cell_bytes
                       + dl_bytes
                       + (self.node_counters.tables + self.adj_counters.tables)
                       * TABLE_HEADER_BYTES)
        counters = {
            "node": self.node_counters.snapshot(),
            "adj": self.adj_counters.snapshot(),
            "movements": (self._movements + self.node_counters.moved
                          + self.adj_counters.moved),
            "dl_hits": self._dl_hits,
            "sdl_peak": self._sdl_peak,
            "ldl_peak": self._ldl_peak,
            "max_query_probes_node": self._max_q_node_probes,
            "max_query_probes_adj": self._max_q_adj_probes,
            "max_query_dl_scans": self._max_q_dl_scans,
        }
        return GraphStats(
            nodes=self._node_count,
            edges=self._edge_count,
            node_cells=node_cells,
            adj_cells=adj_cells,
            node_load_rate=(self.node_counters.entries / node_cells)
            if node_cells else 0.0,
            adj_load_rate=(self.adj_counters.entries / adj_cells)
            if adj_cells else 0.0,
            inline_edges=self._inline_edges,
            node_dl_len=node_dl_len,
            adj_dl_len=adj_dl_len,
            dl_bytes=dl_bytes,
            bytes_total=bytes_total,
            counters=counters,
        )

    # -- introspection used by tests and the bench -------------------------

    def node_chain_lengths(self) -> tuple:
        return self._node_chain.lengths()

    def adjacency_lengths(self, u):
        """Chain table lengths for u, or None while destinations sit inline."""
        cell = self._find_cell(u)
        if cell is None or cell.chain is None:
            return None
        return cell.chain.lengths()

    def chain_load_rates(self):
        """Load rate of the node chain and of every adjacency chain."""
        adj = [cell.chain.load_rate()
               for cell in self._iter_cells() if cell.chain is not None]
        return self._node_chain.load_rate(), adj

    def check_invariants(self):
        """Full-scan structural audit; raises AssertionError on violation."""
        cap = self.params.denylist_cap
        node_chain = self._node_chain
        node_chain.check_invariants()
        seen_nodes = {}
        entries = [e for t in node_chain.tables for e in t.entries()]
        entries += zip(node_chain.spill_k, node_chain.spill_v)
        for u, cell in entries:
            assert cell.node == u, f"cell of node {cell.node} under key {u}"
            assert u not in seen_nodes, f"node {u} stored twice"
            seen_nodes[u] = cell
        assert all(t.fill is None and t.vals is not None
                   for t in node_chain.tables), "node table without cells"
        _check_level(self.node_counters, [node_chain], cap)
        assert len(seen_nodes) == self._node_count, "node count drift"
        total_edges = 0
        inline_total = 0
        adj_chains = []
        for u, dests in self.out_lists():
            cell = seen_nodes[u]
            chain = cell.chain
            if chain is None:
                assert len(cell.inline) <= self._inline_cap, "inline overflow"
                inline_total += cell.count
            else:
                assert not cell.inline, f"chained node {u} keeps inline slots"
                chain.check_invariants()
                assert all(t.fill is not None
                           and (t.vals is not None) == self._weighted
                           for t in chain.tables), \
                    f"adjacency layout does not match the mode under node {u}"
                adj_chains.append(chain)
            ids = {d[0] for d in dests} if self._weighted else set(dests)
            assert len(ids) == len(dests), f"duplicate destination under node {u}"
            assert len(dests) == cell.count, f"cell count drift for node {u}"
            total_edges += cell.count
        _check_level(self.adj_counters, adj_chains, cap)
        assert total_edges == self._edge_count, "edge count drift"
        assert inline_total == self._inline_edges, "inline count drift"

    # -- internals ----------------------------------------------------------

    def _iter_cells(self):
        for t in self._node_chain.tables:
            yield from _flatten(t.vals)
        yield from self._node_chain.spill_v

    def _place_node_cell(self, cell, h1, h2):
        homeless = self._node_chain.insert(cell.node, h1, h2, cell)
        if homeless is not None:
            self._push_node_dl(homeless)

    def _chain_add(self, cell, v, weight, vh=None):
        if vh is None:
            vh = self._adj_hash.pair(v)
        homeless = cell.chain.insert(v, vh[0], vh[1],
                                     weight if self._weighted else None)
        if homeless is not None:
            self._push_adj_dl(cell, homeless)

    def _promote(self, cell):
        """Move an overflowing inline slot set into a fresh adjacency chain."""
        items = cell.inline
        cell.inline = ()
        cell.chain = self._new_adj_chain(cell.node)
        self._inline_edges -= len(items)
        self._movements += len(items)
        for item in items:
            self._chain_add(cell, *(item if self._weighted else (item, None)))

    def _maybe_demote(self, cell):
        chain = cell.chain
        if chain is None or not chain.at_floor():
            return
        if cell.count > self._inline_cap:
            return
        if chain.entry_count() >= chain.contract_at * chain.capacity():
            return
        items = self._dests(cell)
        chain.dispose()
        cell.chain = None
        cell.inline = tuple(items)
        self._inline_edges += len(items)
        self._movements += len(items)

    def _dests(self, cell):
        """The one reader of a cell's destinations, as a fresh list.

        Ids, or (v, w) pairs when weighted: the inline slots, or the chain
        tables followed by the chain's overflow list.
        """
        chain = cell.chain
        if chain is None:
            return list(cell.inline)
        if self._weighted:
            return [*_flatten(t.entries() for t in chain.tables),
                    *zip(chain.spill_k, chain.spill_v)]
        return [*_flatten(t.stored_keys() for t in chain.tables),
                *chain.spill_k]

    def _clear_cell(self, cell, cslot):
        """Drop an emptied cell, and its chain, through the slot its lookup found."""
        if cell.chain is not None:
            cell.chain.dispose()
        _remove(cslot, self._node_chain)
        self._node_count -= 1
        table = cslot[0]
        if table is not None and self._node_chain.should_contract():
            self._node_chain.contract(table)


def _weight(slot):
    """The weight at an edge slot: a table cell's or overflow entry's
    payload, else an inline pair's second field."""
    _, keys, items, i = slot
    return items[i] if keys is not None else items[i][1]


def _write_weight(cell, slot, w):
    _, keys, items, i = slot
    if keys is not None:
        items[i] = w
    else:
        cell.inline = items[:i] + ((items[i][0], w),) + items[i + 1:]


def _remove(slot, chain):
    """Free a located slot of chain: a table cell or an overflow entry."""
    table, key_bucket, items, i = slot
    if table is None:
        chain.unspill(i)
    else:
        table.clear_slot(key_bucket, items, i)


def _check_level(counters, chains, cap):
    """A level's counters agree with the chains that level holds."""
    tables = [t for c in chains for t in c.tables]
    assert counters.entries == sum(t.count for t in tables), \
        "level entry count drift"
    assert counters.tables == len(tables), "level table count drift"
    assert counters.overflow == sum(len(c.spill_k) for c in chains), \
        "level overflow count drift"
    assert counters.overflow <= cap, "level overflow over its cap"
