"""Two-level cuckoo-hash store for dynamic directed graphs.

Source nodes live in a chain of node tables; each source's destinations
sit either inline (a handful of slots) or in the source's own chain of
adjacency tables. Placement failures after the kick budget go to the
overflow list of the chain that failed them: the node chain's list keeps
sources, an adjacency chain's list keeps that source's destinations. A
chain drains its list whenever it grows, and a push over the level's cap
forces the chain to grow instead (``TableChain.spill``). Structural moves
inside a chain (merges and contractions) never lose an entry, so nothing
else needs re-placing.

Rows and columns. Every stored source has a row id, and its per-source
state lives in graph-level columns indexed by row, not in an object:

- ``_slots``, one array of ``2 * MAX_TABLES`` values per row, at the
  adjacency level's cell width (see below): the inline destinations, ids,
  or ``v, w`` pairs when weighted, in insertion order (a delete shifts the
  later ones down);
- ``_fill``, a ``bytearray``: the row's inline destinations, at most
  ``inline_capacity``; 0 once the source was promoted;
- ``_free``, an array of the rows freed by deleted sources, at the node
  level's 4-byte cells, reused last in, first out.

The columns keep their peak row count while any source is left; they
are emptied only when the last source goes. One count, ``_edges``, holds
the stored edges: promotion and demotion only move them, and the inline
ones are what the adjacency level does not hold.

A node table's payload is the row id, unboxed in the table's 4-byte row
array (the ``ROWS`` layout of ``cuckoo_table``; node keys stay in list
buckets, for the probe speed given there), and the node chain's overflow
list keeps row ids too. Row ids are below 2**32: a graph holds fewer than
2**32 sources. Only a source whose inline slots overflowed owns an
object: a ``Promoted`` record with its adjacency chain, which counts the
source's destinations, in ``_promoted`` under the source's id. A source
with inline destinations thus costs its key, its table cells and its
row, and the garbage collector sees nothing of it.

Each level is one call on the chain that holds the key: ``find`` on the
node chain for a source's row, then on that source's adjacency chain for
a destination (``TableChain.find``). A chain scans its own overflow list
only after its tables missed, and a source whose destinations sit inline
has no chain to look in. Whatever a lookup locates, source or edge, comes
back as one slot shape, ``(table, keys, payloads, index)``: a node table's
bucket list and row array, or an adjacency table's key and weight arrays,
with the cell's index. An overflow entry has the slot ``(None, keys,
payloads, index)`` of its chain's lists, and an inline destination
``(None, None, slots, index)``, ``index`` being the place in ``_slots``
of the destination's last value: its weight when weighted, else its id.
So ``slot[2][slot[3]]`` is an edge's weight wherever it sits. A chain's
slots go back to the chain to be freed (``TableChain.remove``), which
contracts it when the freed cell left it under its floor.

Adjacency tables are flat: destination ids in one array per table, and
the weights, when weighted, in a parallel one. A weight, like an id, must
be below 2**64.

Cell widths. Destination ids and weights sit in 4-byte cells while every
stored one is below 2**32, so a destination costs 4 bytes (8 weighted),
in a table or inline. ``insert_edge`` folds the test into its range
check: an edge with ``(u | v | weight) >> 32`` takes the slow path
(``_admit``), which raises past 2**64 and otherwise, when the destination
or a stored weight is 2**32 or more, widens the graph before anything is
written. ``_widen`` re-types ``_slots`` and every promoted chain's key and
weight arrays to 8-byte cells and sets the adjacency level's ``code``
(``cuckoo_table.Level``), so every table built later is wide too. A
weighted increment whose sum reaches 2**32 widens first, then looks its
edge up again in the re-typed arrays. Widening is one-way: a graph
whose wide values are all deleted keeps 8-byte cells. Source ids are the
node tables' list keys, so none needs a wide cell.

``GraphStats.bytes_total`` still models 8-byte cells (a node cell as a key
plus ``2 * MAX_TABLES`` slots), not the arrays' real sizes or widths.

A source's destinations are read in one place, ``_dests``: its inline
slots, or its chain's entries (``TableChain.keys``/``entries``: the live
cells, read on the C side, then the overflow list).
``successors(u, ids)`` reads one source through it,
``successor_lists(nodes)`` the destination ids of a batch of sources,
hashed in one ``HashPair.pairs`` pass and then looked up one ``find``
each, and ``out_lists(ids)`` walks the node chain once, feeding every row
to it; iteration, the analytics snapshot and the audit read through
``out_lists``, so none re-probes a node it has walked past. With ``ids``
the other two give destination ids in weighted mode too, and build no
``(v, w)`` pair.

Two whole-store readers build no per-source list: ``out_degrees`` walks
the node chain once for each source's fill or chain count, and
``destinations`` gives every stored destination id, the inline ones from
one masked pass over ``_slots`` and then each promoted chain's keys. The
degree ranking of the analytics reads through them, and the audit
(``check_invariants``) checks both against ``_dests``.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .chain import MAX_TABLES, TableChain
from .cuckoo_table import (KEYS, NARROW, ROWS, WEIGHTS, WIDE, Level,
                           _fill_masks, _flatten, is_pow2)
from .hashing import HashPair, mix64
from .workload import write_edge_file

NODE_BYTES = 8
TABLE_HEADER_BYTES = 48
SLOTS = 2 * MAX_TABLES          # inline slot values per row
# a fresh row's zeroed slots, at either cell width
_BLANK_ROW = {code: array(code, [0]) * SLOTS for code in (NARROW, WIDE)}


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
        # a flat bucket counts its filled cells in one byte
        if not 1 <= self.cells_per_bucket <= 255:
            raise ValueError("cells_per_bucket must be in [1, 255], got "
                             f"{self.cells_per_bucket}")
        # a chain grows once its newest table holds expand_at * cap keys,
        # at least one: while cap < 1 / expand_at every insert grows it, and
        # at 1e-6, 60 edges into one source built 25,165,824 cells
        if not (0.05 <= self.expand_at < 1.0):
            raise ValueError("expand_at must be in [0.05, 1), got "
                             f"{self.expand_at}")
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


class Promoted:
    """A source whose inline slots overflowed: the only per-source object.

    ``node`` is the source and ``chain`` its adjacency chain, which holds
    and counts all its live destinations; the source's row keeps an
    inline fill of 0 while the record lives.
    """

    __slots__ = ("node", "chain")

    def __init__(self, node, chain):
        self.node = node
        self.chain = chain


@dataclass(frozen=True)
class GraphStats:
    """Structure-accounted snapshot; byte figures count cells, not RSS."""

    nodes: int
    edges: int
    node_cells: int
    adj_cells: int
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

    def __init__(self, params: GraphParams):
        self.params = params
        self._weighted = params.weighted
        self._inline_cap = params.inline_capacity
        self._width = 2 if self._weighted else 1   # slots per inline destination
        # mix64 is a bijection, so the four hash seeds are distinct; both
        # levels draw kick victims from one generator
        base = mix64(params.seed)
        self._node_hash = HashPair(mix64(base + 1), mix64(base + 2))
        self._adj_hash = HashPair(mix64(base + 3), mix64(base + 4))
        shared = dict(cells_per_bucket=params.cells_per_bucket,
                      kick_budget=params.kick_budget,
                      rng=random.Random(mix64(base + 5)),
                      expand_at=params.expand_at,
                      contract_at=params.contract_at,
                      overflow_cap=params.denylist_cap)
        self.node_level = Level(hash_pair=self._node_hash, layout=ROWS,
                                base_len=params.node_table_len, **shared)
        self.adj_level = Level(hash_pair=self._adj_hash,
                               layout=WEIGHTS if self._weighted else KEYS,
                               base_len=params.adj_table_len, **shared)
        self._node_chain = TableChain(self.node_level)
        # the row columns (see the module docstring)
        self._slots = array(self.adj_level.code)
        self._fill = bytearray()
        self._free = array(self.node_level.code)
        self._promoted = {}
        self._edges = 0
        self._movements = 0
        self._max_q_node_probes = 0
        self._max_q_adj_probes = 0
        self._max_q_dl_scans = 0

    # -- overflow lists: one named push per level, for traces -------------

    def _push_node_dl(self, entry):
        self._node_chain.spill(entry)

    def _push_adj_dl(self, chain, entry):
        chain.spill(entry)

    # -- location helpers ---------------------------------------------------

    def _locate_edge(self, u, v):
        """Full two-step lookup.

        Returns (row, record, row_slot, edge_slot, u_hashes, v_hashes);
        record is None while u's destinations sit inline, and the hash
        pairs come back so mutating callers never rehash. Each level is one
        ``TableChain.find`` call, which scans the chain's overflow list
        only after its tables missed.
        """
        uh = self._node_hash.pair(u)
        cslot = self._node_chain.find(u, uh[0], uh[1])
        if cslot is None:
            return None, None, None, None, uh, None
        row = cslot[2][cslot[3]]
        n = self._fill[row]
        if n:
            s = row * SLOTS
            width = self._width
            ids = self._slots[s:s + width * n:width]
            if v in ids:
                # the slot names the destination's last value (see above)
                return (row, None, cslot,
                        (None, None, self._slots,
                         s + width * ids.index(v) + width - 1),
                        uh, None)
            return row, None, cslot, None, uh, None
        record = self._promoted[u]
        vh = self._adj_hash.pair(v)
        slot = record.chain.find(v, vh[0], vh[1])
        return row, record, cslot, slot, uh, vh

    # -- public operations ---------------------------------------------------

    def insert_edge(self, u: int, v: int, weight: int = 1) -> InsertResult:
        """Insert the directed edge u->v; duplicates increment w in weighted mode."""
        if weight < 1 or (u | v | weight) >> 32:
            self._admit(u, v, weight)
        row, record, cslot, slot, uh, vh = self._locate_edge(u, v)
        if slot is not None:
            if not self._weighted:
                return _DUPLICATE
            w = slot[2][slot[3]] + weight
            if w >> 32:
                if w >> 64:
                    raise ValueError(f"weight of {u}->{v} would reach 2**64: "
                                     f"{w - weight} + {weight}")
                if self.adj_level.code != WIDE:
                    self._widen()
                    # the slot named the narrow arrays
                    slot = self._locate_edge(u, v)[3]
            slot[2][slot[3]] = w
            return InsertResult("incremented", w)
        if row is None:
            row = self._new_row()
            homeless = self._node_chain.insert(u, uh[0], uh[1], row)
            if homeless is not None:
                self._push_node_dl(homeless)
        if record is None:
            n = self._fill[row]
            if n < self._inline_cap:
                s = row * SLOTS + self._width * n
                self._slots[s] = v
                if self._weighted:
                    self._slots[s + 1] = weight
                self._fill[row] = n + 1
            else:
                # the id object the node chain holds, not the caller's,
                # so the source's id is held once
                keys = cslot[1]
                node = keys[keys.index(u)]
                record = Promoted(node, TableChain(self.adj_level, node))
                self._promote(record, row)
        if record is not None:
            self._chain_add(record.chain, v, weight, vh)
        self._edges += 1
        return InsertResult("inserted", weight) if self._weighted else _INSERTED

    def query_edge(self, u: int, v: int):
        """Membership test; returns the weight (or None) in weighted mode."""
        np0 = self.node_level.bucket_probes
        ap0 = self.adj_level.bucket_probes
        _, record, cslot, slot, _, _ = self._locate_edge(u, v)
        np_ = self.node_level.bucket_probes - np0
        ap = self.adj_level.bucket_probes - ap0
        # a level's overflow list was scanned when its tables missed
        scans = ((cslot is None or cslot[0] is None)
                 + (record is not None and (slot is None or slot[0] is None)))
        if np_ > self._max_q_node_probes:
            self._max_q_node_probes = np_
        if ap > self._max_q_adj_probes:
            self._max_q_adj_probes = ap
        if scans > self._max_q_dl_scans:
            self._max_q_dl_scans = scans
        if slot is None:
            return None if self._weighted else False
        if self._weighted:
            return slot[2][slot[3]]
        return True

    def delete_edge(self, u: int, v: int) -> DeleteResult:
        """Delete u->v; weighted mode decrements w and removes only at zero."""
        row, record, cslot, slot, _, _ = self._locate_edge(u, v)
        if slot is None:
            return _ABSENT
        if self._weighted:
            w = slot[2][slot[3]]
            if w > 1:
                slot[2][slot[3]] = w - 1
                return DeleteResult("decremented", w - 1)
        self._edges -= 1
        width = self._width
        if record is not None:
            record.chain.remove(slot)
            items = self._maybe_demote(record)
            if items is None:
                return _DELETED
            n = len(items)
            s = row * SLOTS
            self._slots[s:s + width * n] = array(
                self._slots.typecode,
                _flatten(items) if self._weighted else items)
            self._movements += n
        else:
            # shift the later inline destinations down over the one that
            # ends at the slot's index: slot order is kept
            n = self._fill[row] - 1
            i = slot[3] + 1
            end = row * SLOTS + width * n   # the row's live end once shifted
            self._slots[i - width:end] = self._slots[i:end + width]
        self._fill[row] = n
        if n == 0:
            self._clear_row(row, cslot)
        return _DELETED

    def successors(self, u: int, ids=False):
        """All v with edge u->v, as a set: of (v, w) pairs in weighted mode
        unless ``ids``."""
        row = self._find_row(u, *self._node_hash.pair(u))
        if row is None:
            return set()
        return set(self._dests(u, row, ids))

    def successor_lists(self, nodes):
        """Iterate the destination ids of each node of a sized sequence, in
        order: a fresh list of ids, weighted mode included, or ``()`` for a
        node that is no stored source.

        The nodes are hashed as one batch (``HashPair.pairs``), then each
        is one ``find`` on the node chain, as in ``successors``. A batch
        holding an id outside ``[0, 2**64)``, which numpy cannot hash and no
        stored source can be, is hashed key by key instead.
        """
        node_hash, find_row, dests = self._node_hash, self._find_row, self._dests
        try:
            hashes = node_hash.pairs(nodes)
        except OverflowError:
            hashes = zip(*map(node_hash.pair, nodes))
        for u, h1, h2 in zip(nodes, *hashes):
            row = find_row(u, h1, h2)
            yield () if row is None else dests(u, row, True)

    def out_lists(self, ids=False):
        """Iterate (u, destinations) once per stored source, in one walk.

        Destinations come as a fresh list of ids, or of (v, w) pairs in
        weighted mode unless ``ids``; no node is hashed or probed.
        """
        dests = self._dests
        for u, row in self._node_chain.entries():
            yield u, dests(u, row, ids)

    def out_degrees(self):
        """Iterate (u, out-degree) once per stored source, in one walk.

        A degree is the row's inline fill, or the count of a promoted
        source's chain; no destination is read.
        """
        fill, promoted = self._fill, self._promoted
        for u, row in self._node_chain.entries():
            yield u, fill[row] or promoted[u].chain.count

    def destinations(self):
        """Iterate every stored destination id, once per edge.

        The inline ids come from one ``compress`` over ``_slots`` with a
        mask built from ``_fill``, so values a delete left past a row's
        fill are never read; a weighted row's ``2n`` live values give
        every other one. Each promoted chain's keys follow, its overflow
        list with them.
        """
        masks = _fill_masks(SLOTS)[::self._width]
        inline = itertools.compress(
            self._slots, b"".join(map(masks.__getitem__, self._fill)))
        if self._weighted:
            inline = itertools.islice(inline, 0, None, 2)
        return itertools.chain(
            inline, _flatten(r.chain.keys() for r in self._promoted.values()))

    def nodes(self):
        """Iterate every stored source node."""
        return self._node_chain.keys()

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
        node_cells = self.node_level.capacity_cells
        adj_cells = self.adj_level.capacity_cells
        node_dl_len = self.node_level.overflow
        adj_dl_len = self.adj_level.overflow
        # modeled bytes: a node cell is a key and its row's slots, an
        # adjacency cell an id (and a weight); an adjacency overflow entry
        # is charged one id more than its cell
        node_cell_bytes = (1 + SLOTS) * NODE_BYTES
        adj_cell_bytes = self._width * NODE_BYTES
        dl_bytes = (node_dl_len * node_cell_bytes
                    + adj_dl_len * (adj_cell_bytes + NODE_BYTES))
        bytes_total = (node_cells * node_cell_bytes
                       + adj_cells * adj_cell_bytes
                       + dl_bytes
                       + (self.node_level.tables + self.adj_level.tables)
                       * TABLE_HEADER_BYTES)
        counters = {
            "node": self.node_level.snapshot(),
            "adj": self.adj_level.snapshot(),
            "movements": (self._movements + self.node_level.moved
                          + self.adj_level.moved),
            "dl_hits": self.node_level.list_hits + self.adj_level.list_hits,
            "sdl_peak": self.adj_level.overflow_peak,
            "ldl_peak": self.node_level.overflow_peak,
            "max_query_probes_node": self._max_q_node_probes,
            "max_query_probes_adj": self._max_q_adj_probes,
            "max_query_dl_scans": self._max_q_dl_scans,
        }
        return GraphStats(
            nodes=self._node_chain.count,
            edges=self._edges,
            node_cells=node_cells,
            adj_cells=adj_cells,
            inline_edges=(self._edges - self.adj_level.entries
                          - self.adj_level.overflow),
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
        record = self._promoted.get(u)
        return None if record is None else record.chain.lengths()

    def chain_load_rates(self):
        """Load rate of the node chain and of every adjacency chain."""
        adj = [r.chain.load_rate() for r in self._promoted.values()]
        return self._node_chain.load_rate(), adj

    def check_invariants(self):
        """Full-scan structural audit; raises AssertionError on violation."""
        node_chain = self._node_chain
        node_chain.check_invariants()
        assert all(t.fill is None and t.vals is not None
                   for t in node_chain.tables), "node table without rows"
        # cell widths: row ids 4-byte, ids and weights the adjacency level's
        assert all(a.itemsize == 4 for a in itertools.chain(
            (t.vals for t in node_chain.tables), [self._free])), \
            "a row array is not 4-byte"
        code = self.adj_level.code
        assert self._slots.typecode == code, "inline slots off the level's width"
        _check_level(self.node_level, [node_chain])
        self._check_rows()
        total_edges = 0
        top = 0
        adj_chains = []
        out_degrees = {}
        in_degrees = Counter()
        for u, dests in self.out_lists():
            record = self._promoted.get(u)
            if record is None:
                count = len(dests)
            else:
                chain = record.chain
                count = chain.count
                chain.check_invariants()
                assert all(t.fill is not None
                           and (t.vals is not None) == self._weighted
                           for t in chain.tables), \
                    f"adjacency layout does not match the mode under node {u}"
                assert all(a.typecode == code for t in chain.tables
                           for a in (t.keys, t.vals) if a is not None), \
                    f"adjacency cells off the level's width under node {u}"
                adj_chains.append(chain)
            top = max(top, max(_flatten(dests) if self._weighted else dests,
                               default=0))
            ids = {d[0] for d in dests} if self._weighted else set(dests)
            assert len(ids) == len(dests), f"duplicate destination under node {u}"
            assert len(dests) == count, f"count drift for node {u}"
            total_edges += count
            out_degrees[u] = count
            in_degrees.update(ids)
        # the whole-store readers agree with the per-source one, so no
        # value a delete left past a row's fill is ever counted
        assert dict(self.out_degrees()) == out_degrees, "out_degrees drift"
        assert Counter(self.destinations()) == in_degrees, \
            "destinations drift"
        _check_level(self.adj_level, adj_chains)
        assert total_edges == self._edges, "edge count drift"
        # overflow lists hold ints of any size: none may outgrow the cells
        assert not top >> 8 * self._slots.itemsize, \
            "a stored id or weight exceeds the level's width"
        # the per-query maxima of stats().counters
        assert self._max_q_node_probes <= 2 * MAX_TABLES, \
            "a query probed more than 2 node buckets per table"
        assert self._max_q_adj_probes <= 2 * MAX_TABLES, \
            "a query probed more than 2 adjacency buckets per table"
        assert self._max_q_dl_scans <= 2, \
            "a query scanned more than one overflow list per level"

    def _check_rows(self):
        """Every live row has one reference, no free row has any, every
        record is a stored source's with a destination, and the columns
        match the row count."""
        rows = len(self._fill)
        free = set(self._free)
        assert len(free) == len(self._free), "a row is freed twice"
        assert len(self._slots) == SLOTS * rows, "slot column off the row count"
        owners = {}
        nodes = set()
        for u, row in self._node_chain.entries():
            assert u not in nodes, f"node {u} stored twice"
            nodes.add(u)
            assert row < rows, f"node {u} names row {row}, past the last row"
            assert row not in free, f"free row {row} referenced by node {u}"
            assert row not in owners, \
                f"row {row} referenced twice, by nodes {owners[row]} and {u}"
            owners[row] = u
            n = self._fill[row]
            assert n <= self._inline_cap, \
                f"row {row} of node {u} over the inline capacity"
            record = self._promoted.get(u)
            assert n or record is not None, f"row {row} of node {u} is empty"
            assert not (n and record), f"promoted node {u} keeps inline slots"
        assert len(owners) + len(free) == rows, "a row is neither live nor free"
        assert len(owners) == self._node_chain.count, "node count drift"
        for u, record in self._promoted.items():
            assert record.node == u, f"record of node {record.node} under node {u}"
            assert u in nodes, f"record of node {u}, which is no stored source"
            assert record.chain is not None and record.chain.count, \
                f"record of node {u} without a chain or a destination"

    # -- internals ----------------------------------------------------------

    def _admit(self, u, v, weight):
        """The range check of an insert holding a value of 2**32 or more, or
        a weight below 1: raise past the bounds, else widen the cells when
        the destination or a stored weight needs 8 bytes."""
        if weight < 1 or weight >> 64:
            raise ValueError(f"weight must be in [1, 2**64), got {weight}")
        if (u | v) >> 64:
            raise ValueError(f"node ids must be in [0, 2**64), got {u}, {v}")
        if ((v | weight) if self._weighted else v) >> 32 \
                and self.adj_level.code != WIDE:
            self._widen()

    def _widen(self):
        """Re-type every id and weight array to 8-byte cells: ``_slots`` and
        each promoted chain's key and weight arrays; the adjacency level
        builds every later table wide. Nothing narrows them again."""
        self.adj_level.code = WIDE
        self._slots = array(WIDE, self._slots)
        for record in self._promoted.values():
            for t in record.chain.tables:
                t.keys = array(WIDE, t.keys)
                if t.vals is not None:
                    t.vals = array(WIDE, t.vals)

    def _new_row(self):
        """A row for a new source: the last one freed, else a fresh one."""
        if self._free:
            return self._free.pop()
        self._fill.append(0)
        self._slots += _BLANK_ROW[self._slots.typecode]
        return len(self._fill) - 1

    def _chain_add(self, chain, v, weight, vh=None):
        if vh is None:
            vh = self._adj_hash.pair(v)
        homeless = chain.insert(v, vh[0], vh[1],
                                weight if self._weighted else None)
        if homeless is not None:
            self._push_adj_dl(chain, homeless)

    def _promote(self, record, row):
        """Move a full row's inline destinations into the record's chain."""
        items = self._dests(record.node, row)
        self._fill[row] = 0
        self._promoted[record.node] = record
        self._movements += len(items)
        for item in items:
            self._chain_add(record.chain,
                            *(item if self._weighted else (item, None)))

    def _maybe_demote(self, record):
        """Release a chain small enough to sit inline, and return its
        destinations (``(v, w)`` pairs when weighted) for the caller to
        write into the row; None while the chain stays."""
        chain = record.chain
        if (chain.step or chain.count > self._inline_cap
                or chain.count - len(chain.spill_k)
                >= chain.level.contract_at * chain.capacity()):
            return None
        items = list(chain.entries() if self._weighted else chain.keys())
        chain.dispose()
        record.chain = None   # how perfbench's tracer tells a demotion
        del self._promoted[record.node]
        return items

    def _find_row(self, u, h1, h2):
        """u's row, or None when u is no stored source."""
        slot = self._node_chain.find(u, h1, h2)
        return None if slot is None else slot[2][slot[3]]

    def _dests(self, u, row, ids=False):
        """The one reader of a source's destinations, as a fresh list.

        Ids, or (v, w) pairs when weighted and not ``ids``: the row's
        inline slots, or u's chain tables followed by the chain's overflow
        list.
        """
        n = self._fill[row]
        pairs = self._weighted and not ids
        if n:
            s = row * SLOTS
            if not pairs:
                width = self._width
                return self._slots[s:s + width * n:width].tolist()
            values = self._slots[s:s + 2 * n]
            return list(zip(values[::2], values[1::2]))
        chain = self._promoted[u].chain
        return list(chain.entries() if pairs else chain.keys())

    def _clear_row(self, row, cslot):
        """Drop an emptied source through the slot its lookup found, and
        free its row."""
        self._node_chain.remove(cslot)
        if self._node_chain.count:
            self._free.append(row)
        else:
            # the last source went: the columns start over, at their widths
            self._slots = array(self._slots.typecode)
            self._fill = bytearray()
            self._free = array(self.node_level.code)


def _check_level(level, chains):
    """A level's counters agree with the chains that level holds."""
    tables = [t for c in chains for t in c.tables]
    assert level.entries == sum(t.count for t in tables), \
        "level entry count drift"
    assert level.tables == len(tables), "level table count drift"
    assert level.overflow == sum(len(c.spill_k) for c in chains), \
        "level overflow count drift"
    assert level.overflow <= level.overflow_cap, "level overflow over its cap"
