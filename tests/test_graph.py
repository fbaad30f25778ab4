import copy
import gc
import hashlib
import json
import random
import sys
import types
from array import array
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from cuckoograph import CuckooGraph, GraphParams, OracleGraph, analytics, oracle
from cuckoograph.chain import MAX_TABLES, TableChain
from cuckoograph.cuckoo_table import KEYS, NARROW, ROWS, WEIGHTS, WIDE
from cuckoograph.graph import Promoted
from cuckoograph.workload import generate_synthetic, mixed_ops


def tiny_params(**over):
    """Aggressively small tables so structural churn happens within a few ops."""
    base = dict(cells_per_bucket=1, node_table_len=2, adj_table_len=2,
                kick_budget=2, denylist_cap=16)
    base.update(over)
    return GraphParams.from_seed(42, **base)


class TestBasicOps:
    def test_empty_graph(self):
        g = CuckooGraph(GraphParams())
        assert g.query_edge(1, 2) is False
        s = g.stats()
        assert s.nodes == 0 and s.edges == 0

    def test_roundtrip_and_directedness(self):
        g = CuckooGraph(GraphParams())
        assert g.insert_edge(1, 2).status == "inserted"
        assert g.query_edge(1, 2) is True
        assert g.query_edge(2, 1) is False
        s = g.stats()
        assert s.nodes == 1 and s.edges == 1
        assert s.counters["node"]["placements"] == 1

    def test_duplicate_insert_changes_nothing(self):
        g = CuckooGraph(GraphParams())
        g.insert_edge(1, 2)
        before = g.stats()
        assert g.insert_edge(1, 2).status == "duplicate"
        after = g.stats()
        assert (before.nodes, before.edges, before.bytes_total) == \
               (after.nodes, after.edges, after.bytes_total)

    def test_self_loop(self):
        g = CuckooGraph(GraphParams())
        g.insert_edge(7, 7)
        assert g.query_edge(7, 7) is True
        assert g.successors(7) == {7}

    def test_delete_absent_leaves_structure(self):
        g = CuckooGraph(GraphParams())
        g.insert_edge(1, 2)
        before = g.stats()
        assert g.delete_edge(9, 9).status == "absent"
        after = g.stats()
        # instrumentation counters tick on the lookup; structure must not
        import dataclasses
        strip = lambda s: dataclasses.replace(s, counters={})
        assert strip(after) == strip(before)

    def test_successors_unknown_node(self):
        g = CuckooGraph(GraphParams())
        assert g.successors(404) == set()

    @pytest.mark.parametrize("u, v", [(1 << 64, 1), (1, 1 << 64), (-1, 1),
                                      ((3 << 64) | 5, 5)],
                             ids=["source", "destination", "negative", "alias"])
    def test_ids_outside_64_bits_are_rejected(self, u, v):
        # ids that agree mod 2**64 would share both buckets at every size
        g = CuckooGraph(GraphParams())
        with pytest.raises(ValueError, match="2\\*\\*64"):
            g.insert_edge(u, v)
        assert g.stats().edges == 0
        g.insert_edge((1 << 64) - 1, 0)
        assert g.query_edge((1 << 64) - 1, 0) is True

    def test_successors_inline(self):
        g = CuckooGraph(GraphParams())
        g.insert_edge(1, 10)
        g.insert_edge(1, 11)
        assert g.successors(1) == {10, 11}


class TestPromotion:
    def test_overflowing_inline_slots_moves_all_to_chain(self):
        g = CuckooGraph(GraphParams())
        cap = g.params.inline_capacity
        for v in range(cap):
            g.insert_edge(5, v)
        assert g.adjacency_lengths(5) is None
        g.insert_edge(5, cap)   # one more than the slots can hold
        lengths = g.adjacency_lengths(5)
        assert lengths == (g.params.adj_table_len,)
        assert g.successors(5) == set(range(cap + 1))
        g.check_invariants()

    def test_chain_keeps_growing_with_degree(self):
        g = CuckooGraph(GraphParams(adj_table_len=4))
        for v in range(400):
            g.insert_edge(5, v)
        assert g.successors(5) == set(range(400))
        assert len(g.adjacency_lengths(5)) <= 3
        g.check_invariants()


class TestDenylists:
    def test_failed_edge_placements_surface_in_overflow_then_drain(self):
        g = CuckooGraph(tiny_params())
        dl_seen = 0
        dl_drained = False
        prev_dl = 0
        for v in range(1, 60):
            g.insert_edge(0, v)
            s = g.stats()
            dl_seen = max(dl_seen, s.adj_dl_len)
            if s.adj_dl_len < prev_dl:
                dl_drained = True
            prev_dl = s.adj_dl_len
            for back in range(1, v + 1):
                assert g.query_edge(0, back) is True, (v, back)
        assert dl_seen > 0, "expected at least one edge-placement failure"
        assert dl_drained, "expected a grow event to drain the overflow list"
        assert g.successors(0) == set(range(1, 60))
        g.check_invariants()

    def test_evicted_node_cell_lands_in_overflow_with_chain_intact(self):
        g = CuckooGraph(tiny_params())
        # give one node a chain first, then crowd the node tables until a
        # cell overflows (a later grow event drains the list again)
        for v in range(10):
            g.insert_edge(0, v)
        crowd = []
        for u in range(1, 1000):
            g.insert_edge(u, 1000 + u)
            crowd.append(u)
            if g._node_chain.spill_k:
                break
        assert g.stats().node_dl_len > 0
        # the overflow list keeps the source and its row id, nothing more
        node, row = g._node_chain.spill_k[0], g._node_chain.spill_v[0]
        assert type(row) is int and _row(g, node) == row
        assert g.successors(node)
        for v in g.successors(node):
            assert g.query_edge(node, v) is True
        # node 0's chain stays attached to it wherever its row sits
        assert g.successors(0) == set(range(10))
        # every edge is still reachable no matter where its cell lives
        for u in crowd:
            assert g.query_edge(u, 1000 + u) is True
        g.check_invariants()

    def test_misses_on_inline_sources_skip_the_edge_overflow_list(self):
        # only sources with an adjacency chain own edge overflow rows
        g = CuckooGraph(tiny_params())
        v = 0
        while g.stats().adj_dl_len == 0:
            v += 1
            g.insert_edge(0, v)
        g.insert_edge(1, 2)
        assert g.adjacency_lengths(1) is None
        assert g.query_edge(1, 3) is False
        assert g.stats().counters["max_query_dl_scans"] == 0
        assert g.query_edge(0, 10**6) is False
        assert g.stats().counters["max_query_dl_scans"] == 1
        g.check_invariants()

    def test_each_chain_keeps_its_own_overflow_entries(self):
        # the edge cap is shared by the level: every chain's list counts
        # toward it, and a lookup scans only the source's own list
        g = CuckooGraph(tiny_params())
        lists = {}
        for u, v in generate_synthetic("zipf", 400, 3000, 3):
            g.insert_edge(u, v)
            lists = {u: r.chain.spill_k for u, r in g._promoted.items()
                     if r.chain.spill_k}
            if len(lists) > 1:
                break
        assert len(lists) > 1
        assert g.stats().adj_dl_len == sum(map(len, lists.values()))
        for u, keys in lists.items():
            for v in keys:
                assert g.query_edge(u, v) is True
            assert g.query_edge(u, 10**6) is False
        g.check_invariants()

    def test_demotion_releases_the_chains_overflow_entries(self):
        g = CuckooGraph(tiny_params())
        v = 0
        while g.stats().adj_dl_len == 0:
            v += 1
            g.insert_edge(0, v)
        for x in range(1, v + 1):
            g.delete_edge(0, x)
            g.check_invariants()
        assert g.adjacency_lengths(0) is None
        assert g.stats().adj_dl_len == 0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_inline_edge_count_matches_the_rows(self, weighted):
        # criterion 08's stream: inline, promoted and spilled destinations
        g = CuckooGraph(GraphParams.from_seed(
            8, cells_per_bucket=2, node_table_len=2, adj_table_len=2,
            kick_budget=1, weighted=weighted))
        ops = {"i": g.insert_edge, "q": g.query_edge, "d": g.delete_edge}
        checked_spilled = False
        for i, (op, u, v) in enumerate(mixed_ops(20_000, (0.7, 0.1, 0.2),
                                                 4096, seed=8)):
            ops[op](u, v)
            s = g.stats()
            if i % 1000 and (checked_spilled or not s.adj_dl_len):
                continue
            checked_spilled |= s.adj_dl_len > 0
            lists = dict(g.out_lists(ids=True))
            inline = sum(len(d) for src, d in lists.items()
                         if g.adjacency_lengths(src) is None)
            assert s.inline_edges == inline, i
            assert s.edges == sum(map(len, lists.values())), i
        assert checked_spilled
        assert 0 < s.inline_edges < s.edges

    @pytest.mark.parametrize("weighted", [False, True])
    def test_peaks_are_the_maxima_after_each_push(self, weighted,
                                                  monkeypatch):
        # criterion 08's stream; each level's overflow count is recorded
        # after every push, and the graph reports the recorded maxima
        seen = {"node_level": 0, "adj_level": 0}

        def recording(name, level):
            push = getattr(CuckooGraph, name)

            def wrapper(self, *args):
                push(self, *args)
                seen[level] = max(seen[level], getattr(self, level).overflow)
            return wrapper

        monkeypatch.setattr(CuckooGraph, "_push_node_dl",
                            recording("_push_node_dl", "node_level"))
        monkeypatch.setattr(CuckooGraph, "_push_adj_dl",
                            recording("_push_adj_dl", "adj_level"))
        g = CuckooGraph(GraphParams.from_seed(
            8, cells_per_bucket=2, node_table_len=2, adj_table_len=2,
            kick_budget=1, weighted=weighted))
        ops = {"i": g.insert_edge, "q": g.query_edge, "d": g.delete_edge}

        def peaks():
            c = g.stats().counters
            return {"node_level": c["ldl_peak"], "adj_level": c["sdl_peak"]}

        for i, (op, u, v) in enumerate(mixed_ops(20_000, (0.7, 0.1, 0.2),
                                                 4096, seed=8), 1):
            ops[op](u, v)
            if i % 1000 == 0:
                assert peaks() == seen, i
        assert peaks() == seen
        assert min(seen.values()) > 0


def _graph_with_a_spilled_source(weighted):
    """Node 0 promoted, a source id at 2**63 and a crowd of inline sources,
    one of them in the node chain's overflow list; the crowd's
    destinations are sinks. Returns the graph and the spilled source."""
    g = CuckooGraph(tiny_params(weighted=weighted))
    for v in range(1, 11):
        g.insert_edge(0, v, 1 + v % 3)
    g.insert_edge(1 << 63, 3, 2)
    for u in range(1, 1000):
        g.insert_edge(u, 1000 + u, 1 + u % 3)
        if g._node_chain.spill_k:
            break
    assert g.adjacency_lengths(0) is not None
    g.check_invariants()
    return g, g._node_chain.spill_k[0]


class TestSuccessorLists:
    @pytest.mark.parametrize("ids", [False, True], ids=["items", "ids"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["plain", "weighted"])
    def test_matches_successors(self, weighted, ids):
        # the batch gives ids; checked against both of successors' readers
        g, spilled = _graph_with_a_spilled_source(weighted)
        sources = set(g.nodes())
        sinks = [1000 + u for u in range(1, 6)]
        absent = [404, 10**6, (1 << 63) + 1, (1 << 64) - 1]
        nodes = [spilled, 0, 1 << 63, *sinks, *absent, *sorted(sources)]
        assert spilled in sources and not sources & {*sinks, *absent}
        assert all(v - 1000 in sources for v in sinks)   # u -> 1000 + u
        lists = list(g.successor_lists(nodes))
        assert len(lists) == len(nodes)
        for u, dests in zip(nodes, lists):
            if u in sources:
                assert type(dests) is list and len(set(dests)) == len(dests)
            else:
                assert dests == ()
            want = g.successors(u, ids=ids)
            if weighted and not ids:
                want = {v for v, _ in want}
            assert set(dests) == want, u

    def test_ids_outside_the_id_range_read_empty(self):
        # numpy cannot hash these; the batch reads them as successors does
        g, spilled = _graph_with_a_spilled_source(False)
        outside = [-1, 1 << 64, -(1 << 70), 1 << 70]
        nodes = [spilled, *outside, 0]
        lists = list(g.successor_lists(nodes))
        assert lists[1:-1] == [()] * len(outside)
        for u, dests in zip(nodes, lists):
            assert set(dests) == g.successors(u, ids=True), u
        assert lists[0] and lists[-1]


def _graph_for_the_bulk_readers(weighted):
    """Node 7's row filled to the inline capacity, then 12 and its last
    destination deleted, which leaves stale values past the fill; node 0
    promoted until its chain's overflow list holds an entry; a crowd of
    inline sources until one sits in the node chain's overflow list.
    Returns the graph, its edges as ``{u: [v, ...]}`` and node 7's last
    deleted destination."""
    g = CuckooGraph(tiny_params(weighted=weighted))
    want = {}

    def add(u, v):
        # weight 1, which no destination id takes, so one delete removes
        g.insert_edge(u, v, 1)
        want.setdefault(u, []).append(v)

    cap = g.params.inline_capacity
    for v in range(11, 11 + cap):
        add(7, v)
    for v in (12, 10 + cap):
        g.delete_edge(7, v)
        want[7].remove(v)
    v = 100
    while 0 not in g._promoted or not g._promoted[0].chain.spill_k:
        add(0, v)
        v += 1
    u = 1000
    while not g._node_chain.spill_k:
        add(u, 5000 + u)
        u += 1
    return g, want, 10 + cap


class TestWholeStoreReaders:
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["plain", "weighted"])
    def test_read_every_edge_once(self, weighted):
        g, want, stale = _graph_for_the_bulk_readers(weighted)
        width = 2 if weighted else 1
        row = _row(g, 7)
        fill = g._fill[row]
        assert fill == g.params.inline_capacity - 2
        assert stale in g._slots[row * 2 * MAX_TABLES + width * fill:
                                 (row + 1) * 2 * MAX_TABLES]
        assert g._promoted[0].chain.spill_k and g._node_chain.spill_k
        assert sorted(g.destinations()) == sorted(
            v for vs in want.values() for v in vs)
        degrees = list(g.out_degrees())
        assert len(degrees) == len(want)
        assert dict(degrees) == {u: len(vs) for u, vs in want.items()}
        g.check_invariants()

    def test_empty_graph_reads_nothing(self):
        g = CuckooGraph(tiny_params())
        assert list(g.destinations()) == [] and list(g.out_degrees()) == []
        g.insert_edge(1, 2)
        g.delete_edge(1, 2)
        assert list(g.destinations()) == [] and list(g.out_degrees()) == []


def _chained_node_5(weighted=False):
    """Node 5 with destinations 0-39, all in its adjacency chain."""
    g = CuckooGraph(GraphParams(weighted=weighted))
    for v in range(40):
        g.insert_edge(5, v)
    record = g._promoted[5]
    assert not record.chain.spill_k
    g.check_invariants()
    return g, record


class TestAudit:
    def test_rejects_an_adjacency_key_outside_its_bucket(self):
        g, record = _chained_node_5()
        t = record.chain.tables[0]
        b = next(b for b in range(t.len_major) if t.bucket(b)[3])
        keys, _, first, _ = t.bucket(b)
        # a fresh id whose hash selects another major bucket
        keys[first] = next(k for k in range(1000, 2000)
                           if g._adj_hash.pair(k)[0] & t.mask_major != b)
        with pytest.raises(AssertionError, match="candidate bucket"):
            g.check_invariants()

    def test_rejects_a_weight_list_out_of_step(self):
        g, record = _chained_node_5(weighted=True)
        t = record.chain.tables[0]
        _, weights, _, _ = t.bucket(next(b for b in range(t.len_major)
                                         if t.bucket(b)[3]))
        weights.pop()
        with pytest.raises(AssertionError, match="not parallel"):
            g.check_invariants()

    def test_rejects_adjacency_entry_count_drift(self):
        g, _ = _chained_node_5()
        g.adj_level.entries += 1
        with pytest.raises(AssertionError, match="level entry count drift"):
            g.check_invariants()

    def test_rejects_a_spilled_key_that_also_sits_in_a_table(self):
        g, record = _chained_node_5()
        v = next(e[0] for e in record.chain.tables[0].entries())
        before = g.stats().counters
        # counted as insert counts the homeless entry it returns
        record.chain.count += 1
        record.chain.spill((v, None))
        with pytest.raises(AssertionError, match=f"spilled key {v} also sits"):
            g.check_invariants()
        # the audit looked the key up without charging a probe
        after = g.stats().counters
        assert after["adj"]["bucket_probes"] == before["adj"]["bucket_probes"]

    @pytest.mark.parametrize("level", ["node", "adj"])
    @pytest.mark.parametrize("off", [1, -1])
    def test_rejects_a_chain_count_off_by_one(self, level, off):
        g, record = _chained_node_5()
        chain = g._node_chain if level == "node" else record.chain
        chain.count += off
        with pytest.raises(AssertionError, match="chain count drift"):
            g.check_invariants()

    @pytest.mark.parametrize("level", ["node", "adj"])
    def test_rejects_overflow_count_drift(self, level):
        g, _ = _chained_node_5()
        getattr(g, f"{level}_level").overflow += 1
        with pytest.raises(AssertionError, match="level overflow count drift"):
            g.check_invariants()

    def test_rejects_a_node_cell_under_a_foreign_key(self):
        g, _ = _chained_node_5()
        g.insert_edge(6, 1)
        # node 6's table cell names node 5's row: that row now has two
        # references, and node 6's own row none
        _set_row(g, 6, _row(g, 5))
        with pytest.raises(AssertionError, match="referenced twice"):
            g.check_invariants()

    def test_rejects_a_row_reference_past_the_rows(self):
        g, _ = _chained_node_5()
        g.insert_edge(6, 1)
        _set_row(g, 6, len(g._fill))
        with pytest.raises(AssertionError, match="past the last row"):
            g.check_invariants()

    def test_rejects_a_promoted_row_under_a_foreign_record(self):
        g, record = _chained_node_5()
        g.insert_edge(6, 1)
        record.row = _row(g, 6)
        with pytest.raises(AssertionError, match="promoted node 5|not its own"):
            g.check_invariants()

    def test_rejects_a_fill_count_over_the_inline_capacity(self):
        g, _ = _chained_node_5()
        g.insert_edge(6, 1)
        g._fill[_row(g, 6)] = g.params.inline_capacity + 1
        with pytest.raises(AssertionError, match="over the inline capacity"):
            g.check_invariants()

    def test_rejects_inline_slots_on_a_promoted_row(self):
        g, record = _chained_node_5()
        g._fill[record.row] = 1
        with pytest.raises(AssertionError, match="promoted node 5 keeps inline"):
            g.check_invariants()

    def test_rejects_a_live_row_on_the_free_list(self):
        g, _ = _chained_node_5()
        g.insert_edge(6, 1)
        g._free.append(_row(g, 6))
        with pytest.raises(AssertionError, match="free row .* referenced by node 6"):
            g.check_invariants()

    def test_rejects_a_freed_row_left_off_the_free_list(self):
        g, _ = _chained_node_5()
        g.insert_edge(6, 1)
        g.delete_edge(6, 1)
        assert len(g._free) == 1
        g.check_invariants()
        g._free.pop()
        with pytest.raises(AssertionError, match="neither live nor free"):
            g.check_invariants()

    @pytest.mark.parametrize("counter, bound", [
        ("_max_q_node_probes", 2 * MAX_TABLES),
        ("_max_q_adj_probes", 2 * MAX_TABLES),
        ("_max_q_dl_scans", 2),
    ])
    def test_rejects_query_maxima_over_their_bounds(self, counter, bound):
        g, _ = _chained_node_5()
        g.query_edge(5, 7)
        g.query_edge(5, 10**6)
        setattr(g, counter, bound)
        g.check_invariants()
        setattr(g, counter, bound + 1)
        with pytest.raises(AssertionError, match="a query"):
            g.check_invariants()

    @pytest.mark.parametrize("breach, message", [
        ("row cells", "a row array is not 4-byte"),
        ("inline cells", "inline slots off the level's width"),
        ("table cells", "adjacency cells off the level's width"),
        ("spilled id", "exceeds the level's width"),
    ])
    def test_rejects_cells_off_the_level_width(self, breach, message):
        g, record = _chained_node_5(weighted=True)
        g.check_invariants()
        if breach == "row cells":
            t = g._node_chain.tables[0]
            t.vals = array(WIDE, t.vals)
        elif breach == "inline cells":
            g.insert_edge(6, 1)
            g._slots = array(WIDE, g._slots)
        elif breach == "table cells":
            t = record.chain.tables[0]
            t.vals = array(WIDE, t.vals)
        else:
            # an overflow list holds any int: a wide id there, counted as
            # insert_edge counts one, while the cells stay narrow
            record.chain.count += 1
            g._edges += 1
            record.chain.spill((1 << 32, 1))
        with pytest.raises(AssertionError, match=message):
            g.check_invariants()


def _row(g, u):
    """u's row id, read through the store's node lookup."""
    slot = g._node_chain.find(u, *g._node_hash.pair(u))
    return slot[2][slot[3]]


def _set_row(g, u, row):
    """Point u's node-table cell at another row, bypassing the store."""
    slot = g._node_chain.find(u, *g._node_hash.pair(u))
    slot[2][slot[3]] = row


_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def _reachable(root):
    """Every object reachable from root, program text left out."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _heap_bytes(objs):
    return sum(sys.getsizeof(o) for o in objs)


class TestLayout:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_zipf_graph_reaches_no_per_entry_objects(self, seed):
        g = CuckooGraph(GraphParams.from_seed(seed))
        # source ids above the interpreter's shared small ints, so that an
        # id held twice shows as a second int object
        for u, v in generate_synthetic("zipf", 2000, 10000, seed):
            g.insert_edge(u + (1 << 32), v)
        gc.collect()
        objs = _reachable(g)
        sources = g.stats().nodes
        # only promoted sources own an object, each in the record map
        records = [o for o in objs if type(o) is Promoted]
        assert records and len(records) == len(g._promoted) < sources
        assert all(r.chain is not None for r in records)
        # a record and its map key are the id object the node chain holds
        held = {id(u) for u in g.nodes()}
        assert all(u is r.node and id(u) in held for u, r in g._promoted.items())
        # no table entry and no inline destination is a tuple: the only
        # tuples are a few of the graph's own (seed pairs, factory arguments)
        tuples = [o for o in objs if type(o) is tuple]
        assert len(tuples) <= 8, tuples[:10]
        # adjacency tables keep ids in arrays: no int object and no list
        # per entry or per bucket, and no weights when unweighted
        for r in records:
            for t in r.chain.tables:
                assert type(t.keys) is array and t.vals is None
                assert not any(type(o) is list for o in gc.get_referents(t))
        # node tables keep rows unboxed: the ints are the source ids (in
        # key lists, each held once), the promoted records' rows, and the
        # graph's own (hash seeds, settings and counters)
        ints = sum(1 for o in objs if type(o) is int)
        assert ints <= sources + len(records) + 64
        for t in g._node_chain.tables:
            assert type(t.vals) is array and type(t.keys) is list
        # no entry owns a tracked object
        tracked = sum(1 for o in objs if gc.is_tracked(o))
        assert tracked / sources < 7.5
        assert _heap_bytes(objs) <= 2 * g.stats().bytes_total

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sparse_graph_reaches_no_per_source_object(self, weighted):
        # every out-degree at or just under the inline capacity, as on the
        # sparse-inline workload: no source is promoted, and the node tables
        # are loaded enough for the accounted bytes to be tight
        g = CuckooGraph(GraphParams.from_seed(3, weighted=weighted))
        cap = g.params.inline_capacity
        rnd = random.Random(3)
        dests = set()
        for u in range(10000):
            for v in rnd.sample(range(10**9, 2 * 10**9), rnd.randint(cap - 1, cap)):
                g.insert_edge(u * 7919, v)
                dests.add(v)
        gc.collect()
        objs = _reachable(g)
        sources = g.stats().nodes
        assert sources == 10000 and not g._promoted
        assert not any(type(o) is Promoted for o in objs)
        assert sum(1 for o in objs if type(o) is tuple) <= 8
        # the ints are the source ids and the graph's own (parameters and
        # level counters): no destination, weight or row id is an object
        ints = [o for o in objs if type(o) is int]
        assert len(ints) <= sources + 40
        assert not any(o in dests for o in ints)
        # tracked objects are the node tables' bucket lists and the graph's
        tracked = sum(1 for o in objs if gc.is_tracked(o))
        buckets = sum(len(t.keys) for t in g._node_chain.tables)
        assert tracked <= buckets + 64
        assert _heap_bytes(objs) <= 2 * g.stats().bytes_total


class TestDeletion:
    def test_contraction_after_mass_delete(self):
        g = CuckooGraph(GraphParams())
        for v in range(100):
            g.insert_edge(1, v)
        grown = g.adjacency_lengths(1)
        assert grown is not None and sum(grown) > g.params.adj_table_len
        for v in range(95):
            assert g.delete_edge(1, v).status == "deleted"
        assert g.successors(1) == set(range(95, 100))
        # five survivors fit back into the inline slots
        assert g.adjacency_lengths(1) is None
        g.check_invariants()

    def test_node_disappears_with_last_edge(self):
        g = CuckooGraph(GraphParams())
        g.insert_edge(1, 2)
        g.insert_edge(1, 3)
        g.delete_edge(1, 2)
        assert g.stats().nodes == 1
        g.delete_edge(1, 3)
        s = g.stats()
        assert s.nodes == 0 and s.edges == 0
        assert g.query_edge(1, 2) is False
        g.check_invariants()

    def test_delete_all_returns_to_floor(self):
        g = CuckooGraph(GraphParams(node_table_len=2))
        edges = [(u, v) for u in range(50) for v in range(u, u + 4)]
        for u, v in edges:
            g.insert_edge(u, v)
        for u, v in edges:
            g.delete_edge(u, v)
        s = g.stats()
        assert s.nodes == 0 and s.edges == 0
        assert g.node_chain_lengths() == (2,)
        assert s.adj_cells == 0
        g.check_invariants()

    def test_full_teardown_empties_the_row_columns(self):
        g = CuckooGraph(GraphParams.from_seed(1))
        edges = generate_synthetic("sparse", 20000, 100000, 1)
        for u, v in edges:
            g.insert_edge(u, v)
        assert len(g._fill) == g.stats().nodes > 0
        for u, v in edges:
            assert g.delete_edge(u, v).status == "deleted"
        # no row outlives the last source
        assert len(g._slots) == len(g._fill) == len(g._free) == 0
        g.check_invariants()
        for u, v in edges[:50]:
            g.insert_edge(u, v)
        assert all(g.query_edge(u, v) for u, v in edges[:50])
        assert len(g._fill) == g.stats().nodes
        g.check_invariants()

    @pytest.mark.parametrize("order", ["insertion", "reverse", "shuffled"])
    def test_contraction_never_leaves_chain_over_grow_threshold(self, order):
        g = CuckooGraph(GraphParams.from_seed(7))
        dests = list(range(1, 5001))
        for v in dests:
            g.insert_edge(0, v)
        if order == "reverse":
            dests.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(dests)
        lengths = g.adjacency_lengths(0)
        for v in dests:
            assert g.delete_edge(0, v).status == "deleted"
            now = g.adjacency_lengths(0)
            if now != lengths and now is not None:
                _, (load,) = g.chain_load_rates()
                assert load <= g.params.expand_at, (v, lengths, now, load)
            lengths = now
        assert g.stats().edges == 0
        g.check_invariants()


class TestWeighted:
    def test_repeat_inserts_count_up(self):
        g = CuckooGraph(GraphParams(weighted=True))
        assert g.insert_edge(1, 2) == ("inserted", 1)
        assert g.insert_edge(1, 2) == ("incremented", 2)
        assert g.insert_edge(1, 2) == ("incremented", 3)
        assert g.query_edge(1, 2) == 3
        assert g.stats().edges == 1

    def test_decrement_then_delete(self):
        g = CuckooGraph(GraphParams(weighted=True))
        g.insert_edge(1, 2)
        g.insert_edge(1, 2)
        assert g.delete_edge(1, 2) == ("decremented", 1)
        assert g.delete_edge(1, 2).status == "deleted"
        assert g.query_edge(1, 2) is None

    def test_weighted_successors(self):
        g = CuckooGraph(GraphParams(weighted=True))
        g.insert_edge(1, 2)
        g.insert_edge(1, 2)
        g.insert_edge(1, 3)
        assert g.successors(1) == {(2, 2), (3, 1)}

    def test_inline_capacity_halves(self):
        g = CuckooGraph(GraphParams(weighted=True))
        assert g.params.inline_capacity == 3
        for v in range(4):
            g.insert_edge(9, v)
        assert g.adjacency_lengths(9) is not None
        g.check_invariants()

    def test_every_location_counts_up_and_down(self):
        # one edge in the inline slots, one in an adjacency table, one in
        # the edge overflow list, and one under a node cell that sits in
        # the node overflow list
        g = CuckooGraph(tiny_params(weighted=True))
        ref = OracleGraph(weighted=True)

        def insert(u, v):
            assert tuple(g.insert_edge(u, v)) == ref.insert(u, v)

        hub = 0
        v = 0
        while g.stats().adj_dl_len == 0:
            v += 1
            insert(hub, v)
        # a few sources before the crowd, so one is left inline whichever
        # cells the crowd pushes out; crowd on while the hub's own cell is
        # among them
        sources = list(range(10_000, 10_004))
        for x in sources:
            insert(x, 1000 + x)
        u = 0
        while (g.stats().node_dl_len == 0
               or hub in g._node_chain.spill_k):
            u += 1
            insert(u, 1000 + u)
            sources.append(u)
        assert g.adjacency_lengths(hub) is not None
        spilled = sorted(g._promoted[hub].chain.spill_k)
        tabled = sorted(x for x, _ in g.successors(hub) if x not in spilled)
        crowded = g._node_chain.spill_k[0]
        plain = next(x for x in sources
                     if x != crowded and _location(g, x, 1000 + x) == "inline")
        cases = [("adj_dl", (hub, spilled[0])),
                 ("adj_table", (hub, tabled[0])),
                 ("inline", (plain, 1000 + plain)),
                 ("node_dl", (crowded, 1000 + crowded))]
        for where, (a, b) in cases:
            assert _location(g, a, b) == where
            assert tuple(g.insert_edge(a, b)) == ref.insert(a, b) == ("incremented", 2)
            assert g.query_edge(a, b) == ref.query(a, b) == 2
            assert tuple(g.delete_edge(a, b)) == ref.delete(a, b) == ("decremented", 1)
            assert g.query_edge(a, b) == ref.query(a, b) == 1
            assert tuple(g.delete_edge(a, b)) == ref.delete(a, b) == ("deleted", None)
            assert g.query_edge(a, b) is ref.query(a, b) is None
            g.check_invariants()
        assert set(g.iter_edges()) == ref.edge_set()

    def test_weights_stay_below_2_64(self):
        # one edge inline, one in an adjacency table; a weight or a sum
        # that reaches 2**64 is rejected and leaves the stored weight as is
        top = (1 << 64) - 1
        g = CuckooGraph(GraphParams(weighted=True))
        with pytest.raises(ValueError, match="2\\*\\*64"):
            g.insert_edge(1, 2, top + 1)
        assert g.stats().edges == 0
        for v in range(10):
            g.insert_edge(1, v)
        g.insert_edge(2, 0)
        for (u, v), where in (((2, 0), "inline"), ((1, 5), "adj_table")):
            assert _location(g, u, v) == where
            assert g.insert_edge(u, v, top - 2) == ("incremented", top - 1)
            with pytest.raises(ValueError, match="2\\*\\*64"):
                g.insert_edge(u, v, 2)
            assert g.query_edge(u, v) == top - 1
            assert g.insert_edge(u, v) == ("incremented", top)
            with pytest.raises(ValueError, match="2\\*\\*64"):
                g.insert_edge(u, v)
            assert g.query_edge(u, v) == top
            assert g.delete_edge(u, v) == ("decremented", top - 1)
        assert g.stats().edges == 11
        g.check_invariants()

    def test_unweighted_rejects_weights_of_2_64(self):
        g = CuckooGraph(GraphParams())
        with pytest.raises(ValueError, match="2\\*\\*64"):
            g.insert_edge(1, 2, 1 << 64)
        assert g.stats().edges == 0

    def test_agreement_with_unweighted_on_duplicate_free_input(self):
        rnd = random.Random(0)
        edges = {(rnd.randrange(30), rnd.randrange(30)) for _ in range(80)}
        gw = CuckooGraph(GraphParams(weighted=True))
        gu = CuckooGraph(GraphParams())
        for u, v in edges:
            gw.insert_edge(u, v)
            gu.insert_edge(u, v)
        for u in range(30):
            for v in range(30):
                assert (gw.query_edge(u, v) is not None) == gu.query_edge(u, v)


def _location(g, u, v):
    """Where edge u->v is stored: node_dl, inline, adj_dl or adj_table."""
    if u in g._node_chain.spill_k:
        assert g.stats().node_dl_len > 0
        return "node_dl"
    if g.adjacency_lengths(u) is None:
        return "inline"
    if v in g._promoted[u].chain.spill_k:
        assert g.stats().adj_dl_len > 0
        return "adj_dl"
    return "adj_table"


def _narrow_graph(weighted):
    """A store and its oracle, mid-run and still narrow: chains on upper
    schedule rows, both overflow lists non-empty and some rows inline."""
    g = CuckooGraph(tiny_params(weighted=weighted))
    ref = OracleGraph(weighted=weighted)
    rnd = random.Random(5)
    while not (g.adj_level.overflow and g.node_level.overflow and any(g._fill)
               and any(r.chain.step >= 2 for r in g._promoted.values())):
        u = rnd.randrange(4) if rnd.random() < 0.5 else rnd.randrange(4, 200)
        v, w = rnd.randrange(1000), rnd.randint(1, 3)
        assert tuple(g.insert_edge(u, v, w)) == ref.insert(u, v, w)
    assert g.adj_level.code == NARROW
    _check_widths(g, 4)
    return g, ref


def _check_widths(g, size):
    """Ids and weights in ``size``-byte cells, rows in 4-byte ones."""
    assert g._slots.itemsize == size
    for record in g._promoted.values():
        for t in record.chain.tables:
            assert t.keys.itemsize == size
            assert t.vals is None or t.vals.itemsize == size
    assert all(t.vals.itemsize == 4 for t in g._node_chain.tables)
    assert g._free.itemsize == 4


def _agrees(g, ref):
    """The store matches its oracle and passes the audit."""
    assert set(g.iter_edges()) == ref.edge_set()
    for u in ref.adj:
        assert g.successors(u) == ref.successors(u)
    g.check_invariants()


class TestWidening:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("where", ["inline", "adj_table", "new source"])
    def test_first_big_id(self, weighted, where):
        g, ref = _narrow_graph(weighted)
        if where == "new source":
            u = 10**6
        else:
            u = next(u for u in sorted(ref.adj)
                     if _location(g, u, next(iter(ref.adj[u]))) == where)
        assert tuple(g.insert_edge(u, 1 << 32)) == ref.insert(u, 1 << 32)
        assert g.adj_level.code == WIDE
        _check_widths(g, 8)
        _agrees(g, ref)

    def test_widening_moves_nothing(self):
        g, _ = _narrow_graph(True)
        before, edges = g.stats(), list(g.iter_edges())
        g._widen()
        _check_widths(g, 8)
        # no entry moved, and no counter or modelled byte changed
        assert list(g.iter_edges()) == edges
        assert g.stats() == before

    def test_big_source_ids_leave_the_cells_narrow(self):
        g, ref = _narrow_graph(True)
        for u in (1 << 32, (1 << 64) - 1):
            assert tuple(g.insert_edge(u, 3, 2)) == ref.insert(u, 3, 2)
        # a weight in an unweighted store is checked, never stored
        h, _ = _narrow_graph(False)
        h.insert_edge(1, 2, 1 << 40)
        for store in (g, h):
            assert store.adj_level.code == NARROW
            _check_widths(store, 4)
        _agrees(g, ref)

    def test_first_big_weight(self):
        g, ref = _narrow_graph(True)
        u = next(u for u in g._promoted if g._promoted[u].chain.spill_k)
        assert tuple(g.insert_edge(u, 5000, 1 << 33)) == \
            ref.insert(u, 5000, 1 << 33)
        assert g.query_edge(u, 5000) == 1 << 33
        _check_widths(g, 8)
        _agrees(g, ref)

    @pytest.mark.parametrize("where", ["inline", "adj_table", "adj_dl"])
    def test_increment_past_2_32(self, where):
        g, ref = _narrow_graph(True)
        u, v = next((u, v) for u in sorted(ref.adj) for v in sorted(ref.adj[u])
                    if _location(g, u, v) == where)
        w = ref.query(u, v)
        assert g.insert_edge(u, v, (1 << 32) - w - 1) == \
            ("incremented", (1 << 32) - 1)
        assert g.adj_level.code == NARROW
        ref.insert(u, v, (1 << 32) - w - 1)
        # the sum reaches 2**32: the store widens, then looks the edge up
        # again and writes the weight there
        assert tuple(g.insert_edge(u, v, 1)) == ref.insert(u, v, 1)
        assert g.query_edge(u, v) == 1 << 32
        _check_widths(g, 8)
        _agrees(g, ref)

    def test_widening_is_one_way(self):
        g, ref = _narrow_graph(True)
        assert tuple(g.insert_edge(0, 1 << 40)) == ref.insert(0, 1 << 40)
        for u, v, _ in sorted(ref.edges()):
            while ref.query(u, v):
                assert tuple(g.delete_edge(u, v)) == ref.delete(u, v)
        assert g.stats().edges == g.stats().nodes == 0
        _check_widths(g, 8)
        g.check_invariants()
        # a chain built after the wide values went is wide as well
        for v in range(40):
            g.insert_edge(7, v)
        assert g.adjacency_lengths(7) is not None
        _check_widths(g, 8)
        g.check_invariants()


class TestProbeAccounting:
    def test_deleting_a_nodes_last_edge_charges_only_the_lookup(self):
        g = CuckooGraph(GraphParams())
        for u in range(200):
            g.insert_edge(u, u + 1)

        def node_probes():
            return g.stats().counters["node"]["bucket_probes"]

        for u in range(200):
            before = node_probes()
            assert g.query_edge(u, u + 1) is True
            lookup = node_probes() - before
            assert lookup in (1, 2)
            before = node_probes()
            assert g.delete_edge(u, u + 1).status == "deleted"
            assert node_probes() - before == lookup
        assert g.stats().nodes == 0


class TestDeterminism:
    def test_same_seed_same_structure(self):
        snaps = []
        for _ in range(2):
            g = CuckooGraph(GraphParams.from_seed(7))
            rnd = random.Random(1)
            for _ in range(500):
                u, v = rnd.randrange(100), rnd.randrange(100)
                if rnd.random() < 0.7:
                    g.insert_edge(u, v)
                else:
                    g.delete_edge(u, v)
            snaps.append((sorted(g.iter_edges()), g.stats()))
        assert snaps[0] == snaps[1]

    # SHA-256 over stats().counters and the iter_edges() order, pinned
    # when adjacency tables moved from list buckets to flat arrays: a
    # storage change that moves any placement, probe or kick changes it
    PLACEMENT_DIGESTS = {
        (3, False): "dc4cdff07525c01524338b33320e40b2c7a565ad1803bbc8c112531022faae34",
        (3, True): "bec3b814b50f8a2f19962b942a0af892e04ef58345728627953de5ca767038ec",
        (11, False): "14d86061e9b755a2820216ad48dbfb8d9b19405a35e70a1a9feb2e7a941974db",
        (11, True): "3c0ec3e406681a3cc60a3102afc58e2f36caf76bcdab830489f86aa18a82c8ec",
    }

    @pytest.mark.parametrize("seed, weighted", sorted(PLACEMENT_DIGESTS))
    def test_placement_digest_is_pinned(self, seed, weighted):
        g = CuckooGraph(GraphParams.from_seed(seed, weighted=weighted))
        for u, v in generate_synthetic("zipf", 3000, 15000, seed):
            g.insert_edge(u, v)
        ops = {"i": g.insert_edge, "q": g.query_edge, "d": g.delete_edge}
        for op, u, v in mixed_ops(20_000, (0.4, 0.3, 0.3), 3000, seed):
            ops[op](u, v)
        h = hashlib.sha256(json.dumps(g.stats().counters,
                                      sort_keys=True).encode())
        for e in g.iter_edges():
            h.update(repr(e).encode())
        assert h.hexdigest() == self.PLACEMENT_DIGESTS[seed, weighted]

    # SHA-256 over (kind, lengths, moved, len(failed), rebuilt) of every
    # event a chain's grow or contraction returned, pinned while enabling,
    # merging, draining and rebuilding were still separate code paths
    EVENT_DIGESTS = {
        "zipf-3": "dc117a4dcea3f6310f6b5b83dbf9c8ddf8fb416dff331fd0ed971135175f3fb2",
        "zipf-11-weighted": "bfa1562375b8374f0de1d3be46a78a31f6d957e641a21d13e0481a153a8f7b71",
        "tiny": "8c97480b4b88a9d9870d9b9d1a5fadd1f7a98fa6b3a5e21d8a724b2fc7422259",
    }

    @pytest.mark.parametrize("case", sorted(EVENT_DIGESTS))
    def test_structural_event_stream_is_pinned(self, case, monkeypatch):
        events = []

        def recorded(method):
            def wrapper(chain, *args):
                event = method(chain, *args)
                if event is not None:
                    events.append((event.kind, event.lengths, event.moved,
                                   len(event.failed), event.rebuilt))
                return event
            return wrapper

        for name in ("advance", "contract"):
            monkeypatch.setattr(TableChain, name,
                                recorded(getattr(TableChain, name)))
        if case == "tiny":
            # one-cell buckets and two kicks: merges escalate here
            g = CuckooGraph(tiny_params())
            for u in range(40):
                for v in range(12):
                    g.insert_edge(u, v)
        else:
            seed = int(case.split("-")[1])
            g = CuckooGraph(GraphParams.from_seed(
                seed, weighted=case.endswith("weighted")))
            for u, v in generate_synthetic("zipf", 3000, 15000, seed):
                g.insert_edge(u, v)
            ops = {"i": g.insert_edge, "q": g.query_edge, "d": g.delete_edge}
            for op, u, v in mixed_ops(20_000, (0.4, 0.3, 0.3), 3000, seed):
                ops[op](u, v)
        for e in list(g.iter_edges()):
            for _ in range(e[2] if g.params.weighted else 1):
                g.delete_edge(e[0], e[1])
        assert g.stats().edges == 0
        g.check_invariants()
        kinds = {(kind, failed > 0, rebuilt)
                 for kind, _, _, failed, rebuilt in events}
        # a drain into the survivors, a rebuild, and a contraction that
        # left an entry homeless; only the tiny tables escalate a merge
        assert {("removed", False, False), ("removed", False, True),
                ("removed", True, True)} <= kinds
        assert (("merged", True, False) in kinds) == (case == "tiny")
        h = hashlib.sha256(repr(events).encode())
        assert h.hexdigest() == self.EVENT_DIGESTS[case]

    def test_export_is_sorted_edge_set(self, tmp_path):
        g = CuckooGraph(GraphParams())
        g.insert_edge(3, 4)
        g.insert_edge(1, 2)
        path = tmp_path / "edges.txt"
        g.export_edges(path)
        lines = path.read_text().splitlines()
        assert sorted(lines) == ["1 2", "3 4"]


class TestBulkMoves:
    """A structural move places its entries exactly as entry-by-entry
    ``CuckooTable.insert`` calls do, on twin tables with a twin ``Level``."""

    @staticmethod
    def _replay(keys, payloads, dests, quotas):
        """The entry-by-entry move: each entry goes to the first destination
        under its quota, a homeless one on to the next, then once more to
        each destination with a free cell."""
        pair = dests[0].level.hash.pair
        limits = list(zip(dests, quotas)) + [(t, t.cap) for t in dests]
        homeless_all = []
        for entry in zip(keys, payloads or [None] * len(keys)):
            homeless = entry
            for t, limit in limits:
                if t.count >= limit:
                    continue
                key = homeless[0]
                h1, h2 = pair(key)
                homeless = t.insert(key, h1, h2, homeless[1])
                if homeless is None:
                    break
            if homeless is not None:
                homeless_all.append(homeless)
        return homeless_all

    @pytest.mark.parametrize("weighted", [False, True])
    def test_moves_place_as_entry_by_entry_inserts(self, weighted,
                                                   monkeypatch):
        # one-cell buckets and two kicks: moves walk and leave entries
        # homeless, so escalations happen too
        transfer = TableChain._transfer
        walked, homeless_seen = Counter(), Counter()

        def checked(chain, keys, payloads, dests, quotas):
            twins = copy.deepcopy(dests)   # one twin Level, rng and hash
            twin_level, level = twins[0].level, chain.level
            evictions = level.evictions
            homeless = transfer(chain, keys, payloads, dests, quotas)
            assert homeless == self._replay(keys, payloads, twins, quotas)
            for t, twin in zip(dests, twins):
                assert (t.keys, t.fill, t.vals, t.count) == (
                    twin.keys, twin.fill, twin.vals, twin.count)
            assert level.snapshot() == twin_level.snapshot()
            assert level.rng.getstate() == twin_level.rng.getstate()
            walked[level.layout] += level.evictions > evictions
            homeless_seen[level.layout] += bool(homeless)
            return homeless

        monkeypatch.setattr(TableChain, "_transfer", checked)
        g = CuckooGraph(tiny_params(weighted=weighted))
        edges = generate_synthetic("zipf", 300, 3000, 1)
        for u, v in edges:
            g.insert_edge(u, v)
        for u, v in edges:
            g.delete_edge(u, v)
        assert g.stats().edges == 0
        g.check_invariants()
        layouts = {ROWS, WEIGHTS if weighted else KEYS}
        assert set(walked) == layouts and all(walked.values())
        assert set(+homeless_seen) == layouts


# -- differential against the oracle ------------------------------------------

ops_strategy = st.lists(
    st.tuples(st.sampled_from("iiiqd"),
              st.integers(0, 12), st.integers(0, 12)),
    max_size=120)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_differential_tiny_unweighted(ops):
    g = CuckooGraph(tiny_params())
    ref = OracleGraph()
    for op, u, v in ops:
        if op == "i":
            assert g.insert_edge(u, v).status == ref.insert(u, v)[0]
        elif op == "q":
            assert g.query_edge(u, v) == ref.query(u, v)
        else:
            assert g.delete_edge(u, v).status == ref.delete(u, v)[0]
    assert set(g.iter_edges()) == ref.edge_set()
    g.check_invariants()


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_differential_tiny_weighted(ops):
    g = CuckooGraph(tiny_params(weighted=True))
    ref = OracleGraph(weighted=True)
    for op, u, v in ops:
        if op == "i":
            assert tuple(g.insert_edge(u, v)) == ref.insert(u, v)
        elif op == "q":
            assert g.query_edge(u, v) == ref.query(u, v)
        else:
            assert tuple(g.delete_edge(u, v)) == ref.delete(u, v)
    assert set(g.iter_edges()) == ref.edge_set()
    g.check_invariants()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_differential_default_params_random_run(seed):
    rnd = random.Random(seed)
    g = CuckooGraph(GraphParams(node_table_len=2))
    ref = OracleGraph()
    for _ in range(300):
        u, v = rnd.randrange(40), rnd.randrange(40)
        r = rnd.random()
        if r < 0.6:
            g.insert_edge(u, v)
            ref.insert(u, v)
        elif r < 0.9:
            assert g.query_edge(u, v) == ref.query(u, v)
        else:
            assert g.delete_edge(u, v).status == ref.delete(u, v)[0]
    assert set(g.iter_edges()) == ref.edge_set()
    g.check_invariants()


@st.composite
def valid_params(draw):
    """Any valid ``GraphParams``: 1 to 255 cells per bucket, ``expand_at``
    in [0.05, 1) with ``contract_at`` from 1% to 100% of 2/3 of it, base lengths
    2 to 64, kick budgets 1 to 300, overflow caps 1 to 80, either mode.

    ``expand_at`` stops at 0.05: below about ``1 / cap`` of a fresh table
    every second insert grows a chain, so a tiny one builds huge tables.
    """
    expand_at = draw(st.floats(0.05, 1.0, exclude_max=True))
    share = draw(st.floats(0.01, 1.0))
    return GraphParams(
        cells_per_bucket=draw(st.integers(1, 255)),
        expand_at=expand_at,
        contract_at=share * 2 * expand_at / 3,
        kick_budget=draw(st.integers(1, 300)),
        node_table_len=2 ** draw(st.integers(1, 6)),
        adj_table_len=2 ** draw(st.integers(1, 6)),
        denylist_cap=draw(st.integers(1, 80)),
        weighted=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=valid_params(), burst=st.integers(0, 1500),
       churn=st.integers(0, 400), stream=st.integers(0, 2**32),
       wide=st.none() | st.integers(0, 1900))
def test_differential_over_the_parameter_space(params, burst, churn, stream,
                                               wide):
    # one source takes a burst of destinations, so its chain climbs the
    # schedule (and spills, at small buckets and kick budgets); a churn of
    # inserts, queries and deletes over a few sources follows; then every
    # edge goes in random order, so chains contract back to the floor.
    # Unless ``wide`` is None, one insert at that place in the stream
    # brings a destination of 2**32 or more, which widens the store's cells
    rnd = random.Random(stream)
    ops = [("i", 0, v, 1) for v in rnd.sample(range(1 << 20), burst)]
    for _ in range(churn):
        r = rnd.random()
        op = "i" if r < 0.6 else ("q" if r < 0.75 else "d")
        ops.append((op, rnd.randrange(6), rnd.randrange(64),
                    rnd.randint(1, 3)))
    if wide is not None:
        ops.insert(wide, ("i", wide % 6, (1 << 32) + wide, 1))
    g = CuckooGraph(params)
    ref = OracleGraph(weighted=params.weighted)
    for op, u, v, w in ops:
        if op == "i":
            assert tuple(g.insert_edge(u, v, w)) == ref.insert(u, v, w)
        elif op == "q":
            assert g.query_edge(u, v) == ref.query(u, v)
        else:
            assert tuple(g.delete_edge(u, v)) == ref.delete(u, v)
    assert set(g.iter_edges()) == ref.edge_set()
    g.check_invariants()
    edges = sorted(ref.edges())
    rnd.shuffle(edges)
    for u, v, *_ in edges:
        while ref.query(u, v):
            assert tuple(g.delete_edge(u, v)) == ref.delete(u, v)
    assert g.stats().edges == 0
    g.check_invariants()


class GraphMachine(RuleBasedStateMachine):
    """Operation streams on tiny tables, checked against the oracle after
    every step. Bursts on one source promote it to a chain and push rows
    into the edge overflow list; draining it demotes it again, and many
    sources crowd the node tables into the node overflow list."""

    weighted = False
    sources = st.integers(0, 40)
    dests = st.integers(0, 40)

    def __init__(self):
        super().__init__()
        self.g = CuckooGraph(tiny_params(weighted=self.weighted))
        self.ref = OracleGraph(weighted=self.weighted)
        self.touched = set()

    def _insert(self, u, v, w=1):
        assert tuple(self.g.insert_edge(u, v, w)) == self.ref.insert(u, v, w)
        self.touched.add(u)

    def _delete(self, u, v):
        assert tuple(self.g.delete_edge(u, v)) == self.ref.delete(u, v)
        self.touched.add(u)

    @rule(u=sources, v=dests, w=st.integers(1, 3))
    def insert(self, u, v, w):
        self._insert(u, v, w)   # an unweighted store ignores w

    @rule(u=st.integers(0, 3), v=dests)
    def insert_wide(self, u, v):
        # a destination of 2**32 or more widens every id and weight array,
        # amid whatever chains and overflow lists the run has built
        self._insert(u, (1 << 32) + v)

    @rule(u=sources, v=dests)
    def delete(self, u, v):
        self._delete(u, v)

    @precondition(lambda self: self.ref.adj)
    @rule(data=st.data())
    def delete_stored(self, data):
        u, v, *_ = data.draw(st.sampled_from(sorted(self.ref.edges())))
        self._delete(u, v)

    @rule(u=st.integers(0, 3), first=dests, n=st.integers(8, 40))
    def burst(self, u, first, n):
        for v in range(first, first + n):
            self._insert(u, v)

    @rule(u=st.integers(0, 3), keep=st.integers(0, 2))
    def drain(self, u, keep):
        for v in sorted(self.ref.adj.get(u, ()))[keep:]:
            while self.ref.query(u, v):
                self._delete(u, v)

    @rule(u=sources, v=dests)
    def query(self, u, v):
        assert self.g.query_edge(u, v) == self.ref.query(u, v)

    @rule(u=sources)
    def successors(self, u):
        assert self.g.successors(u) == self.ref.successors(u)

    @invariant()
    def agrees_with_oracle(self):
        g, ref = self.g, self.ref
        for u in self.touched:
            assert g.successors(u) == ref.successors(u), u
        assert set(g.iter_edges()) == ref.edge_set()
        assert analytics.adjacency_view(g) == oracle._plain_adj(ref)
        assert analytics.total_degrees(g) == oracle.total_degrees(ref)
        g.check_invariants()


class WeightedGraphMachine(GraphMachine):
    weighted = True


_machine_settings = settings(max_examples=60, stateful_step_count=40,
                             deadline=None)
TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = _machine_settings
TestWeightedGraphMachine = WeightedGraphMachine.TestCase
TestWeightedGraphMachine.settings = _machine_settings


def test_thousand_destinations_match_oracle():
    g = CuckooGraph(GraphParams())
    ref = OracleGraph()
    rnd = random.Random(3)
    for _ in range(1000):
        v = rnd.randrange(3000)
        g.insert_edge(77, v)
        ref.insert(77, v)
    assert g.successors(77) == ref.successors(77)
    assert g.stats().edges == ref.edge_count


def _strided_sources(k):
    return [(i << k, j) for i in range(30_000) for j in range(3)]


def _strided_destinations(k):
    return [(u, j << k) for u in range(200) for j in range(200)]


def _grid_sources(s):
    return [((i << s) + j, 0) for i in range(200) for j in range(200)]


def _grid_destinations(s):
    return [(u, (i << s) + j) for u in range(10)
            for i in range(60) for j in range(60)]


STRUCTURED_KEYS = {
    **{f"strided-sources-2^{k}": partial(_strided_sources, k)
       for k in (16, 40, 48)},
    **{f"strided-destinations-2^{k}": partial(_strided_destinations, k)
       for k in (16, 40, 48)},
    **{f"grid-sources-{s}": partial(_grid_sources, s) for s in (8, 16, 32, 40)},
    **{f"grid-destinations-{s}": partial(_grid_destinations, s)
       for s in (8, 16, 32, 40)},
    "zipf": partial(generate_synthetic, "zipf", 20_000, 100_000, 1),
}


def _assert_placements_bounded(g, min_events):
    c = g.stats().counters
    for level in ("node", "adj"):
        events = c[level]["insert_events"]
        if events >= min_events:
            ratio = c[level]["placements"] / events
            assert ratio <= 1.2, f"{level}: {ratio:.3f} placements per insert event"
    cap = g.params.denylist_cap
    assert c["ldl_peak"] < cap, f"node overflow peak {c['ldl_peak']}"
    assert c["sdl_peak"] < cap, f"edge overflow peak {c['sdl_peak']}"


class TestBounds:
    @pytest.mark.parametrize("keys", STRUCTURED_KEYS)
    def test_structured_keys_keep_placements_bounded(self, keys):
        # the hash gate: strided ids and 2-D grids are where linear hash
        # families crowd a few buckets. The bound is checked while
        # inserting, so a bad hash stops at its first breach instead of
        # growing the chains until memory runs out.
        g = CuckooGraph(GraphParams.from_seed(5))
        for n, (u, v) in enumerate(STRUCTURED_KEYS[keys](), start=1):
            g.insert_edge(u, v)
            if n % 500 == 0:
                _assert_placements_bounded(g, min_events=1000)
        _assert_placements_bounded(g, min_events=1)
        g.check_invariants()

    @pytest.mark.parametrize("seed", range(3))
    def test_skewed_inserts_keep_adjacency_placements_bounded(self, seed):
        # zipf out-degrees push many adjacency chains through their merges
        g = CuckooGraph(GraphParams.from_seed(seed))
        for u, v in generate_synthetic("zipf", 2000, 10000, seed):
            g.insert_edge(u, v)
        adj = g.stats().counters["adj"]
        assert adj["placements"] / adj["insert_events"] <= 1.2
        assert adj["move_failures"] == 0
        g.check_invariants()

    def test_failed_structural_moves_are_counted(self):
        # one-cell buckets and two kicks: structural moves do fail here
        g = CuckooGraph(tiny_params())
        for u in range(40):
            for v in range(12):
                g.insert_edge(u, v)
        c = g.stats().counters
        assert c["node"]["move_failures"] + c["adj"]["move_failures"] > 0
        g.check_invariants()

    def test_kick_walks_are_counted_by_length(self):
        g = CuckooGraph(tiny_params(kick_budget=5))
        for e in generate_synthetic("zipf", 200, 1000, 1):
            g.insert_edge(*e)
        for level in ("node", "adj"):
            c = g.stats().counters[level]
            walks = (c["kicks_1"] + c["kicks_2_3"] + c["kicks_4_15"]
                     + c["kicks_16_up"] + c["kicks_exhausted"])
            assert 0 < walks <= c["insert_events"]
            assert c["kicks_16_up"] == 0   # no walk outlives a 5-kick budget
            assert c["evictions"] >= (c["kicks_1"] + 2 * c["kicks_2_3"]
                                      + 4 * c["kicks_4_15"]
                                      + 5 * c["kicks_exhausted"])

    def test_query_probe_bound(self):
        g = CuckooGraph(GraphParams(node_table_len=2, adj_table_len=2))
        rnd = random.Random(9)
        for _ in range(3000):
            g.insert_edge(rnd.randrange(300), rnd.randrange(300))
        for _ in range(3000):
            g.query_edge(rnd.randrange(400), rnd.randrange(400))
        c = g.stats().counters
        assert c["max_query_probes_node"] <= 6
        assert c["max_query_probes_adj"] <= 6
        assert c["max_query_dl_scans"] <= 2

    def test_movement_bound_insert_only(self):
        g = CuckooGraph(GraphParams(node_table_len=2, adj_table_len=2))
        rnd = random.Random(11)
        n = 3000
        for _ in range(n):
            g.insert_edge(rnd.randrange(200), rnd.randrange(200))
        c = g.stats().counters
        assert c["movements"] <= 3 * n
        assert c["sdl_peak"] < g.params.denylist_cap
        assert c["ldl_peak"] < g.params.denylist_cap

    def test_cells_per_bucket_fits_the_fill_byte(self):
        # a bucket has at least one cell, and a flat one counts its filled
        # cells in one byte
        for d in (0, 256):
            with pytest.raises(ValueError, match="cells_per_bucket"):
                GraphParams(cells_per_bucket=d)
        g = CuckooGraph(GraphParams(cells_per_bucket=255))
        for v in range(600):
            g.insert_edge(1, v)
        assert g.successors(1) == set(range(600))
        g.check_invariants()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GraphParams(contract_at=0.7)   # must stay <= (2/3) * expand_at
        with pytest.raises(ValueError):
            GraphParams(node_table_len=3)
        with pytest.raises(ValueError):
            GraphParams(kick_budget=0)
        with pytest.raises(ValueError, match="denylist_cap"):
            GraphParams(denylist_cap=0)

    def test_expand_at_has_a_floor(self):
        # below it a chain grows at every insert: 1e-6 took 60 edges into
        # one source to 25,165,824 cells
        with pytest.raises(ValueError, match="expand_at"):
            GraphParams(expand_at=1e-6, contract_at=1e-7)
        params = GraphParams(expand_at=0.05, contract_at=0.03,
                             cells_per_bucket=1)
        g = CuckooGraph(params)
        for v in range(60):
            g.insert_edge(0, v)
        assert sum(g.adjacency_lengths(0)) <= 1024
        g.check_invariants()
