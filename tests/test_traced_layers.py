"""The benchmark's tracer wraps program functions by name and reads some
of their fields: a rename must fail here instead of silently dropping a
layer, or a field, from the traced split."""

import collections
import importlib.util
import random
from pathlib import Path

from cuckoograph import CuckooGraph, GraphParams, analytics, cuckoo_table, workload
from cuckoograph.chain import ChainEvent, TableChain
from cuckoograph.graph import Promoted

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets(CuckooGraph)


def _graph_with_a_chained_node():
    """Node 5 promoted: its record is what _promote and _maybe_demote get."""
    g = CuckooGraph(GraphParams())
    for v in range(40):
        g.insert_edge(5, v)
    record = g._promoted[5]
    assert record.chain is not None
    return g, record


def test_every_traced_attribute_exists_but_the_retired_flush():
    # the pending queues and their flush were deleted with the fail sinks
    missing = {attr for _, owner, attr, *_ in load_targets()
               if getattr(owner, attr, None) is None}
    assert missing == {"_flush_pending"}


def test_every_table_of_both_levels_runs_the_traced_insert():
    # the tracer wraps CuckooTable.insert; a table class of its own for
    # one level would drop that level's inserts from the traced split
    g, record = _graph_with_a_chained_node()
    tables = g._node_chain.tables + record.chain.tables
    assert {type(t).insert for t in tables} == {cuckoo_table.CuckooTable.insert}


def test_the_fields_the_tracer_reads_exist():
    g, record = _graph_with_a_chained_node()
    assert record.node == 5 and isinstance(record.chain, TableChain)
    # the record holds nothing the tracer does not read
    assert Promoted.__slots__ == ("node", "chain")
    chain = record.chain
    assert chain.owner == 5 and g._node_chain.owner is None
    assert chain.lengths() == tuple(t.len_major for t in chain.tables)
    event = chain.advance()
    assert isinstance(event, ChainEvent)
    assert event.kind in ("enabled", "merged")
    assert isinstance(event.moved, int) and isinstance(event.rebuilt, bool)
    assert len(event.failed) >= 0


def _counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_traced_layer_runs_on_a_small_workload(tmp_path, monkeypatch):
    # a name can exist and never be called once its work moved elsewhere,
    # which leaves its layer empty in every traced run
    calls = collections.Counter()
    for _, owner, attr, *_ in load_targets():
        fn = getattr(owner, attr, None)
        if fn is not None:
            monkeypatch.setattr(owner, attr, _counting(calls, (owner, attr), fn))
    path = tmp_path / "g.txt"
    workload.generate_synthetic("zipf", 300, 3000, 1, path=path)
    edges = workload.read_edge_file(path)
    # small tables, one cell per bucket and short walks: every structural
    # move and both overflow lists happen within a few thousand edges
    g = CuckooGraph(GraphParams.from_seed(
        1, cells_per_bucket=1, node_table_len=2, adj_table_len=2,
        kick_budget=2, denylist_cap=16))
    for u, v in edges:
        g.insert_edge(u, v)
    for u, v in edges[:100]:
        assert g.query_edge(u, v) is True
    for task in ("bfs", "pr"):
        analytics.run_task(g, analytics.TaskSpec(task, top_k=5))
    random.Random(1).shuffle(edges)
    for u, v in edges:
        g.delete_edge(u, v)
    assert g.stats().edges == 0
    uncalled = {attr for _, owner, attr, *_ in load_targets()
                if calls[owner, attr] == 0}
    assert uncalled == {"_flush_pending"}
