import itertools
import math
import random

import pytest

from cuckoograph import CuckooGraph, GraphParams, analytics, oracle
from cuckoograph.analytics import TaskSpec
from cuckoograph.hashing import HashPair
from cuckoograph.oracle import OracleGraph


# one cell per bucket and one kick: with random_edges, some sources stay
# in the node chain's overflow list after the build
SPILLED = dict(cells_per_bucket=1, kick_budget=1, denylist_cap=16)


def build_pair(edges, weighted=False, **params):
    g = CuckooGraph(GraphParams(weighted=weighted, node_table_len=2, **params))
    ref = OracleGraph(weighted=weighted)
    for e in edges:
        g.insert_edge(*e)
        ref.insert(*e)
    return g, ref


def random_edges(seed, nodes=60, count=180):
    rnd = random.Random(seed)
    return {(rnd.randrange(nodes), rnd.randrange(nodes)) for _ in range(count)}


def weighted_edges(seed):
    rnd = random.Random(seed)
    return [(u, v, rnd.randrange(1, 9)) for u, v in sorted(random_edges(seed))]


def count_reads(g, monkeypatch):
    """Count g's successors and successor_lists calls, the successors calls
    that asked for ids, and all key hashing, by key; log every source read."""
    calls = {"successors": 0, "successor_lists": 0, "ids": 0, "pair": 0}
    read = []
    successors, successor_lists = g.successors, g.successor_lists
    dests, pair, pairs = g._dests, HashPair.pair, HashPair.pairs

    def counted_successors(u, ids=False):
        calls["successors"] += 1
        calls["ids"] += bool(ids)
        return successors(u, ids)

    def counted_successor_lists(nodes):
        calls["successor_lists"] += 1
        return successor_lists(nodes)

    def counted_pair(self, key):
        calls["pair"] += 1
        return pair(self, key)

    def counted_pairs(self, keys):
        calls["pair"] += len(keys)
        return pairs(self, keys)

    def logged_dests(u, row, ids=False):
        read.append(u)
        return dests(u, row, ids)

    g.successors = counted_successors
    g.successor_lists = counted_successor_lists
    g._dests = logged_dests
    monkeypatch.setattr(HashPair, "pair", counted_pair)
    monkeypatch.setattr(HashPair, "pairs", counted_pairs)
    return calls, read


THREE_CYCLE = [(1, 2), (2, 3), (3, 1)]
PATH = [(1, 2), (2, 3)]
STAR = [(0, i) for i in range(1, 7)]
DAG = [(1, 2), (1, 3), (2, 4), (3, 4)]


class TestSelection:
    def test_star_center_first(self):
        g, _ = build_pair(STAR)
        assert analytics.select_top_degree(g, 1) == [0]

    def test_equal_degrees_take_smallest_ids(self):
        g, _ = build_pair([(10, 20), (30, 40)])
        assert analytics.select_top_degree(g, 2) == [10, 20]

    def test_matches_oracle_ranking(self):
        edges = random_edges(1)
        g, ref = build_pair(edges)
        assert analytics.select_top_degree(g, 15) == oracle.top_degree(ref, 15)

    def test_ranks_from_bulk_reads_alone(self, monkeypatch):
        # the hub's destinations sit in a chain, the others' inline; the
        # ranking hashes no key, looks up no node and builds no
        # per-source destination list
        g, ref = build_pair(random_edges(3) | {(0, v) for v in range(100, 140)})
        succ, read = count_reads(g, monkeypatch)
        assert analytics.select_top_degree(g, 5) == oracle.top_degree(ref, 5)
        assert succ == {"successors": 0, "successor_lists": 0, "ids": 0,
                        "pair": 0}
        assert read == []

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_snapshot_reads_cells_without_lookups(self, weighted, monkeypatch):
        edges = random_edges(4) | {(0, v) for v in range(100, 140)}
        g, ref = build_pair(edges, weighted)
        succ, read = count_reads(g, monkeypatch)
        adj = analytics.adjacency_view(g)
        assert succ == {"successors": 0, "successor_lists": 0, "ids": 0,
                        "pair": 0}
        assert sorted(read) == sorted(g.nodes())
        want = {u: set() for e in edges for u in e[:2]}
        for u, v in edges:
            want[u].add(v)
        assert adj == want

    def test_tie_at_the_kth_degree_takes_the_smaller_id(self):
        # degrees 7: 3, 30: 2, 20: 2, 10: 1; 30 was inserted first
        g, ref = build_pair([(7, 30), (30, 20), (7, 20), (7, 10)])
        assert analytics.select_top_degree(g, 2) == [7, 20]
        assert analytics.select_top_degree(g, 3) == [7, 20, 30]
        assert analytics.select_top_degree(g, 2) == oracle.top_degree(ref, 2)

    def test_oversized_k_rejected(self):
        g, _ = build_pair(PATH)
        assert analytics.select_top_degree(g, 3) == [2, 1, 3]
        for k in (4, 99):
            with pytest.raises(ValueError):
                analytics.select_top_degree(g, k)

    def test_empty_graph_has_no_top_node(self):
        g, _ = build_pair([])
        with pytest.raises(ValueError):
            analytics.select_top_degree(g, 1)


class TestSubgraph:
    def test_all_nodes_identity(self):
        edges = random_edges(2)
        g, _ = build_pair(edges)
        nodes = set()
        for u, v in edges:
            nodes |= {u, v}
        sub = analytics.extract_subgraph(g, nodes)
        assert set(sub.iter_edges()) == edges

    def test_disconnected_selection_is_empty(self):
        g, _ = build_pair(PATH)
        sub = analytics.extract_subgraph(g, {1, 3})
        assert set(sub.iter_edges()) == set()

    def test_matches_oracle_filter(self):
        edges = random_edges(3)
        g, ref = build_pair(edges)
        keep = set(range(0, 40))
        sub = analytics.extract_subgraph(g, keep)
        assert set(sub.iter_edges()) == oracle.subgraph(ref, keep).edge_set()

    def test_reads_only_the_kept_stored_sources(self, monkeypatch):
        # the hub 0 keeps its destinations in a chain, 1 and 2 inline;
        # 100 and 101 are sinks and 999 is in no edge
        g, _ = build_pair(random_edges(3) | {(0, v) for v in range(100, 140)})
        keep = {0, 1, 2, 100, 101, 999}
        calls, read = count_reads(g, monkeypatch)
        sub = analytics.extract_subgraph(g, keep)
        assert calls["successors"] == len(keep)
        assert read == [0, 1, 2]   # each kept stored source, read once
        assert {(0, 100), (0, 101)} <= set(sub.iter_edges())


class TestTasks:
    def test_bfs_isolated_source(self):
        g, _ = build_pair([(5, 6)])
        assert analytics.bfs(g, 6) == [6]

    def test_bfs_chain(self):
        g, _ = build_pair(PATH)
        assert analytics.bfs(g, 1) == [1, 2, 3]

    def test_weighted_and_unweighted_bfs_agree(self, monkeypatch):
        # hub 0 keeps its destinations in a chain, the others inline
        edges = sorted(random_edges(5) | {(0, v) for v in range(100, 140)})
        plain, _ = build_pair(edges)
        weighted, _ = build_pair([(u, v, 1 + (u + v) % 5) for u, v in edges],
                                 weighted=True)
        sources = analytics.select_top_degree(plain, 5)
        assert sources == analytics.select_top_degree(weighted, 5)
        for u in sources:
            assert (weighted.successors(u, ids=True)
                    == {v for v, _ in weighted.successors(u)}
                    == plain.successors(u))
        calls, _ = count_reads(weighted, monkeypatch)
        for src in sources:
            assert analytics.bfs(weighted, src) == analytics.bfs(plain, src)
            assert (analytics.triangle_count(weighted, src)
                    == analytics.triangle_count(plain, src))
        # the weighted walk read ids only: no (v, w) successor set
        assert calls["successors"] > 0 and calls["successor_lists"] > 0
        assert calls["ids"] == calls["successors"]

    @pytest.mark.parametrize("params", [{}, SPILLED], ids=["tabled", "spilled"])
    def test_bfs_reads_each_visited_source_once(self, params, monkeypatch):
        # hub 0 keeps its destinations in a chain, the others inline
        g, _ = build_pair(random_edges(6) | {(0, v) for v in range(100, 140)},
                          **params)
        sources = set(g.nodes())
        calls, read = count_reads(g, monkeypatch)
        order = analytics.bfs(g, 0)
        # one batch per level, every visited node hashed once, and each
        # visited stored source read once, in visit order
        assert calls["successors"] == 0
        assert calls["successor_lists"] >= 2
        assert calls["pair"] == len(order)
        assert read == [u for u in order if u in sources]

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_bfs_counts_what_successors_counts(self, weighted):
        # twin graphs, one source spilled: a BFS charges the probes and
        # overflow hits of one successors call per visited node
        edges = weighted_edges(2) if weighted else random_edges(2)
        (g, _), (twin, _) = (build_pair(edges, weighted, **SPILLED)
                             for _ in range(2))
        assert g._node_chain.spill_k
        before = g.stats().counters
        src = analytics.select_top_degree(g, 1)[0]
        order = analytics.bfs(g, src)
        for u in order:
            twin.successors(u, ids=True)
        counters = g.stats().counters
        assert counters == twin.stats().counters
        assert counters["dl_hits"] > before["dl_hits"]

    def test_sssp_chain_and_unreachable(self):
        g, _ = build_pair(PATH)
        d = analytics.sssp_dijkstra(g, 1)
        assert d == {1: 0, 2: 1, 3: 2}
        assert 1 not in analytics.sssp_dijkstra(g, 3)

    def test_sssp_weighted(self):
        g, ref = build_pair([(1, 2, 4), (2, 3, 4), (1, 3, 9)], weighted=True)
        assert analytics.sssp_dijkstra(g, 1)[3] == 8
        assert analytics.sssp_dijkstra(g, 1) == oracle.sssp(ref, 1)

    def test_triangle_cycle_and_star(self):
        g, _ = build_pair(THREE_CYCLE)
        assert analytics.triangle_count(g, 1) == 1
        g2, _ = build_pair(STAR)
        assert analytics.triangle_count(g2, 0) == 0

    def test_triangle_path_variant(self):
        g, ref = build_pair([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
        # two mid nodes reach the closer 3: it counts once
        assert analytics.triangle_count(g, 0) == oracle.triangles(ref, 0) == 1

    def test_scc_fixtures(self):
        g, _ = build_pair(THREE_CYCLE)
        assert analytics.scc_tarjan(g) == [[1, 2, 3]]
        g2, _ = build_pair(DAG)
        assert analytics.scc_tarjan(g2) == [[1], [2], [3], [4]]

    def test_scc_on_a_path_deeper_than_the_recursion_limit(self):
        # the oracle stops at 2,000 nodes, so the structure is checked
        # directly: the back edge closes the path's second half
        g = CuckooGraph(GraphParams())
        for u in range(50_000):
            g.insert_edge(u, u + 1)
        g.insert_edge(50_000, 25_000)
        comps = analytics.scc_tarjan(g)
        assert len(comps) == 25_001
        assert comps[:-1] == [[u] for u in range(25_000)]
        assert comps[-1] == list(range(25_000, 50_001))

    def test_pagerank_cycle_symmetry(self):
        g, _ = build_pair(THREE_CYCLE)
        for score in analytics.pagerank(g).values():
            assert math.isclose(score, 1 / 3, abs_tol=1e-12)

    def test_pagerank_two_cycles(self):
        g, _ = build_pair([(1, 2), (2, 1), (3, 4), (4, 3)])
        for score in analytics.pagerank(g).values():
            assert math.isclose(score, 1 / 4, abs_tol=1e-12)

    def test_pagerank_of_an_empty_graph(self):
        g, ref = build_pair([])
        assert analytics.pagerank(g) == oracle.pagerank(ref) == {}

    def test_betweenness_path(self):
        g, _ = build_pair(PATH)
        assert analytics.betweenness_brandes(g) == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_betweenness_two_nodes(self):
        g, _ = build_pair([(1, 2)])
        assert analytics.betweenness_brandes(g) == {1: 0.0, 2: 0.0}

    def test_lcc_mutual_neighbours(self):
        g, _ = build_pair([(0, 1), (0, 2), (1, 2), (2, 1)])
        assert analytics.lcc(g)[0] == 1.0

    def test_lcc_star(self):
        g, _ = build_pair(STAR)
        assert analytics.lcc(g)[0] == 0.0


@pytest.mark.parametrize("seed", range(5))
class TestDifferential:
    def test_bfs(self, seed):
        # plain and weighted, with and without sources in the node
        # chain's overflow list
        for weighted, params in itertools.product((False, True), ({}, SPILLED)):
            edges = weighted_edges(seed) if weighted else random_edges(seed)
            g, ref = build_pair(edges, weighted, **params)
            if params:
                assert g._node_chain.spill_k
            for src in analytics.select_top_degree(g, 5):
                assert analytics.bfs(g, src) == oracle.bfs(ref, src)

    def test_bfs_from_a_source_that_is_no_stored_node(self, seed):
        # a sink, an absent id and ids outside [0, 2**64) visit themselves
        g, ref = build_pair(random_edges(seed) | {(0, 500)})
        for src in (500, 10**6, -1, 1 << 64, 1 << 70):
            assert analytics.bfs(g, src) == oracle.bfs(ref, src) == [src]

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_top_degree(self, seed, weighted):
        edges = weighted_edges(seed) if weighted else random_edges(seed)
        g, ref = build_pair(edges, weighted)
        for k in (1, 5, 20):
            assert analytics.select_top_degree(g, k) == oracle.top_degree(ref, k)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_subgraph(self, seed, weighted):
        edges = weighted_edges(seed) if weighted else random_edges(seed)
        g, ref = build_pair(edges, weighted)
        top = analytics.select_top_degree(g, 20)
        sub = analytics.extract_subgraph(g, top)
        want = oracle.subgraph(ref, top).edge_set()
        assert set(sub.iter_edges()) == want
        assert sub.params.weighted == weighted
        sub.check_invariants()

    def test_sssp(self, seed):
        g, ref = build_pair(random_edges(seed))
        for src in analytics.select_top_degree(g, 5):
            assert analytics.sssp_dijkstra(g, src) == oracle.sssp(ref, src)

    def test_triangles(self, seed):
        g, ref = build_pair(random_edges(seed))
        for node in analytics.select_top_degree(g, 10):
            assert analytics.triangle_count(g, node) == oracle.triangles(ref, node)

    def test_scc(self, seed):
        g, ref = build_pair(random_edges(seed))
        assert analytics.scc_tarjan(g) == oracle.scc_kosaraju(ref)

    def test_pagerank(self, seed):
        g, ref = build_pair(random_edges(seed))
        mine = analytics.pagerank(g)
        theirs = oracle.pagerank(ref)
        assert mine.keys() == theirs.keys()
        for node in mine:
            assert abs(mine[node] - theirs[node]) <= 1e-9

    def test_betweenness(self, seed):
        g, ref = build_pair(random_edges(seed))
        mine = analytics.betweenness_brandes(g)
        theirs = oracle.betweenness(ref)
        assert mine.keys() == theirs.keys()
        for node in mine:
            assert abs(mine[node] - theirs[node]) <= 1e-9

    def test_lcc(self, seed):
        g, ref = build_pair(random_edges(seed))
        mine = analytics.lcc(g)
        theirs = oracle.lcc(ref)
        assert mine.keys() == theirs.keys()
        for node in mine:
            assert abs(mine[node] - theirs[node]) <= 1e-12


class TestReadOnly:
    def test_tasks_leave_structure_unchanged(self):
        import dataclasses
        g, _ = build_pair(random_edges(7, nodes=30, count=90))
        strip = lambda s: dataclasses.replace(s, counters={})
        before = strip(g.stats())
        for task in analytics.TASKS:
            analytics.run_task(g, TaskSpec(task, top_k=8))
        assert strip(g.stats()) == before

    def test_run_task_bfs_digest_fields(self):
        g, _ = build_pair(THREE_CYCLE)
        out = analytics.run_task(g, TaskSpec("bfs", top_k=2))
        assert out["visited"] == {1: 3, 2: 3}

    def test_taskspec_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("nope")
        with pytest.raises(ValueError):
            TaskSpec("bfs", top_k=0)
