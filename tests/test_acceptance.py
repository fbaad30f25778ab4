"""Acceptance suite: every criterion as one timed test.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the stdout lines are captured otherwise).
"""

import random
import time
from contextlib import contextmanager

from cuckoograph import CuckooGraph, GraphParams, OracleGraph, analytics, oracle
from cuckoograph.bench import Workload, run
from cuckoograph.workload import generate_synthetic, mixed_ops

LAM = 0.5


@contextmanager
def criterion(num, desc, limit_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {desc}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    budget = f" [< {limit_s:.0f}s]" if limit_s else ""
    print(f"[criterion {num:02d}] {desc}: PASS ({elapsed:.2f}s{budget})")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s budget"


def test_criterion_01_growth_schedule_rows():
    with criterion(1, "growth schedule rows 0-7 reproduced", 1.0):
        g = CuckooGraph(GraphParams.from_seed(1, adj_table_len=8))
        expected = [(8,), (8, 4), (8, 4, 4), (16, 8), (16, 8, 8),
                    (32, 16), (32, 16, 16), (64, 32)]
        seen = []
        v = 0
        while len(seen) < len(expected) and v < 5000:
            g.insert_edge(1, v)
            v += 1
            lengths = g.adjacency_lengths(1)
            if lengths is not None and (not seen or lengths != seen[-1]):
                seen.append(lengths)
        assert seen == expected, f"observed {seen}"


def test_criterion_02_differential_equivalence():
    with criterion(2, "1e6 mixed ops match the oracle (both modes)", 60.0):
        for weighted in (False, True):
            for seed in range(5):
                g = CuckooGraph(GraphParams.from_seed(seed, weighted=weighted))
                ref = OracleGraph(weighted=weighted)
                for op, u, v in mixed_ops(200_000, (0.6, 0.3, 0.1),
                                          universe=1 << 16, seed=seed):
                    if op == "i":
                        mine = g.insert_edge(u, v)
                        theirs = ref.insert(u, v)
                    elif op == "q":
                        mine = g.query_edge(u, v)
                        theirs = ref.query(u, v)
                        assert mine == theirs, (weighted, seed, u, v)
                        continue
                    else:
                        mine = g.delete_edge(u, v)
                        theirs = ref.delete(u, v)
                    assert tuple(mine) == theirs, (weighted, seed, u, v)
                assert set(g.iter_edges()) == ref.edge_set(), (weighted, seed)


def test_criterion_03_amortized_insertion_attempts():
    with criterion(3, "mean placements per insert event <= 1.2", 30.0):
        rnd = random.Random(3)
        pairs = rnd.sample(range(1 << 40), 1_000_000)
        g = CuckooGraph(GraphParams.from_seed(3))
        mask = (1 << 20) - 1
        for idx in pairs:
            g.insert_edge(idx >> 20, idx & mask)
        c = g.stats().counters
        node_mean = c["node"]["placements"] / c["node"]["insert_events"]
        adj_mean = (c["adj"]["placements"] / c["adj"]["insert_events"]
                    if c["adj"]["insert_events"] else 1.0)
        print(f"    node level {node_mean:.4f}, adjacency level {adj_mean:.4f}")
        assert node_mean <= 1.2
        assert adj_mean <= 1.2


def test_criterion_04_movement_bound():
    with criterion(4, "movements <= 3N on insert-only runs"):
        n = 100_000
        for seed in range(10):
            rnd = random.Random(seed)
            g = CuckooGraph(GraphParams.from_seed(seed))
            for _ in range(n):
                g.insert_edge(rnd.randrange(1 << 17), rnd.randrange(1 << 17))
            c = g.stats().counters
            assert c["sdl_peak"] < g.params.denylist_cap, "precondition broken"
            assert c["ldl_peak"] < g.params.denylist_cap, "precondition broken"
            assert c["movements"] <= 3 * n, (seed, c["movements"])


def _grow_to(g, rnd, dest, nodes, k):
    for u in nodes:
        while len(dest[u]) < k:
            v = rnd.randrange(1 << 32)
            if g.insert_edge(u, v).status == "inserted":
                dest[u].append(v)


def _shrink_to(g, dest, nodes, k):
    for u in nodes:
        while len(dest[u]) > k:
            g.delete_edge(u, dest[u].pop())


def test_criterion_05_stable_state_memory_bound():
    with criterion(5, "cells <= |V|/lam and |E|/lam at 100 stable checkpoints"):
        plan = [("g", 20), ("s", 15), ("g", 40), ("s", 23), ("g", 30),
                ("s", 25), ("g", 45), ("s", 37), ("g", 60), ("s", 37)]
        stable_seen = 0
        for seed in range(15):
            rnd = random.Random(seed)
            nodes = [rnd.randrange(1 << 32) for _ in range(600)]
            g = CuckooGraph(GraphParams.from_seed(seed, node_table_len=64))
            dest = {u: [] for u in nodes}
            for op, k in plan:
                if op == "g":
                    _grow_to(g, rnd, dest, nodes, k)
                else:
                    _shrink_to(g, dest, nodes, k)
                node_lr, adj_lrs = g.chain_load_rates()
                if node_lr < LAM or (adj_lrs and min(adj_lrs) < LAM):
                    continue  # not a stable checkpoint; does not qualify
                stable_seen += 1
                s = g.stats()
                assert s.node_cells <= s.nodes / LAM, (seed, op, k)
                assert s.adj_cells <= s.edges / LAM, (seed, op, k)
            if stable_seen >= 100:
                break
        print(f"    {stable_seen} stable checkpoints verified")
        assert stable_seen >= 100


def test_criterion_06_bounded_query_probes():
    with criterion(6, "queries touch <= 6 buckets per level, <= 2 list scans"):
        edges = generate_synthetic("zipf", 30_000, 200_000, seed=6)
        g = CuckooGraph(GraphParams.from_seed(6))
        for u, v in edges:
            g.insert_edge(u, v)
        rnd = random.Random(6)
        m = len(edges)
        for i in range(1_000_000):
            if i % 2:
                u, v = edges[rnd.randrange(m)]
            else:
                u, v = rnd.randrange(1 << 17), rnd.randrange(1 << 17)
            g.query_edge(u, v)
        c = g.stats().counters
        print(f"    max probes: node {c['max_query_probes_node']}, "
              f"adj {c['max_query_probes_adj']}, "
              f"list scans {c['max_query_dl_scans']}")
        assert c["max_query_probes_node"] <= 6
        assert c["max_query_probes_adj"] <= 6
        assert c["max_query_dl_scans"] <= 2


def test_criterion_07_contraction_round_trip():
    with criterion(7, "insert 1e5 then delete all returns to floors", 30.0):
        edges = generate_synthetic("zipf", 20_000, 100_000, seed=7)
        for order in ("insertion", "reverse"):
            g = CuckooGraph(GraphParams.from_seed(7))
            ref = OracleGraph()
            floor_cells = g.stats().node_cells
            for u, v in edges:
                g.insert_edge(u, v)
                ref.insert(u, v)
            seq = edges if order == "insertion" else list(reversed(edges))
            rnd = random.Random(7)
            for i, (u, v) in enumerate(seq):
                g.delete_edge(u, v)
                ref.delete(u, v)
                if i % 1000 == 0:
                    for _ in range(6):
                        a, b = rnd.choice(edges)
                        assert g.query_edge(a, b) == ref.query(a, b)
            s = g.stats()
            assert s.edges == 0 and s.nodes == 0, order
            assert s.adj_cells == 0, order
            assert s.node_cells == floor_cells, order
            assert g.node_chain_lengths() == (g.params.node_table_len,)


def test_criterion_08_denylist_byte_overhead():
    with criterion(8, "overflow lists stay within 8 KB of accounted bytes"):
        for weighted in (False, True):
            g = CuckooGraph(GraphParams.from_seed(
                8, cells_per_bucket=2, node_table_len=2, adj_table_len=2,
                kick_budget=1, weighted=weighted))
            peak = 0
            for op, u, v in mixed_ops(20_000, (0.7, 0.1, 0.2),
                                      universe=4096, seed=8):
                if op == "i":
                    g.insert_edge(u, v)
                elif op == "q":
                    g.query_edge(u, v)
                else:
                    g.delete_edge(u, v)
                s = g.stats()
                assert s.dl_bytes <= 8192, s.dl_bytes
                assert s.node_dl_len <= 64 and s.adj_dl_len <= 64
                peak = max(peak, s.dl_bytes)
            assert peak > 0, "overflow lists were never exercised"
            print(f"    weighted={weighted}: peak overflow bytes {peak}")


FIXTURES = {
    "cycle": [(1, 2), (2, 3), (3, 1)],
    "star": [(0, i) for i in range(1, 8)],
    "path": [(1, 2), (2, 3), (3, 4)],
    "dag": [(1, 2), (1, 3), (2, 4), (3, 4)],
}


def _analytics_match(g, ref):
    k = min(5, len(set(analytics.adjacency_view(g))))
    tops = analytics.select_top_degree(g, k)
    assert tops == oracle.top_degree(ref, k)
    for src in tops:
        assert analytics.bfs(g, src) == oracle.bfs(ref, src)
        assert analytics.sssp_dijkstra(g, src) == oracle.sssp(ref, src)
        assert analytics.triangle_count(g, src) == oracle.triangles(ref, src)
    assert analytics.scc_tarjan(g) == oracle.scc_kosaraju(ref)
    pr_mine, pr_ref = analytics.pagerank(g), oracle.pagerank(ref)
    bc_mine, bc_ref = analytics.betweenness_brandes(g), oracle.betweenness(ref)
    lcc_mine, lcc_ref = analytics.lcc(g), oracle.lcc(ref)
    assert pr_mine.keys() == pr_ref.keys() == bc_mine.keys() == lcc_mine.keys()
    for node in pr_mine:
        assert abs(pr_mine[node] - pr_ref[node]) <= 1e-9
        assert abs(bc_mine[node] - bc_ref[node]) <= 1e-9
        assert abs(lcc_mine[node] - lcc_ref[node]) <= 1e-12


def test_criterion_09_analytics_against_oracle():
    with criterion(9, "analytics agree with the brute-force oracle", 60.0):
        for name, edges in FIXTURES.items():
            g = CuckooGraph(GraphParams.from_seed(9))
            ref = OracleGraph()
            for u, v in edges:
                g.insert_edge(u, v)
                ref.insert(u, v)
            _analytics_match(g, ref)
        for seed in range(10):
            rnd = random.Random(seed)
            n = 40 + seed * 10
            count = n * 3 if seed != 9 else n * 8  # one denser graph
            edges = {(rnd.randrange(n), rnd.randrange(n)) for _ in range(count)}
            g = CuckooGraph(GraphParams.from_seed(seed))
            ref = OracleGraph()
            for u, v in edges:
                g.insert_edge(u, v)
                ref.insert(u, v)
            _analytics_match(g, ref)
        # weighted shortest paths agree too
        rnd = random.Random(99)
        g = CuckooGraph(GraphParams.from_seed(99, weighted=True))
        ref = OracleGraph(weighted=True)
        for _ in range(300):
            u, v, w = rnd.randrange(80), rnd.randrange(80), rnd.randrange(1, 9)
            g.insert_edge(u, v, w)
            ref.insert(u, v, w)
        for src in analytics.select_top_degree(g, 5):
            assert analytics.sssp_dijkstra(g, src) == oracle.sssp(ref, src)


def test_criterion_10_throughput_smoke():
    with criterion(10, "smoke throughput above 0.1 Mops"):
        # absolute speed/memory comparisons against other systems and the
        # published hardware figures are out of scope at desk scale; the
        # smoke check only guards against pathological slowdowns
        path = "/tmp/cuckoograph_smoke_edges.txt"
        generate_synthetic("sparse", 200_000, 1_000_000, seed=10, path=path)
        report = run(Workload(dataset=path, phases=("insert",),
                              params=GraphParams.from_seed(10)))
        mops = report.phases[0].mops
        print(f"    insert throughput {mops:.3f} Mops on 1e6 synthetic edges")
        assert mops > 0.1
