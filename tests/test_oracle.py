import math

import pytest

from cuckoograph import oracle
from cuckoograph.oracle import OracleGraph


def build(edges, weighted=False):
    g = OracleGraph(weighted=weighted)
    for e in edges:
        g.insert(*e)
    return g


THREE_CYCLE = [(1, 2), (2, 3), (3, 1)]


class TestMirrorSemantics:
    def test_insert_query_delete(self):
        g = OracleGraph()
        assert g.insert(1, 2) == ("inserted", None)
        assert g.insert(1, 2) == ("duplicate", None)
        assert g.query(1, 2) is True
        assert g.delete(1, 2) == ("deleted", None)
        assert g.delete(1, 2) == ("absent", None)
        assert g.query(1, 2) is False

    def test_weighted_counts(self):
        g = OracleGraph(weighted=True)
        assert g.insert(1, 2) == ("inserted", 1)
        assert g.insert(1, 2) == ("incremented", 2)
        assert g.query(1, 2) == 2
        assert g.delete(1, 2) == ("decremented", 1)
        assert g.delete(1, 2) == ("deleted", None)
        assert g.query(1, 2) is None

    def test_commuting_inserts(self):
        a = build([(1, 2), (3, 4), (5, 6)])
        b = build([(5, 6), (1, 2), (3, 4)])
        assert a.edge_set() == b.edge_set()


class TestBruteAnalytics:
    def test_bfs_chain(self):
        g = build([(1, 2), (2, 3)])
        assert oracle.bfs(g, 1) == [1, 2, 3]
        assert oracle.bfs(g, 3) == [3]

    def test_sssp_unit_weights(self):
        g = build([(1, 2), (2, 3)])
        d = oracle.sssp(g, 1)
        assert d == {1: 0, 2: 1, 3: 2}

    def test_sssp_weighted_and_unreachable(self):
        g = build([(1, 2, 5), (2, 3, 1), (4, 1, 2)], weighted=True)
        d = oracle.sssp(g, 1)
        assert d[3] == 6
        assert 4 not in d

    def test_triangle_in_cycle(self):
        g = build(THREE_CYCLE)
        assert oracle.triangles(g, 1) == 1

    def test_triangle_star_center(self):
        g = build([(0, i) for i in range(1, 5)])
        assert oracle.triangles(g, 0) == 0

    def test_triangle_path_multiplicity(self):
        # two mid nodes reach the same closer: it counts once
        g = build([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
        assert oracle.triangles(g, 0) == 1

    def test_scc_cycle_and_dag(self):
        assert oracle.scc_kosaraju(build(THREE_CYCLE)) == [[1, 2, 3]]
        assert oracle.scc_kosaraju(build([(1, 2), (2, 3)])) == [[1], [2], [3]]

    def test_pagerank_symmetry(self):
        pr = oracle.pagerank(build(THREE_CYCLE))
        for score in pr.values():
            assert math.isclose(score, 1 / 3, abs_tol=1e-12)
        pr = oracle.pagerank(build([(1, 2), (2, 1), (3, 4), (4, 3)]))
        for score in pr.values():
            assert math.isclose(score, 1 / 4, abs_tol=1e-12)

    def test_pagerank_sums_to_one_with_dangling(self):
        pr = oracle.pagerank(build([(1, 2), (1, 3)]))
        assert math.isclose(sum(pr.values()), 1.0, abs_tol=1e-9)

    def test_betweenness_path(self):
        bc = oracle.betweenness(build([(1, 2), (2, 3)]))
        assert bc == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_betweenness_two_nodes(self):
        bc = oracle.betweenness(build([(1, 2)]))
        assert bc == {1: 0.0, 2: 0.0}

    def test_lcc_mutual_pair(self):
        g = build([(0, 1), (0, 2), (1, 2), (2, 1)])
        assert oracle.lcc(g)[0] == 1.0

    def test_lcc_star_center(self):
        g = build([(0, i) for i in range(1, 6)])
        assert oracle.lcc(g)[0] == 0.0

    def test_top_degree_star(self):
        g = build([(0, i) for i in range(1, 6)])
        assert oracle.top_degree(g, 1) == [0]
        assert oracle.top_degree(g, 3) == [0, 1, 2]  # ties break on id

    def test_top_degree_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            oracle.top_degree(build(THREE_CYCLE), 4)

    def test_subgraph_filter(self):
        g = build([(1, 2), (2, 3), (3, 1), (1, 9)])
        sub = oracle.subgraph(g, {1, 2, 3})
        assert sub.edge_set() == set(THREE_CYCLE)
        assert oracle.subgraph(g, {1, 3}).edge_set() == {(3, 1)}

    def test_rejects_oversized_graph(self):
        g = build([(i, i + 1) for i in range(oracle.MAX_ORACLE_NODES + 1)])
        with pytest.raises(ValueError):
            oracle.bfs(g, 0)
