"""Dict-based reference graph and brute-force analytics for differential tests.

Everything here favours obviousness over speed and deliberately uses
different algorithms than the main analytics module (Kosaraju instead of
Tarjan, quadratic Dijkstra instead of a heap, dense matrix iteration for
the rank scores, a pairwise path-count formula for centrality).
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORACLE_NODES = 2000
DAMPING = 0.85


class OracleGraph:
    """Adjacency-set mirror of the store's edge semantics."""

    def __init__(self, weighted: bool = False):
        self.weighted = weighted
        self.adj = {}   # u -> {v} or u -> {v: w}

    def insert(self, u, v, weight=1):
        nbrs = self.adj.get(u)
        if nbrs is None:
            nbrs = {} if self.weighted else set()
            self.adj[u] = nbrs
        if self.weighted:
            if v in nbrs:
                nbrs[v] += weight
                return "incremented", nbrs[v]
            nbrs[v] = weight
            return "inserted", weight
        if v in nbrs:
            return "duplicate", None
        nbrs.add(v)
        return "inserted", None

    def query(self, u, v):
        nbrs = self.adj.get(u)
        if self.weighted:
            if nbrs is None:
                return None
            return nbrs.get(v)
        return nbrs is not None and v in nbrs

    def delete(self, u, v):
        nbrs = self.adj.get(u)
        if nbrs is None or v not in nbrs:
            return "absent", None
        if self.weighted:
            if nbrs[v] > 1:
                nbrs[v] -= 1
                return "decremented", nbrs[v]
            del nbrs[v]
        else:
            nbrs.remove(v)
        if not nbrs:
            del self.adj[u]
        return "deleted", None

    def successors(self, u):
        nbrs = self.adj.get(u)
        if nbrs is None:
            return set()
        if self.weighted:
            return set(nbrs.items())
        return set(nbrs)

    def edges(self):
        for u, nbrs in self.adj.items():
            if self.weighted:
                for v, w in nbrs.items():
                    yield u, v, w
            else:
                for v in nbrs:
                    yield u, v

    def edge_set(self):
        return set(self.edges())

    @property
    def edge_count(self):
        return sum(len(nbrs) for nbrs in self.adj.values())


# -- helpers -----------------------------------------------------------------


def _plain_adj(g: OracleGraph) -> dict:
    """Unweighted successor sets for every endpoint node."""
    adj = {}
    for edge in g.edges():
        u, v = edge[0], edge[1]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set())
    return adj


def _check_size(adj):
    if len(adj) > MAX_ORACLE_NODES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_NODES} nodes, got {len(adj)}")


def total_degrees(g: OracleGraph) -> dict:
    deg = {}
    for edge in g.edges():
        u, v = edge[0], edge[1]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def top_degree(g: OracleGraph, k: int) -> list:
    adj = _plain_adj(g)
    if k > len(adj):
        raise ValueError(f"asked for {k} nodes, graph has {len(adj)}")
    deg = total_degrees(g)
    ranked = sorted(adj, key=lambda n: (-deg.get(n, 0), n))
    return ranked[:k]


def subgraph(g: OracleGraph, nodes) -> OracleGraph:
    keep = set(nodes)
    out = OracleGraph(weighted=g.weighted)
    for edge in g.edges():
        if edge[0] in keep and edge[1] in keep:
            out.insert(*edge)
    return out


# -- brute-force analytics ----------------------------------------------------


def bfs(g: OracleGraph, source) -> list:
    adj = _plain_adj(g)
    _check_size(adj)
    order = [source]
    seen = {source}
    queue = [source]
    while queue:
        x = queue.pop(0)
        for y in sorted(adj.get(x, ())):
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
    return order


def sssp(g: OracleGraph, source) -> dict:
    """Quadratic Dijkstra without a priority queue."""
    adj = {}
    for edge in g.edges():
        w = edge[2] if g.weighted else 1
        if w < 0:
            raise ValueError("negative weight")
        adj.setdefault(edge[0], []).append((edge[1], w))
        adj.setdefault(edge[1], [])
    _check_size(adj)
    dist = {source: 0}
    done = set()
    while True:
        best, best_d = None, math.inf
        for n, d in dist.items():
            if n not in done and d < best_d:
                best, best_d = n, d
        if best is None:
            return dist
        done.add(best)
        for v, w in adj.get(best, ()):
            nd = best_d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd


def triangles(g: OracleGraph, node) -> int:
    """Closing edges from the node's distinct 2-hop successors back to the node."""
    adj = _plain_adj(g)
    _check_size(adj)
    firsts = adj.get(node, set())
    two_hop = set()
    for mid in firsts:
        two_hop |= adj.get(mid, set())
    return sum(1 for s in two_hop if node in adj.get(s, ()))


def scc_kosaraju(g: OracleGraph) -> list:
    adj = _plain_adj(g)
    _check_size(adj)
    rev = {n: set() for n in adj}
    for u, nbrs in adj.items():
        for v in nbrs:
            rev[v].add(u)
    finished = []
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [(start, iter(sorted(adj[start])))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(adj[nxt]))))
                    advanced = True
                    break
            if not advanced:
                finished.append(node)
                stack.pop()
    comps = []
    assigned = set()
    for start in reversed(finished):
        if start in assigned:
            continue
        comp = []
        stack = [start]
        assigned.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in rev[node]:
                if nxt not in assigned:
                    assigned.add(nxt)
                    stack.append(nxt)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def pagerank(g: OracleGraph, iterations: int = 100) -> dict:
    """Dense power iteration with damping ``DAMPING``."""
    adj = _plain_adj(g)
    _check_size(adj)
    nodes = sorted(adj)
    n = len(nodes)
    if n == 0:
        return {}
    idx = {node: i for i, node in enumerate(nodes)}
    mat = np.zeros((n, n))
    for u, nbrs in adj.items():
        if nbrs:
            share = 1.0 / len(nbrs)
            for v in nbrs:
                mat[idx[v], idx[u]] = share
        else:
            mat[:, idx[u]] = 1.0 / n
    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - DAMPING) / n
    for _ in range(iterations):
        rank = teleport + DAMPING * (mat @ rank)
    return {node: float(rank[idx[node]]) for node in nodes}


def betweenness(g: OracleGraph) -> dict:
    """Directed betweenness by explicit all-pairs shortest-path counting."""
    adj = _plain_adj(g)
    _check_size(adj)
    nodes = sorted(adj)
    n = len(nodes)
    idx = {node: i for i, node in enumerate(nodes)}
    dist = np.full((n, n), np.inf)
    sigma = np.zeros((n, n))
    for s in nodes:
        si = idx[s]
        dist[si, si] = 0
        sigma[si, si] = 1.0
        frontier = [s]
        d = 0
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    yi = idx[y]
                    if math.isinf(dist[si, yi]):
                        dist[si, yi] = d + 1
                        nxt.append(y)
                    if dist[si, yi] == d + 1:
                        sigma[si, yi] += sigma[si, idx[x]]
            frontier = nxt
            d += 1
    bc = {}
    safe = np.where(sigma > 0, sigma, 1.0)
    for v in nodes:
        vi = idx[v]
        through = dist[:, vi][:, None] + dist[vi, :][None, :]
        mask = (through == dist) & (sigma > 0) & np.isfinite(dist)
        mask[vi, :] = False
        mask[:, vi] = False
        contrib = (sigma[:, vi][:, None] * sigma[vi, :][None, :]) / safe
        bc[v] = float(contrib[mask].sum())
    return bc


def lcc(g: OracleGraph) -> dict:
    adj = _plain_adj(g)
    _check_size(adj)
    out = {}
    for node in adj:
        nbrs = (adj[node] | {u for u, nb in adj.items() if node in nb}) - {node}
        k = len(nbrs)
        if k < 2:
            out[node] = 0.0
            continue
        links = sum(1 for a in nbrs for b in nbrs if a != b and b in adj[a])
        out[node] = links / (k * (k - 1))
    return out
