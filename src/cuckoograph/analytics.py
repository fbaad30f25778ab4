"""Graph analytics built on the store's edge and successor queries.

All tasks are read-only and deterministic: ties break on ascending node
id, frontier neighbours expand in sorted order. Tasks that operate on a
subgraph first rank nodes by total degree (out-degree plus in-degree)
and induce the graph on the top slice.

The ranking reads degree counts only, in one bulk read of the store:
the in-degrees are one ``Counter`` over ``destinations`` (every stored
destination id, read from the row columns and the chains' arrays), the
out-degrees come from ``out_degrees`` (row fills and record counts), and
no destination list or successor set is built per node. The induced
subgraph reads the successors of the kept nodes alone. BFS reads one
frontier at a time, level-synchronously (Beamer, Asanovic & Patterson,
SC '12): one ``successor_lists`` call per level hashes the frontier's
nodes as one batch and gives each node's destination list, which BFS
sorts in place; every visited node is still one store lookup. Kernels
that need the whole graph (SCC, PageRank, betweenness, clustering) take
an ``adjacency_view`` snapshot.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass, replace

TASKS = ("bfs", "sssp", "tc", "cc", "pr", "bc", "lcc")
SSSP_SOURCES = 10   # shortest-path runs, from the subgraph's top-degree nodes
DAMPING = 0.85      # PageRank's damping factor


@dataclass(frozen=True)
class TaskSpec:
    """One analytics run: which task, and its selection parameters."""

    task: str
    top_k: int = 10
    pr_iterations: int = 100

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.top_k < 1 or self.pr_iterations < 1:
            raise ValueError("top_k and pr_iterations must be >= 1")


def adjacency_view(graph):
    """Successor-id sets for every endpoint node (plain dict snapshot).

    Built from one ``out_lists`` walk of the store: no node is looked up.
    """
    adj = {u: set(dests) for u, dests in graph.out_lists(ids=True)}
    sinks = {v for vs in adj.values() for v in vs if v not in adj}
    for v in sinks:
        adj[v] = set()
    return adj


def total_degrees(graph) -> dict:
    """Out-degree plus in-degree of every endpoint node, as a ``Counter``.

    One bulk read: ``out_degrees`` seeds the counts, and ``Counter.update``
    adds one per id that ``destinations`` gives, on the C side. No
    destination list, successor set or, in weighted mode, ``(v, w)`` pair
    is built.
    """
    deg = Counter(dict(graph.out_degrees()))
    deg.update(graph.destinations())
    return deg


def select_top_degree(graph, k: int) -> list:
    """The k nodes with the largest total degree, ties broken by id.

    Raises ValueError when the graph has fewer than k endpoint nodes.
    """
    deg = total_degrees(graph)
    if k > len(deg):
        raise ValueError(f"asked for {k} nodes, graph has only {len(deg)}")
    # (-degree, id) tuples compare in C, with no key function per node
    return [u for _, u in heapq.nsmallest(
        k, zip(map(operator.neg, deg.values()), deg))]


def extract_subgraph(graph, nodes):
    """New store of the same kind, induced on the given node set.

    Reads the successors of the kept nodes only, in ascending id order,
    and inserts the destinations that are kept too, with their weights.
    The store starts from the smallest node table and grows with its
    nodes: a default-length one holds 1,536 bucket lists, each tracked by
    the garbage collector, for a selection of tens of nodes.
    """
    from .graph import CuckooGraph

    keep = set(nodes)
    sub = CuckooGraph(replace(graph.params, node_table_len=2))
    weighted = graph.params.weighted
    for u in sorted(keep):
        if weighted:
            for v, w in graph.successors(u):
                if v in keep:
                    sub.insert_edge(u, v, w)
        else:
            for v in graph.successors(u) & keep:
                sub.insert_edge(u, v)
    return sub


def bfs(graph, source) -> list:
    """Visit order of a directed breadth-first traversal."""
    order = [source]
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for dests in graph.successor_lists(frontier):
            if dests:
                dests.sort()
                for y in dests:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        order.extend(nxt)
        frontier = nxt
    return order


def sssp_dijkstra(graph, source) -> dict:
    """Shortest distances from source; stored weights, or 1 when unweighted."""
    weighted = graph.params.weighted
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist.get(x, float("inf")):
            continue
        succ = graph.successors(x)
        pairs = succ if weighted else ((v, 1) for v in succ)
        for v, w in pairs:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def triangle_count(graph, node) -> int:
    """Closing queries from the node's 2-hop successors back to the node.

    Each 2-hop successor is queried once, however many mid nodes reach it.
    """
    firsts = graph.successors(node, ids=True)
    count = 0
    two_hop = set()
    for mid in firsts:
        two_hop |= graph.successors(mid, ids=True)
    for s in two_hop:
        if graph.query_edge(s, node):
            count += 1
    return count


def scc_tarjan(graph) -> list:
    """Strongly connected components, iteratively, smallest member first."""
    adj = adjacency_view(graph)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            pushed = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj[nxt]))))
                    pushed = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def pagerank(graph, iterations: int = 100) -> dict:
    """Power iteration with damping ``DAMPING`` and uniform teleport;
    dangling mass spreads evenly."""
    adj = adjacency_view(graph)
    nodes = sorted(adj)
    n = len(nodes)
    if n == 0:
        return {}
    rank = {node: 1.0 / n for node in nodes}
    teleport = (1.0 - DAMPING) / n
    for _ in range(iterations):
        dangling = sum(rank[u] for u in nodes if not adj[u]) / n
        nxt = {node: teleport + DAMPING * dangling for node in nodes}
        for u in nodes:
            out = adj[u]
            if out:
                share = DAMPING * rank[u] / len(out)
                for v in out:
                    nxt[v] += share
        rank = nxt
    return rank


def betweenness_brandes(graph) -> dict:
    """Unnormalized directed betweenness by dependency accumulation."""
    adj = adjacency_view(graph)
    nodes = sorted(adj)
    bc = {node: 0.0 for node in nodes}
    for s in nodes:
        preds = {node: [] for node in nodes}
        sigma = {node: 0.0 for node in nodes}
        dist = {node: -1 for node in nodes}
        sigma[s] = 1.0
        dist[s] = 0
        order = [s]     # the BFS queue: iterating it visits what it appends
        for x in order:
            for y in sorted(adj[x]):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    order.append(y)
                if dist[y] == dist[x] + 1:
                    sigma[y] += sigma[x]
                    preds[y].append(x)
        delta = {node: 0.0 for node in nodes}
        for y in reversed(order):
            for p in preds[y]:
                delta[p] += sigma[p] / sigma[y] * (1.0 + delta[y])
            if y != s:
                bc[y] += delta[y]
    return bc


def lcc(graph) -> dict:
    """Directed local clustering: links among neighbours over k*(k-1)."""
    adj = adjacency_view(graph)
    incoming = {node: set() for node in adj}
    for u, outs in adj.items():
        for v in outs:
            incoming[v].add(u)
    out = {}
    for node in adj:
        nbrs = (adj[node] | incoming[node]) - {node}
        k = len(nbrs)
        if k < 2:
            out[node] = 0.0
            continue
        links = sum(1 for a in nbrs for b in nbrs if a != b and b in adj[a])
        out[node] = links / (k * (k - 1))
    return out


def run_task(graph, spec: TaskSpec) -> dict:
    """Drive one task with the top-degree selection methodology.

    BFS runs from each of the top-k nodes on the full graph; triangle
    counting queries each top-k node on the full graph; the shortest-path
    task extracts the top-k subgraph and runs from the highest-degree
    sources inside it; the remaining tasks run on the top-k subgraph.
    """
    task = spec.task
    if task == "bfs":
        sources = select_top_degree(graph, spec.top_k)
        runs = {s: bfs(graph, s) for s in sources}
        return {"task": task, "sources": sources,
                "visited": {s: len(r) for s, r in runs.items()},
                "orders": runs}
    if task == "tc":
        nodes = select_top_degree(graph, spec.top_k)
        return {"task": task,
                "counts": {u: triangle_count(graph, u) for u in nodes}}
    top = select_top_degree(graph, spec.top_k)
    sub = extract_subgraph(graph, top)
    if task == "sssp":
        sources = top[:SSSP_SOURCES]
        return {"task": task, "sources": sources,
                "dist": {s: sssp_dijkstra(sub, s) for s in sources}}
    if task == "cc":
        comps = scc_tarjan(sub)
        return {"task": task, "count": len(comps), "components": comps}
    if task == "pr":
        return {"task": task, "scores": pagerank(sub, spec.pr_iterations)}
    if task == "bc":
        return {"task": task, "scores": betweenness_brandes(sub)}
    return {"task": task, "scores": lcc(sub)}
