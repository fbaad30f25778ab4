"""The benchmark's workloads: seeded inputs and the expected answers.

Everything here is the benchmark's own code. Inputs are built from the
seed alone and the program under test only ever sees the edge-list file
and the operation lists, so a change to ``cuckoograph.workload`` cannot
change a workload. Expected outcomes come from a plain-set simulation of
the same operations, done before anything is timed.

Every workload runs the same phase kinds so that every end-to-end metric
exists on every workload; the graph shape, the stream and the phase order
are what set them apart:

* ``sparse-inline``: every source has out-degree 5, under the six inline
  slots of a node cell, and the stream rewires edges without changing any
  out-degree, so the adjacency level is never used.
* ``zipf-lifecycle``: zipf out-degrees, bulk build, reads, analytics, a
  short stream and a full teardown; adjacency chains climb every schedule
  row, merge, spill and contract back to the floor.
* ``zipf-steady-mix``: a smaller zipf graph churned by a stream three
  times its edge count before it is read, analysed and torn down.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

import numpy as np

# operation codes of the mixed stream
INSERT, DELETE, HIT, MISS = 0, 1, 2, 3

# phase kinds; "insert" always comes first and "delete" last
READ_PHASES = ("hit", "miss", "bfs", "pr")

SKEW = 1.2            # zipf exponent of the out-degrees
BFS_K = 2             # BFS runs from the top-2 nodes by total degree
PR_K = 64             # PageRank runs on the subgraph of the top 64
PR_ITERATIONS = 100


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload.

    ``stream_first`` runs the mixed stream right after the build, so the
    reads, the analytics and the teardown see a churned graph.
    """

    name: str
    shape: str            # "sparse" (constant out-degree) or "zipf"
    nodes: int
    edges: int
    queries: int          # hits, and as many misses, per query phase
    stream_groups: int    # the stream is groups of (delete, hit, insert, miss)
    stream_first: bool

    @property
    def phases(self) -> tuple:
        if self.stream_first:
            return ("insert", "mix") + READ_PHASES + ("delete",)
        return ("insert",) + READ_PHASES + ("mix", "delete")


SPECS = {
    s.name: s for s in (
        Spec("sparse-inline", "sparse", nodes=20_000, edges=100_000,
             queries=50_000, stream_groups=10_000,
             stream_first=False),
        Spec("zipf-lifecycle", "zipf", nodes=20_000, edges=100_000,
             queries=50_000, stream_groups=5_000,
             stream_first=False),
        Spec("zipf-steady-mix", "zipf", nodes=10_000, edges=50_000,
             queries=25_000, stream_groups=37_500,
             stream_first=True),
    )
}


def zipf_degrees(nodes: int, edges: int, skew: float) -> list:
    """Out-degree of each rank: proportional to rank**-skew, capped at nodes/2.

    Rounding and the cap are made up on the highest ranks that have room,
    so the degrees sum to ``edges`` exactly. The cap keeps at least half of
    the ids free for every source, so the stream finds a new destination
    in two draws on average.
    """
    cap = nodes // 2
    w = np.arange(1, nodes + 1, dtype=float) ** -skew
    deg = [min(int(x), cap) for x in np.floor(w / w.sum() * edges)]
    short = edges - sum(deg)
    for i in range(nodes):
        if short == 0:
            break
        take = min(short, cap - deg[i])
        deg[i] += take
        short -= take
    if short:
        raise ValueError(f"{edges} edges do not fit {nodes} nodes")
    return deg


class EdgeSet:
    """Plain-set model of the graph: the present edges, sampled in O(1)."""

    def __init__(self):
        self.edges = []          # (u, v) in no particular order
        self.index = {}          # (u, v) -> position in self.edges
        self.out = {}            # u -> out-degree

    def __len__(self):
        return len(self.edges)

    def add(self, u, v):
        assert (u, v) not in self.index
        self.index[(u, v)] = len(self.edges)
        self.edges.append((u, v))
        self.out[u] = self.out.get(u, 0) + 1

    def remove(self, u, v):
        i = self.index.pop((u, v))
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i
        self.out[u] -= 1
        if not self.out[u]:
            del self.out[u]

    def sample(self, rng):
        return self.edges[rng.randrange(len(self.edges))]


@dataclass
class Ops:
    """Parallel operation lists for one phase (codes only for the stream)."""

    us: list
    vs: list
    codes: list | None = None

    def __len__(self):
        return len(self.us)


@dataclass
class Case:
    """A workload's inputs and expected answers, built from one seed."""

    spec: Spec
    edges: list              # build order, as written to the edge file
    hits: Ops
    misses: Ops
    stream: Ops
    teardown: Ops
    bfs_sources: list        # expected top-k ranking for BFS
    bfs_orders: dict         # source -> expected visit order
    pagerank: dict           # node -> expected score
    nodes_at_reads: int      # source nodes when the first read phase starts
    edges_at_reads: int      # live edges at the same point


def generate_edges(spec: Spec, rng):
    """The edges in a random insertion order, the rank-to-id map and the degrees."""
    n = spec.nodes
    if spec.shape == "sparse":
        if spec.edges % n:
            raise ValueError("sparse needs edges divisible by nodes")
        degrees = [spec.edges // n] * n
    else:
        degrees = zipf_degrees(n, spec.edges, SKEW)
    ids = list(range(n))
    rng.shuffle(ids)             # rank -> node id
    edges = []
    for rank, d in enumerate(degrees):
        u = ids[rank]
        for p in rng.sample(range(n - 1), d):
            edges.append((u, p if p < u else p + 1))
    rng.shuffle(edges)
    return edges, ids, degrees


def _queries(model: EdgeSet, count: int, nodes: int, rng):
    hits, misses = Ops([], []), Ops([], [])
    for _ in range(count):
        u, v = model.sample(rng)
        hits.us.append(u)
        hits.vs.append(v)
        u, _ = model.sample(rng)
        misses.us.append(u)
        misses.vs.append(nodes + rng.randrange(nodes))
    return hits, misses


def _stream(spec: Spec, model: EdgeSet, ids, degrees, rng) -> Ops:
    """Groups of (delete, hit, insert, miss); the edge count stays level.

    The delete takes a uniformly random present edge, so a source loses
    edges in proportion to its current out-degree. On ``sparse`` the insert
    goes back to the same source (a rewire: every out-degree stays put); on
    ``zipf`` its source is drawn by the initial degree shares, so each
    out-degree wanders around its starting value and chains cross their
    grow and contract thresholds in both directions.
    """
    n = spec.nodes
    cum = np.cumsum(np.asarray(degrees, dtype=float) / sum(degrees)).tolist()
    ops = Ops([], [], [])

    def emit(code, u, v):
        ops.codes.append(code)
        ops.us.append(u)
        ops.vs.append(v)

    for _ in range(spec.stream_groups):
        u, v = model.sample(rng)
        model.remove(u, v)
        emit(DELETE, u, v)
        emit(HIT, *model.sample(rng))
        if spec.shape == "zipf":
            while True:
                u = ids[min(bisect.bisect_right(cum, rng.random()), n - 1)]
                if model.out.get(u, 0) < n // 2:
                    break
        while True:
            v = rng.randrange(n)
            if v != u and (u, v) not in model.index:
                break
        model.add(u, v)
        emit(INSERT, u, v)
        emit(MISS, model.sample(rng)[0], n + rng.randrange(n))
    return ops


def adjacency(edge_list) -> dict:
    """Successor sets of every endpoint node."""
    adj = {}
    for u, v in edge_list:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set())
    return adj


def top_by_degree(edge_list, k: int) -> list:
    """k nodes with the largest out-plus-in degree, ties broken by id."""
    deg = {}
    for u, v in edge_list:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return sorted(deg, key=lambda x: (-deg[x], x))[:k]


def bfs_order(adj: dict, source) -> list:
    """Visit order of a breadth-first traversal, successors in id order."""
    order, seen, frontier = [source], {source}, [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


def pagerank_numpy(edge_list, iterations: int, damping: float = 0.85) -> dict:
    """Power iteration over the endpoints of ``edge_list``.

    Uniform teleport; the rank of nodes without out-edges spreads evenly.
    """
    nodes = sorted({x for e in edge_list for x in e})
    n = len(nodes)
    if n == 0:
        return {}
    pos = {x: i for i, x in enumerate(nodes)}
    src = np.array([pos[u] for u, _ in edge_list], dtype=np.int64)
    dst = np.array([pos[v] for _, v in edge_list], dtype=np.int64)
    outdeg = np.bincount(src, minlength=n).astype(float)
    dangling = outdeg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = np.zeros(n)
        np.add.at(share, dst, damping * rank[src] / outdeg[src])
        rank = (1.0 - damping) / n + damping * rank[dangling].sum() / n + share
    return {x: float(rank[i]) for i, x in enumerate(nodes)}


def make_case(spec: Spec, seed: int) -> Case:
    """Build the inputs and simulate every phase in the workload's order."""
    rng = random.Random(f"{spec.name}/{seed}")
    edges, ids, degrees = generate_edges(spec, rng)
    model = EdgeSet()
    for u, v in edges:
        model.add(u, v)
    stream = None
    if spec.stream_first:
        stream = _stream(spec, model, ids, degrees, rng)
    nodes_at_reads, edges_at_reads = len(model.out), len(model)
    hits, misses = _queries(model, spec.queries, spec.nodes, rng)
    live = list(model.edges)
    adj = adjacency(live)
    bfs_sources = top_by_degree(live, BFS_K)
    keep = set(top_by_degree(live, PR_K))
    induced = [(u, v) for u, v in live if u in keep and v in keep]
    if stream is None:
        stream = _stream(spec, model, ids, degrees, rng)
    rest = list(model.edges)
    rng.shuffle(rest)
    return Case(
        spec=spec, edges=edges,
        hits=hits, misses=misses, stream=stream,
        teardown=Ops([u for u, _ in rest], [v for _, v in rest]),
        bfs_sources=bfs_sources,
        bfs_orders={s: bfs_order(adj, s) for s in bfs_sources},
        pagerank=pagerank_numpy(induced, PR_ITERATIONS),
        nodes_at_reads=nodes_at_reads, edges_at_reads=edges_at_reads,
    )


def write_edge_file(path, edges):
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in edges)
