"""Benchmark harness: drive phases against one graph and report CSV.

Phases are given as compact strings:

    insert                    insert every dataset edge
    query                     query every dataset edge
    delete                    delete every dataset edge (insertion or random order)
    mixed:RI,RQ,RD:COUNT      random op mix over the dataset's endpoint ids
    task:NAME[:TOP_K]         one analytics task (bfs sssp tc cc pr bc lcc)

The CSV has one summary row per phase, under a header of the field names
of ``PhaseResult``; a float is written as its ``repr``. Timed loops do
nothing per operation beyond the graph call: a phase's op list (the mixed
ops, the shuffled delete order) is built before its clock starts, and a
task's digest is taken after it stops. The graph's stats are read once
per phase boundary, which gives the structure-accounted bytes after each
phase.
"""

from __future__ import annotations

import csv
import hashlib
import random
import time
from dataclasses import astuple, dataclass, field, fields

from . import analytics
from .analytics import TaskSpec
from .graph import CuckooGraph, GraphParams
from .workload import check_ratios, dedup_edges, mixed_ops, read_edge_file


@dataclass(frozen=True)
class PhaseResult:
    phase: str
    ops: int
    elapsed_ns: int
    mops: float
    bytes: int
    placements: int
    evictions: int
    dl_hits: int
    movements: int


@dataclass(frozen=True)
class Workload:
    dataset: str | None = None
    phases: tuple = ("insert", "query")
    dedup: bool = False
    params: GraphParams = field(default_factory=GraphParams)
    seed: int = 0
    top_k: int = 10
    delete_order: str = "insertion"

    def __post_init__(self):
        if not self.phases:
            raise ValueError("workload needs at least one phase")
        if self.delete_order not in ("insertion", "random"):
            raise ValueError("delete_order must be 'insertion' or 'random'")
        for spec in self.phases:
            _parse_phase(spec, self)  # validate early


@dataclass(frozen=True)
class Report:
    phases: tuple

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(PhaseResult))
            writer.writerows(map(astuple, self.phases))
        return path


def _parse_phase(spec, workload):
    parts = spec.split(":")
    name = parts[0]
    if name in ("insert", "query", "delete") and len(parts) == 1:
        return (name,)
    if name == "mixed":
        if len(parts) != 3:
            raise ValueError(f"mixed phase needs mixed:RI,RQ,RD:COUNT, got {spec!r}")
        ratios = tuple(float(x) for x in parts[1].split(","))
        check_ratios(ratios)
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"mixed phase needs a COUNT of at least 1, got {spec!r}")
        return ("mixed", ratios, count)
    if name == "task":
        if len(parts) not in (2, 3):
            raise ValueError(f"task phase needs task:NAME[:TOP_K], got {spec!r}")
        top_k = int(parts[2]) if len(parts) == 3 else workload.top_k
        return ("task", TaskSpec(parts[1], top_k=top_k))
    raise ValueError(f"unknown phase {spec!r}")


def _digest(value) -> str:
    """Stable cross-process digest of a task result."""
    def canon(x):
        if isinstance(x, dict):
            return tuple(sorted((canon(k), canon(v)) for k, v in x.items()))
        if isinstance(x, (list, tuple, set)):
            items = [canon(i) for i in x]
            return tuple(sorted(items)) if isinstance(x, set) else tuple(items)
        if isinstance(x, float):
            return round(x, 12)
        return x
    return hashlib.blake2b(repr(canon(value)).encode(),
                           digest_size=8).hexdigest()


def run(workload: Workload) -> Report:
    """Execute every phase in order against a single graph instance."""
    edges = []
    if workload.dataset is not None:
        edges = read_edge_file(workload.dataset)
        if workload.dedup:
            edges = dedup_edges(edges)
    graph = CuckooGraph(workload.params)
    phases = []
    # the ids a mixed phase draws: op id r is the r-th smallest endpoint
    ids = sorted({x for e in edges for x in e[:2]}) or range(1 << 16)
    before = _counter_totals(graph.stats())
    for i, spec in enumerate(workload.phases):
        parsed = _parse_phase(spec, workload)
        name = f"{i}:{spec}"
        ops = len(edges)
        order = edges
        if parsed[0] == "delete" and workload.delete_order == "random":
            order = list(edges)
            random.Random(workload.seed).shuffle(order)
        elif parsed[0] == "mixed":
            _, ratios, ops = parsed
            order = [(op, ids[u], ids[v]) for op, u, v
                     in mixed_ops(ops, ratios, len(ids), workload.seed)]
        start = time.perf_counter_ns()
        if parsed[0] == "insert":
            for e in edges:
                graph.insert_edge(*e)
        elif parsed[0] == "query":
            for e in edges:
                graph.query_edge(e[0], e[1])
        elif parsed[0] == "delete":
            for e in order:
                graph.delete_edge(e[0], e[1])
        elif parsed[0] == "mixed":
            for op, u, v in order:
                if op == "i":
                    graph.insert_edge(u, v)
                elif op == "q":
                    graph.query_edge(u, v)
                else:
                    graph.delete_edge(u, v)
        else:
            result = analytics.run_task(graph, parsed[1])
        elapsed = max(1, time.perf_counter_ns() - start)
        if parsed[0] == "task":
            ops = _task_units(result)
            name = f"{name}@{_digest(result)}"
        stats = graph.stats()
        after = _counter_totals(stats)
        phases.append(PhaseResult(
            phase=name,
            ops=ops,
            elapsed_ns=elapsed,
            mops=ops / elapsed * 1000.0,
            bytes=stats.bytes_total,
            placements=after["placements"] - before["placements"],
            evictions=after["evictions"] - before["evictions"],
            dl_hits=after["dl_hits"] - before["dl_hits"],
            movements=after["movements"] - before["movements"],
        ))
        before = after
    return Report(tuple(phases))


def _counter_totals(stats):
    c = stats.counters
    return {
        "placements": c["node"]["placements"] + c["adj"]["placements"],
        "evictions": c["node"]["evictions"] + c["adj"]["evictions"],
        "dl_hits": c["dl_hits"],
        "movements": c["movements"],
    }


def _task_units(result):
    if "sources" in result:
        return len(result["sources"])
    if "counts" in result:
        return len(result["counts"])
    return 1
