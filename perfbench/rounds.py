"""One round of a workload: set-up, the timed phases and their checks.

A round ingests the edge file, builds an empty graph and runs every phase
of the workload in order. Each phase is timed in chunks of program work,
with a chunk of the reference workload after each (see ``Reference``).
Answers are counted while the clock runs and checked against the expected
outcomes after it stops; every operation that raised or answered wrongly
counts as failed.
"""

from __future__ import annotations

import gc
import random
import sys
import time
import types
from array import array
from dataclasses import dataclass, field

from cuckoograph import (CuckooGraph, DeleteResult, InsertResult, analytics,
                         workload)
from cuckoograph.analytics import TaskSpec

from workloads import (BFS_K, HIT, INSERT, MISS, PR_ITERATIONS, PR_K,
                       READ_PHASES)

INSERTED = InsertResult("inserted", None)
DELETED = DeleteResult("deleted", None)
PR_TOLERANCE = 1e-9


@dataclass
class Tally:
    """Operations attempted and failed, and property checks that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


# -- timed loops: bound methods and constants in locals, answers counted ----

def _insert_all(insert, pairs):
    bad = 0
    for u, v in pairs:
        try:
            if insert(u, v) != INSERTED:
                bad += 1
        except Exception:
            bad += 1
    return bad


def _delete_all(delete, pairs):
    bad = 0
    for u, v in pairs:
        try:
            if delete(u, v) != DELETED:
                bad += 1
        except Exception:
            bad += 1
    return bad


def _query_all(query, pairs, want):
    bad = 0
    for u, v in pairs:
        try:
            if query(u, v) is not want:
                bad += 1
        except Exception:
            bad += 1
    return bad


def _hits(query, pairs):
    return _query_all(query, pairs, True)


def _misses(query, pairs):
    return _query_all(query, pairs, False)


def _stream_all(graph, part):
    insert, delete, query = graph.insert_edge, graph.delete_edge, graph.query_edge
    hit, miss, ins = HIT, MISS, INSERT
    bad = 0
    for code, u, v in zip(*part):
        try:
            if code == hit:
                ok = query(u, v) is True
            elif code == miss:
                ok = query(u, v) is False
            elif code == ins:
                ok = insert(u, v) == INSERTED
            else:
                ok = delete(u, v) == DELETED
        except Exception:
            ok = False
        if not ok:
            bad += 1
    return bad


def _task(graph, spec):
    try:
        return analytics.run_task(graph, spec)
    except Exception as exc:
        return exc


class Reference:
    """A fixed pure-Python workload that tracks how fast the machine runs.

    On a shared machine the speed of this interpreter drifts by 20% and
    more over tens of seconds, and every phase of a run drifts with it. A
    round therefore runs one chunk of this workload after every chunk of
    program work and reports each phase at the speed at which one
    reference chunk takes ``NOMINAL_NS``: the program's time is scaled by
    ``NOMINAL_NS`` over the mean reference chunk time of the same phase.
    Phases that are one call (set-up, BFS, PageRank) make that call
    several times, each followed by a reference chunk, and report the mean.
    The workload is the benchmark's own and never changes with the
    program: seeded 64-bit mixing of random keys and lookups in a dict of
    400,000 ints, large enough to miss the caches as the graph does. Its
    dict holds only ints, so the collector does not track it.
    """

    NOMINAL_NS = 3_600_000
    PROBES = 2_500
    MASK = (1 << 64) - 1

    def __init__(self):
        rng = random.Random(0)
        keys = [rng.randrange(1 << 40) for _ in range(400_000)]
        self.table = {k: i for i, k in enumerate(keys)}
        self.probes = array("q", [
            keys[rng.randrange(len(keys))] if rng.random() < 0.5
            else rng.randrange(1 << 40) for _ in range(self.PROBES)])

    def run(self) -> int:
        mask, table, acc = self.MASK, self.table, 0
        for k in self.probes:
            x = ((k ^ (k >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            acc += table.get(k, 0) + (x & 7)
        return acc


class Meter:
    """Program time of one phase, and the reference chunks run within it."""

    def __init__(self, reference=None):
        self.reference = reference
        self.prog_ns = 0
        self.ref_ns = 0
        self.refs = 0
        self.per_call = 1

    def measure_reference(self):
        if self.reference is not None:
            t0 = time.perf_counter_ns()
            self.reference.run()
            self.ref_ns += time.perf_counter_ns() - t0
            self.refs += 1

    def call(self, fn, *args):
        """Time one chunk of program work, then one reference chunk."""
        t0 = time.perf_counter_ns()
        result = fn(*args)
        self.prog_ns += time.perf_counter_ns() - t0
        self.measure_reference()
        return result

    def repeat(self, times, fn, *args) -> list:
        """A phase that is one call: make it ``times`` times, each followed
        by a reference chunk; ``per_call`` then divides by ``times``."""
        self.per_call = times
        return [self.call(fn, *args) for _ in range(times)]


CHUNK = 2_000   # program operations between two reference chunks
SETUP_REPEATS = 3
TASK_REPEATS = 2


def _chunks(meter, loop, fn, n, part):
    """Run ``loop(fn, part(i, j))`` over [0, n) in chunks; sum the failures."""
    bad = 0
    for i in range(0, n, CHUNK):
        bad += meter.call(loop, fn, part(i, min(i + CHUNK, n)))
    return bad


def _pairs(ops):
    return lambda i, j: zip(ops.us[i:j], ops.vs[i:j])


# phase -> (run(graph, case, ingested edges, meter) -> result,
#           check(case, result) -> (attempted, failed))
PHASES = {
    "insert": (lambda g, c, edges, m: _chunks(
        m, _insert_all, g.insert_edge, len(edges), lambda i, j: edges[i:j]),
               lambda c, bad: (len(c.edges), bad)),
    "hit": (lambda g, c, _, m: _chunks(
        m, _hits, g.query_edge, len(c.hits), _pairs(c.hits)),
            lambda c, bad: (len(c.hits), bad)),
    "miss": (lambda g, c, _, m: _chunks(
        m, _misses, g.query_edge, len(c.misses), _pairs(c.misses)),
             lambda c, bad: (len(c.misses), bad)),
    "mix": (lambda g, c, _, m: _chunks(
        m, _stream_all, g, len(c.stream), lambda i, j: (
            c.stream.codes[i:j], c.stream.us[i:j], c.stream.vs[i:j])),
            lambda c, bad: (len(c.stream), bad)),
    "delete": (lambda g, c, _, m: _chunks(
        m, _delete_all, g.delete_edge, len(c.teardown), _pairs(c.teardown)),
               lambda c, bad: (len(c.teardown), bad)),
    "bfs": (lambda g, c, _, m: m.repeat(
        TASK_REPEATS, _task, g, TaskSpec("bfs", top_k=BFS_K)),
            lambda c, results: _sum(_check_bfs(c, r) for r in results)),
    "pr": (lambda g, c, _, m: m.repeat(TASK_REPEATS, _task, g, TaskSpec(
        "pr", top_k=PR_K, pr_iterations=PR_ITERATIONS)),
           lambda c, results: _sum(_check_pagerank(c, r) for r in results)),
}


def _sum(pairs):
    attempted = failed = 0
    for a, f in pairs:
        attempted += a
        failed += f
    return attempted, failed


def _check_bfs(case, res):
    """The top-k ranking counts as one operation, each traversal as one."""
    attempted = 1 + len(case.bfs_orders)
    if isinstance(res, Exception):
        return attempted, attempted
    failed = int(res["sources"] != case.bfs_sources)
    failed += sum(res["orders"].get(s) != order
                  for s, order in case.bfs_orders.items())
    return attempted, failed


def _check_pagerank(case, res):
    if isinstance(res, Exception):
        return 1, 1
    scores, want = res["scores"], case.pagerank
    ok = scores.keys() == want.keys() and all(
        abs(scores[x] - want[x]) <= PR_TOLERANCE for x in want)
    return 1, int(not ok)


def _ingest_failures(got, want) -> int:
    if got == want:
        return 0
    return abs(len(got) - len(want)) + sum(a != b for a, b in zip(got, want))


def _build_checks(graph, case, tally) -> float:
    """Check the built graph's counts; return accounted bytes per edge."""
    s = graph.stats()
    tally.check(s.edges == case.edges_at_reads,
                f"built graph holds {s.edges} edges, "
                f"expected {case.edges_at_reads}")
    tally.check(s.nodes == case.nodes_at_reads,
                f"built graph holds {s.nodes} nodes, "
                f"expected {case.nodes_at_reads}")
    return s.bytes_total / max(s.edges, 1)


def _teardown_checks(graph, params, tally):
    s = graph.stats()
    tally.check(s.nodes == 0 and s.edges == 0 and s.adj_cells == 0,
                f"teardown left {s.nodes} nodes, {s.edges} edges and "
                f"{s.adj_cells} adjacency cells")
    lengths = graph.node_chain_lengths()
    tally.check(lengths == (params.node_table_len,),
                f"teardown left the node chain at {lengths}")
    _audit(graph, tally, "after teardown")


def _audit(graph, tally, when):
    try:
        graph.check_invariants()
    except AssertionError as exc:
        tally.problems.append(f"check_invariants {when}: {exc}")


@dataclass
class Round:
    """Per phase: program ns at the reference speed, raw program ns (per
    call for the phases that repeat one call), and the mean reference chunk
    ns; the graph's counters when tracing."""

    times: dict
    raw: dict
    ref: dict
    bytes_per_edge: float
    counters: dict = field(default_factory=dict)   # phase -> (before, after)



def run_round(case, path, params, tally, graph_cls=CuckooGraph,
              tracer=None, reference=None) -> Round:
    """Set up and run every phase once.

    With a reference, every phase interleaves reference chunks with its
    program work. With a tracer there should be none: traced phases are
    reported raw, and their counters are kept.
    """
    rnd = Round({}, {}, {}, None)
    meter = Meter(reference)
    if tracer is not None:
        tracer.begin("setup")
    edges, graph = meter.repeat(SETUP_REPEATS, lambda: (
        workload.read_edge_file(path), graph_cls(params)))[-1]
    _close(rnd, "setup", meter, tracer)
    tally.ops(len(case.edges), _ingest_failures(edges, case.edges))

    for phase in case.spec.phases:
        if phase in READ_PHASES and rnd.bytes_per_edge is None:
            rnd.bytes_per_edge = _build_checks(graph, case, tally)
        run, check = PHASES[phase]
        before = graph.stats().counters if tracer is not None else None
        meter = Meter(reference)
        if tracer is not None:
            tracer.begin(phase)
        result = run(graph, case, edges, meter)
        _close(rnd, phase, meter, tracer)
        if tracer is not None:
            rnd.counters[phase] = (before, graph.stats().counters)
        tally.ops(*check(case, result))
    _teardown_checks(graph, params, tally)
    return rnd


def _close(rnd, phase, meter, tracer):
    """Record a phase's time per call, raw and at the reference speed."""
    raw = meter.prog_ns / meter.per_call
    rnd.raw[phase] = raw
    rnd.ref[phase] = meter.ref_ns / meter.refs if meter.refs else 0.0
    rnd.times[phase] = (raw * Reference.NOMINAL_NS / rnd.ref[phase]
                        if meter.refs else raw)
    if tracer is not None:
        tracer.end(meter.prog_ns)


# -- the untimed heap pass ----------------------------------------------------

_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def retained_bytes(root) -> int:
    """Bytes of every object reachable from root, each counted once.

    Classes, modules and functions are shared program text, not graph
    state, so the walk neither counts them nor descends into them.
    """
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def heap_pass(case, path, params, tally, graph_cls=CuckooGraph) -> float:
    """Build the graph as a round does, untimed; heap bytes per live edge.

    The build is every phase before the first read. The built graph is
    audited with ``check_invariants`` before it is measured.
    """
    edges = workload.read_edge_file(path)
    graph = graph_cls(params)
    for phase in case.spec.phases:
        if phase in READ_PHASES:
            break
        run, check = PHASES[phase]
        attempted, failed = check(case, run(graph, case, edges, Meter()))
        tally.check(not failed, f"heap pass: {failed} of {attempted} "
                                f"{phase} operations failed")
    _build_checks(graph, case, tally)
    _audit(graph, tally, "after the build")
    return retained_bytes(graph) / max(graph.stats().edges, 1)
