"""CuckooGraph benchmark: one workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zipf-lifecycle --seed 1 \\
        --seconds 25 --trace 0

The run builds its inputs from the seed, writes the edge file under
``perfbench/out/``, then repeats whole rounds (set-up, every phase, the
checks) while the next one is expected to end within ``--seconds``, at
least three times. With ``--trace 0`` it reports the end-to-end metrics,
each the median over the rounds. With ``--trace 1`` it alternates an
untraced and a traced round and reports the per-layer metrics of the
traced rounds (medians), with the tracing overhead per phase. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.

The program is imported from ``src/`` of the same checkout; without it the
run stops with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3

# (name, unit) of every end-to-end metric, in BENCHMARK.json's order
END_TO_END = (
    ("setup_s", "s"),
    ("insert_mops", "Mops"),
    ("query_hit_mops", "Mops"),
    ("query_miss_mops", "Mops"),
    ("delete_mops", "Mops"),
    ("mix_mops", "Mops"),
    ("bfs_s", "s"),
    ("pagerank_s", "s"),
    ("bytes_per_edge", "B/edge"),
    ("heap_bytes_per_edge", "B/edge"),
)

_UNITS = {
    "calls": "count", "collections": "count", "self_s": "s", "pause_s": "s",
    "remainder_s": "s", "max_ms": "ms", "overhead": "x",
    "evictions_per_insert": "evictions/insert",
    "placements_per_insert_event": "placements/event",
    "moved_per_edge": "moves/edge", "probes_per_query": "probes/query",
    "pushes": "count", "peak": "entries", "hits": "count",
    "demotions": "count",
}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


_LAYERS = {
    "setup": ("workload.read_edge_file.self_s", "trace.overhead"),
    "insert": (
        "hashing.pair.calls", "hashing.pair.self_s",
        "graph.insert_edge.self_s",
        "cuckoo_table.insert.calls", "cuckoo_table.insert.self_s",
        "chain.insert.self_s", "chain.advance.calls", "chain.advance.self_s",
        "chain.advance.max_ms",
        "cuckoo_table.adj.evictions_per_insert",
        "cuckoo_table.adj.placements_per_insert_event",
        "cuckoo_table.node.placements_per_insert_event",
        "chain.moved_per_edge", "graph.promote.calls", "graph.promote.self_s",
        "graph.denylist.pushes", "graph.denylist.peak",
        "gc.collections", "gc.pause_s", "remainder_s", "trace.overhead"),
    "hit": (
        "hashing.pair.self_s", "graph.query_edge.self_s",
        "graph.node_probes_per_query", "graph.adj_probes_per_query",
        "graph.denylist.hits", "trace.overhead"),
    "miss": (
        "hashing.pair.self_s", "graph.query_edge.self_s",
        "graph.node_probes_per_query", "graph.adj_probes_per_query",
        "graph.denylist.hits", "trace.overhead"),
    "bfs": (
        "graph.successors.calls", "graph.successors.self_s",
        "analytics.snapshot.self_s", "analytics.bfs.self_s",
        "trace.overhead"),
    "pr": (
        "analytics.snapshot.self_s", "analytics.extract_subgraph.self_s",
        "analytics.pagerank.self_s", "trace.overhead"),
    "mix": (
        "graph.insert_edge.self_s", "graph.delete_edge.self_s",
        "graph.query_edge.self_s",
        "cuckoo_table.insert.calls", "cuckoo_table.insert.self_s",
        "chain.advance.calls", "chain.advance.self_s",
        "chain.contract.calls", "chain.contract.self_s",
        "cuckoo_table.adj.placements_per_insert_event",
        "chain.moved_per_edge", "graph.promote.calls",
        "graph.demote.demotions", "gc.pause_s", "trace.overhead"),
    "delete": (
        "graph.delete_edge.self_s",
        "chain.contract.calls", "chain.contract.self_s",
        "chain.contract.max_ms", "chain.moved_per_edge",
        "graph.demote.demotions", "graph.demote.self_s",
        "cuckoo_table.insert.calls", "gc.pause_s", "trace.overhead"),
}

# (name, unit) of every per-layer metric reported on the last line
PER_LAYER = tuple((f"{phase}.{m}", _unit(m))
                  for phase, names in _LAYERS.items() for m in names)


def import_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "cuckoograph" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program source under {src}")
    sys.path.insert(0, str(src))
    import cuckoograph
    if Path(cuckoograph.__file__).resolve().parent != (src / "cuckoograph").resolve():
        raise SystemExit(f"run.py: cuckoograph imported from "
                         f"{cuckoograph.__file__}, not from {src}")


def end_to_end(case, rounds, heap_per_edge, field="times") -> dict:
    """Medians over the rounds of every end-to-end metric.

    Times come from ``Round.times`` (at the reference speed) by default;
    ``field="raw"`` gives the same figures from the raw wall times.
    """
    def mops(phase, ops):
        return statistics.median(
            [ops * 1e3 / getattr(r, field)[phase] for r in rounds])

    def secs(phase):
        return statistics.median(
            [getattr(r, field)[phase] / 1e9 for r in rounds])

    values = {
        "setup_s": secs("setup"),
        "insert_mops": mops("insert", len(case.edges)),
        "query_hit_mops": mops("hit", len(case.hits)),
        "query_miss_mops": mops("miss", len(case.misses)),
        "delete_mops": mops("delete", len(case.teardown)),
        "mix_mops": mops("mix", len(case.stream)),
        "bfs_s": secs("bfs"),
        "pagerank_s": secs("pr"),
        "bytes_per_edge": statistics.median([r.bytes_per_edge for r in rounds]),
        "heap_bytes_per_edge": heap_per_edge,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _op_counts(case, phase):
    """(inserts, deletes, queries) a phase performs."""
    groups = len(case.stream) // 4
    return {
        "insert": (len(case.edges), 0, 0),
        "hit": (0, 0, len(case.hits)),
        "miss": (0, 0, len(case.misses)),
        "mix": (groups, groups, 2 * groups),
        "delete": (0, len(case.teardown), 0),
    }.get(phase, (0, 0, 0))


def _ratio(a, b):
    return a / b if b else 0.0


def counter_metrics(case, phase, before, after) -> dict:
    """Per-phase figures from the graph's own counters; exact for a seed."""
    def delta(level, key):
        return after[level][key] - before[level][key]

    inserts, deletes, queries = _op_counts(case, phase)
    out = {
        f"cuckoo_table.{lvl}.placements_per_insert_event":
            _ratio(delta(lvl, "placements"), delta(lvl, "insert_events"))
        for lvl in ("node", "adj")}
    out["cuckoo_table.adj.evictions"] = delta("adj", "evictions")
    if inserts:
        out["cuckoo_table.adj.evictions_per_insert"] = (
            delta("adj", "evictions") / inserts)
    if inserts or deletes:
        out["chain.moved_per_edge"] = (
            (after["movements"] - before["movements"]) / (inserts + deletes))
    if queries and not (inserts or deletes):
        out["graph.node_probes_per_query"] = (
            delta("node", "bucket_probes") / queries)
        out["graph.adj_probes_per_query"] = (
            delta("adj", "bucket_probes") / queries)
    out["graph.denylist.hits"] = after["dl_hits"] - before["dl_hits"]
    out["graph.denylist.peak"] = max(after["sdl_peak"], after["ldl_peak"])
    return out


def phase_layers(case, tracer, traced, plain) -> dict:
    """Every per-layer figure of one traced round, keyed phase.metric."""
    out = {}
    for phase in ("setup",) + case.spec.phases:
        m = tracer.layer_metrics(phase)
        if phase in traced.counters:
            m.update(counter_metrics(case, phase, *traced.counters[phase]))
        if "graph.denylist.push.calls" in m:
            m["graph.denylist.pushes"] = m["graph.denylist.push.calls"]
        if "graph.demote" not in tracer.absent:
            m["graph.demote.demotions"] = tracer.span_count(phase, "graph.demote")
        if "graph.flush_pending" not in tracer.absent:
            m["graph.pending.entries"] = tracer.span_count(
                phase, "graph.flush_pending", "entries")
        m["remainder_share"] = _ratio(m["remainder_s"], m["wall_s"])
        m["trace.overhead"] = traced.raw[phase] / plain.raw[phase]
        out.update({f"{phase}.{k}": v for k, v in m.items()})
    return out


def measure(case, path, params, seconds, tally, graph_cls):
    from rounds import Reference, run_round
    reference = Reference()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or _room(start, len(rounds), seconds):
        gc.collect()
        rounds.append(run_round(case, path, params, tally, graph_cls,
                                reference=reference))
    return rounds


def _room(start, done, seconds) -> bool:
    """Whether one more round, as long as the mean so far, ends in time."""
    spent = time.perf_counter() - start
    return spent + spent / done <= seconds


def measure_traced(case, path, params, seconds, tally, graph_cls):
    """Alternate plain and traced rounds; medians of the traced figures.

    Neither kind runs the reference workload: per-layer figures are raw,
    and the overhead compares raw wall times.

    Returns the medians, the first traced round's (layer, caller) tables
    and spans, and the layers that the program lacks.
    """
    from rounds import run_round
    from tracer import Tracer
    tracer = Tracer(graph_cls)
    layers, first = [], None
    start = time.perf_counter()
    while not layers or _room(start, len(layers), seconds):
        gc.collect()
        plain = run_round(case, path, params, tally, graph_cls)
        gc.collect()
        tracer.install()
        try:
            traced = run_round(case, path, params, tally, graph_cls, tracer)
        finally:
            tracer.uninstall()
        layers.append(phase_layers(case, tracer, traced, plain))
        if first is None:
            first = ({p: tracer.callers(p) for p in tracer.phases},
                     tracer.spans)
        tracer.reset()
    medians = {k: statistics.median([run[k] for run in layers])
               for k in layers[0]}
    return medians, first[0], first[1], tracer.absent


def run(workload_name, seed, seconds, trace, graph_cls=None, spec=None,
        out_dir=OUT):
    """Run one workload and return (result dict, report lines)."""
    from cuckoograph import CuckooGraph, GraphParams
    from rounds import Tally, heap_pass
    from workloads import SPECS, make_case, write_edge_file

    graph_cls = graph_cls or CuckooGraph
    spec = spec or SPECS[workload_name]
    out_dir.mkdir(parents=True, exist_ok=True)
    case = make_case(spec, seed)
    path = out_dir / f"{spec.name}-{seed}.edges"
    write_edge_file(path, case.edges)
    params = GraphParams.from_seed(seed)
    tally = Tally()
    lines = []
    extra = {}      # written to the result file only
    heap = heap_pass(case, path, params, tally, graph_cls)
    if trace:
        medians, callers, spans, absent = measure_traced(
            case, path, params, seconds, tally, graph_cls)
        metrics = {}
        for name, unit in PER_LAYER:
            if name in medians:
                metrics[name] = (medians[name], unit)
        stem = out_dir / f"trace-{spec.name}-{seed}"
        from tracer import write_spans
        write_spans(stem.with_suffix(".spans.jsonl"), spans)
        with open(stem.with_suffix(".layers.json"), "w") as fh:
            json.dump({"medians": medians, "callers": callers,
                       "absent": absent}, fh, indent=1, sort_keys=True)
        lines += [f"{k} {v:.6g}" for k, v in sorted(medians.items()) if v]
        lines += [f"absent: {name}" for name in absent]
    else:
        from rounds import Reference
        rounds = measure(case, path, params, seconds, tally, graph_cls)
        metrics = end_to_end(case, rounds, heap)
        lines.append(f"rounds {len(rounds)}")
        extra["raw"] = {name: value for name, (value, unit)
                        in end_to_end(case, rounds, heap, field="raw").items()
                        if unit != "B/edge"}
        extra["speed"] = {phase: Reference.NOMINAL_NS / statistics.median(
            [r.ref[phase] for r in rounds]) for phase in ("setup",) + spec.phases}
        lines += [f"raw {k} {v:.6g}" for k, v in extra["raw"].items()]
        lines += [f"speed {k} {v:.4f}" for k, v in extra["speed"].items()]
    lines += [f"{name} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append(f"attempted {tally.attempted} failed {tally.failed}")
    lines += [f"problem: {p}" for p in tally.problems]
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"result-{spec.name}-{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump(dict(result, **extra), fh, indent=1)
    return result, lines


def main(argv=None):
    import_program()
    from workloads import SPECS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
