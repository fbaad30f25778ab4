"""Per-layer timing by wrapping the program's functions from outside.

``Tracer.install()`` replaces functions of the program's modules and
classes with wrappers and ``uninstall()`` puts the originals back; no file
of the program changes. Hot calls are aggregated per phase as count, total
time and self time for each (name, caller) pair. Structural events (chain
grow and contract, inline promotion and demotion, pending-queue flushes)
and garbage-collector pauses are also kept as spans with a parent, held in
memory and written out once the run ends.

Self time is a call's duration minus the part covered by wrapped calls and
collector pauses inside it. Per phase, the self times of every layer plus
the phase's own remainder (the benchmark's loop, the tracer's bookkeeping
between wrapped calls, and program code outside any wrapped function) add
up to the traced wall time of the phase.
"""

from __future__ import annotations

import gc
import json
import time

from cuckoograph import analytics, chain, cuckoo_table, hashing, workload

HOT, SPAN = "hot", "span"
ROOT = "phase"
GC = "gc"


def _pending(graph):
    return (len(getattr(graph, "_pending_node", ()))
            + len(getattr(graph, "_pending_adj", ())))


def _chain_event(args, result, _):
    ch = args[0]
    out = {"level": "node" if ch.owner is None else "adj", "owner": ch.owner,
           "lengths": list(ch.lengths())}
    if result is not None:
        out.update(kind=result.kind, moved=result.moved,
                   failed=len(result.failed), rebuilt=result.rebuilt)
    return out


def _flushed(args, result, entries):
    return {"entries": entries} if entries else None


def _demoted(args, result, had_chain):
    cell = args[1]
    return {"node": cell.node} if had_chain and cell.chain is None else None


def targets(graph_cls):
    """(layer name, owner, attribute, kind, before, after) of every wrap.

    ``before(*args)`` runs ahead of the call and its value reaches
    ``after(args, result, value)``, which returns the span's extra fields,
    or None to keep no span for that call.
    """
    return (
        ("workload.read_edge_file", workload, "read_edge_file", HOT, None, None),
        ("hashing.pair", hashing.HashPair, "pair", HOT, None, None),
        ("graph.insert_edge", graph_cls, "insert_edge", HOT, None, None),
        ("graph.query_edge", graph_cls, "query_edge", HOT, None, None),
        ("graph.delete_edge", graph_cls, "delete_edge", HOT, None, None),
        ("graph.successors", graph_cls, "successors", HOT, None, None),
        ("graph.denylist.push", graph_cls, "_push_node_dl", HOT, None, None),
        ("graph.denylist.push", graph_cls, "_push_adj_dl", HOT, None, None),
        ("graph.promote", graph_cls, "_promote", SPAN, None,
         lambda args, r, _: {"node": args[1].node}),
        ("graph.demote", graph_cls, "_maybe_demote", SPAN,
         lambda g, cell: cell.chain is not None, _demoted),
        ("graph.flush_pending", graph_cls, "_flush_pending", SPAN,
         _pending, _flushed),
        ("cuckoo_table.insert", cuckoo_table.CuckooTable, "insert", HOT,
         None, None),
        ("chain.insert", chain.TableChain, "insert", HOT, None, None),
        ("chain.advance", chain.TableChain, "advance", SPAN, None,
         _chain_event),
        ("chain.contract", chain.TableChain, "contract", SPAN, None,
         _chain_event),
        ("analytics.snapshot", analytics, "adjacency_view", HOT, None, None),
        ("analytics.snapshot", analytics, "total_degrees", HOT, None, None),
        ("analytics.snapshot", analytics, "select_top_degree", HOT, None,
         None),
        ("analytics.extract_subgraph", analytics, "extract_subgraph", HOT,
         None, None),
        ("analytics.bfs", analytics, "bfs", HOT, None, None),
        ("analytics.pagerank", analytics, "pagerank", HOT, None, None),
    )


class Tracer:
    """Wraps the program's layers for one traced round at a time."""

    def __init__(self, graph_cls):
        self._targets = targets(graph_cls)
        self.names = sorted({t[0] for t in self._targets})
        self.absent = []
        self._saved = []
        self.phases = {}     # phase -> {name: {caller: [calls, total, self, max]}}
        self.walls = {}      # phase -> traced wall ns
        self.spans = []
        self._agg = None     # the open phase's table; None between phases
        self._stack = [ROOT]
        self._child = [0]
        self._open = [0]
        self._next_id = 1
        self._phase = None
        self._phase_start = 0
        self._gc_start = 0

    # -- installation -----------------------------------------------------

    def install(self):
        self.absent = sorted({name for name, owner, attr, *_ in self._targets
                              if getattr(owner, attr, None) is None})
        for name, owner, attr, kind, before, after in self._targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            # an inherited attribute is shadowed, then deleted again
            self._saved.append((owner, attr, vars(owner).get(attr)))
            wrap = self._span if kind == SPAN else self._hot
            setattr(owner, attr, wrap(name, fn, before, after))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._saved):
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)
        self._saved = []

    # -- phases -------------------------------------------------------------

    def begin(self, phase):
        self._agg = self.phases.setdefault(phase, {})
        self._stack[:] = [ROOT]
        self._child[:] = [0]
        self._open[:] = [self._new_id()]
        self._phase = phase
        self._phase_start = time.perf_counter_ns()

    def end(self, wall_ns):
        """Close the phase; the root's self time is the phase remainder."""
        self._record(ROOT, "", wall_ns, wall_ns - self._child[0])
        self.walls[self._phase] = wall_ns
        self.spans.append({"id": self._open[0], "parent": None,
                           "phase": self._phase, "name": ROOT,
                           "start_ns": self._phase_start, "dur_ns": wall_ns})
        self._agg = None

    def reset(self):
        """Forget the last round's aggregates and spans."""
        self.phases = {}
        self.walls = {}
        self.spans = []

    # -- wrappers -----------------------------------------------------------

    def _new_id(self):
        i = self._next_id
        self._next_id += 1
        return i

    def _record(self, name, caller, total, own):
        by_caller = self._agg.get(name)
        if by_caller is None:
            by_caller = self._agg[name] = {}
        rec = by_caller.get(caller)
        if rec is None:
            by_caller[caller] = [1, total, own, total]
            return
        rec[0] += 1
        rec[1] += total
        rec[2] += own
        if total > rec[3]:
            rec[3] = total

    def _hot(self, name, fn, before, after):
        stack, child, record = self._stack, self._child, self._record
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            stack.append(name)
            child.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                inner = child.pop()
                child[-1] += dt
                record(name, caller, dt, dt - inner)

        return wrapper

    def _span(self, name, fn, before, after):
        stack, child, record = self._stack, self._child, self._record
        opened = self._open
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            info = before(*args) if before is not None else None
            caller = stack[-1]
            sid = tracer._new_id()
            parent = opened[-1]
            stack.append(name)
            child.append(0)
            opened.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                opened.pop()
                inner = child.pop()
                child[-1] += dt
                record(name, caller, dt, dt - inner)
                extra = after(args, result, info) if after else {}
                if extra is not None:
                    span = {"id": sid, "parent": parent, "phase": tracer._phase,
                            "name": name, "caller": caller, "start_ns": t0,
                            "dur_ns": dt}
                    span.update(extra)
                    tracer.spans.append(span)

        return wrapper

    def _on_gc(self, event, info):
        now = time.perf_counter_ns()
        if event == "start":
            self._gc_start = now
            return
        if self._agg is None:
            return  # between phases: part of no timed wall
        dt = now - self._gc_start
        self._child[-1] += dt
        self._record(GC, self._stack[-1], dt, dt)
        self.spans.append({"id": self._new_id(), "parent": self._open[-1],
                           "phase": self._phase, "name": GC,
                           "caller": self._stack[-1],
                           "start_ns": self._gc_start, "dur_ns": dt,
                           "generation": info["generation"],
                           "collected": info["collected"]})

    # -- results ------------------------------------------------------------

    def layer_metrics(self, phase) -> dict:
        """calls, self_s, total_s and max_ms of every layer in one phase.

        ``total_s`` leaves out calls made from the same layer, so nested
        calls are not counted twice.
        """
        agg = self.phases.get(phase, {})
        out = {}
        for name in self.names + [GC]:
            if name in self.absent:
                continue
            by_caller = agg.get(name, {})
            calls = sum(r[0] for r in by_caller.values())
            key = "collections" if name == GC else "calls"
            out[f"{name}.{key}"] = calls
            own = sum(r[2] for r in by_caller.values()) / 1e9
            out[f"{name}.{'pause_s' if name == GC else 'self_s'}"] = own
            if name != GC:
                out[f"{name}.total_s"] = sum(
                    r[1] for c, r in by_caller.items() if c != name) / 1e9
            out[f"{name}.max_ms"] = max(
                (r[3] for r in by_caller.values()), default=0) / 1e6
        root = agg.get(ROOT, {}).get("", [0, 0, 0, 0])
        out["remainder_s"] = root[2] / 1e9
        out["wall_s"] = self.walls.get(phase, 0) / 1e9
        return out

    def span_count(self, phase, name, field=None) -> int:
        """Spans of one name in a phase, or the sum of one of their fields."""
        return sum(1 if field is None else s[field] for s in self.spans
                   if s["phase"] == phase and s["name"] == name)

    def callers(self, phase) -> dict:
        """The full (name, caller) table of one phase, times in seconds."""
        return {name: {caller: {"calls": r[0], "total_s": r[1] / 1e9,
                                "self_s": r[2] / 1e9, "max_ms": r[3] / 1e6}
                       for caller, r in by_caller.items()}
                for name, by_caller in self.phases.get(phase, {}).items()}


def write_spans(path, spans):
    """One JSON object per line, in the order the spans closed."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")
