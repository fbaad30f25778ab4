"""Fast checks of the benchmark itself, at small sizes.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_program()

from cuckoograph import CuckooGraph  # noqa: E402

import workloads  # noqa: E402
from rounds import INSERTED  # noqa: E402
from workloads import DELETE, INSERT, Spec, make_case  # noqa: E402

TINY_SPARSE = Spec("tiny-sparse", "sparse", nodes=200, edges=1000,
                   queries=200, stream_groups=100, stream_first=False)
TINY_ZIPF = Spec("tiny-zipf", "zipf", nodes=300, edges=3000, queries=300,
                 stream_groups=300, stream_first=True)


def _run(tmp_path, spec, trace=0, graph_cls=None):
    result, lines = run.run(spec.name, 5, 0, trace, graph_cls=graph_cls,
                            spec=spec, out_dir=tmp_path)
    return result, lines


class TestInputs:
    @pytest.mark.parametrize("name", list(workloads.SPECS))
    def test_same_seed_same_inputs(self, name):
        spec = replace(workloads.SPECS[name], nodes=400, edges=2000,
                       queries=100, stream_groups=50)
        a, b, c = make_case(spec, 7), make_case(spec, 7), make_case(spec, 8)
        assert a == b
        assert a.edges != c.edges

    def test_sparse_out_degree_is_five_everywhere(self):
        spec = replace(workloads.SPECS["sparse-inline"], nodes=500,
                       edges=2500, queries=10, stream_groups=400)
        case = make_case(spec, 1)
        deg = {}
        for u, v in case.edges:
            assert u != v
            deg[u] = deg.get(u, 0) + 1
        assert len(deg) == 500 and set(deg.values()) == {5}
        # the stream rewires: after it every source still has out-degree 5
        for code, u in zip(case.stream.codes, case.stream.us):
            if code in (INSERT, DELETE):
                deg[u] += 1 if code == INSERT else -1
                assert 4 <= deg[u] <= 5
        assert set(deg.values()) == {5}

    def test_zipf_top_degree_is_ten_times_the_median(self):
        spec = replace(workloads.SPECS["zipf-lifecycle"], nodes=2000,
                       edges=10_000, queries=10, stream_groups=10)
        deg = {}
        for u, _ in make_case(spec, 1).edges:
            deg[u] = deg.get(u, 0) + 1
        assert sum(deg.values()) == 10_000
        assert max(deg.values()) >= 10 * statistics.median(deg.values())

    @pytest.mark.parametrize("spec", [TINY_SPARSE, TINY_ZIPF],
                             ids=lambda s: s.name)
    def test_stream_keeps_edge_count_level(self, spec):
        case = make_case(spec, 3)
        live, lowest, highest = len(case.edges), len(case.edges), len(case.edges)
        for code in case.stream.codes:
            live += {INSERT: 1, DELETE: -1}.get(code, 0)
            lowest, highest = min(lowest, live), max(highest, live)
        assert live == len(case.edges)
        assert highest - lowest <= 1
        assert len(case.teardown) == live

    def test_misses_use_ids_outside_the_node_range(self):
        case = make_case(TINY_ZIPF, 2)
        assert min(case.misses.vs) >= TINY_ZIPF.nodes
        assert all(0 <= v < TINY_ZIPF.nodes for v in case.hits.vs)


class TestRuns:
    @pytest.mark.parametrize("spec", [TINY_SPARSE, TINY_ZIPF],
                             ids=lambda s: s.name)
    def test_correct_program_fails_nothing(self, tmp_path, spec):
        result, _ = _run(tmp_path, spec)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert [*result["metrics"]] == [name for name, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_dropped_insert_is_a_failed_operation(self, tmp_path):
        class DropsOne(CuckooGraph):
            inserts = 0

            def insert_edge(self, u, v, weight=1):
                self.inserts += 1
                if self.inserts == 17:
                    return INSERTED
                return super().insert_edge(u, v, weight)

        result, _ = _run(tmp_path, TINY_SPARSE, graph_cls=DropsOne)
        assert result["failed"] >= 1

    def test_flipped_query_is_a_failed_operation(self, tmp_path):
        class FlipsOne(CuckooGraph):
            queries = 0

            def query_edge(self, u, v):
                self.queries += 1
                answer = super().query_edge(u, v)
                return (not answer) if self.queries == 23 else answer

        result, _ = _run(tmp_path, TINY_ZIPF, graph_cls=FlipsOne)
        assert result["failed"] >= 1


class TestReferenceScaling:
    def test_phase_time_is_scaled_by_the_reference_speed(self):
        from rounds import Meter, Reference, Round, _close
        rnd = Round({}, {}, {}, None)
        meter = Meter()
        meter.prog_ns, meter.per_call = 3_000, 3
        meter.ref_ns, meter.refs = 2 * Reference.NOMINAL_NS * 4, 4
        _close(rnd, "setup", meter, None)
        # reference chunks took twice the nominal time: the machine ran at
        # half speed, so the phase counts half its raw time per call
        assert rnd.raw["setup"] == 1_000
        assert rnd.times["setup"] == pytest.approx(500)

    def test_without_reference_times_stay_raw(self):
        from rounds import Meter, Round, _close
        rnd = Round({}, {}, {}, None)
        meter = Meter()
        meter.prog_ns = 4_000
        _close(rnd, "insert", meter, None)
        assert rnd.times["insert"] == rnd.raw["insert"] == 4_000


class TestTrace:
    def test_self_times_add_up_to_phase_wall(self, tmp_path):
        result, _ = _run(tmp_path, TINY_ZIPF, trace=1)
        assert result["correct"] and result["failed"] == 0
        with open(tmp_path / "trace-tiny-zipf-5.layers.json") as fh:
            medians = json.load(fh)["medians"]   # one traced round
        for phase in ("setup",) + TINY_ZIPF.phases:
            parts = [v for k, v in medians.items()
                     if k.startswith(phase + ".") and
                     k.endswith((".self_s", ".pause_s", ".remainder_s"))]
            wall = medians[f"{phase}.wall_s"]
            assert sum(parts) == pytest.approx(wall, rel=1e-6), phase
            assert medians[f"{phase}.trace.overhead"] > 0
        spans = (tmp_path / "trace-tiny-zipf-5.spans.jsonl").read_text()
        names = {json.loads(line)["name"] for line in spans.splitlines()}
        assert {"chain.advance", "graph.promote", "phase"} <= names

    def test_missing_layer_is_reported_absent(self, tmp_path):
        skip = {"_flush_pending", "__dict__", "__weakref__"}
        Stripped = type("Stripped", (), {k: v for k, v in
                                         vars(CuckooGraph).items()
                                         if k not in skip})
        assert not hasattr(Stripped, "_flush_pending")
        result, lines = _run(tmp_path, TINY_SPARSE, trace=1,
                             graph_cls=Stripped)
        assert result["correct"] and result["failed"] == 0
        assert "absent: graph.flush_pending" in lines
        assert not any("pending" in name for name in result["metrics"])
        assert "insert.graph.insert_edge.self_s" in result["metrics"]
        assert vars(Stripped).get("insert_edge") is vars(CuckooGraph)["insert_edge"]


class TestContract:
    def test_benchmark_json_lists_the_metrics_and_workloads(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
            list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
            list(run.PER_LAYER)
        assert [w["name"] for w in doc["workloads"]] == list(workloads.SPECS)

    def test_run_without_program_source_fails_before_measuring(self, tmp_path):
        shutil.copytree(run.HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sparse-inline", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
        assert not Path(tmp_path / "perfbench" / "out").exists()
