import csv
import dataclasses
import random
import re
import statistics
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cuckoograph import bench, workload
from cuckoograph.bench import Workload, run
from cuckoograph.cli import _split_phases, main
from cuckoograph.graph import GraphParams


CSV_HEADER = ["phase", "ops", "elapsed_ns", "mops", "bytes", "placements",
              "evictions", "dl_hits", "movements"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestIngest:
    @pytest.mark.parametrize("text, edges", [
        pytest.param("1 2\n2 3\n", [(1, 2), (2, 3)], id="plain"),
        pytest.param("1 2\n\n \n2 3\n\n", [(1, 2), (2, 3)], id="blank-lines"),
        pytest.param("1 2\r\n2 3\r\n", [(1, 2), (2, 3)], id="crlf"),
        pytest.param("1 2\n2 3", [(1, 2), (2, 3)], id="no-final-newline"),
        pytest.param("", [], id="empty"),
        pytest.param("0" * 5000 + "1 2\n", [(1, 2)],
                     id="leading-zeros-past-int-digit-limit"),
    ])
    def test_parses_pairs(self, tmp_path, text, edges):
        p = tmp_path / "e.txt"
        p.write_text(text, newline="")
        assert workload.read_edge_file(p) == edges

    def test_comments_weights_and_dedup(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# c\n% c2\n1 2\n1 2\n3 4 7\n")
        edges = workload.read_edge_file(p)
        assert edges == [(1, 2), (1, 2), (3, 4, 7)]
        assert workload.dedup_edges(edges) == [(1, 2), (3, 4, 7)]

    @pytest.mark.parametrize("line, message", [
        pytest.param("foo bar", "non-integer field", id="words"),
        pytest.param("1_0 2", "non-integer field", id="underscore"),
        pytest.param("+1 2", "non-integer field", id="plus-sign"),
        pytest.param("\u0663 4", "non-integer field", id="arabic-indic-digit"),
        pytest.param("1" * 5000 + " 2", "value of 2**64 or more",
                     id="past-int-digit-limit"),
        # plain lines: numpy reads both as 2**64 - 1, so the line loop does
        pytest.param("9" * 20 + " 2", "value of 2**64 or more",
                     id="twenty-nines"),
        pytest.param(f"{1 << 64} 2", "value of 2**64 or more", id="2-pow-64"),
        pytest.param("-" + "1" * 5000 + " 2", "negative value",
                     id="negative-past-int-digit-limit"),
        pytest.param("-1 2", "negative value", id="negative"),
        pytest.param("-0 2", "negative value", id="minus-zero"),
        pytest.param("1 2 0", "weight must be >= 1", id="weight-0"),
        pytest.param("1 2 3 4", "expected 2 or 3 fields, got 4",
                     id="four-fields"),
    ])
    def test_malformed_line_reports_lineno(self, tmp_path, line, message):
        p = tmp_path / "bad.txt"
        p.write_text(f"1 2\n{line}\n")
        with pytest.raises(ValueError, match=f":2: {re.escape(message)}"):
            workload.read_edge_file(p)
        p.write_text("1\n")
        with pytest.raises(ValueError, match="fields"):
            workload.read_edge_file(p)

    def test_id_of_2_pow_64_reports_lineno(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text(f"{1 << 64} 1\n")
        with pytest.raises(ValueError, match=":1:.*2\\*\\*64"):
            workload.read_edge_file(p)
        p.write_text(f"0 {(1 << 64) - 1}\n")
        assert workload.read_edge_file(p) == [(0, (1 << 64) - 1)]

    @pytest.mark.parametrize("line3", ["foo bar", "3 4"])
    def test_first_bad_line_wins(self, tmp_path, line3):
        # "foo bar" sends the file straight to the line loop; "3 4" keeps
        # it plain, so the one-pass path sees the wide value first
        p = tmp_path / "big.txt"
        p.write_text(f"1 2\n{1 << 64} 1\n{line3}\n")
        with pytest.raises(ValueError, match=":2:.*2\\*\\*64"):
            workload.read_edge_file(p)

    def test_one_pass_and_line_loop_read_the_same_list(self, tmp_path):
        plain = tmp_path / "z.txt"
        edges = workload.generate_synthetic("zipf", 300, 3000, 1, path=plain)
        commented = tmp_path / "zc.txt"
        commented.write_text(plain.read_text() + "# c\n")
        assert workload.read_edge_file(plain) == edges
        assert workload.read_edge_file(commented) == edges

    @pytest.fixture
    def no_line_loop(self, monkeypatch):
        def loop(path, text):
            raise AssertionError("line loop")
        monkeypatch.setattr(workload, "_read_lines", loop)

    def test_plain_file_never_reaches_the_line_loop(self, tmp_path,
                                                    no_line_loop):
        p = tmp_path / "e.txt"
        p.write_text("1 2\n3\t4\n")
        assert workload.read_edge_file(p) == [(1, 2), (3, 4)]
        p.write_text("1 2\n# c\n")
        with pytest.raises(AssertionError, match="line loop"):
            workload.read_edge_file(p)

    @pytest.mark.parametrize("text, edges", [
        pytest.param(f"{10**19 - 1} 1\n", [(10**19 - 1, 1)], id="10^19-1"),
        pytest.param(f"1 {10**19}\n", [(1, 10**19)], id="10^19"),
        pytest.param(f"{(1 << 64) - 2} 0\n", [((1 << 64) - 2, 0)],
                     id="2^64-2"),
        pytest.param("", [], id="empty"),
    ])
    def test_one_pass_reads_exact_values(self, tmp_path, no_line_loop, text,
                                         edges):
        p = tmp_path / "e.txt"
        p.write_text(text)
        got = workload.read_edge_file(p)
        assert got == edges
        assert all(type(x) is int for e in got for x in e)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edges=st.lists(st.tuples(st.integers(0, (1 << 64) - 1),
                                    st.integers(0, (1 << 64) - 1)),
                          max_size=40))
    def test_written_pairs_read_back_equal(self, tmp_path, edges):
        p = tmp_path / "e.txt"
        workload.write_edge_file(p, edges)
        assert workload.read_edge_file(p) == edges

    def test_one_pass_peak_stays_near_the_list_it_returns(self, tmp_path):
        # beyond the returned list, the one-pass path holds the text and one
        # list of values; splitting the text into strings held about 7.5
        # times the file's size on top of the list
        p = tmp_path / "e.txt"
        workload.write_edge_file(
            p, [(i, i * 7919 % 100_000) for i in range(100_000)])
        size = p.stat().st_size
        tracemalloc.start()
        try:
            edges = workload.read_edge_file(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(edges) == 100_000
        assert peak - held < 3 * size

    def test_plain_check_keeps_no_backtrack_stack(self):
        # a greedy repeat keeps a backtrack point per line, about 4 MB here
        text = "".join(f"{i} {i * 7 % 1000}\n" for i in range(20_000))
        tracemalloc.start()
        try:
            assert workload._PLAIN.fullmatch(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGenerators:
    def test_sparse_constant_out_degree(self):
        edges = workload.generate_synthetic("sparse", 5, 10, seed=1)
        per_node = {}
        for u, v in edges:
            assert u != v
            per_node.setdefault(u, set()).add(v)
        assert all(len(vs) == 2 for vs in per_node.values())
        assert len(edges) == 10

    def test_dense_full_minus_self_loops(self):
        edges = workload.generate_synthetic("dense", 8, 56, seed=1)
        assert len(set(edges)) == 56
        assert all(u != v for u, v in edges)

    def test_zipf_is_heavy_headed(self):
        edges = workload.generate_synthetic("zipf", 1000, 6000, seed=3)
        assert len(edges) == 6000
        deg = {}
        for u, _ in edges:
            deg[u] = deg.get(u, 0) + 1
        degrees = sorted(deg.values(), reverse=True)
        assert degrees[0] >= 10 * statistics.median(degrees)

    def test_determinism_and_file_output(self, tmp_path):
        a = workload.generate_synthetic("zipf", 100, 400, seed=9)
        b = workload.generate_synthetic("zipf", 100, 400, seed=9,
                                        path=tmp_path / "z.txt")
        assert a == b
        assert workload.read_edge_file(tmp_path / "z.txt") == b

    def test_edge_file_bytes(self, tmp_path):
        # fields joined by one space, one line per edge, newline-terminated
        edges = [(1, 2), (0, (1 << 64) - 1, 7), (10**19, 3), (4, 5, 1)]
        p = tmp_path / "e.txt"
        workload.write_edge_file(p, edges)
        assert p.read_bytes() == "".join(
            " ".join(str(x) for x in e) + "\n" for e in edges).encode()
        workload.write_edge_file(p, [])
        assert p.read_bytes() == b""

    def test_weighted_export_reads_back(self, tmp_path):
        g = bench.CuckooGraph(GraphParams(weighted=True))
        for u, v, w in [(1, 2, 5), (1, 3, 1), (2, 1, (1 << 64) - 1),
                        ((1 << 64) - 1, 0, 2)]:
            g.insert_edge(u, v, w)
        p = tmp_path / "w.txt"
        g.export_edges(p)
        assert workload.read_edge_file(p) == list(g.iter_edges())
        assert len(p.read_text().splitlines()[0].split()) == 3

    @pytest.mark.parametrize("ratios", [(0.5, 0.4, 0.2), (1.5, -0.5, 0.0),
                                        (0.5, 0.5)])
    def test_mixed_ops_checks_its_ratios_when_called(self, ratios):
        # not only once the stream is iterated, and not by the sum alone
        with pytest.raises(ValueError, match="mixed ratios"):
            workload.mixed_ops(5, ratios, 100, 1)

    @pytest.mark.parametrize("args", [
        *[pytest.param((200_000, (0.6, 0.3, 0.1), 1 << 16, seed),
                       id=f"criterion-02-seed-{seed}") for seed in range(5)],
        pytest.param((20_000, (0.7, 0.1, 0.2), 4096, 8), id="criterion-08"),
    ])
    def test_mixed_ops_match_the_generator_form(self, args):
        def reference(count, ratios, universe, seed):
            # one op at a time: its three draws, then one lookup per id
            ri, rq, _ = ratios
            rng = random.Random(seed)
            cum = np.cumsum(workload._zipf(universe, workload.ID_SKEW))
            for _ in range(count):
                r = rng.random()
                op = "i" if r < ri else ("q" if r < ri + rq else "d")
                yield (op, int(np.searchsorted(cum, rng.random(), side="right")),
                       int(np.searchsorted(cum, rng.random(), side="right")))
        ops = workload.mixed_ops(*args)
        assert type(ops) is list and len(ops) == args[0]
        assert ops == list(reference(*args))

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            workload.generate_synthetic("dense", 3, 100, seed=0)
        with pytest.raises(ValueError):
            workload.generate_synthetic("sparse", 5, 7, seed=0)
        with pytest.raises(ValueError):
            workload.generate_synthetic("wat", 5, 5, seed=0)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            workload.generate_synthetic("sparse", 1, 0, seed=0)


class TestRun:
    def make_dataset(self, tmp_path, n=200):
        edges = workload.generate_synthetic("sparse", n, n * 3, seed=4)
        path = tmp_path / "d.txt"
        workload.write_edge_file(path, edges)
        return path, edges

    def test_insert_then_query_roundtrip(self, tmp_path):
        path, edges = self.make_dataset(tmp_path)
        report = run(Workload(dataset=str(path), phases=("insert", "query")))
        ins, qry = report.phases
        assert ins.ops == qry.ops == len(edges)
        assert ins.mops > 0 and qry.mops > 0
        assert ins.placements >= len({u for u, _ in edges})
        assert ins.bytes > 0

    def test_insert_then_delete_reaches_floor(self, tmp_path):
        path, edges = self.make_dataset(tmp_path)
        params = GraphParams(node_table_len=2)
        report = run(Workload(dataset=str(path), params=params,
                              phases=("insert", "delete")))
        final = report.phases[-1]
        # floor: one node table of base length, no adjacency cells
        empty = bench.CuckooGraph(params).stats().bytes_total
        assert final.bytes == empty

    def test_phase_isolation_totals(self, tmp_path):
        path, _ = self.make_dataset(tmp_path)
        report = run(Workload(dataset=str(path),
                              phases=("insert", "insert", "delete")))
        graphwide = sum(p.placements for p in report.phases)
        assert report.phases[1].placements == 0  # all duplicates
        assert graphwide == report.phases[0].placements + \
            report.phases[2].placements

    def test_mixed_phase_counts_every_op(self, tmp_path):
        path, _ = self.make_dataset(tmp_path)
        report = run(Workload(dataset=str(path),
                              phases=("mixed:0.6,0.3,0.1:5000",), seed=3))
        (mixed,) = report.phases
        assert mixed.phase == "0:mixed:0.6,0.3,0.1:5000"
        assert mixed.ops == 5000
        assert mixed.placements > 0

    def test_task_phase_digest(self, tmp_path):
        path, _ = self.make_dataset(tmp_path)
        r1 = run(Workload(dataset=str(path), phases=("insert", "task:bfs:5")))
        r2 = run(Workload(dataset=str(path), phases=("insert", "task:bfs:5")))
        assert r1.phases[1].phase == r2.phases[1].phase
        assert "@" in r1.phases[1].phase
        assert r1.phases[1].ops == 5

    def test_task_digest_is_off_the_clock(self, tmp_path, monkeypatch):
        path, _ = self.make_dataset(tmp_path)
        digest = bench._digest

        def slow_digest(value):
            time.sleep(0.2)
            return digest(value)
        monkeypatch.setattr(bench, "_digest", slow_digest)
        report = run(Workload(dataset=str(path), phases=("insert", "task:bfs:5")))
        task = report.phases[1]
        assert re.fullmatch(r"1:task:bfs:5@[0-9a-f]{16}", task.phase)
        assert task.elapsed_ns < 0.2e9

    def test_mixed_ops_are_built_off_the_clock(self, tmp_path, monkeypatch):
        path, _ = self.make_dataset(tmp_path)
        mixed_ops = bench.mixed_ops

        def slow_ops(*args):
            ops = list(mixed_ops(*args))
            time.sleep(0.2)
            yield from ops
        monkeypatch.setattr(bench, "mixed_ops", slow_ops)
        report = run(Workload(dataset=str(path),
                              phases=("mixed:0.6,0.3,0.1:500",), seed=3))
        (mixed,) = report.phases
        assert mixed.ops == 500
        assert mixed.elapsed_ns < 0.2e9

    def test_random_delete_order_empties_the_graph(self, tmp_path):
        path, edges = self.make_dataset(tmp_path)
        params = GraphParams(node_table_len=2)
        report = run(Workload(dataset=str(path), params=params, seed=5,
                              phases=("insert", "delete"),
                              delete_order="random"))
        delete = report.phases[1]
        assert delete.ops == len(edges)
        assert delete.bytes == bench.CuckooGraph(params).stats().bytes_total

    def test_same_seed_gives_the_same_report(self, tmp_path):
        path, _ = self.make_dataset(tmp_path)
        wl = Workload(dataset=str(path), seed=7, delete_order="random",
                      phases=("insert", "mixed:0.6,0.3,0.1:500", "task:pr:6",
                              "delete"))
        r1, r2 = run(wl), run(wl)

        def untimed(report):
            return [(p.phase, p.ops, p.bytes, p.placements, p.evictions,
                     p.dl_hits, p.movements) for p in report.phases]
        assert untimed(r1) == untimed(r2)
        assert "@" in r1.phases[2].phase

    def test_csv_round_trip(self, tmp_path):
        path, _ = self.make_dataset(tmp_path)
        report = run(Workload(dataset=str(path),
                              phases=("insert", "query", "task:pr:6")))
        csv_path = tmp_path / "out.csv"
        report.to_csv(csv_path)
        header, *rows = read_csv(csv_path)
        assert header == CSV_HEADER
        assert rows == [[str(v) for v in dataclasses.astuple(p)]
                        for p in report.phases]
        # a float is written as its repr, so it reads back exact
        assert [float(r[3]) for r in rows] == [p.mops for p in report.phases]

    def test_dedup_drops_repeated_pairs(self, tmp_path):
        path = tmp_path / "d.txt"
        workload.write_edge_file(path, [(1, 2), (1, 2), (2, 3), (1, 2, 4)])
        for dedup, ops in ((False, 4), (True, 2)):
            report = run(Workload(dataset=str(path), dedup=dedup,
                                  phases=("insert", "delete")))
            assert [p.ops for p in report.phases] == [ops, ops]

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            Workload(phases=())
        with pytest.raises(ValueError):
            Workload(phases=("mixed:0.5,0.4,0.2:10",))
        # a count below 1, and ratios outside [0, 1] that still sum to 1
        for spec in ("mixed:0.6,0.3,0.1:-5", "mixed:0.6,0.3,0.1:0",
                     "mixed:1.5,-0.5,0:100", "mixed:0,-0.5,1.5:100"):
            with pytest.raises(ValueError, match="mixed"):
                Workload(phases=("insert", spec))
        with pytest.raises(ValueError):
            Workload(phases=("flarb",))
        with pytest.raises(ValueError):
            Workload(delete_order="sideways")


class TestCli:
    def test_split_phases_keeps_mixed_ratios(self):
        assert _split_phases("insert,query") == ("insert", "query")
        assert _split_phases("insert,mixed:0.6,0.3,0.1:100,task:bfs:3") == \
            ("insert", "mixed:0.6,0.3,0.1:100", "task:bfs:3")

    def test_end_to_end_generate_and_run(self, tmp_path, capsys):
        ds = tmp_path / "g.txt"
        csv_out = tmp_path / "r.csv"
        code = main(["--generate", "sparse:50:150:7", "--dataset", str(ds),
                     "--phases", "insert,query,task:cc:5",
                     "--csv-out", str(csv_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mops=" in out
        header, *rows = read_csv(csv_out)
        assert header == CSV_HEADER
        assert [r[0].split("@")[0] for r in rows] == \
            ["0:insert", "1:query", "2:task:cc:5"]

    def test_dedup_flag(self, tmp_path):
        ds = tmp_path / "g.txt"
        csv_out = tmp_path / "r.csv"
        workload.write_edge_file(ds, [(1, 2), (1, 2), (2, 3)])
        code = main(["--dataset", str(ds), "--dedup", "--phases", "insert",
                     "--csv-out", str(csv_out)])
        assert code == 0
        assert read_csv(csv_out)[1][1] == "2"

    def test_malformed_generate_spec_is_an_error(self, capsys):
        code = main(["--generate", "sparse:5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_without_dataset_names_the_file(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["--generate", "sparse:10:20:3", "--phases", "insert"])
        assert code == 0
        written = tmp_path / "generated_sparse_10_20_3.txt"
        assert workload.read_edge_file(written) == \
            workload.generate_synthetic("sparse", 10, 20, 3)
        assert written.name in capsys.readouterr().out

    def test_mem_interval_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--dataset", str(tmp_path / "g.txt"),
                  "--mem-interval", "50"])
        assert "--mem-interval" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["--dataset", str(tmp_path / "missing.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_weighted_flag(self, tmp_path):
        ds = tmp_path / "g.txt"
        workload.write_edge_file(ds, [(1, 2), (1, 2), (2, 3)])
        code = main(["--dataset", str(ds), "--phases", "insert,delete",
                     "--weighted"])
        assert code == 0
