"""Tests for the command-line interface."""

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.graphs.generators import complete_bipartite
from repro.graphs.io import dump_bipartite


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pebble_args(self):
        args = build_parser().parse_args(["pebble", "file.g", "--method", "exact"])
        assert args.graph_file == "file.g"
        assert args.method == "exact"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Equijoin" in out
        assert "Set containment" in out

    def test_family(self, capsys):
        assert main(["family", "4"]) == 0
        out = capsys.readouterr().out
        assert "G_4" in out
        assert "pi=9" in out

    def test_pebble_file(self, tmp_path, capsys):
        graph = complete_bipartite(2, 3)
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["pebble", str(path), "--show-scheme"]) == 0
        out = capsys.readouterr().out
        assert "pi=6" in out
        assert "pebbles on" in out

    def test_pebble_method_selection(self, tmp_path, capsys):
        graph = complete_bipartite(2, 2)
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["pebble", str(path), "--method", "greedy"]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_decide(self, tmp_path, capsys):
        from repro.graphs.generators import spider_graph

        graph = spider_graph(3)  # pi = 7, m = 6
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["decide", str(path), "7"]) == 0
        assert "YES" in capsys.readouterr().out
        assert main(["decide", str(path), "6"]) == 0
        out = capsys.readouterr().out
        assert "NO" in out
        assert "pi(G) >= 7" in out

    def test_plain_graph_file(self, tmp_path, capsys):
        """pebble, solve and decide read a ``# graph`` file with ``V``
        lines, as the solve server does."""
        from repro.core.solvers.registry import solve
        from repro.graphs.io import dump_graph
        from repro.graphs.simple import Graph

        graph = Graph()
        for u, v in (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")):
            graph.add_edge(u, v)
        graph.add_vertex("lonely")
        expected = solve(graph)
        path = tmp_path / "plain.graph"
        path.write_text(dump_graph(graph))
        assert main(["pebble", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected.summary()
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: {expected.summary()}\n"
        pi = expected.effective_cost
        assert main(["decide", str(path), str(pi)]) == 0
        assert "YES" in capsys.readouterr().out

    def test_svg_family(self, tmp_path, capsys):
        out_path = tmp_path / "fam.svg"
        assert main(["svg", "--family", "3", "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert (tmp_path / "fam-graph.svg").exists()

    def test_render(self, tmp_path, capsys):
        graph = complete_bipartite(2, 2)
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "pi_hat=" in out

    def test_partition(self, tmp_path, capsys):
        from repro.graphs.generators import union_of_bicliques

        graph = union_of_bicliques([(2, 2), (1, 1)])
        # Tuple vertex labels are not serializable; flatten them.
        mapping = {v: f"l{i}" for i, v in enumerate(graph.left)}
        mapping.update({v: f"r{j}" for j, v in enumerate(graph.right)})
        graph = graph.relabeled(mapping)
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["partition", str(path), "-p", "2", "-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "hash:" in out
        assert "active cells:" in out


class TestProfileCommand:
    def test_profile_smoke_prints_table(self, capsys):
        assert main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "self-time profile" in out
        assert "workload.engine-equijoin" in out
        assert "self %" in out

    def test_profile_graph_file(self, tmp_path, capsys):
        graph = complete_bipartite(2, 3)
        path = tmp_path / "graph.txt"
        path.write_text(dump_bipartite(graph))
        assert main(["profile", "--graph", str(path), "--method", "exact"]) == 0
        out = capsys.readouterr().out
        assert "workload.pebble" in out
        assert "solver.exact" in out

    def test_profile_top_limits_rows(self, capsys):
        assert main(["profile", "--smoke", "--top", "1"]) == 0
        out = capsys.readouterr().out
        # One header line plus exactly one data row.
        table_lines = [line for line in out.splitlines() if " | " in line]
        assert len(table_lines) == 2

    def test_profile_unknown_scenario_exits_two(self, capsys):
        assert main(["profile", "--scenario", "no-such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_restores_disabled_collection(self):
        from repro.obs import trace

        assert main(["profile", "--smoke"]) == 0
        assert not obs.is_enabled()
        assert trace.spans() == []


class TestTraceCommand:
    def test_trace_perfetto_validates(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", "--smoke", "--format", "perfetto", "-o", str(out_path)]
        )
        assert code == 0
        assert "open in https://ui.perfetto.dev" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]

    def test_trace_folded_output(self, tmp_path, capsys):
        out_path = tmp_path / "trace.folded"
        code = main(["trace", "--smoke", "--format", "folded", "-o", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0
        assert any(stack.startswith("workload.") for stack in lines)

    def test_trace_jsonl_output(self, tmp_path):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = main(["trace", "--smoke", "--format", "jsonl", "-o", str(out_path)])
        assert code == 0
        parsed = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert any(d["name"] == "workload.engine-equijoin" for d in parsed)

    def test_trace_graph_workload(self, tmp_path):
        import json

        graph = complete_bipartite(2, 2)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(dump_bipartite(graph))
        out_path = tmp_path / "trace.json"
        code = main(["trace", "--graph", str(graph_path), "-o", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        assert "workload.pebble" in names

    def test_trace_unknown_scenario_exits_two(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "--scenario", "no-such", "-o", str(out_path)]) == 2
        assert not out_path.exists()

    def test_trace_unknown_format_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--format", "svg"])


class TestSolveCommand:
    def _write_graphs(self, tmp_path):
        from repro.core.families import worst_case_family

        paths = []
        for index, graph in enumerate(
            [worst_case_family(2), worst_case_family(3), worst_case_family(2)]
        ):
            path = tmp_path / f"g{index}.graph"
            path.write_text(dump_bipartite(graph))
            paths.append(str(path))
        return paths

    def test_solve_batch(self, tmp_path, capsys):
        paths = self._write_graphs(tmp_path)
        assert main(["solve", *paths]) == 0
        out = capsys.readouterr().out
        for path in paths:
            assert path in out

    def test_solve_jobs_identical_output(self, tmp_path, capsys):
        paths = self._write_graphs(tmp_path)
        assert main(["solve", *paths, "--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["solve", *paths, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_solve_cache_warm_run(self, tmp_path, capsys):
        paths = self._write_graphs(tmp_path)
        db = str(tmp_path / "cache.db")
        assert main(["solve", *paths, "--cache", db]) == 0
        cold = capsys.readouterr().out
        assert "store(s)" in cold
        assert main(["solve", *paths, "--cache", db]) == 0
        warm = capsys.readouterr().out
        assert "hit(s)" in warm
        # Identical per-graph lines; only the cache stats line may differ.
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]


class TestExplainCommand:
    def _relations(self, tmp_path):
        left = tmp_path / "left.txt"
        right = tmp_path / "right.txt"
        left.write_text("1\n2\n3\n")
        right.write_text("2\n3\n4\n")
        return left, right

    def test_file_mode_plan_only(self, tmp_path, capsys):
        left, right = self._relations(tmp_path)
        assert main(["explain", str(left), str(right)]) == 0
        out = capsys.readouterr().out
        assert "-> hash" in out
        assert "est. cost" in out  # candidate lines
        assert "actual m" not in out  # plan-only: nothing executed

    def test_file_mode_analyze_shadow(self, tmp_path, capsys):
        left, right = self._relations(tmp_path)
        assert main(
            ["explain", str(left), str(right), "--analyze", "--shadow"]
        ) == 0
        out = capsys.readouterr().out
        assert "actual m = 2" in out
        assert "a-posteriori best:" in out

    def test_json_document_validates(self, tmp_path, capsys):
        import json

        from repro.obs.planquality import validate_explain_document

        left, right = self._relations(tmp_path)
        assert main(
            ["explain", str(left), str(right), "--analyze", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_explain_document(document) == []
        assert document["records"][0]["actual_output"] == 2

    def test_generic_predicate(self, tmp_path, capsys):
        left = tmp_path / "left.txt"
        right = tmp_path / "right.txt"
        left.write_text("{a}\n{b}\n")
        right.write_text("{a|c}\n{d}\n")
        assert main(
            ["explain", str(left), str(right), "--predicate", "set-overlap"]
        ) == 0
        assert "-> block-NL" in capsys.readouterr().out

    def test_band_predicate(self, tmp_path, capsys):
        left = tmp_path / "left.txt"
        right = tmp_path / "right.txt"
        left.write_text("".join(f"{i}.0\n" for i in range(8)))
        right.write_text("".join(f"{i}.25\n" for i in range(8)))
        assert main(
            ["explain", str(left), str(right),
             "--predicate", "band", "--band-width", "0.5"]
        ) == 0
        assert "-> band-merge" in capsys.readouterr().out

    def test_scenario_mode_json_validates(self, capsys):
        import json

        from repro.obs import planquality
        from repro.obs.planquality import validate_explain_document

        assert main(["explain", "--scenario", "engine-planner", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_explain_document(document) == []
        assert document["records"]
        # The command restores the log's disabled state and leaves no
        # records behind.
        assert not obs.is_enabled()
        assert planquality.records() == []

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["explain", "--scenario", "no-such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_files_exit_two(self, capsys):
        assert main(["explain"]) == 2
        assert "two relation files" in capsys.readouterr().err


class TestMultiwayCommand:
    def test_auto_plan_text_output(self, capsys):
        assert main(["multiway", "--n", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "R(a, b)" in out
        assert "AGM bound" in out
        assert "-> lftj" in out
        assert "intermediates" in out
        assert "beta0" in out

    def test_forced_algorithm(self, capsys):
        assert main(
            ["multiway", "--n", "30", "--algorithm", "binary-cascade",
             "--skew", "uniform", "--no-trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "binary-cascade" in out

    def test_json_document(self, capsys):
        import json

        assert main(["multiway", "--n", "30", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["instance"] == "triangle"
        assert document["execution"]["algorithm"] in (
            "lftj", "generic", "binary-cascade"
        )
        assert document["agm_bound"] > 0
        assert document["plan"]["predicate"] == "multiway"

    def test_four_cycle_and_clique(self, capsys):
        assert main(
            ["multiway", "--instance", "4cycle", "--n", "30",
             "--skew", "uniform", "--algorithm", "lftj"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["multiway", "--instance", "clique", "--clique-k", "3",
             "--n", "20", "--skew", "uniform", "--algorithm", "generic"]
        ) == 0
        assert "x0" in capsys.readouterr().out

    def test_limit_caps_binding_listing(self, capsys):
        assert main(["multiway", "--n", "40", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "..." in out or "bindings" in out
