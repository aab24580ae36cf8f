"""End-to-end server tests over real sockets.

The server runs on a daemon thread (``serve_background``) while the test
drives it with the synchronous client — the same harness as
the ``make serve-smoke`` gate, minus the subprocess.
"""

import json
import threading

import pytest

from repro import obs
from repro.core.families import worst_case_family
from repro.graphs.generators import (
    complete_bipartite,
    path_graph,
    random_connected_bipartite,
)
from repro.graphs.io import dump_bipartite
from repro.obs import events as obs_events
from repro.parallel.cache import SolveCache
from repro.server.admission import AdmissionController
from repro.server.client import ServeClient
from repro.server.server import SolveServer, serve_background

PATH6 = dump_bipartite(path_graph(6))
K23 = dump_bipartite(complete_bipartite(2, 3))
G4 = dump_bipartite(worst_case_family(4))


def _server(tmp_path, **kwargs):
    kwargs.setdefault("unix_path", tmp_path / "serve.sock")
    kwargs.setdefault("jobs", 1)
    return SolveServer(**kwargs)


class TestRequestOps:
    def test_ping_solve_plan_stats(self, tmp_path):
        cache = SolveCache()
        with serve_background(_server(tmp_path, cache=cache)) as server:
            with ServeClient(unix_path=server.address) as client:
                assert client.ping()["ok"] is True

                solved = client.solve(PATH6)
                assert solved["ok"] is True
                result = solved["result"]
                assert result["effective_cost"] == 6
                assert result["status"] == "optimal"
                assert result["components"] == 1
                # A solve response carries the full scheme as pairs,
                # one configuration per edge of the path.
                assert len(result["scheme"]) == 6

                planned = client.plan(K23)
                assert planned["ok"] is True
                assert "scheme" not in planned["result"]
                assert planned["result"]["effective_cost"] > 0

                stats = client.stats()["result"]
                assert stats["requests_total"] >= 3
                assert stats["admission"]["admitted_total"] == 2
                assert stats["cache"]["stores"] == 2

    def test_warm_requests_hit_the_shared_cache(self, tmp_path):
        cache = SolveCache()
        with serve_background(_server(tmp_path, cache=cache)) as server:
            with ServeClient(unix_path=server.address) as client:
                cold = client.solve(PATH6)["result"]
                warm = client.solve(PATH6)["result"]
        assert cold["cached_components"] == 0
        assert warm["cached_components"] == 1
        assert warm["effective_cost"] == cold["effective_cost"]
        assert cache.stats.hits >= 1

    def test_solve_equals_direct_registry_solve(self, tmp_path):
        from repro.core.solvers.registry import solve
        from repro.graphs.io import load_bipartite

        graph_text = dump_bipartite(random_connected_bipartite(4, 4, 10, seed=5))
        direct = solve(load_bipartite(graph_text))
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                served = client.solve(graph_text)["result"]
        assert served["effective_cost"] == direct.effective_cost
        assert served["raw_cost"] == direct.raw_cost
        assert served["status"] == direct.status

    def test_multi_component_graph_reassembles(self, tmp_path):
        from repro.graphs.components import disjoint_union_many

        union = disjoint_union_many(
            [worst_case_family(2), worst_case_family(3), worst_case_family(2)]
        )
        # Union labels are tuples; the text format needs flat names.
        union = union.relabeled(
            {v: f"{v[0]}_{v[1]}" for v in [*union.left, *union.right]}
        )
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                result = client.solve(dump_bipartite(union))["result"]
        assert result["components"] == 3
        # Structurally identical siblings dedupe: only 2 unique solves.
        assert result["solved_components"] == 2


class TestProtocolErrors:
    def test_defective_lines_answered_not_fatal(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                # Raw defective line straight down the socket.
                client._sock.sendall(b"this is not json\n")
                response = client.recv(None)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                # The connection (and server) survives.
                assert client.ping()["ok"] is True

    def test_unknown_op_and_invalid_graph(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                bad_op = client.request("nope")
                assert bad_op["error"]["code"] == "unknown_op"
                bad_graph = client.solve("Z not a graph\n")
                assert bad_graph["error"]["code"] == "invalid_graph"
                assert client.ping()["ok"] is True

    @pytest.mark.parametrize(
        "options",
        [
            {"budget": 3},
            {"deadline": 1.0},
            {"memo_cap": 5},
            {"node_budget": "x"},
            {"typo": 1},
            {"clock": 1},
        ],
    )
    def test_unknown_or_mistyped_option_is_bad_request(self, tmp_path, options):
        cache = SolveCache()
        with serve_background(_server(tmp_path, cache=cache)) as server:
            with ServeClient(unix_path=server.address) as client:
                response = client.solve(PATH6, options=options)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                solved = client.solve(PATH6, options={"node_budget": 10})
                assert solved["ok"] is True
                assert solved["result"]["effective_cost"] == 6
        # The rejected request never reached the cache.
        assert cache.stats.misses == 1

    @pytest.mark.parametrize(
        "method, options, reason",
        [
            # Rejected by the protocol before any solve.
            ("magic", {}, "unknown method 'magic'"),
            # Refused by the solver: G_4 is no union of bicliques ...
            ("equijoin", {}, "not complete bipartite"),
            # ... and exact search runs past its node budget.
            ("exact", {"node_budget": 1}, "node budget"),
        ],
    )
    def test_client_errors_are_bad_request(self, tmp_path, method, options, reason):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                response = client.solve(G4, method=method, options=options)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert reason in response["error"]["message"]
                # The connection (and server) survives.
                assert client.solve(G4)["ok"] is True

    def test_unsupported_schema_version(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                line = json.dumps(
                    {"schema": "repro-serve/v99", "id": "r1", "op": "ping"}
                )
                client._sock.sendall((line + "\n").encode())
                response = client.recv("r1")
                assert response["error"]["code"] == "unsupported_schema"


class TestConcurrency:
    def test_pipelined_requests_matched_by_id(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                first = client.send("solve", PATH6)
                second = client.send("solve", K23)
                third = client.send("ping")
                # Collect in reverse: out-of-order arrival is fine.
                assert client.recv(third)["ok"] is True
                k23 = client.recv(second)["result"]
                p6 = client.recv(first)["result"]
        assert p6["effective_cost"] == 6
        assert k23["effective_cost"] > 0

    def test_many_threads_one_server(self, tmp_path):
        graphs = [
            dump_bipartite(random_connected_bipartite(3, 3, 7, seed=s))
            for s in range(6)
        ]
        cache = SolveCache()
        outcomes: list[dict] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        with serve_background(_server(tmp_path, cache=cache)) as server:
            address = server.address

            def hammer(graph_text: str) -> None:
                try:
                    with ServeClient(unix_path=address) as client:
                        for _ in range(3):
                            response = client.solve(graph_text)
                            with lock:
                                outcomes.append(response)
                except BaseException as exc:  # surfaced below
                    with lock:
                        failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(g,)) for g in graphs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not failures
        assert len(outcomes) == len(graphs) * 3
        assert all(o["ok"] for o in outcomes)
        # Each graph solved once, then served from the shared cache.
        assert cache.stats.hits >= len(graphs) * 2

    def test_admission_rejects_under_burst(self, tmp_path):
        admission = AdmissionController(max_queue_depth=1)
        graphs = [
            dump_bipartite(random_connected_bipartite(3, 3, 8, seed=100 + s))
            for s in range(8)
        ]
        with serve_background(_server(tmp_path, admission=admission)) as server:
            with ServeClient(unix_path=server.address) as client:
                ids = [client.send("solve", g) for g in graphs]
                responses = [client.recv(rid) for rid in ids]
        ok = [r for r in responses if r["ok"]]
        rejected = [
            r
            for r in responses
            if not r["ok"] and r["error"]["code"] == "overloaded"
        ]
        assert len(ok) + len(rejected) == len(graphs)
        assert ok, "at least the first burst request must be admitted"
        assert rejected, "a depth-1 queue must reject a pipelined burst"
        assert all(r["retry_after_ms"] > 0 for r in rejected)
        assert admission.depth == 0  # every ticket released


class TestWorkerPool:
    def test_pooled_server_solves_and_shares_cache(self, tmp_path):
        cache = SolveCache()
        server = _server(tmp_path, jobs=2, cache=cache)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                texts = [
                    dump_bipartite(worst_case_family(3)),
                    dump_bipartite(random_connected_bipartite(3, 3, 9, seed=2)),
                ]
                ids = [client.send("solve", t) for t in texts]
                cold = [client.recv(rid) for rid in ids]
                warm = [client.solve(t) for t in texts]
        assert all(r["ok"] for r in cold + warm)
        assert all(r["result"]["cached_components"] == 1 for r in warm)
        # The shared pool is shut down with the server.
        assert server.pool is not None
        assert server.pool._executor is None


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, tmp_path):
        server = _server(tmp_path)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.shutdown()["ok"] is True
        # Exiting serve_background joined the thread; a fresh connect fails.
        with pytest.raises(OSError):
            ServeClient(unix_path=server.address, timeout=0.5)

    def test_run_dir_artifacts_validate(self, tmp_path):
        obs.reset()
        obs.enable()
        try:
            run_dir = tmp_path / "run"
            server = _server(tmp_path, run_dir=run_dir)
            with serve_background(server) as live:
                with ServeClient(unix_path=live.address) as client:
                    client.solve(PATH6)
                    client.ping()
            events_path = run_dir / "events.jsonl"
            assert events_path.is_file()
            problems = obs_events.validate_jsonl(events_path.read_text())
            assert problems == []
            names = [
                json.loads(line)["name"]
                for line in events_path.read_text().splitlines()
            ]
            assert "server.start" in names
            assert "server.request_start" in names
            assert "server.request_end" in names
            assert "server.stop" in names
        finally:
            obs.disable()
            obs.reset()

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SolveServer()  # neither transport
        with pytest.raises(ValueError):
            SolveServer(port=0, unix_path=tmp_path / "x.sock")  # both
        with pytest.raises(ValueError):
            SolveServer(port=0, jobs=0)

    def test_tcp_transport(self, tmp_path):
        with serve_background(SolveServer(port=0)) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                assert client.ping()["ok"] is True
