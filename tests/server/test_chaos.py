"""Chaos: short deadlines, injected faults, and starvation at the server.

The contract under test (the PR's acceptance bar): requests with
deliberately short deadlines come back as *ok responses with degraded
anytime statuses* — they never kill the server, never poison the shared
cache with degraded results, and the next unhurried request on the same
graphs solves cleanly.
"""

import json

import pytest

from repro import obs
from repro.core.families import worst_case_family
from repro.graphs.generators import random_connected_bipartite
from repro.graphs.io import dump_bipartite
from repro.obs import events as obs_events
from repro.parallel.cache import SolveCache
from repro.runtime import FaultPlan, inject
from repro.runtime.anytime import DEGRADED_STATUSES
from repro.server.client import ServeClient
from repro.server.server import SolveServer, serve_background

# Graphs that genuinely need search: zero-deadline solves must degrade.
HARD = [
    dump_bipartite(worst_case_family(4)),
    dump_bipartite(worst_case_family(5)),
    dump_bipartite(random_connected_bipartite(4, 4, 12, seed=9)),
]


class TestShortDeadlines:
    def test_zero_deadline_degrades_without_killing_the_server(self, tmp_path):
        cache = SolveCache()
        server = SolveServer(unix_path=tmp_path / "s.sock", cache=cache)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                for graph_text in HARD:
                    response = client.solve(graph_text, deadline=0.0)
                    assert response["ok"] is True
                    assert response["result"]["status"] in DEGRADED_STATUSES
                    # Degraded ≠ useless: the anytime scheme is present.
                    assert response["result"]["scheme"]
                # The server is still fully alive.
                assert client.ping()["ok"] is True

    def test_degraded_results_never_poison_the_shared_cache(self, tmp_path):
        cache = SolveCache()
        server = SolveServer(unix_path=tmp_path / "s.sock", cache=cache)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                hurried = client.solve(HARD[0], deadline=0.0)["result"]
                assert hurried["status"] in DEGRADED_STATUSES
                # Only clean results are cached, so the unhurried retry
                # must MISS (solve afresh), not inherit the degraded one.
                unhurried = client.solve(HARD[0])["result"]
                assert unhurried["cached_components"] == 0
                assert unhurried["status"] in ("optimal", "complete")
                # ... and the clean result IS cached for the next caller.
                third = client.solve(HARD[0])["result"]
                assert third["cached_components"] == 1
                assert third["status"] == unhurried["status"]
        assert cache.stats.stores == 1

    def test_default_deadline_applies_when_request_sets_none(self, tmp_path):
        server = SolveServer(
            unix_path=tmp_path / "s.sock", default_deadline=0.0
        )
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                response = client.solve(HARD[0])
                assert response["result"]["status"] in DEGRADED_STATUSES
                # An explicit generous deadline overrides the default.
                clean = client.solve(HARD[0], deadline=120.0)
                assert clean["result"]["status"] in ("optimal", "complete")

    def test_mixed_deadline_burst_all_terminal(self, tmp_path):
        """Pipelined hurried + unhurried requests all reach terminal
        statuses; no request hangs, errors, or takes down a neighbour."""
        server = SolveServer(unix_path=tmp_path / "s.sock", cache=SolveCache())
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                ids = []
                for index, graph_text in enumerate(HARD * 2):
                    deadline = 0.0 if index % 2 == 0 else None
                    ids.append(client.send("solve", graph_text, deadline=deadline))
                responses = [client.recv(rid) for rid in ids]
        assert all(r["ok"] for r in responses)
        statuses = {r["result"]["status"] for r in responses}
        allowed = set(DEGRADED_STATUSES) | {"optimal", "complete"}
        assert statuses <= allowed
        assert statuses & set(DEGRADED_STATUSES)  # the hurried half tripped


class TestInjectedFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dispatch_faults_answer_internal_and_server_survives(
        self, tmp_path, seed
    ):
        server = SolveServer(unix_path=tmp_path / "s.sock")
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                with inject(
                    FaultPlan(seed=seed, rates={"server.dispatch": 1.0})
                ):
                    response = client.solve(HARD[0])
                assert response["ok"] is False
                assert response["error"]["code"] == "internal"
                assert "injected fault" in response["error"]["message"]
                # Plan lifted: the same request now succeeds.
                recovered = client.solve(HARD[0])
                assert recovered["ok"] is True

    def test_partial_fault_rate_mixes_errors_and_answers(self, tmp_path):
        server = SolveServer(unix_path=tmp_path / "s.sock", cache=SolveCache())
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                with inject(
                    FaultPlan(seed=7, rates={"server.dispatch": 0.5})
                ):
                    responses = [
                        client.solve(HARD[index % len(HARD)])
                        for index in range(10)
                    ]
                assert client.ping()["ok"] is True
        internal = [
            r for r in responses if not r["ok"] and r["error"]["code"] == "internal"
        ]
        ok = [r for r in responses if r["ok"]]
        assert len(internal) + len(ok) == 10
        assert internal and ok  # rate 0.5 over 10 draws hits both sides

    def test_starvation_shrinks_request_deadlines(self, tmp_path):
        """FaultPlan.starve models a machine k× slower than the deadline
        was sized for: a nominally generous per-request deadline starves
        to ~nothing and the solve degrades through the ladder."""
        server = SolveServer(unix_path=tmp_path / "s.sock")
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                with inject(FaultPlan(seed=0, starvation=10**9)):
                    starved = client.solve(HARD[0], deadline=60.0)
                assert starved["ok"] is True
                assert starved["result"]["status"] in DEGRADED_STATUSES
                # Without the plan the same deadline is plenty.
                unstarved = client.solve(HARD[0], deadline=60.0)
                assert unstarved["result"]["status"] in ("optimal", "complete")


class TestChaosArtifacts:
    def test_events_jsonl_stays_valid_under_chaos(self, tmp_path):
        obs.reset()
        obs.enable()
        try:
            run_dir = tmp_path / "run"
            server = SolveServer(
                unix_path=tmp_path / "s.sock",
                cache=SolveCache(),
                run_dir=run_dir,
            )
            with serve_background(server) as live:
                with ServeClient(unix_path=live.address) as client:
                    with inject(
                        FaultPlan(seed=3, rates={"server.dispatch": 0.4})
                    ):
                        for index in range(8):
                            client.solve(
                                HARD[index % len(HARD)],
                                deadline=0.0 if index % 2 else None,
                            )
            text = (run_dir / "events.jsonl").read_text()
            assert obs_events.validate_jsonl(text) == []
            names = {json.loads(line)["name"] for line in text.splitlines()}
            assert "server.request_end" in names
        finally:
            obs.disable()
            obs.reset()
