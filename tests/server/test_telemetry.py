"""End-to-end request tracing and live telemetry of the solve server.

The acceptance contract of docs/OBSERVABILITY.md: a traced solve
produces one span tree per request — dispatch spans on the server side,
solver spans shipped home from worker processes — all sharing one
trace_id, assemblable into a validated Chrome trace; and the ``metrics``
op answers Prometheus text format with per-op latency histograms.
"""

from collections import Counter

import pytest

from repro import obs
from repro.graphs.generators import path_graph, random_connected_bipartite
from repro.graphs.io import dump_bipartite
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs import telemetry as obs_telemetry
from repro.obs.context import TraceContext, derived_trace_id
from repro.server.client import ServeClient
from repro.server.journal import JOURNAL_NAME, RequestJournal, load_records
from repro.server.protocol import encode_request
from repro.server.server import RUNTIME_STAT_COUNTERS, SolveServer, serve_background

PATH6 = dump_bipartite(path_graph(6))


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Global collectors start and end disabled+clean around every test."""

    def _reset():
        obs.disable()
        obs.reset()

    _reset()
    yield
    _reset()


def _server(tmp_path, **kwargs):
    kwargs.setdefault("unix_path", tmp_path / "serve.sock")
    kwargs.setdefault("jobs", 1)
    return SolveServer(**kwargs)


def _fresh_graph(seed):
    return dump_bipartite(random_connected_bipartite(4, 4, 12, seed=seed))


def _span_tree(spans):
    """(name, parent-name) pairs; the logical parent is ``parent_index``
    when resolved locally, ``remote_parent`` when still metadata — the
    jobs=1 inline path keeps the latter, adoption resolves the former,
    and both must describe the same tree."""
    by_index = {span.index: span for span in spans}
    tree = []
    for span in spans:
        parent = (
            span.parent_index
            if span.parent_index is not None
            else span.remote_parent
        )
        parent_name = by_index[parent].name if parent in by_index else None
        tree.append((span.name, parent_name))
    return sorted(tree)


class TestTracePropagation:
    def test_server_mints_trace_id_when_client_sends_none(self, tmp_path):
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                result = client.solve(PATH6)["result"]
        assert obs_context.is_trace_id(result["trace_id"])

    def test_client_supplied_trace_id_is_echoed(self, tmp_path):
        ctx = TraceContext(derived_trace_id(5, 0))
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                response = client.request("solve", PATH6, trace=ctx)
        assert response["result"]["trace_id"] == ctx.trace_id

    def _traced_solve(self, tmp_path, jobs, seed):
        tmp_path.mkdir(parents=True, exist_ok=True)
        obs.enable()
        ctx = TraceContext(derived_trace_id(99, seed))
        with serve_background(_server(tmp_path, jobs=jobs)) as live:
            with ServeClient(unix_path=live.address) as client:
                response = client.request(
                    "solve", _fresh_graph(seed), trace=ctx
                )
        assert response["ok"] is True
        spans = obs_trace.spans()
        # pool.task_* events describe the pool hand-off itself, which
        # only the jobs>1 server has; every other event must match.
        event_names = Counter(
            event.name
            for event in obs_events.events()
            if not event.name.startswith("pool.task_")
        )
        obs.disable()
        obs.reset()
        return ctx, spans, event_names

    def test_identical_span_trees_across_the_pickle_boundary(self, tmp_path):
        # The acceptance bar: jobs=1 (inline, no pool) and jobs=4
        # (solver spans and events recorded in worker processes, shipped
        # home, merged) must yield the same logical span tree and the
        # same events for the same request — one trace_id, same
        # parent/child names, same event-name multiset.
        ctx1, spans1, events1 = self._traced_solve(tmp_path / "j1", jobs=1, seed=31)
        ctx4, spans4, events4 = self._traced_solve(tmp_path / "j4", jobs=4, seed=31)
        assert _span_tree(spans1) == _span_tree(spans4)
        assert events1 == events4
        assert events4["solver.phase"] > 0
        for ctx, spans in ((ctx1, spans1), (ctx4, spans4)):
            assert {span.trace_id for span in spans} == {ctx.trace_id}
        # Only the jobs=4 run crossed a process boundary.
        origins4 = {span.attrs.get("origin") for span in spans4}
        assert "worker" in origins4
        assert all(
            span.attrs.get("origin") is None for span in spans1
        )
        # Worker spans hang off the dispatch span like inline ones do.
        solver_roots = [
            span for span in spans4 if span.name == "solver.solve"
        ]
        assert solver_roots
        dispatch = next(s for s in spans4 if s.name == "server.dispatch")
        assert all(s.parent_index == dispatch.index for s in solver_roots)

    def test_request_trace_assembles_one_valid_chrome_trace(self, tmp_path):
        obs.enable()
        with serve_background(_server(tmp_path, jobs=4)) as live:
            with ServeClient(unix_path=live.address) as client:
                rid = client.send("solve", _fresh_graph(47), request_id="req-47")
                assert client.recv(rid)["ok"] is True
        records = obs_trace.as_dicts()
        document = obs_export.request_trace(records, "req-47")
        assert obs_export.validate_chrome_trace(document) == []
        pids = {event["pid"] for event in document["traceEvents"]}
        assert pids == {1, 2}  # server-side and worker-side spans
        assert len(document["otherData"]["trace_ids"]) == 1

    def test_request_trace_unknown_id_raises(self):
        with pytest.raises(ValueError):
            obs_export.request_trace([], "nope")

    def test_spans_adopted_counter_increments(self, tmp_path):
        obs.enable()
        with serve_background(_server(tmp_path, jobs=4)) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.solve(_fresh_graph(53))["ok"] is True
        assert obs_metrics.counter("parallel.pool.spans_adopted") > 0


class TestDisabledNeutrality:
    def test_disabled_collectors_record_nothing(self, tmp_path):
        with serve_background(_server(tmp_path, jobs=4)) as live:
            with ServeClient(unix_path=live.address) as client:
                result = client.solve(_fresh_graph(61))["result"]
        assert obs_trace.spans() == []
        assert obs_metrics.snapshot()["counters"] == {}
        # The request still gets a trace identity (clients may correlate
        # responses even when the server keeps no spans).
        assert obs_context.is_trace_id(result["trace_id"])

    def test_results_identical_with_and_without_tracing(self, tmp_path):
        graph = _fresh_graph(67)
        (tmp_path / "off").mkdir()
        (tmp_path / "on").mkdir()
        with serve_background(_server(tmp_path / "off", jobs=1)) as live:
            with ServeClient(unix_path=live.address) as client:
                untraced = client.solve(graph)["result"]
        obs.enable()
        with serve_background(_server(tmp_path / "on", jobs=1)) as live:
            with ServeClient(unix_path=live.address) as client:
                traced = client.solve(graph)["result"]
        untraced.pop("trace_id")
        traced.pop("trace_id")
        assert untraced == traced


class TestJournalTracePreservation:
    def test_journal_records_the_served_trace(self, tmp_path):
        journal_dir = tmp_path / "journal"
        ctx = TraceContext(derived_trace_id(7, 0))
        server = _server(tmp_path, journal_dir=journal_dir)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.request("solve", PATH6, trace=ctx)["ok"] is True
        records = load_records(journal_dir / JOURNAL_NAME)
        admitted = [r for r in records if r["kind"] == "admitted"]
        assert admitted[0]["trace"] == ctx.as_wire()

    def test_recovery_replays_under_the_original_trace_id(self, tmp_path):
        journal_dir = tmp_path / "journal"
        ctx = TraceContext(derived_trace_id(7, 1))
        # A predecessor that died mid-request, trace recorded alongside.
        with RequestJournal(journal_dir) as journal:
            journal.record_admitted(
                encode_request("r1", "solve", PATH6, trace=ctx).strip(),
                trace=ctx.as_wire(),
            )
        obs.enable()
        server = _server(tmp_path, journal_dir=journal_dir, recover=True)
        with serve_background(server):
            pass
        replayed = [
            span
            for span in obs_trace.spans()
            if span.name == "server.request" and span.attrs.get("recovered")
        ]
        assert len(replayed) == 1
        assert replayed[0].trace_id == ctx.trace_id

    def test_recovery_without_journaled_trace_mints_one(self, tmp_path):
        journal_dir = tmp_path / "journal"
        # A journal written before tracing existed: no trace key at all.
        with RequestJournal(journal_dir) as journal:
            journal.record_admitted(encode_request("r1", "solve", PATH6).strip())
        obs.enable()
        server = _server(tmp_path, journal_dir=journal_dir, recover=True)
        with serve_background(server):
            pass
        replayed = [
            span
            for span in obs_trace.spans()
            if span.name == "server.request" and span.attrs.get("recovered")
        ]
        assert len(replayed) == 1
        assert obs_context.is_trace_id(replayed[0].trace_id)


class TestStatsRuntimeCounters:
    def test_stats_expose_runtime_counters(self, tmp_path):
        obs.enable()
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.solve(PATH6)["ok"] is True
                runtime = client.stats()["result"]["runtime"]
        assert set(runtime) == set(RUNTIME_STAT_COUNTERS)
        assert all(
            isinstance(value, int) and value >= 0 for value in runtime.values()
        )

    def test_stats_runtime_counters_zero_when_metrics_disabled(self, tmp_path):
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                runtime = client.stats()["result"]["runtime"]
        assert all(value == 0 for value in runtime.values())


class TestMetricsOp:
    REQUIRED = {
        "repro_server_requests_total": "counter",
        "repro_server_request_outcomes_total": "counter",
        "repro_server_request_latency_ms": "histogram",
        "repro_server_window_rps": "gauge",
        "repro_server_uptime_seconds": "gauge",
        "repro_server_admitted_total": "counter",
        "repro_server_admission_rejected_total": "counter",
    }

    def test_metrics_op_answers_valid_exposition(self, tmp_path):
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.solve(PATH6)["ok"] is True
                assert client.plan(PATH6)["ok"] is True
                result = client.metrics()["result"]
        assert result["content_type"] == obs_telemetry.CONTENT_TYPE
        text = result["text"]
        assert obs_telemetry.validate_exposition(text, required=self.REQUIRED) == []
        families, _problems = obs_telemetry.parse_exposition(text)
        requests = {
            sample.labels["op"]: sample.value
            for sample in families["repro_server_requests_total"].samples
        }
        assert requests["solve"] == 1
        assert requests["plan"] == 1
        latency_ops = {
            sample.labels["op"]
            for sample in families["repro_server_request_latency_ms"].samples
        }
        assert {"solve", "plan"} <= latency_ops

    def test_metrics_op_works_on_a_fresh_server(self, tmp_path):
        # Zero requests served (a request's own telemetry is recorded
        # after its response is built, so the first metrics call sees an
        # untouched window): per-op families are legitimately empty and
        # the latency histogram family is omitted rather than rendered
        # invalid — the document must still be structurally valid with
        # the request-independent families present.
        required = {
            "repro_server_uptime_seconds": "gauge",
            "repro_server_admitted_total": "counter",
            "repro_server_admission_rejected_total": "counter",
        }
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                text = client.metrics()["result"]["text"]
        assert obs_telemetry.validate_exposition(text, required=required) == []

    def test_error_outcomes_are_counted(self, tmp_path):
        with serve_background(_server(tmp_path)) as live:
            with ServeClient(unix_path=live.address) as client:
                bad = client.request("solve", "not a graph at all")
                assert bad["ok"] is False
                text = client.metrics()["result"]["text"]
        families, _problems = obs_telemetry.parse_exposition(text)
        errors = {
            (s.labels["op"], s.labels["code"]): s.value
            for s in families["repro_server_errors_total"].samples
        }
        assert errors[("solve", "invalid_graph")] == 1
        outcomes = {
            (s.labels["op"], s.labels["outcome"]): s.value
            for s in families["repro_server_request_outcomes_total"].samples
        }
        assert outcomes[("solve", "error")] == 1


class TestTopCLI:
    def test_top_once_renders_the_per_op_table(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = obs_telemetry.TelemetryWindow(window_seconds=30)
        with serve_background(_server(tmp_path, telemetry=telemetry)) as live:
            with ServeClient(unix_path=live.address) as client:
                client.solve(PATH6)
                client.request("plan", PATH6)
            assert main(["top", "--unix", str(live.address), "--once"]) == 0
        out = capsys.readouterr().out
        # Pipe-friendly: no ANSI clear in --once mode.
        assert "\x1b[" not in out
        assert "uptime" in out and "jobs 1" in out
        for column in ("op", "requests", "rps", "err%", "p50 ms", "p99 ms"):
            assert column in out
        assert "solve" in out and "plan" in out

    def test_top_without_address_exits_2(self, capsys):
        from repro.cli import main

        assert main(["top", "--once"]) == 2
        assert "--port or --unix" in capsys.readouterr().err
