"""The write-ahead request journal and ``--recover`` replay."""

import json

import pytest

from repro import obs
from repro.graphs.io import dump_bipartite
from repro.graphs.generators import complete_bipartite, path_graph
from repro.obs import events as obs_events
from repro.parallel.cache import SolveCache
from repro.server.client import ServeClient
from repro.server.journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    RequestJournal,
    incomplete_entries,
    load_records,
    validate_records,
)
from repro.server.protocol import encode_request
from repro.server.server import SolveServer, serve_background

PATH6 = dump_bipartite(path_graph(6))
K23 = dump_bipartite(complete_bipartite(2, 3))


class TestRequestJournal:
    def test_roundtrip_and_incomplete(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            first = journal.record_admitted('{"id": "r1"}')
            second = journal.record_admitted('{"id": "r2"}')
            journal.record_complete(first)
        records = load_records(tmp_path / JOURNAL_NAME)
        assert validate_records(records) == []
        pending = incomplete_entries(records)
        assert [entry.entry_id for entry in pending] == [second]
        assert pending[0].request_line == '{"id": "r2"}'

    def test_entry_ids_continue_across_reopen(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            assert journal.record_admitted("a") == 1
            assert journal.record_admitted("b") == 2
        with RequestJournal(tmp_path) as journal:
            # The successor picks up the unfinished entries AND keeps
            # numbering where the predecessor died.
            assert [e.entry_id for e in journal.incomplete()] == [1, 2]
            assert journal.record_admitted("c") == 3

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.record_admitted("a")
        path = tmp_path / JOURNAL_NAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-journal/v1", "kind": "adm')
        records = load_records(path)
        assert validate_records(records) == []
        assert len(records) == 1
        # And a journal reopened over the torn file appends cleanly.
        with RequestJournal(tmp_path) as journal:
            assert [e.entry_id for e in journal.incomplete()] == [1]

    def test_defective_interior_line_is_flagged(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        good = json.dumps(
            {
                "schema": JOURNAL_SCHEMA,
                "kind": "admitted",
                "entry": 1,
                "request": "x",
            }
        )
        path.write_text("not json\n" + good + "\n")
        problems = validate_records(load_records(path))
        assert any("interior" in problem for problem in problems)

    def test_validate_catches_orphan_completes(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.record_complete(99)
        problems = validate_records(load_records(tmp_path / JOURNAL_NAME))
        assert any("unknown entry" in problem for problem in problems)


def _server(tmp_path, **kwargs):
    kwargs.setdefault("unix_path", tmp_path / "serve.sock")
    kwargs.setdefault("jobs", 1)
    return SolveServer(**kwargs)


class TestServerJournaling:
    def test_requires_journal_for_recover(self, tmp_path):
        with pytest.raises(ValueError):
            _server(tmp_path, recover=True)

    def test_answered_requests_are_admitted_then_completed(self, tmp_path):
        journal_dir = tmp_path / "journal"
        server = _server(tmp_path, journal_dir=journal_dir)
        with serve_background(server) as live:
            with ServeClient(unix_path=live.address) as client:
                assert client.solve(PATH6)["ok"] is True
                assert client.plan(K23)["ok"] is True
                # Control ops never touch the journal.
                assert client.ping()["ok"] is True
                stats = client.stats()["result"]
                assert stats["recovered_total"] == 0
        records = load_records(journal_dir / JOURNAL_NAME)
        assert validate_records(records) == []
        kinds = [record["kind"] for record in records]
        assert kinds == ["admitted", "complete", "admitted", "complete"]
        assert incomplete_entries(records) == []

    def test_recover_replays_incomplete_entries(self, tmp_path):
        journal_dir = tmp_path / "journal"
        # A predecessor that died mid-request: admitted, never completed.
        with RequestJournal(journal_dir) as journal:
            journal.record_admitted(
                encode_request("r1", "solve", PATH6).strip()
            )
        obs.reset()
        obs.enable()
        try:
            cache = SolveCache()
            server = _server(
                tmp_path, journal_dir=journal_dir, recover=True, cache=cache
            )
            with serve_background(server) as live:
                with ServeClient(unix_path=live.address) as client:
                    stats = client.stats()["result"]
                    assert stats["recovered_total"] == 1
                    # The replay warmed the cache: the original client's
                    # retry of the same graph is served from it.
                    retried = client.solve(PATH6)
                    assert retried["ok"] is True
                    assert retried["result"]["cached_components"] == 1
            names = [e.name for e in obs_events.events()]
            assert "server.recover" in names
        finally:
            obs.disable()
            obs.reset()
        records = load_records(journal_dir / JOURNAL_NAME)
        assert validate_records(records) == []
        assert incomplete_entries(records) == []
        completes = [r for r in records if r["kind"] == "complete"]
        assert completes[0]["recovered"] is True

    def test_unparseable_journaled_request_is_drained(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with RequestJournal(journal_dir) as journal:
            journal.record_admitted("this is not a request")
        server = _server(tmp_path, journal_dir=journal_dir, recover=True)
        with serve_background(server):
            pass
        assert incomplete_entries(load_records(journal_dir / JOURNAL_NAME)) == []
